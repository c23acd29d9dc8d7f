"""Suite execution and report serialization."""

import json
import math
from collections import OrderedDict
from functools import partial

import numpy as np
import pytest

import finslercheck as fc
from finslercheck import report
from finslercheck.errors import ConfigError, ReportIOError
from finslercheck.report import render_csv, render_json
from finslercheck.suite import (CHECK_COLUMNS, CHECK_NAMES, TOLERANCES, Records, SuiteConfig,
                               SuiteReport, run_suite)


def small_config(profile_desc, checks, count=8, seed=42, **kw):
    return SuiteConfig(profile=profile_desc,
                       sample=fc.SampleSpec(n=2, count=count, seed=seed),
                       checks=checks, **kw)


@pytest.fixture(scope="module")
def flat_report():
    return run_suite(small_config({"family": "model", "k": 0, "c": 1.0}, CHECK_NAMES))


class TestRunSuite:
    def test_flat_model_passes_everything(self, flat_report):
        rep = flat_report
        assert rep.passed
        assert len(rep.records) == 8
        for name, crit in rep.criteria.items():
            if crit["passed"] is not None:
                assert crit["passed"], name
        # curvature records all vanish
        assert rep.aggregates["kf_closed"]["max"] < 1e-6
        assert rep.verdicts["classification"]["verdict"] == "weakly-kahler-not-kahler"

    def test_wk_exponential_verdict(self):
        rep = run_suite(small_config(
            {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0}},
            ("classify", "wk_phi", "wk_uw"), count=6))
        assert rep.passed  # wk residual criteria hold
        assert rep.verdicts["classification"]["verdict"] == "weakly-kahler-not-kahler"
        assert "weakly Kahler but not Kahler" in rep.verdicts["classification"]["message"]

    def test_hermitian_classifies_kahler(self):
        rep = run_suite(small_config(
            {"family": "hermitian", "f": {"kind": "rational", "a": 1.0, "b": 1.0}},
            ("classify",), count=6))
        assert rep.verdicts["classification"]["verdict"] == "kahler"

    def test_perturbed_profile_fails_wk_criteria(self):
        rep = run_suite(small_config(
            {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0},
             "h_scale": 1.1},
            ("wk_phi", "wk_uw", "lemma"), count=6))
        assert not rep.passed
        assert not rep.criteria["wk_phi"]["passed"]
        assert not rep.criteria["wk_uw"]["passed"]
        assert rep.criteria["lemma"]["passed"]  # universal identity still holds

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            small_config({"family": "model", "k": 0, "c": 1.0}, ("bogus",))

    def test_bad_profile_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(small_config({"family": "nope"}, ("lemma",)))

    def test_check_table_names_columns_and_tolerances(self):
        # one table in suite gives the three public views, in the report's column order
        assert list(CHECK_COLUMNS.items()) == [
            ("levi_oracle", "levi_oracle_dev"), ("determinant", "det_dev"),
            ("pseudoconvexity", "pseudoconvex_ok"), ("euler", "euler_dev"),
            ("nconn", "nconn_dev"), ("spray_compat", "spray_compat_dev"),
            ("wk_phi", "wk_phi_residual"), ("wk_uw", "wk_uw_residual"),
            ("lemma", "lemma_residual"), ("k2k3", "k2k3_residual"),
            ("curvature", "kf_closed"), ("unitary", "unitary_dev"),
            ("classify", "classify_weakly")]
        assert list(TOLERANCES.items()) == [
            ("levi_oracle", 1e-6), ("determinant", 1e-8), ("pseudoconvexity", 0.0),
            ("euler", 1e-8), ("nconn", 1e-6), ("spray_compat", 1e-6), ("wk_phi", 1e-8),
            ("wk_uw", 1e-8), ("lemma", 1e-8), ("k2k3", 1e-7), ("curvature", 1e-4),
            ("unitary", 1e-8), ("classify", 0.0)]
        assert CHECK_NAMES == tuple(CHECK_COLUMNS) == tuple(TOLERANCES)
        assert SuiteConfig.__dataclass_fields__["checks"].default == CHECK_NAMES

    def test_record_count_plus_rejections(self, flat_report):
        assert len(flat_report.records) + len(flat_report.rejections) == 8


class TestReports:
    def test_json_round_trip_exact(self, flat_report):
        text = render_json(flat_report)
        parsed = json.loads(text)
        assert parsed["aggregates"] == flat_report.aggregates
        assert parsed["passed"] is True
        assert parsed["schema_version"] == flat_report.schema_version

    def test_json_deterministic_bytes(self, flat_report):
        rep2 = run_suite(small_config({"family": "model", "k": 0, "c": 1.0}, CHECK_NAMES))
        assert render_json(flat_report) == render_json(rep2)

    def test_csv_column_count(self, flat_report):
        lines = render_csv(flat_report).splitlines()
        header = lines[0].split(",")
        assert len(header) == 8 + len(CHECK_NAMES)
        first = lines[1].split(",")
        assert len(first) == len(header)

    def test_csv_has_aggregate_block(self, flat_report):
        text = render_csv(flat_report)
        assert "# aggregate,kf_closed" in text
        assert "# passed,true" in text

    def test_empty_records_report_is_valid(self):
        rep = SuiteReport(schema_version="1", config={"checks": []}, records=[],
                          rejections=[{"index": 0, "reason": "all draws rejected"}],
                          aggregates={}, criteria={}, verdicts={}, passed=False)
        parsed = json.loads(render_json(rep))
        assert parsed["records"] == []
        assert parsed["rejections"][0]["reason"] == "all draws rejected"

    def test_emit_to_file(self, flat_report, tmp_path):
        dest = tmp_path / "report.json"
        fc.emit_report(flat_report, format="json", destination=dest)
        assert json.loads(dest.read_text())["passed"] is True

    def test_emit_bad_format(self, flat_report):
        with pytest.raises(ConfigError):
            fc.emit_report(flat_report, format="yaml")

    def test_emit_bad_path(self, flat_report, tmp_path):
        with pytest.raises(ReportIOError):
            fc.emit_report(flat_report, format="json",
                           destination=tmp_path / "missing" / "report.json")

    def test_float_serialization_17_digits(self, flat_report):
        text = render_json(flat_report)
        val = flat_report.aggregates["kf_closed"]["mean"]
        assert format(val, ".17g") in text


def _reference_json(obj, out, where=""):
    """The JSON writer as it was before its exact-type fast paths, frozen.

    A non-finite number is reported with its path, ``a.b[2]``, from ``where`` on.
    """
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ReportIOError(f"non-finite number {obj!r} in report"
                                + (f" at {where}" if where else ""))
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _reference_json(obj[key], out, f"{where}.{key}" if where else str(key))
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _reference_json(item, out, f"{where}[{i}]")
        out.append("]")
    else:
        raise ReportIOError(f"cannot serialize {type(obj).__name__} in report")


def record_dicts(records):
    """The record dicts of ``records``, each key read at its ``Records.layout()`` place:
    index and n as ints, arrays as nested lists, absent fields left out."""
    rows = []
    for row, mask in zip(records.values.tolist(), records.present.tolist()):
        rec = {}
        for key, col, shape in records.layout():
            if mask[col]:
                x = np.array(row[col:col + math.prod(shape)]).reshape(shape).tolist()
                rec[key] = int(x) if key in ("index", "n") else x
        rows.append(rec)
    return rows


class TestJsonWriter:
    def test_same_bytes_as_the_reference(self, flat_report):
        odd = {"np": [np.float64(0.1), (1.5, -0.0)], "b": [True, False, None],
               "int keys": {3: 1e-300, 12: {"é\"q": "s\n"}}, "n": OrderedDict(b=1, a=2.5)}
        as_dicts = dict(vars(flat_report), records=record_dicts(flat_report.records))
        for obj in (as_dicts, odd, [], {}, 0.1, "x"):
            expected = []
            _reference_json(obj, expected)
            assert report._json_text(obj) == "".join(expected) + "\n"
        assert render_json(flat_report) == report._json_text(as_dicts)

    @pytest.mark.parametrize("bad", [float("nan"), np.float64("inf"), -math.inf, np.bool_(True),
                                     np.int64(3), {1, 2}, b"x"])
    def test_same_errors_as_the_reference(self, bad):
        with pytest.raises(ReportIOError) as expected:
            _reference_json({"a": [bad]}, [])
        with pytest.raises(ReportIOError) as got:
            report._json_text({"a": [bad]})
        assert str(got.value) == str(expected.value)

    def test_non_finite_named_at_its_place(self):
        nested = {"b": {"x": [1.0, {"y": [0.5, math.inf]}]}, "a": 1.0}
        with pytest.raises(ReportIOError, match=r"^non-finite number inf in report at b\.x\[1\]"
                                                r"\.y\[1\]$"):
            report._json_text(nested)
        with pytest.raises(ReportIOError, match=r"^non-finite number nan in report$"):
            report._json_text(math.nan)


FIELDS = ("kf_closed", "kf_direct", "kf_dev_direct", "kf_wk", "kf_dev_wk")
ODD = [-0.0, 5e-324, 0.1, 1e16, 1e17, -2.5e-300, 1.7976931348623157e308]


def record_rows(n, count, seed):
    """Record dicts of the curvature check's layout, kf_wk and kf_dev_wk left out of some."""
    rng = np.random.default_rng(seed)
    pick = lambda: float(rng.choice(ODD)) if rng.random() < 0.3 else float(rng.normal())
    rows = []
    for k in range(count):
        rec = {"index": 3 * k + 1, "n": n, "t": pick(), "s": pick(), "r": pick(),
               "pairing": [pick(), pick()], "G": pick(),
               "z": [[pick(), pick()] for _ in range(n)], "v": [[pick(), pick()] for _ in range(n)]}
        rec.update((key, pick()) for key in FIELDS if key not in ("kf_wk", "kf_dev_wk")
                   or k % 5 not in (1, 2))
        rows.append(rec)
    return rows


def table_of(rows, n, fields=FIELDS):
    """The ``Records`` table of the record dicts ``rows``: a masked entry holds NaN."""
    width = 8 + 4 * n + len(fields)
    values = [[rec["index"], n, rec["t"], rec["s"], rec["r"], *rec["pairing"],
               *(x for pair in rec["z"] + rec["v"] for x in pair), rec["G"],
               *(rec.get(key, math.nan) for key in fields)] for rec in rows]
    present = [[True] * (8 + 4 * n) + [key in rec for key in fields] for rec in rows]
    return Records(n, fields, np.array(values, dtype=float).reshape(-1, width),
                   np.array(present, dtype=bool).reshape(-1, width))


def table_report(records, rejections=()):
    return SuiteReport(schema_version="1", config={"checks": ["curvature", "k2k3"]},
                       records=records, rejections=list(rejections),
                       aggregates={"kf_closed": {"count": 2, "max": 1e17, "mean": -0.0,
                                                 "stddev": 5e-324}},
                       criteria={"curvature": {"passed": True}}, verdicts={}, passed=True)


def reference_csv_rows(rows, columns):
    """The CSV record rows as the writer made them one value at a time, frozen."""
    out = []
    for rec in rows:
        row = [str(rec["index"]), str(rec["n"])] + [format(x, ".17g") for x in (
            rec["t"], rec["s"], rec["r"], rec["pairing"][0], rec["pairing"][1], rec["G"])]
        row += [format(rec[col], ".17g") if col in rec else "" for col in columns]
        out.append(",".join(row))
    return out


class TestRecordsTable:
    @pytest.mark.parametrize("n", [2, 8])
    def test_rendered_from_columns_as_from_dicts(self, n):
        rows = record_rows(n, 23, seed=n)
        table = table_of(rows, n)
        # the dicts come back as they went in, bit for bit and in key order
        assert len(table) == 23 and repr(record_dicts(table)) == repr(rows)
        rep = table_report(table, [{"index": 2, "reason": "x"}])
        expected = []
        _reference_json(dict(vars(rep), records=rows), expected)
        assert render_json(rep) == "".join(expected) + "\n"
        # the CSV writes kf_closed and k2k3_residual, which no row holds
        table = table_of(rows, n, FIELDS + ("k2k3_residual",))
        lines = render_csv(table_report(table)).splitlines()
        assert lines[1:24] == reference_csv_rows(rows, ["kf_closed", "k2k3_residual"])

    def test_no_records_only_rejections(self):
        rejections = [{"index": 0, "reason": "all draws rejected"}]
        rep = table_report(table_of([], 3, ()), rejections)
        expected = []
        _reference_json(dict(vars(rep), records=[]), expected)
        assert render_json(rep) == "".join(expected) + "\n"
        lines = render_csv(rep).splitlines()
        assert lines[0] == ",".join(report.BASE_COLUMNS + ("kf_closed", "k2k3_residual"))
        assert lines[1].startswith("# aggregate,kf_closed,")
        assert "# rejection,0,all draws rejected" in lines

    def test_non_finite_record_value_named(self):
        # columns at n = 2: t 2, z[1][0] 9, G 15, kf_direct 17, kf_wk 19
        rows = record_rows(2, 6, seed=1)
        table = table_of(rows, 2, FIELDS + ("k2k3_residual",))
        rep = table_report(table)
        table.values[1, 19] = math.inf        # masked: rows 1 and 2 hold no kf_wk
        assert not table.present[1, 19]
        assert render_json(rep) == render_json(table_report(table_of(rows, 2, table.fields)))
        table.values[3, 9] = math.nan
        for render, where in ((render_json, r"records\[3\]\.z\[1\]\[0\]"),
                              (render_csv, None)):
            if where:
                with pytest.raises(ReportIOError, match=rf"^non-finite number nan in report "
                                                        rf"at {where}$"):
                    render(rep)
            else:                             # the CSV writes no z
                render(rep)
        # the first in document order: a record's keys are sorted in JSON, not in CSV
        table.values[4, 2] = -math.inf
        table.values[4, 15] = math.inf
        table.values[2, 17] = math.nan
        for render, where in ((render_json, r"nan in report at records\[2\]\.kf_direct"),
                              (render_csv, r"inf in report at records\[4\]\.t")):
            with pytest.raises(ReportIOError, match=rf"^non-finite number -?{where}$"):
                render(rep)
        table.values[:, [2, 9, 15, 17]] = 0.5
        rep.aggregates["kf_closed"]["mean"] = math.inf
        for render in (render_json, render_csv):
            with pytest.raises(ReportIOError, match=r"^non-finite number inf in report "
                                                    r"at aggregates\.kf_closed\.mean$"):
                render(rep)


def percent_rows(records, template, sep):
    """The record rows as the writer made them before its 17-digit kernel, frozen: each run of
    rows that hold the same fields in one ``%`` call of its template."""
    values, present = records.values, records.present
    starts = np.flatnonzero(np.any(present[1:] != present[:-1], axis=1)) + 1
    bounds, texts = [0, *starts.tolist(), len(values)], []
    for a, b in zip(bounds, bounds[1:]):
        text, cols = template(present[a])
        texts.append(sep.join([text] * (b - a)) % tuple(values[a:b, cols].ravel().tolist()))
    return sep.join(texts)


def percent_json(records):
    def nested(shape, leaf):
        return leaf if not shape else "[" + ",".join([nested(shape[1:], leaf)] * shape[0]) + "]"

    def template(mask):
        parts, cols = [], []
        for key, col, shape in sorted(records.layout()):
            if mask[col]:
                leaf = "%d" if key in ("index", "n") else "%.17g"
                parts.append(json.dumps(key) + ":" + nested(shape, leaf))
                cols += range(col, col + math.prod(shape))
        return "{" + ",".join(parts) + "}", cols
    return percent_rows(records, template, ",")


def percent_csv(records, checks):
    def template(mask):
        start = {key: col for key, col, _ in records.layout()}
        cols = [start[key] for key in ("index", "n", "t", "s", "r", "pairing")]
        cols += [start["pairing"] + 1, start["G"]] + [start[CHECK_COLUMNS[c]] for c in checks]
        cells = ["%d", "%d"] + ["%.17g" if mask[col] else "" for col in cols[2:]]
        return ",".join(cells) + "\n", [col for col in cols if mask[col]]
    return percent_rows(records, template, "")


class TestRowsAsThePercentWriter:
    """Records with mixed presence patterns: the kernel's rows equal the frozen ``%`` rows."""

    @staticmethod
    def assert_same_rows(rep):
        rows, checks = rep.records, rep.config["checks"]
        expected = []
        _reference_json(dict(vars(rep), records=record_dicts(rows)), expected)
        assert render_json(rep) == "".join(expected) + "\n"
        assert report._rows_text(rows, partial(report._json_template, rows), ",") == \
            percent_json(rows)
        assert report._rows_text(rows, partial(report._csv_template, rows, checks), "") == \
            percent_csv(rows, checks)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_odd_values_with_masked_kf_wk(self, n):
        rows = record_rows(n, 60, seed=10 + n)
        table = table_of(rows, n, FIELDS + ("k2k3_residual",))
        assert len({bytes(p) for p in table.present}) == 2
        self.assert_same_rows(table_report(table))

    def test_curvature_run_with_and_without_kf_wk(self):
        profile = {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0},
                   "h_scale": 1.0000001}
        rep = run_suite(small_config(profile, ("curvature",), count=60, seed=7))
        present = rep.records.present
        assert np.count_nonzero(np.any(present[1:] != present[:-1], axis=1)) >= 5
        self.assert_same_rows(rep)


class TestSuiteRecords:
    @pytest.mark.parametrize("profile", [
        {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0}},
        {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0}, "h_scale": 1.1}],
        ids=["wk-exp", "perturbed"])
    @pytest.mark.parametrize("check", CHECK_NAMES)
    def test_aggregate_keys_are_the_float_fields_of_the_records(self, check, profile):
        rep = run_suite(small_config(profile, (check,), count=3))
        rows = record_dicts(rep.records)
        fields = {key for rec in rows for key in rec
                  if isinstance(rec[key], float) and key not in ("t", "s", "r", "G")}
        assert set(rep.aggregates) == fields
        assert ("kf_wk" in fields) is (check == "curvature" and "h_scale" not in profile)
        for name, agg in rep.aggregates.items():
            vals = np.asarray([rec[name] for rec in rows if name in rec])
            assert agg["count"] == vals.size and agg["max"] == np.max(vals)
            assert agg["mean"] == np.mean(vals) and agg["stddev"] == np.std(vals, ddof=1)
