"""Suite execution and report serialization."""

import json
import math
from collections import OrderedDict

import numpy as np
import pytest

import finslercheck as fc
from finslercheck import report
from finslercheck.errors import ConfigError, ReportIOError
from finslercheck.report import render_csv, render_json
from finslercheck.suite import (CHECK_COLUMNS, CHECK_NAMES, TOLERANCES, SuiteConfig,
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


def _reference_json(obj, out):
    """The JSON writer as it was before its exact-type fast paths, frozen."""
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
            raise ReportIOError(f"non-finite number {obj!r} in report")
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _reference_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _reference_json(item, out)
        out.append("]")
    else:
        raise ReportIOError(f"cannot serialize {type(obj).__name__} in report")


class TestJsonWriter:
    def test_same_bytes_as_the_reference(self, flat_report):
        odd = {"np": [np.float64(0.1), (1.5, -0.0)], "b": [True, False, None],
               "int keys": {3: 1e-300, 12: {"é\"q": "s\n"}}, "n": OrderedDict(b=1, a=2.5)}
        for obj in (vars(flat_report), odd, [], {}, 0.1, "x"):
            expected = []
            _reference_json(obj, expected)
            assert report._json_text(obj) == "".join(expected) + "\n"

    @pytest.mark.parametrize("bad", [float("nan"), np.float64("inf"), -math.inf, np.bool_(True),
                                     np.int64(3), {1, 2}, b"x"])
    def test_same_errors_as_the_reference(self, bad):
        with pytest.raises(ReportIOError) as expected:
            _reference_json({"a": [bad]}, [])
        with pytest.raises(ReportIOError) as got:
            report._json_text({"a": [bad]})
        assert str(got.value) == str(expected.value)
