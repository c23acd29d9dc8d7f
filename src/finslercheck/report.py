"""Machine-readable report emission (JSON and CSV).

All floating-point numbers are serialized with 17 significant digits, which
round-trips IEEE-754 doubles exactly: re-parsing a JSON report reproduces every
aggregate bit-for-bit.  Dictionary keys are emitted sorted, so identical
reports serialize to identical bytes.

CSV layout: one row per sample with the 8 base columns

    index, n, t, s, r, pairing_re, pairing_im, G

followed by one column per selected check (its primary per-sample value, see
``suite.CHECK_COLUMNS``).  Aggregates, criteria and verdicts follow in a
trailing '#'-comment block.

Both formats write the records from the run's columns (``suite.Records``), the
rows of a run that hold the same fields in one ``%`` call, in the bytes the
record dicts give.  A non-finite number is named by its place: ``records[3].G``.
"""

from __future__ import annotations

import io
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, ReportIOError
from .suite import CHECK_COLUMNS, Records, SuiteReport

__all__ = ["emit_report", "emit_json", "render_json", "render_csv"]

BASE_COLUMNS = ("index", "n", "t", "s", "r", "pairing_re", "pairing_im", "G")


class _NonFinite(ReportIOError):
    """A non-finite number ``x`` at ``where``; each enclosing key or index goes in front."""

    def __init__(self, x, where=""):
        self.x, self.where = x, where
        super().__init__(f"non-finite number {x!r} in report" + (f" at {where}" if where else ""))

    def inside(self, step):
        dot = "." if self.where and not self.where.startswith("[") else ""
        return _NonFinite(self.x, step + dot + self.where)


def _fmt(x: float, *path) -> str:
    if not math.isfinite(x):
        raise _NonFinite(x, ".".join(path))
    return format(float(x), ".17g")


def _nested(shape, leaf):
    return leaf if not shape else "[" + ",".join([_nested(shape[1:], leaf)] * shape[0]) + "]"


def _json_template(records, mask):
    """The ``%`` template of a record holding the entries ``mask`` marks, and their columns."""
    parts, cols = [], []
    for key, col, shape in sorted(records.layout()):
        if mask[col]:
            leaf = "%d" if key in ("index", "n") else "%.17g"
            parts.append(json.dumps(key).replace("%", "%%") + ":" + _nested(shape, leaf))
            cols += range(col, col + math.prod(shape))
    return "{" + ",".join(parts) + "}", cols


def _rows_text(records, template, sep):
    """The rows of ``records`` joined by ``sep``, each run of rows of one template in one call."""
    values, present = records.values, records.present
    if not len(values):
        return ""
    order = template(np.ones(values.shape[1], dtype=bool))[1]
    bad = np.argwhere(present[:, order] & ~np.isfinite(values[:, order]))
    if len(bad):
        k, col = bad[0][0], order[bad[0][1]]
        key, start, shape = max((e for e in records.layout() if e[1] <= col), key=lambda e: e[1])
        where = "".join(f"[{i}]" for i in np.unravel_index(col - start, shape))
        raise _NonFinite(float(values[k, col]), f"[{k}].{key}{where}")
    starts = np.flatnonzero(np.any(present[1:] != present[:-1], axis=1)) + 1
    bounds, texts, templates = [0, *starts.tolist(), len(values)], [], {}
    for a, b in zip(bounds, bounds[1:]):
        pattern = present[a].tobytes()
        text, cols = templates[pattern] = templates.get(pattern) or template(present[a])
        texts.append(sep.join([text] * (b - a)) % tuple(values[a:b, cols].ravel().tolist()))
    return sep.join(texts)


def _write_json(obj, out: list):
    """Append the JSON text of ``obj`` to ``out``."""
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
        out.append(_fmt(obj))
    elif isinstance(obj, Records):
        out.append("[" + _rows_text(obj, partial(_json_template, obj), ",") + "]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            out.append(("," if i else "") + json.dumps(str(key)) + ":")
            try:
                _write_json(obj[key], out)
            except _NonFinite as exc:
                raise exc.inside(str(key)) from None
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            try:
                _write_json(item, out)
            except _NonFinite as exc:
                raise exc.inside(f"[{i}]") from None
        out.append("]")
    else:
        raise ReportIOError(f"cannot serialize {type(obj).__name__} in report")


def _json_text(obj) -> str:
    out = []
    _write_json(obj, out)
    out.append("\n")
    return "".join(out)


def render_json(report: SuiteReport) -> str:
    return _json_text(vars(report))


def _csv_template(records, checks, mask):
    """The ``%`` template of a CSV row holding the entries ``mask`` marks, and their columns."""
    start = {key: col for key, col, _ in records.layout()}
    cols = [start[key] for key in ("index", "n", "t", "s", "r", "pairing")]
    cols += [start["pairing"] + 1, start["G"]] + [start[CHECK_COLUMNS[c]] for c in checks]
    cells = ["%d", "%d"] + ["%.17g" if mask[col] else "" for col in cols[2:]]
    return ",".join(cells) + "\n", [col for col in cols if mask[col]]


def render_csv(report: SuiteReport) -> str:
    checks = report.config["checks"]
    buf = io.StringIO()
    buf.write(",".join(list(BASE_COLUMNS) + [CHECK_COLUMNS[c] for c in checks]) + "\n")
    try:
        buf.write(_rows_text(report.records, partial(_csv_template, report.records, checks), ""))
    except _NonFinite as exc:
        raise exc.inside("records") from None
    for name in sorted(report.aggregates):
        agg = report.aggregates[name]
        buf.write(f"# aggregate,{name},max={_fmt(agg['max'], 'aggregates', name, 'max')},"
                  f"mean={_fmt(agg['mean'], 'aggregates', name, 'mean')},"
                  f"stddev={_fmt(agg['stddev'], 'aggregates', name, 'stddev')}\n")
    for name, crit in report.criteria.items():
        if crit["passed"] is None:
            continue
        buf.write(f"# criterion,{name},passed={'true' if crit['passed'] else 'false'}\n")
    for key in sorted(report.verdicts):
        verdict = report.verdicts[key]
        buf.write(f"# verdict,{key},{verdict.get('verdict', '?')}\n")
    for rej in report.rejections:
        buf.write(f"# rejection,{rej['index']},{rej['reason']}\n")
    buf.write(f"# passed,{'true' if report.passed else 'false'}\n")
    return buf.getvalue()


def emit_report(report: SuiteReport, format: str = "json", destination=None) -> None:
    """Serialize ``report`` to ``destination`` (path, file-like, or stdout)."""
    if format == "json":
        text = render_json(report)
    elif format == "csv":
        text = render_csv(report)
    else:
        raise ConfigError(f"unknown report format {format!r}; use 'json' or 'csv'")
    _write_text(text, destination)


def emit_json(obj, destination=None) -> None:
    """Serialize a plain JSON-able object (e.g. a combined report) like ``emit_report``."""
    _write_text(_json_text(obj), destination)


def _write_text(text: str, destination) -> None:
    try:
        if destination is None:
            sys.stdout.write(text)
        elif hasattr(destination, "write"):
            destination.write(text)
        else:
            Path(destination).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ReportIOError(f"failed to write report: {exc}") from exc
