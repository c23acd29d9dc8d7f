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
"""

from __future__ import annotations

import io
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, ReportIOError
from .suite import CHECK_COLUMNS, SuiteReport

__all__ = ["emit_report", "emit_json", "render_json", "render_csv"]

BASE_COLUMNS = ("index", "n", "t", "s", "r", "pairing_re", "pairing_im", "G")


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ReportIOError(f"non-finite number {x!r} in report")
    return format(float(x), ".17g")


def _write_json(obj, out: list, keys: dict):
    """Append the JSON text of ``obj`` to ``out``; ``keys`` caches each encoded dict key."""
    # exact types first: most of a report is floats, dicts and lists
    kind = type(obj)
    if kind is float:
        out.append(_fmt(obj))
    elif kind is dict:
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            name = str(key)
            text = keys.get(name)
            if text is None:
                text = keys[name] = json.dumps(name) + ":"
            out.append(text)
            _write_json(obj[key], out, keys)
        out.append("}")
    elif kind is list:
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_json(item, out, keys)
        out.append("]")
    elif obj is None:
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
    elif isinstance(obj, dict):
        _write_json(dict(obj), out, keys)
    elif isinstance(obj, (list, tuple)):
        _write_json(list(obj), out, keys)
    else:
        raise ReportIOError(f"cannot serialize {type(obj).__name__} in report")


def _json_text(obj) -> str:
    out = []
    _write_json(obj, out, {})
    out.append("\n")
    return "".join(out)


def render_json(report: SuiteReport) -> str:
    return _json_text(vars(report))


def render_csv(report: SuiteReport) -> str:
    checks = report.config["checks"]
    columns = list(BASE_COLUMNS) + [CHECK_COLUMNS[c] for c in checks]
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for rec in report.records:
        row = [str(rec["index"]), str(rec["n"]), _fmt(rec["t"]), _fmt(rec["s"]),
               _fmt(rec["r"]), _fmt(rec["pairing"][0]), _fmt(rec["pairing"][1]),
               _fmt(rec["G"])]
        for c in checks:
            col = CHECK_COLUMNS[c]
            row.append(_fmt(rec[col]) if col in rec else "")
        buf.write(",".join(row) + "\n")
    for name in sorted(report.aggregates):
        agg = report.aggregates[name]
        buf.write(f"# aggregate,{name},max={_fmt(agg['max'])},mean={_fmt(agg['mean'])},"
                  f"stddev={_fmt(agg['stddev'])}\n")
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
