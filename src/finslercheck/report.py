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

Both formats write the records from the run's columns (``suite.Records``), in
the bytes of each record written as a dict, with no Python float per value: a row is
its template's literal text with each field's NUL widened to ``_WIDTH`` NULs,
which one numpy kernel, ``_g17``, fills with the field's exact ``'%.17g'``
bytes; the NULs left over are deleted.  The kernel's digits rest on IEEE double
arithmetic alone, save for the few entries that it leaves to ``format``.  A
non-finite number is named by its place: ``records[3].G``.
"""

from __future__ import annotations

import io
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, ReportIOError
from .suite import CHECK_COLUMNS, Records, SuiteReport

__all__ = ["emit_report", "emit_json", "render_json", "render_csv"]

BASE_COLUMNS = ("index", "n", "t", "s", "r", "pairing_re", "pairing_im", "G")

_FIELD = "\0"       # a field's place in a row template
_WIDTH = 24         # bytes of the longest '%.17g' text, '-2.2250738585072014e-308'
_BLOCK = 8192       # fields per kernel call, which bounds its temporaries
_Q0 = -15           # the least q of the table of 10^q


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


@cache
def _tables():
    """The kernel's tables, built on first use: 10^q for q in [_Q0, _Q0 + 63] as double-double
    with the Veltkamp halves of its high part, the bytes of each 4-digit group, each group's
    trailing zeros (4 for 0000), the bytes of 'e-31'..'e+31' then four NULs, and the layouts."""
    hi, lo = np.array([_ten(q) for q in range(_Q0, _Q0 + 64)]).T
    d = np.arange(100)                          # a group is two of these pairs
    pairs = (np.stack([d // 10, d % 10], axis=1) + ord("0")).astype(np.uint8)
    groups = np.concatenate(np.broadcast_arrays(pairs[:, None], pairs[None, :]), axis=2)
    tz = (d % 10 == 0).astype(np.uint8) + (d == 0)
    zeros = np.where(d == 0, tz[:, None] + 2, tz).ravel()
    exps = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-31, 32)) + bytes(4), np.uint32)
    return (hi, lo, *_split(hi)), groups.view(np.uint32).ravel(), zeros, exps, _layouts()


def _ten(q):
    """10^q as a double-double (hi, lo), exactly: a ratio of ints divides correctly rounded."""
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _layouts():
    """Per case (kind * 17 + digits kept - 1): the masks of the three digit sources and the
    constant bytes of a field.  Kind 0..20 is fixed notation with exponent kind - 4, 21
    exponent notation and 22 zero; the sign goes in byte 0 and the exponent in bytes 20..23.
    Source A puts digit j - 1 in byte j, B digit j - 2 and C digit j - 6."""
    lay = np.zeros((4, 23, 17, _WIDTH), np.uint8)
    for kind in range(23):
        for kept in range(1, 18):
            a, b, c, const = lay[:, kind, kept - 1]
            k = 0 if kind == 21 else kind - 4
            if kind == 22:
                const[1] = ord("0")
            elif k >= 0:                        # d.ddd or ddd.ddd: A then '.' then B
                a[1:k + 2] = 255
                if kept > k + 1:
                    const[k + 2] = ord(".")
                    b[k + 3:kept + 2] = 255
            else:                               # 0.000ddd: zeros in bytes 3..5 as needed, then C
                const[1:2 - k] = list(b"0." + b"0" * (-k - 1))
                c[6:6 + kept] = 255
    return lay.reshape(4, 23 * 17, _WIDTH)


def _split(x):
    """Veltkamp's split of ``x`` into two halves of 26 bits each, high part first."""
    c = x * 134217729.0
    high = c - (c - x)
    return high, x - high


def _scaled(a, k, tens):
    """a * 10^(16 - k) as s + low, s its nearest double: Dekker's exact product of ``a`` and
    the high part of the power, plus ``a`` times its low part."""
    hi, lo, hh, hl = (t.take(16 - _Q0 - k) for t in tens)
    ah, al = _split(a)
    p = a * hi
    low = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    s = p + low
    return s, low - (s - p)


def _outside(s, low):
    """Where s + low lies outside [1e16, 1e17)."""
    return (s < 1e16) | (s == 1e16) & (low < 0) | (s > 1e17) | (s == 1e17) & (low >= 0)


def _divmod(a, m):
    """np.divmod(a, m) of an int64 array, in half of its time."""
    q = a // m
    return q, a - q * m


def _g17(x):
    """The ``'%.17g'`` bytes of each entry of the finite float64 array ``x``, NUL-padded to
    ``_WIDTH``: one row per entry.

    It finds the exponent k of |x| and the 17 correctly rounded digits of |x| 10^(16 - k) by
    Dekker's exact product with a double-double table of 10^q; k moves by one where the product
    leaves [1e16, 1e17), and once more on a carry to 1e17.  The bytes follow C's ``%g``: fixed
    notation for -4 <= k < 17, else d.ddde±XX, trailing zeros and a bare point removed, the sign
    from ``signbit``.  The digits rest on IEEE double arithmetic alone, save for two kinds of
    entry that ``format`` writes one at a time: |x| outside [1e-30, 1e30), and a rounding
    residue within 1e-9 of a half, where a tie must be resolved exactly.  The index and n
    cells, integers below 1e17, have the same text as ``%d``.
    """
    d, k, slow = _digits(x)
    zero = x == 0
    kind = np.where(zero | slow, 22, np.where((k >= -4) & (k < 17), k + 4, 21))
    _, _, _, exps, lay = _tables()
    src, tz = _groups(d)
    case = kind * 17 + 16 - tz
    n = len(x)
    out = src[10:10 + _WIDTH * n] & lay[0].take(case, axis=0).ravel()
    out |= src[9:9 + _WIDTH * n] & lay[1].take(case, axis=0).ravel()
    out |= src[5:5 + _WIDTH * n] & lay[2].take(case, axis=0).ravel()
    out |= lay[3].take(case, axis=0).ravel()
    out = out.reshape(n, _WIDTH)
    out[:, 0] = np.signbit(x) * ord("-")
    out.view(np.uint32)[:, 5] |= exps.take(np.where(kind == 21, k + 31, 63))
    if slow.any():
        rows = np.flatnonzero(slow)
        text = b"".join(format(v, ".17g").encode().ljust(_WIDTH, b"\0") for v in x[rows].tolist())
        out[rows] = np.frombuffer(text, np.uint8).reshape(-1, _WIDTH)
    return out


def _digits(x):
    """(D, k, slow): the 17 digits and the exponent of each nonzero entry of ``x`` in the fast
    range, and where ``format`` must write the entry instead."""
    tens = _tables()[0]
    a = np.abs(x)
    fast = (a >= 1e-30) & (a < 1e30)
    slow = ~fast & (a != 0)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    s, low = _scaled(a, k, tens)
    off = np.flatnonzero(_outside(s, low))
    if off.size:                                # k one off beside a power of ten
        k[off] += np.where(s[off] <= 1e16, -1, 1)
        s[off], low[off] = _scaled(a[off], k[off], tens)
        slow[off] |= _outside(s[off], low[off])
    r = np.floor(low)
    low -= r
    slow |= np.abs(low - 0.5) < 1e-9
    d = s.astype(np.int64) + r.astype(np.int64) + (low > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    return d, k + carry, slow


def _groups(d):
    """The digit bytes of each D, at byte 11 + 24 i of a NUL-padded buffer for entry i, and the
    count of its trailing zeros."""
    _, groups, zeros, _, _ = _tables()
    top, g34 = _divmod(d, 10 ** 8)              # d = d0 g1 g2 g3 g4: a digit, four groups
    g01, g2 = _divmod(top, 10 ** 4)
    d0, g1 = _divmod(g01, 10 ** 4)
    g3, g4 = _divmod(g34, 10 ** 4)
    n = len(d)
    src = np.zeros(6 * n + 4, np.uint32)
    for c, g in enumerate((d0, g1, g2, g3, g4)):
        src[2 + c:2 + 6 * n:6] = groups.take(g)
    tz = zeros.take(g4) + (g4 == 0) * (zeros.take(g3) + (g3 == 0) * (
        zeros.take(g2) + (g2 == 0) * zeros.take(g1)))
    return src.view(np.uint8), tz


def _nested(shape):
    return _FIELD if not shape else "[" + ",".join([_nested(shape[1:])] * shape[0]) + "]"


def _json_template(records, mask):
    """The text of a record holding the entries ``mask`` marks, a NUL for each field, and the
    fields' columns."""
    parts, cols = [], []
    for key, col, shape in sorted(records.layout()):
        if mask[col]:
            parts.append(json.dumps(key) + ":" + _nested(shape))
            cols += range(col, col + math.prod(shape))
    return "{" + ",".join(parts) + "}", cols


def _rows_text(records, template, sep):
    """The rows of ``records`` joined by ``sep``, about ``_BLOCK`` fields per kernel call."""
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
    bounds, chunks, plans = [0, *starts.tolist(), len(values)], [], {}
    for a, b in zip(bounds, bounds[1:]):
        pattern = present[a].tobytes()
        if pattern not in plans:
            text, cols = template(present[a])
            row = np.frombuffer((text + sep).replace(_FIELD, _FIELD * _WIDTH).encode(), np.uint8)
            plans[pattern] = row, np.flatnonzero(row == 0)[::_WIDTH], cols
        row, offsets, cols = plans[pattern]
        step = max(1, _BLOCK // len(cols))
        for i in range(a, b, step):
            fields = _g17(values[i:min(i + step, b), cols].ravel()).reshape(-1, len(cols), _WIDTH)
            buf = np.empty((len(fields), len(row)), np.uint8)
            buf[:] = row
            for j, offset in enumerate(offsets.tolist()):
                buf[:, offset:offset + _WIDTH] = fields[:, j]
            chunks.append(buf.tobytes().translate(None, b"\0").decode("ascii"))
    chunks[-1] = chunks[-1][:len(chunks[-1]) - len(sep)]
    return "".join(chunks)


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
    """The text of a CSV row holding the entries ``mask`` marks, a NUL for each field, and the
    fields' columns; an absent entry's cell is empty."""
    start = {key: col for key, col, _ in records.layout()}
    cols = [start[key] for key in ("index", "n", "t", "s", "r", "pairing")]
    cols += [start["pairing"] + 1, start["G"]] + [start[CHECK_COLUMNS[c]] for c in checks]
    return ",".join(_FIELD if mask[col] else "" for col in cols) + "\n", [c for c in cols if mask[c]]


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
