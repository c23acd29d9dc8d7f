"""Catalog of 1-D coefficient functions f(t) with closed-form derivatives.

Members: constant c, linear c*t, power c*t^p, exponential c*e^(a t), rational
t/(a + b t^2), finite sums, scalar multiples, and the two derived combinations

    wk-g:  (t f' - f) / (2 t)        wk-h:  (t f' + f) / (2 t)

used by the weakly-Kahler Randers construction.  Catalog members expose
derivatives up to order 4 (the derived pair consumes one order building its
own), so order-3 jets of every profile family stay fully analytic.

Positivity is a role requirement, not a construction invariant: the same type
carries the strictly positive f of a Hermitian or Randers profile and the
signed coefficient g, so profile constructors probe the sign properties they
actually need.

``derivs`` and ``contains`` take a float t or a numpy array of them (the
finite-difference oracles evaluate a whole stencil at once); each member has
one formula for both.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidCatalogEntry

__all__ = [
    "ScalarFunction1D",
    "Constant", "Linear", "Power", "Exponential", "Rational",
    "SumFn", "Scaled", "WkG", "WkH",
    "function_from_descriptor", "probe_positive",
]

_INF = math.inf


def _finite(*xs) -> bool:
    try:
        return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)
    except OverflowError:       # an int beyond float range
        return False


# exp and pow of an array go through libm entry by entry: numpy's vectorised
# versions differ from it in the last ulp on a few percent of inputs, and an
# array result must carry the same bits as the scalar one at each point

def _exp(t):
    if isinstance(t, np.ndarray):
        return np.array([math.exp(x) for x in t.ravel().tolist()]).reshape(t.shape)
    return math.exp(t)


def _array_pow(x, p):
    return np.array([v ** p for v in x.ravel().tolist()]).reshape(x.shape)


def _pow_for(t):
    """The ``**`` to use with t: the builtin for floats, entry by entry for arrays."""
    return _array_pow if isinstance(t, np.ndarray) else pow


class ScalarFunction1D:
    """A function of t >= 0 with evaluators for f and its first derivatives.

    ``derivs(t, order)`` returns the tuple (f, f', ..., f^(order)), each entry
    a float or an array shaped like t (constant entries may stay floats).  The
    open interval ``t_interval`` (optionally closed at the left end) is where
    the evaluators are defined and finite.
    """

    max_order = 4
    t_interval = (0.0, _INF)
    closed_lo = False

    def derivs(self, t: float, order: int):
        raise NotImplementedError

    def value(self, t: float) -> float:
        return self.derivs(t, 0)[0]

    def contains(self, t):
        """t lies in the interval: a bool, or a boolean mask for an array t."""
        lo, hi = self.t_interval
        above = lo <= t if self.closed_lo else lo < t
        return above & (t < hi)

    def descriptor(self) -> dict:
        raise NotImplementedError

    def _check_order(self, order: int):
        if order > self.max_order:
            raise InvalidCatalogEntry(
                f"{type(self).__name__} provides derivatives up to order {self.max_order}, "
                f"order {order} requested")


class Constant(ScalarFunction1D):
    closed_lo = True

    def __init__(self, c: float):
        if not _finite(c):
            raise InvalidCatalogEntry("constant: c must be finite")
        self.c = float(c)

    def derivs(self, t, order):
        self._check_order(order)
        return (self.c,) + (0.0,) * order

    def descriptor(self):
        return {"kind": "constant", "c": self.c}


class Linear(ScalarFunction1D):
    """c * t."""

    closed_lo = True

    def __init__(self, c: float):
        if not _finite(c):
            raise InvalidCatalogEntry("linear: c must be finite")
        self.c = float(c)

    def derivs(self, t, order):
        self._check_order(order)
        out = (self.c * t, self.c, 0.0, 0.0, 0.0)
        return out[: order + 1]

    def descriptor(self):
        return {"kind": "linear", "c": self.c}


class Power(ScalarFunction1D):
    """c * t^p, on t > 0."""

    def __init__(self, c: float, p: float):
        if not _finite(c, p):
            raise InvalidCatalogEntry("power: c, p must be finite")
        self.c = float(c)
        self.p = float(p)

    def derivs(self, t, order):
        self._check_order(order)
        pw = _pow_for(t)
        out = []
        coeff = self.c
        for k in range(order + 1):
            out.append(coeff * pw(t, self.p - k))
            coeff *= (self.p - k)
        return tuple(out)

    def descriptor(self):
        return {"kind": "power", "c": self.c, "p": self.p}


class Exponential(ScalarFunction1D):
    """c * exp(a t)."""

    closed_lo = True

    def __init__(self, c: float, a: float = 1.0):
        if not _finite(c, a):
            raise InvalidCatalogEntry("exp: c, a must be finite")
        self.c = float(c)
        self.a = float(a)

    def derivs(self, t, order):
        self._check_order(order)
        e = self.c * _exp(self.a * t)
        return tuple(e * self.a ** k for k in range(order + 1))

    def descriptor(self):
        return {"kind": "exp", "c": self.c, "a": self.a}


class Rational(ScalarFunction1D):
    """t / (a + b t^2); requires a > 0, defined where the denominator is positive."""

    def __init__(self, a: float, b: float):
        if not _finite(a, b) or a <= 0.0:
            raise InvalidCatalogEntry("rational: requires finite parameters with a > 0")
        self.a = float(a)
        self.b = float(b)
        if b < 0.0:
            self.t_interval = (0.0, math.sqrt(a / -b))
        else:
            self.t_interval = (0.0, _INF)

    def derivs(self, t, order):
        self._check_order(order)
        a, b = self.a, self.b
        pw = _pow_for(t)
        D = a + b * t * t
        out = [t / D]
        if order >= 1:
            out.append((a - b * t * t) / pw(D, 2))
        if order >= 2:
            out.append(-2.0 * b * t * (3.0 * a - b * t * t) / pw(D, 3))
        if order >= 3:
            out.append(-6.0 * b * (a * a - 6.0 * a * b * t * t + pw(b * t * t, 2)) / pw(D, 4))
        if order >= 4:
            out.append(24.0 * b * b * t * (5.0 * a * a - 10.0 * a * b * t * t
                                           + pw(b * t * t, 2)) / pw(D, 5))
        return tuple(out)

    def descriptor(self):
        return {"kind": "rational", "a": self.a, "b": self.b}


class SumFn(ScalarFunction1D):
    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise InvalidCatalogEntry("sum: needs at least one part")
        self.parts = parts
        lo = max(p.t_interval[0] for p in parts)
        hi = min(p.t_interval[1] for p in parts)
        if lo >= hi:
            raise InvalidCatalogEntry("sum: parts have no common t-interval")
        self.t_interval = (lo, hi)
        # defined at t = lo only if every part is
        self.closed_lo = all(p.closed_lo or p.t_interval[0] < lo for p in parts)
        self.max_order = min(p.max_order for p in parts)

    def derivs(self, t, order):
        self._check_order(order)
        acc = [0.0] * (order + 1)
        for p in self.parts:
            for k, d in enumerate(p.derivs(t, order)):
                acc[k] += d
        return tuple(acc)

    def descriptor(self):
        return {"kind": "sum", "parts": [p.descriptor() for p in self.parts]}


class Scaled(ScalarFunction1D):
    def __init__(self, base: ScalarFunction1D, factor: float):
        if not _finite(factor):
            raise InvalidCatalogEntry("scaled: factor must be finite")
        self.base = base
        self.factor = float(factor)
        self.t_interval = base.t_interval
        self.closed_lo = base.closed_lo
        self.max_order = base.max_order

    def derivs(self, t, order):
        return tuple(self.factor * d for d in self.base.derivs(t, order))

    def descriptor(self):
        return {"kind": "scaled", "factor": self.factor, "base": self.base.descriptor()}


class _WkDerived(ScalarFunction1D):
    """Common machinery for (t f' -+ f) / (2 t)."""

    _sign = 0.0

    def __init__(self, base: ScalarFunction1D):
        self.base = base
        lo, hi = base.t_interval
        self.t_interval = (max(lo, 0.0), hi)
        self.closed_lo = False  # divides by t
        self.max_order = base.max_order - 1
        if self.max_order < 0:
            raise InvalidCatalogEntry("derived function: base provides too few derivatives")

    def derivs(self, t, order):
        self._check_order(order)
        return self.from_base(t, self.base.derivs(t, order + 1), order)

    def from_base(self, t, f, order):
        """The derivatives to ``order`` from the base's, f = (f, f', ..., f^(order + 1)) at t."""
        e = self._sign
        pw = _pow_for(t)
        out = [0.5 * f[1] + e * 0.5 * f[0] / t]
        if order >= 1:
            t2 = pw(t, 2)
            out.append(0.5 * f[2] + e * (0.5 * f[1] / t - 0.5 * f[0] / t2))
        if order >= 2:
            t3 = pw(t, 3)
            out.append(0.5 * f[3] + e * (0.5 * f[2] / t - f[1] / t2 + f[0] / t3))
        if order >= 3:
            out.append(0.5 * f[4] + e * (0.5 * f[3] / t - 1.5 * f[2] / t2
                                         + 3.0 * f[1] / t3 - 3.0 * f[0] / pw(t, 4)))
        return tuple(out)


class WkG(_WkDerived):
    """(t f'(t) - f(t)) / (2 t)."""

    _sign = -1.0

    def descriptor(self):
        return {"kind": "wk-g", "base": self.base.descriptor()}


class WkH(_WkDerived):
    """(t f'(t) + f(t)) / (2 t)."""

    _sign = 1.0

    def descriptor(self):
        return {"kind": "wk-h", "base": self.base.descriptor()}


_KINDS = {
    "constant": lambda d: Constant(d["c"]),
    "linear": lambda d: Linear(d["c"]),
    "power": lambda d: Power(d["c"], d["p"]),
    "exp": lambda d: Exponential(d["c"], d.get("a", 1.0)),
    "rational": lambda d: Rational(d["a"], d["b"]),
    "sum": lambda d: SumFn([function_from_descriptor(p) for p in d["parts"]]),
    "scaled": lambda d: Scaled(function_from_descriptor(d["base"]), d["factor"]),
    "wk-g": lambda d: WkG(function_from_descriptor(d["base"])),
    "wk-h": lambda d: WkH(function_from_descriptor(d["base"])),
}


def function_from_descriptor(desc: dict) -> ScalarFunction1D:
    """Rebuild a catalog function from its descriptor dict."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise InvalidCatalogEntry(f"malformed function descriptor: {desc!r}")
    kind = desc["kind"]
    if kind not in _KINDS:
        raise InvalidCatalogEntry(f"unknown function kind {kind!r}")
    try:
        return _KINDS[kind](desc)
    except (KeyError, TypeError) as exc:
        raise InvalidCatalogEntry(f"bad parameters for kind {kind!r}: {exc}") from exc


def probe_positive(fn: ScalarFunction1D, strict: bool = True, points: int = 9) -> bool:
    """Check f > 0 (or f >= 0 with some f > 0) on a probe grid of its interval."""
    lo, hi = fn.t_interval
    lo = max(lo, 1e-9)
    hi = min(hi, max(10.0, 4.0 * lo))
    if lo >= hi:
        return False
    ts = [lo + (hi - lo) * (k + 0.5) / points for k in range(points)]
    vals = [fn.value(t) for t in ts]
    if strict:
        return all(v > 0.0 for v in vals)
    return all(v >= 0.0 for v in vals) and any(v > 0.0 for v in vals)
