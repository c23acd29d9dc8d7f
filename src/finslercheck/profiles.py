"""Metric profiles phi(t, s) with analytic partial derivatives to total order 3.

A unitary-invariant metric on a domain of C^n is determined by a single scalar
profile through F = sqrt(r * phi(t, s)) with r = |v|^2, t = |z|^2 and
s = |<z,v>|^2 / r.  This module builds the profile families

    hermitian       phi = f(t) + f'(t) s
    randers         phi = (sqrt(f + g s) + sqrt(h s))^2
    wk-randers      the randers family with g = (t f' - f)/(2t), h = (t f' + f)/(2t)
    model           the three constant-curvature members (k = +4, 0, -4)

and evaluates their full order-3 jets via exact Taylor arithmetic on the 1-D
catalog derivatives.

Randers-type profiles are not smooth where <z,v> = 0, so their validity region
keeps s >= 1e-6 * t away from that locus; Hermitian profiles carry no such
restriction.  Validity has two layers: ``smooth_at`` (the jet is evaluable) and
``is_valid`` (additionally the metric-positivity requirements, e.g.
f + t f' > 0 for Hermitian profiles).  Pseudo-convexity diagnostics evaluate on
the smooth region so they can report *why* a point fails validity.

Each family writes its guard once (see ``MetricProfile``), and all five
profile methods use it, fetch each 1-D derivative once per call (wk-randers
derives g and h from f's) and take a point or arrays of (t, s).  The guards
take one path for both, a point being 0-d: over arrays, one point outside the
region, or whose derivatives leave float range, rejects an evaluation with the
DomainViolation of that point alone.  ``value`` has no ``Jet2``: the FD
oracles' field shares no code with the chain rule.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainViolation, InvalidCatalogEntry, InvalidCurvatureTag
from .functions1d import (
    Linear,
    Rational,
    ScalarFunction1D,
    Scaled,
    WkG,
    WkH,
    _finite,
    function_from_descriptor,
    probe_positive,
)
from .jets import INDICES, NCOEF, Jet2

__all__ = [
    "MetricProfile",
    "hermitian_profile",
    "randers_profile",
    "wk_randers_profile",
    "model_profile",
    "euclidean_profile",
    "profile_from_descriptor",
    "S_MIN_FRACTION",
]

# Randers non-smoothness guard: validity requires s >= S_MIN_FRACTION * t
S_MIN_FRACTION = 1e-6
# slack for s <= t against rounding in s = |<z,v>|^2 / r
_S_LE_T_SLACK = 1e-9


def _first(fails, *values):
    """``values`` as Python floats at the first point where the mask ``fails`` holds."""
    fails, *values = np.broadcast_arrays(fails, *values)
    return tuple(float(x.flat[np.argmax(fails)]) for x in values)


def _check_jet_entries(entries):
    """Guards on phi's partials, phi first, at a point or at every column.

    Every entry must be finite and phi positive; otherwise DomainViolation, naming
    the first column where phi is not.
    """
    if not all(np.all(np.isfinite(x)) for x in entries):
        raise DomainViolation("non-finite jet entry")
    phi = entries[0]
    if np.any(phi <= 0.0):
        raise DomainViolation(f"phi must be positive, got {_first(phi <= 0.0, phi)[0]}")


def _s_in_bounds(t, s, s_min):
    return (s >= s_min) & (s <= t * (1.0 + _S_LE_T_SLACK) + 1e-300)


def _require(t, s, mask, region):
    """DomainViolation naming the first (t, s) where the guard ``mask`` fails, if it does."""
    if not np.all(mask):
        t, s = _first(np.logical_not(mask), t, s)
        raise DomainViolation(f"(t, s) = ({t}, {s}) outside {region}")


def _jet_order(order):
    """``order`` if a Jet2 has it, else ValueError naming the orders it has."""
    if order not in NCOEF or isinstance(order, float):
        raise ValueError(f"jet order must be 1, 2 or 3, got {order!r}")
    return order


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


class MetricProfile:
    """A profile phi(t, s) on the region of one domain guard.

    A family gives its guard in two parts and phi in two forms, each a function
    of a point or of arrays of (t, s):

        in_bounds(t, s)        where the 1-D derivatives may be fetched
        fetch(t, order)        the 1-D derivatives an order-``order`` jet reads
        positive(t, s, d)      (smooth, valid) masks over the fetched derivatives d
        value(t, s, d)         phi, a plain formula (the FD oracles' field)
        jet(t, s, d, order)    phi's Taylor jet

    ``name`` names the region in DomainViolation messages.
    """

    def __init__(self, descriptor, t_interval, name, in_bounds, fetch, positive, value, jet):
        self.descriptor = descriptor
        self.t_interval = t_interval
        self._name = name
        self._in_bounds = in_bounds
        self._fetch = fetch
        self._positive = positive
        self._value = value
        self._jet = jet

    @property
    def family(self) -> str:
        return self.descriptor["family"]

    def _guarded(self, t, s, order, region="validity"):
        """The derivatives fetched for ``order`` at (t, s), inside the ``region`` mask.

        Raises DomainViolation naming the first (t, s) outside the region or
        whose derivatives leave float range, as that point alone would.
        """
        where = f"{region} region of {self._name}"
        _require(t, s, self._in_bounds(t, s), where)
        try:
            # a Python float raises on x / 0; numpy then flags divide or invalid
            with np.errstate(divide="raise", invalid="raise"):
                d = self._fetch(t, order)
        except ArithmeticError:    # far out, before the guard reads them
            inside = self._masks(t, s)[region != "smooth"]
            for a, b, ok in zip(*(x.ravel().tolist() for x in np.broadcast_arrays(t, s, inside))):
                _require(a, b, ok, where)
                try:
                    self._fetch(a, order)
                except ArithmeticError as exc:
                    raise DomainViolation(f"(t, s) = ({a}, {b}): the order-{order} derivatives "
                                          f"of {self._name} leave float range ({exc})") from exc
            raise
        smooth, valid = self._positive(t, s, d)
        _require(t, s, smooth if region == "smooth" else valid, where)
        return d

    def _masks(self, t, s):
        """(smooth, valid) masks over (t, s), 0-d at a point, False at non-finite (t, s).

        ``positive`` sees the points in bounds only, so 1-D derivatives are never
        taken outside their interval; like Python floats, it overflows to inf
        without a floating-point warning.
        """
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        inside = np.array(np.isfinite(t) & np.isfinite(s))
        with np.errstate(divide="raise", over="ignore", under="ignore", invalid="ignore"):
            inside[inside] = self._in_bounds(t[inside], s[inside])
            smooth, valid = inside.copy(), inside.copy()
            if inside.any():
                smooth[inside], valid[inside] = self._fetched_positive(t[inside], s[inside])
        return smooth, valid

    def _fetched_positive(self, t, s):
        """``positive`` over 1-D (t, s), False where the order-0 derivatives leave float range."""
        try:
            return self._positive(t, s, self._fetch(t, 0))
        except ArithmeticError:    # at some point: ask each point alone
            if t.size == 1:
                return False, False
            alone = [self._fetched_positive(t[k:k + 1], s[k:k + 1]) for k in range(t.size)]
            return tuple(np.hstack(mask) for mask in zip(*alone))

    def smooth_at(self, t, s):
        """True where the jet is evaluable (all pieces finite, sqrt args positive).

        At a point a bool; at arrays of (t, s) a mask, each entry the bool of its point.
        """
        smooth = self._masks(t, s)[0]
        return smooth if smooth.ndim else bool(smooth)

    def is_valid(self, t, s):
        """smooth_at plus the family's metric-positivity requirements, at a point or arrays."""
        valid = self._masks(t, s)[1]
        return valid if valid.ndim else bool(valid)

    def smooth_jet(self, t, s, order: int) -> Jet2:
        """Taylor jet on the smooth region at reduced order, its entries finite and phi > 0.

        At a point or at arrays of (t, s); used by diagnostics that report validity.
        """
        j = self._jet(t, s, self._guarded(t, s, _jet_order(order), "smooth"), order)
        _check_jet_entries([j.partial(i, k) for i, k in INDICES if i + k <= order])
        return j

    def raw_jet(self, t, s, order: int) -> Jet2:
        """Validity-checked Taylor jet at reduced order, at a point or at arrays of (t, s).

        ``raw_jet(t, s, 3).partial(i, j)`` is the partial of phi i times in t, j times in s.
        """
        return self._jet(t, s, self._guarded(t, s, _jet_order(order)), order)

    def value(self, t, s):
        """phi(t, s) at a point, or at every point of broadcastable arrays t and s."""
        return self._value(t, s, self._guarded(t, s, 0))

    def __repr__(self):
        return f"MetricProfile({self.descriptor!r})"


def hermitian_profile(f: ScalarFunction1D) -> MetricProfile:
    """phi = f(t) + f'(t) s.

    Validity additionally requires f + t f' > 0, the Levi positivity of the
    underlying Hermitian metric along the z-direction.
    """
    if f.max_order < 4:
        raise InvalidCatalogEntry(
            "hermitian profile needs f with derivatives to order 4")
    if not probe_positive(f, strict=True):
        raise InvalidCatalogEntry("hermitian profile needs f > 0 on its interval")

    def positive(t, s, d):
        smooth = d[0] + s * d[1] > 0.0
        return smooth, smooth & (d[0] + t * d[1] > 0.0)

    def jet(t, s, d, order):
        A = Jet2.from_t_derivs(d[: order + 1], order)
        B = Jet2.from_t_derivs(d[1: order + 2], order)
        return A + B * Jet2.var_s(s, order)

    descriptor = {"family": "hermitian", "f": f.descriptor()}
    return MetricProfile(descriptor, f.t_interval, "hermitian profile",
                         lambda t, s: _s_in_bounds(t, s, 0.0) & f.contains(t),
                         lambda t, order: f.derivs(t, order + 1), positive,
                         lambda t, s, d: d[0] + s * d[1], jet)


def randers_profile(f: ScalarFunction1D, g: ScalarFunction1D,
                    h: ScalarFunction1D, descriptor: dict | None = None,
                    derivs=None) -> MetricProfile:
    """phi = (sqrt(f + g s) + sqrt(h s))^2 with f > 0 and h >= 0, h not identically 0.

    The h = 0 limit is a Hermitian metric and must be built with
    hermitian_profile instead (the square-root jets degenerate there).
    ``derivs(t, order)``, when given, returns the derivative tuples of f, g and
    h together, for families where the three share work.
    """
    for name, fn in (("f", f), ("g", g), ("h", h)):
        if fn.max_order < 3:
            raise InvalidCatalogEntry(
                f"randers profile needs {name} with derivatives to order 3")
    if not probe_positive(f, strict=True):
        raise InvalidCatalogEntry("randers profile needs f > 0 on its interval")
    if not probe_positive(h, strict=False):
        raise InvalidCatalogEntry(
            "randers profile needs h >= 0 and not identically 0; "
            "for h = 0 use hermitian_profile")

    lo = max(f.t_interval[0], g.t_interval[0], h.t_interval[0])
    hi = min(f.t_interval[1], g.t_interval[1], h.t_interval[1])
    if lo >= hi:
        raise InvalidCatalogEntry("randers profile: empty common t-interval")

    if derivs is None:
        def derivs(t, order):
            return f.derivs(t, order), g.derivs(t, order), h.derivs(t, order)

    def in_bounds(t, s):
        return (_s_in_bounds(t, s, S_MIN_FRACTION * t) & (s > 0.0)
                & f.contains(t) & g.contains(t) & h.contains(t))

    def positive(t, s, d):
        # a = f + g s and b = h s; a * b, the radicand, underflows for tiny a and b
        f0, a, b = d[0][0], d[0][0] + d[1][0] * s, d[2][0] * s
        ok = (f0 > 0.0) & (a > 0.0) & (b > 0.0) & (a * b > 0.0)
        return ok, ok

    def value(t, s, d):
        a, b = d[0][0] + d[1][0] * s, d[2][0] * s
        return a + b + 2.0 * _sqrt(a * b)

    def jet(t, s, d, order):
        fd, gd, hd = d
        S = Jet2.var_s(s, order)
        A = Jet2.from_t_derivs(fd, order) + Jet2.from_t_derivs(gd, order) * S
        B = Jet2.from_t_derivs(hd, order) * S
        return A + B + 2.0 * (A * B).sqrt()

    if descriptor is None:
        descriptor = {"family": "randers", "f": f.descriptor(),
                      "g": g.descriptor(), "h": h.descriptor()}
    return MetricProfile(descriptor, (lo, hi), "randers profile",
                         in_bounds, derivs, positive, value, jet)


def wk_randers_profile(f: ScalarFunction1D, h_scale: float = 1.0) -> MetricProfile:
    """The weakly-Kahler Randers family generated by f.

    Delegates to randers_profile with g = (t f' - f)/(2t), h = (t f' + f)/(2t).
    Points with t f' + f <= 0 fall outside validity (h s > 0 fails there).
    ``h_scale`` != 1 perturbs h off the classified family; it exists so the
    verification suite can witness the residuals moving away from zero.
    """
    if f.max_order < 4:
        raise InvalidCatalogEntry(
            "wk-randers profile needs f with derivatives to order 4")
    g = WkG(f)
    wk_h = WkH(f)
    h = wk_h if h_scale == 1.0 else Scaled(wk_h, h_scale)

    def derivs(t, order):
        # f's derivatives are fetched once and feed g and h too
        fd = f.derivs(t, order + 1)
        hd = wk_h.from_base(t, fd, order)
        if h is not wk_h:
            hd = tuple(h.factor * d for d in hd)
        return fd[:order + 1], g.from_base(t, fd, order), hd

    descriptor = {"family": "wk-randers", "f": f.descriptor(), "h_scale": float(h_scale)}
    return randers_profile(f, g, h, descriptor=descriptor, derivs=derivs)


def model_profile(k: int, c: float) -> MetricProfile:
    """The three constant-holomorphic-curvature models.

    k = +4: f = t/(c^2 + t^2) on t > 0 (the punctured space C^n minus 0)
    k =  0: f = c t on C^n
    k = -4: f = t/(c^2 - t^2) on the ball t < c

    k must equal 4, 0 or -4 (4.0 does, a bool or a string does not).
    """
    if isinstance(c, bool) or not (_finite(c) and c > 0.0):
        raise InvalidCatalogEntry(f"model profile needs c > 0, got {c!r}")
    if isinstance(k, bool) or k not in (4, 0, -4):
        raise InvalidCurvatureTag(f"model curvature must be +4, 0 or -4, got {k!r}")
    k = int(k)
    # k = +4: t/(c^2 + t^2); k = -4: t/(c^2 - t^2)
    f = Linear(float(c)) if k == 0 else Rational(c * c, k / 4.0)
    profile = wk_randers_profile(f)
    profile.descriptor = {"family": "model", "k": k, "c": float(c), "f": f.descriptor()}
    return profile


def euclidean_profile() -> MetricProfile:
    """phi identically 1 (G = r)."""
    from .functions1d import Constant
    return hermitian_profile(Constant(1.0))


def profile_from_descriptor(desc: dict) -> MetricProfile:
    """Rebuild a profile from its descriptor dict (the CLI config format)."""
    if not isinstance(desc, dict) or "family" not in desc:
        raise InvalidCatalogEntry(f"malformed profile descriptor: {desc!r}")
    family = desc["family"]
    try:
        if family == "hermitian":
            return hermitian_profile(function_from_descriptor(desc["f"]))
        if family == "randers":
            return randers_profile(function_from_descriptor(desc["f"]),
                                   function_from_descriptor(desc["g"]),
                                   function_from_descriptor(desc["h"]))
        if family == "wk-randers":
            return wk_randers_profile(function_from_descriptor(desc["f"]),
                                      h_scale=desc.get("h_scale", 1.0))
        if family == "model":
            return model_profile(desc["k"], desc["c"])
    except KeyError as exc:
        raise InvalidCatalogEntry(f"profile descriptor missing field {exc}") from exc
    raise InvalidCatalogEntry(f"unknown profile family {family!r}")
