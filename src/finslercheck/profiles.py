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

Jet and value evaluators validate inline and raise DomainViolation, and fetch
each 1-D derivative exactly once per call (a wk-randers profile fetches f's
derivatives once and derives g and h from them).  ``MetricProfile.value`` and
``MetricProfile.raw_jet`` also take arrays of (t, s): the finite-difference
oracles and the closed forms they differentiate evaluate a whole stencil in
one call, and a single point outside the region rejects the call, naming the
first (t, s) where the guard fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, InvalidCatalogEntry, InvalidCurvatureTag
from .functions1d import (
    Linear,
    Rational,
    ScalarFunction1D,
    Scaled,
    WkG,
    WkH,
    function_from_descriptor,
    probe_positive,
)
from .jets import INDICES, Jet2

__all__ = [
    "PhiJet",
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


@dataclass(frozen=True)
class PhiJet:
    """All partial derivatives of phi(t, s) up to total order 3."""

    phi: float
    phi_t: float
    phi_s: float
    phi_tt: float
    phi_ts: float
    phi_ss: float
    phi_ttt: float
    phi_tts: float
    phi_tss: float
    phi_sss: float

    def __post_init__(self):
        _check_jet_entries((self.phi, self.phi_t, self.phi_s, self.phi_tt, self.phi_ts,
                           self.phi_ss, self.phi_ttt, self.phi_tts, self.phi_tss, self.phi_sss))


def _check_jet_entries(entries):
    """``PhiJet``'s guards on phi's partials, phi first, at a point or at every column.

    Every entry must be finite and phi positive; otherwise DomainViolation, naming
    the first column where phi is not.
    """
    if not all(_holds(np.isfinite(x)) for x in entries):
        raise DomainViolation("non-finite jet entry")
    phi = entries[0]
    positive = phi > 0.0
    if not _holds(positive):
        at = float(np.broadcast_to(phi, positive.shape).ravel()[np.argmin(positive)]) \
            if isinstance(positive, np.ndarray) else phi
        raise DomainViolation(f"phi must be positive, got {at}")


def _jet_to_phijet(j: Jet2) -> PhiJet:
    return PhiJet(
        phi=j.partial(0, 0), phi_t=j.partial(1, 0), phi_s=j.partial(0, 1),
        phi_tt=j.partial(2, 0), phi_ts=j.partial(1, 1), phi_ss=j.partial(0, 2),
        phi_ttt=j.partial(3, 0), phi_tts=j.partial(2, 1), phi_tss=j.partial(1, 2),
        phi_sss=j.partial(0, 3),
    )


def _s_in_bounds(t, s, s_min):
    return (s >= s_min) & (s <= t * (1.0 + _S_LE_T_SLACK) + 1e-300)


def _holds(mask) -> bool:
    """A guard holds: a bool at one point, or a numpy mask at every point of an array."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


def _anywhere(mask) -> bool:
    """A condition holds at one point (a bool) or at some point of an array (a mask)."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _outside(t, s, mask, region):
    """DomainViolation naming the first (t, s) where the guard ``mask`` fails."""
    if isinstance(mask, np.ndarray):
        t, s, mask = np.broadcast_arrays(t, s, mask)
        k = int(np.argmin(mask.ravel()))
        t, s = float(t.ravel()[k]), float(s.ravel()[k])
    return DomainViolation(f"(t, s) = ({t}, {s}) outside {region}")


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _predicate(fn, t, s):
    """The predicate ``fn`` where t and s are finite, False elsewhere.

    At a point a bool.  At arrays a mask: ``fn`` sees the finite entries only,
    and like Python floats it overflows to inf without a floating-point warning.
    """
    if not (isinstance(t, np.ndarray) or isinstance(s, np.ndarray)):
        return math.isfinite(t) and math.isfinite(s) and bool(fn(t, s))
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    mask = np.isfinite(t) & np.isfinite(s)
    if mask.any():
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            mask[mask] = fn(t[mask], s[mask])
    return mask


def _inside(bounds, t, s, test):
    """``test(t, s)`` where the mask ``bounds`` holds, False elsewhere (bools at a point).

    ``test`` sees only the points inside, so 1-D derivatives are never taken
    outside their interval.
    """
    if not isinstance(bounds, np.ndarray):
        return bool(bounds) and bool(test(t, s))
    out = bounds.copy()
    if out.any():
        out[out] = test(t[out], s[out])
    return out


class MetricProfile:
    """A profile phi(t, s): order-3 jet evaluator plus validity predicates."""

    def __init__(self, descriptor, jet_fn, value_fn, smooth_fn, valid_fn,
                 t_interval, jet_smooth_fn=None):
        self.descriptor = descriptor
        self._jet_fn = jet_fn                  # (t, s, order) -> Jet2, self-validating
        self._value_fn = value_fn              # (t, s) -> float, self-validating
        self._smooth_fn = smooth_fn            # predicate, at a point or a mask over arrays
        self._valid_fn = valid_fn              # the same (implies smooth)
        self._jet_smooth_fn = jet_smooth_fn or jet_fn
        self.t_interval = t_interval

    @property
    def family(self) -> str:
        return self.descriptor["family"]

    def smooth_at(self, t, s):
        """True where the jet is evaluable (all pieces finite, sqrt args positive).

        At a point a bool; at arrays of (t, s) a mask, each entry the bool of its point.
        """
        return _predicate(self._smooth_fn, t, s)

    def is_valid(self, t, s):
        """smooth_at plus the family's metric-positivity requirements, at a point or arrays."""
        return _predicate(self._valid_fn, t, s)

    def jet(self, t: float, s: float) -> PhiJet:
        """Full order-3 jet; requires (t, s) valid and s <= t."""
        return _jet_to_phijet(self._jet_fn(t, s, 3))

    def jet_smooth(self, t: float, s: float) -> PhiJet:
        """Full order-3 jet on the smooth region only: ``smooth_jet`` as a ``PhiJet``."""
        return _jet_to_phijet(self.smooth_jet(t, s, 3))

    def smooth_jet(self, t, s, order: int) -> Jet2:
        """Taylor jet on the smooth region at reduced order, guarded as ``PhiJet`` is.

        At a point or at arrays of (t, s); used by diagnostics that report validity.
        """
        j = self._jet_smooth_fn(t, s, order)
        _check_jet_entries([j.partial(i, k) for i, k in INDICES if i + k <= order])
        return j

    def raw_jet(self, t, s, order: int) -> Jet2:
        """Validity-checked Taylor jet at reduced order, at a point or at arrays of (t, s)."""
        return self._jet_fn(t, s, order)

    def value(self, t, s):
        """phi(t, s) at a point, or at every point of broadcastable arrays t and s."""
        return self._value_fn(t, s)

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

    def _check(t, s, mask, why):
        if not _holds(mask):
            raise _outside(t, s, mask, f"{why} region of hermitian profile")

    def _fetch(t, s, order):
        _check(t, s, _s_in_bounds(t, s, 0.0) & f.contains(t), "validity")
        return f.derivs(t, order + 1)

    def _build(s, d, order):
        A = Jet2.from_t_derivs(d[: order + 1], order)
        B = Jet2.from_t_derivs(d[1: order + 2], order)
        return A + B * Jet2.var_s(s, order)

    def jet_fn(t, s, order):
        d = _fetch(t, s, order)
        _check(t, s, (d[0] + s * d[1] > 0.0) & (d[0] + t * d[1] > 0.0), "validity")
        return _build(s, d, order)

    def jet_smooth_fn(t, s, order):
        d = _fetch(t, s, order)
        _check(t, s, d[0] + s * d[1] > 0.0, "smooth")
        return _build(s, d, order)

    def value_fn(t, s):
        d = _fetch(t, s, 0)
        phi = d[0] + s * d[1]
        _check(t, s, (phi > 0.0) & (d[0] + t * d[1] > 0.0), "validity")
        return phi

    def smooth_fn(t, s):
        def positive(t, s):
            f0, f1 = f.derivs(t, 1)
            return f0 + s * f1 > 0.0
        return _inside(_s_in_bounds(t, s, 0.0) & f.contains(t), t, s, positive)

    def valid_fn(t, s):
        def positive(t, s):
            f0, f1 = f.derivs(t, 1)
            return (f0 + s * f1 > 0.0) & (f0 + t * f1 > 0.0)
        return _inside(_s_in_bounds(t, s, 0.0) & f.contains(t), t, s, positive)

    descriptor = {"family": "hermitian", "f": f.descriptor()}
    return MetricProfile(descriptor, jet_fn, value_fn, smooth_fn, valid_fn,
                         f.t_interval, jet_smooth_fn=jet_smooth_fn)


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

    def _in_bounds(t, s):
        return (_s_in_bounds(t, s, S_MIN_FRACTION * t) & (s > 0.0)
                & f.contains(t) & g.contains(t) & h.contains(t))

    def _check(t, s, mask):
        # a guard at one point is a plain True when it holds
        if mask is not True and not _holds(mask):
            raise _outside(t, s, mask, "validity region of randers profile")

    def _positive(f0, a, b):
        return (f0 > 0.0) & (a > 0.0) & (b > 0.0)

    def jet_fn(t, s, order):
        _check(t, s, _in_bounds(t, s))
        fd, gd, hd = derivs(t, order)
        _check(t, s, _positive(fd[0], fd[0] + gd[0] * s, hd[0] * s))
        S = Jet2.var_s(s, order)
        A = Jet2.from_t_derivs(fd, order) + Jet2.from_t_derivs(gd, order) * S
        B = Jet2.from_t_derivs(hd, order) * S
        return A + B + 2.0 * (A * B).sqrt()

    def value_fn(t, s):
        _check(t, s, _in_bounds(t, s))
        (f0,), (g0,), (h0,) = derivs(t, 0)
        a = f0 + g0 * s
        b = h0 * s
        _check(t, s, _positive(f0, a, b))
        return a + b + 2.0 * _sqrt(a * b)

    def smooth_fn(t, s):
        def positive(t, s):
            (f0,), (g0,), (h0,) = derivs(t, 0)
            return _positive(f0, f0 + g0 * s, h0 * s)
        return _inside(_in_bounds(t, s), t, s, positive)

    if descriptor is None:
        descriptor = {"family": "randers", "f": f.descriptor(),
                      "g": g.descriptor(), "h": h.descriptor()}
    return MetricProfile(descriptor, jet_fn, value_fn, smooth_fn, smooth_fn, (lo, hi))


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
    """
    if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0.0):
        raise InvalidCatalogEntry(f"model profile needs c > 0, got {c!r}")
    k = int(k)
    if k == 4:
        f = Rational(c * c, 1.0)
    elif k == 0:
        f = Linear(float(c))
    elif k == -4:
        f = Rational(c * c, -1.0)
    else:
        raise InvalidCurvatureTag(f"model curvature must be +4, 0 or -4, got {k}")
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
