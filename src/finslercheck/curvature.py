"""Holomorphic curvature and Kahler-type torsion diagnostics.

The weakly-Kahler condition for F = sqrt(r phi(t, s)) is, in terms of phi,

    (phi - s phi_s)[phi + (t-s) phi_s][phi_s - phi_t + s (phi_ts + phi_ss)]
      + s (t-s) phi_ss [phi (phi_s - phi_t) + s phi_s (phi_t + phi_s)]  =  0

and, after the substitution

    U = (s phi + s (t-s) phi_s) / phi,      W = (phi_t + phi_s) / phi,

equivalently

    s U (U - t) W_s - s (U - t) U_s W - 2 (U - s) U_s  =  0.

Three holomorphic-curvature functions, two methods (the wk form is the closed one for every phi):

* ``holomorphic_curvature_disc``     the largest curvature at 0 of G pulled back by
  a holomorphic disc, z + zeta v - zeta^2 GG with the closed-form spray: one
  Wirtinger finite difference of log r phi(t, s) along it (no jet, no chain rule);
* ``holomorphic_curvature_closed``   the general closed form
  -(2/phi){[s(dk2/dt + dk2/ds) + k2] + U [s(dk3/dt + dk3/ds) + 2 k3]};
* ``holomorphic_curvature_wk``       the weakly-Kahler specialisation
  -(2/phi){s(W_t + W_s) - s^2 (t-s) W_s^2 / U_s + W}, guarded by the
  residual of the weakly-Kahler equation at the same point.

Universal identities (no Kahler hypothesis), proved for a generic phi in
``tests/test_symbolic.py``; the first two are also exposed as residuals:

    s (U_t + U_s) = s^2 (t-s) W_s + U            (mixed-partial integrability)
    dk2/ds + U dk3/ds = 0
    k1 = U_s phi^2,  k2 = (W U_s - U W_s)/U_s,  k3 = W_s / U_s

Columns.  ``uw``, the residuals and the three curvatures take (t, s), or a
``PointVector``, at one point or at many: arrays of (t, s), or a
``PointVector`` of (n, m) columns.  A point runs the same numpy code and gives
numpy scalars, and each entry of a result carries the bits of its point alone.
Guards take one path for both: one failing point fails the call as it fails
alone (``curvature_report`` masks ``kf_wk`` instead).  An optional ``jet``,
phi's order-3 jet at the point(s), and the U/W data ``d`` of ``wk_residual_uw``
and ``lemma_integrability_residual`` are built when not passed in, so that a
caller can share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUs, DomainViolation, NotWeaklyKahler
from .functions1d import _array_pow
from .jets import INDICES, Jet2
from .numerics import FDConfig, wirtinger_mixed_hessian
from .profiles import MetricProfile, _check_jet_entries, _first
from .tensors import (
    LeviData,
    PointVector,
    SprayData,
    _metric_fd,
    _spray,
    _spray_scalars,
    _sum_rows,
    connection_coefficients,
    k_scalars,
    levi_closed,
)

__all__ = [
    "UWData",
    "KahlerReport",
    "CurvatureReport",
    "uw",
    "wk_residual_phi",
    "wk_residual_uw",
    "lemma_integrability_residual",
    "k2_k3_identity_residual",
    "holomorphic_curvature_disc",
    "holomorphic_curvature_closed",
    "holomorphic_curvature_wk",
    "kahler_classify",
    "curvature_report",
    "WK_RESIDUAL_GATE",
    "US_DEGENERACY",
]

# gate on |wk_residual_uw| below which the weakly-Kahler curvature formula applies
WK_RESIDUAL_GATE = 1e-8
US_DEGENERACY = 1e-12
# consumers of the U/W transform stay away from s = t where (t - s) divides
_UW_MARGIN = 1e-6


@dataclass(frozen=True)
class UWData:
    U: float
    W: float
    U_s: float
    U_t: float
    W_s: float
    W_t: float


@dataclass(frozen=True)
class KahlerReport:
    """Normalized torsion residuals, strongest notion first.

    Each residual is the max-norm of the corresponding antisymmetry divided by
    the max magnitude of the quantities entering it (Gamma entries, then also
    the l1 norms of v and of the metric gradient), so the implication chain
    strong >= kahler >= weakly holds exactly at the residual level.
    """

    strong_residual: float
    kahler_residual: float
    weakly_residual: float


@dataclass(frozen=True)
class CurvatureReport:
    kf_disc: float
    kf_closed: float
    kf_wk: np.ma.MaskedArray


def _phi_jet(profile: MetricProfile, t, s) -> Jet2:
    """The order-3 jet of phi at (t, s), or at arrays of points: entries finite, phi > 0."""
    j = profile.raw_jet(t, s, 3)
    _check_jet_entries([j.partial(i, k) for i, k in INDICES])
    return j


def _order1_jets(j: Jet2, t, s) -> dict:
    """Order-1 (t, s)-jets of t, s, phi and its partials, from the order-3 jet ``j`` of phi.

    The keys are the parameters of ``tensors._spray_scalars``.
    """
    p = j.partial
    return {
        "t": Jet2.var_t(t, 1),
        "s": Jet2.var_s(s, 1),
        "phi": Jet2(1, [p(0, 0), p(1, 0), p(0, 1)]),
        "phi_t": Jet2(1, [p(1, 0), p(2, 0), p(1, 1)]),
        "phi_s": Jet2(1, [p(0, 1), p(1, 1), p(0, 2)]),
        "phi_ts": Jet2(1, [p(1, 1), p(2, 1), p(1, 2)]),
        "phi_ss": Jet2(1, [p(0, 2), p(1, 2), p(0, 3)]),
    }


def _u(t, s, phi, phi_s):
    """U = (s phi + s (t-s) phi_s) / phi, on floats, arrays or order-1 jets."""
    return (s * phi + s * (t - s) * phi_s) / phi


def _uw_domain(profile, t, s):
    """Where the U/W transform applies, as (margin, validity) masks (0-d at a point).

    margin: 0 < s <= (1 - 1e-6) t; validity: ``profile.is_valid``.
    """
    return (0.0 < s) & (s <= (1.0 - _UW_MARGIN) * t), profile.is_valid(t, s)


def _check_uw_domain(profile, t, s):
    margin, valid = _uw_domain(profile, t, s)
    if not np.all(margin):
        t_at, s_at = _first(np.logical_not(margin), t, s)
        raise DomainViolation(
            f"U/W transform needs 0 < s <= (1 - 1e-6) t, got (t, s) = ({t_at}, {s_at})")
    if not np.all(valid):
        t_at, s_at = _first(np.logical_not(valid), t, s)
        raise DomainViolation(f"(t, s) = ({t_at}, {s_at}) outside profile validity")


def uw(profile: MetricProfile, t, s) -> UWData:
    """U, W and their first partials at (t, s)."""
    _check_uw_domain(profile, t, s)
    return _uw_data(_phi_jet(profile, t, s), t, s)


def _uw_data(j: Jet2, t, s) -> UWData:
    q = _order1_jets(j, t, s)
    U = _u(q["t"], q["s"], q["phi"], q["phi_s"])
    W = (q["phi_t"] + q["phi_s"]) / q["phi"]
    return UWData(U=U.value, W=W.value,
                  U_s=U.partial(0, 1), U_t=U.partial(1, 0),
                  W_s=W.partial(0, 1), W_t=W.partial(1, 0))


def wk_residual_phi(profile: MetricProfile, t, s, jet: Jet2 | None = None):
    """Left side of the weakly-Kahler equation in phi, normalized by phi^3."""
    j = jet if jet is not None else _phi_jet(profile, t, s)
    phi, phi_t, phi_s = j.value, j.partial(1, 0), j.partial(0, 1)
    phi_ts, phi_ss = j.partial(1, 1), j.partial(0, 2)
    a = (phi - s * phi_s) * (phi + (t - s) * phi_s) \
        * (phi_s - phi_t + s * (phi_ts + phi_ss))
    b = s * (t - s) * phi_ss \
        * (phi * (phi_s - phi_t) + s * phi_s * (phi_t + phi_s))
    return (a + b) / _array_pow(phi, 3)


def _uw_residual(d: UWData, t, s):
    return (s * d.U * (d.U - t) * d.W_s
            - s * (d.U - t) * d.U_s * d.W
            - 2.0 * (d.U - s) * d.U_s)


def wk_residual_uw(profile: MetricProfile, t, s, d: UWData | None = None):
    """Left side of the weakly-Kahler equation in U, W (already scale-free).

    ``d``, when passed in, is ``uw(profile, t, s)``.
    """
    return _uw_residual(d if d is not None else uw(profile, t, s), t, s)


def lemma_integrability_residual(profile: MetricProfile, t, s, d: UWData | None = None):
    """s (U_t + U_s) - s^2 (t-s) W_s - U; zero for every profile (phi_ts = phi_st).

    ``d``, when passed in, is ``uw(profile, t, s)``.
    """
    if d is None:
        d = uw(profile, t, s)
    return s * (d.U_t + d.U_s) - s * s * (t - s) * d.W_s - d.U


def k2_k3_identity_residual(profile: MetricProfile, t, s, jet: Jet2 | None = None):
    """dk2/ds + U dk3/ds; identically zero for every unitary-invariant profile."""
    j = jet if jet is not None else _phi_jet(profile, t, s)
    _, k2, k3 = _spray_scalars(**_order1_jets(j, t, s))
    return k2.partial(0, 1) + _u(t, s, j.value, j.partial(0, 1)) * k3.partial(0, 1)


def holomorphic_curvature_closed(profile: MetricProfile, pv: PointVector,
                                 jet: Jet2 | None = None):
    """K_F from the general closed form in k2, k3 and their (t, s)-derivatives."""
    t, s = pv.t, pv.s
    if jet is None:
        jet = _phi_jet(profile, t, s)
    _, k2, k3 = _spray_scalars(**_order1_jets(jet, t, s))
    U = _u(t, s, jet.value, jet.partial(0, 1))
    term2 = s * (k2.partial(1, 0) + k2.partial(0, 1)) + k2.value
    term3 = s * (k3.partial(1, 0) + k3.partial(0, 1)) + 2.0 * k3.value
    return -(2.0 / jet.value) * (term2 + U * term3)


def _wk_formula(phi, d: UWData, t, s):
    return -(2.0 / phi) * (s * (d.W_t + d.W_s)
                           - s * s * (t - s) * _array_pow(d.W_s, 2) / d.U_s
                           + d.W)


def holomorphic_curvature_wk(profile: MetricProfile, pv: PointVector,
                             jet: Jet2 | None = None):
    """K_F under the weakly-Kahler condition, in U and W only.

    It raises where ``curvature_report`` masks kf_wk, ``DomainViolation`` first,
    then ``NotWeaklyKahler``: the precondition is the weakly-Kahler residual at
    the same (t, s), not the profile's family tag.  A degenerate U_s raises too.
    """
    _check_uw_domain(profile, pv.t, pv.s)
    kf, residual, U_s = _wk_columns(profile, pv, jet)
    if np.ma.is_masked(kf):
        (residual,) = _first(np.ma.getmaskarray(kf), residual)
        raise NotWeaklyKahler(
            f"weakly-Kahler residual {residual:.3e} exceeds gate {WK_RESIDUAL_GATE:.1e}")
    degenerate = abs(U_s) < US_DEGENERACY
    if np.any(degenerate):
        (U_s,) = _first(degenerate, U_s)
        raise DegenerateUs(f"U_s = {U_s} is degenerate")
    return kf.data[()]


def _wk_columns(profile, pv, jet=None):
    """(K_F, residual, U_s): weakly-Kahler K_F (0-d at a lone pair), masked outside the
    U/W domain and where |residual| reaches WK_RESIDUAL_GATE; a NaN residual is not masked.

    ``holomorphic_curvature_wk``'s ``DegenerateUs`` needs no mask: ``curvature_report``
    runs ``holomorphic_curvature_closed`` first, and since k1 = U_s phi^2 it raises
    ``DegenerateK1`` wherever |U_s| < US_DEGENERACY, up to rounding.
    """
    t, s = pv.t, pv.s
    jet = jet if jet is not None else _phi_jet(profile, t, s)
    d = _uw_data(jet, t, s)
    residual = _uw_residual(d, t, s)
    margin, valid = _uw_domain(profile, t, s)
    applies = margin & valid & np.logical_not(abs(residual) >= WK_RESIDUAL_GATE)
    # masked columns may divide by a zero U_s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (np.ma.masked_array(_wk_formula(jet.value, d, t, s), mask=~applies),
                residual, d.U_s)


def holomorphic_curvature_disc(profile: MetricProfile, pv: PointVector,
                               cfg: FDConfig | None = None, k=None):
    """K_F as the Gaussian curvature at 0 of G pulled back by a holomorphic disc.

    A disc f with f(0) = z, f'(0) = v pulls G back to g = G(f, f'), of curvature
    K = -(2/g) d_zeta d_zetabar log g = -(2/g^3)(g g_zzbar - |g_z|^2).  At 0 only
    u = f''(0) enters: take f = z + zeta v + zeta^2 w, u = 2w.  With M, D and N
    of ``tensors``, G_a = dG/dv^a, G_;a = dG/dz^a, M(x, y) = M[a, b] x^a conj(y^b)
    and X = d^2 G / dz^a dzbar^b v^a vbar^b, at (z, v):

        g_z = G_;a v^a + G_a u^a,   g_zzbar = X + 2 Re (D v)_b conj(u^b) + M(u, u).

    * K is a concave quadratic in w: by Euler's relations G_a u^a = M(u, v) and
      G = M(v, v), so the part of -(G^3/2) K quadratic in u, G M(u, u) -
      |M(u, v)|^2, is >= 0, and 0 only for u || v (a reparametrisation).
    * K is largest at 2w = -N v = -2 GG: N = conj(M^-1) D gives M[a, b] (N v)^a =
      (D v)_b, and Euler's vbar^c D[c, b] = G_;b gives G_a N^a_b = G_;b, so at
      u = -N v both g_z and the ubar-gradient of -(G^3/2) K,
      G ((D v)_b + M[a, b] u^a) - g_z dG/dvbar^b, vanish: K = -(2/G^2)(X - M(N v, N v)).
    * That is K_F = -(2/G^2) G_a delta_nubar(2 GG^a) vbar^nu, delta_nubar =
      d/dzbar^nu - conj(N^m_nu) d/dvbar^m: as G_a 2GG^a = G_;b v^b,
      G_a d(2GG^a)/dvbar^m = (D v)_m - M[a, m] (N v)^a = 0, and
      G_a d(2GG^a)/dzbar^nu vbar^nu = X - conj((D v)_a) (N v)^a = X - M(N v, N v).

    So K_F(z; v) is the largest curvature at 0 of a disc through (z; v); an error
    dw in the spray lowers the result by (2/G^3)(G M(du, du) - |M(du, v)|^2), du = 2 dw.

    zeta -> lam zeta (v -> lam v, w -> lam^2 w) leaves K unchanged.  With
    Z = max(1, |z|) and max norms, lam = Z / max(|v| / sqrt(Z), sqrt(|w|),
    |w| / (30 |v|)): steps grow with |z| and stay short against |v| / |w|, the
    length on which the disc bends (small near the k = -4 ball's edge).  One
    mixed Hessian of log g in zeta serves every pair, with (z, lam v, lam^2 w)
    carried below its stencil; g is ``tensors._metric_fd`` (``MetricProfile.value``)
    and g(0) = lam^2 r phi.  ``k``, the pair(s)' ``k_scalars``, gives the spray.
    """
    _, k2, k3 = k_scalars(profile, pv.t, pv.s) if k is None else k
    return _disc_curvature(profile, pv, -0.5 * _spray(k2, k3, pv.pairing, pv.z, pv.v), cfg)


def _disc_curvature(profile: MetricProfile, pv: PointVector, w, cfg: FDConfig | None = None):
    """K(w) of ``holomorphic_curvature_disc``, the disc z + zeta v + zeta^2 w; w (n,) or (n, B)."""
    n = pv.n
    big = np.maximum(1.0, np.max(np.abs(pv.z), axis=0))       # Z of the docstring above
    v_max, w_max = (np.max(np.abs(x), axis=0) for x in (pv.v, w))
    lam = big / np.maximum.reduce([v_max / np.sqrt(big), np.sqrt(w_max), w_max / (30.0 * v_max)])

    def field(cols):
        zeta, z, v, w2 = cols[0], cols[1:n + 1], cols[n + 1:2 * n + 1], cols[2 * n + 1:]
        return np.log(_metric_fd(profile, z + zeta * v + (zeta * zeta) * w2, v + 2.0 * zeta * w2))

    hess = wirtinger_mixed_hessian(field, np.zeros((1,) + np.shape(pv.t)), cfg,
                                   carry=np.concatenate([pv.z, lam * pv.v, (lam * lam) * w]))
    return -(2.0 / ((lam * lam) * pv.r * profile.value(pv.t, pv.s))) * hess[..., 0, 0].real


def kahler_classify(profile: MetricProfile, pv: PointVector,
                    cfg: FDConfig | None = None,
                    levi: LeviData | None = None,
                    spray: SprayData | None = None) -> KahlerReport:
    """Residuals of the three Kahler notions from the connection antisymmetry.

    strong : max |Gamma^a_{b;g} - Gamma^a_{g;b}|               / max|Gamma|
    kahler : max |(Gamma^a_{b;g} - Gamma^a_{g;b}) v^g|         / (max|Gamma| * |v|_1)
    weakly : max |G_a (Gamma^a_{b;g} - Gamma^a_{g;b}) v^g|     / (max|Gamma| * |v|_1 * |G_.|_1)

    ``levi`` and ``spray``, the sample's ``levi_closed`` and
    ``spray_coefficients``, are built here when not passed in.  Over columns
    each residual is an array with one entry per pair.
    """
    cfg = cfg or FDConfig()
    if levi is None:
        levi = levi_closed(profile, pv, cfg)
    conn = connection_coefficients(profile, pv, cfg, levi=levi, spray=spray)
    gamma = conn.gamma
    delta = gamma - np.swapaxes(gamma, -2, -1)
    tensor = (-3, -2, -1)
    scale_g = np.maximum(np.max(np.abs(gamma), axis=tensor), 1e-300)
    v_l1 = _sum_rows(np.abs(pv.v))
    ga_l1 = _sum_rows(np.abs(levi.g_alpha))
    strong = np.max(np.abs(delta), axis=tensor) / scale_g
    # one pair's einsum over each column: the same bits as alone
    delta_v = np.einsum('...abg,g...->...ab', delta, pv.v)
    kahler = np.max(np.abs(delta_v), axis=(-2, -1)) / (scale_g * v_l1)
    weakly_vec = np.einsum('a...,...ab->...b', levi.g_alpha, delta_v)
    weakly = np.max(np.abs(weakly_vec), axis=-1) / (scale_g * v_l1 * ga_l1)
    return KahlerReport(strong_residual=strong, kahler_residual=kahler,
                        weakly_residual=weakly)


def curvature_report(profile: MetricProfile, pv: PointVector,
                     cfg: FDConfig | None = None,
                     jet: Jet2 | None = None, k=None) -> CurvatureReport:
    """K_F from the closed form, the FD oracle and, where it applies, the wk formula.

    The wk formula equals the closed form for every phi, so |kf_closed - kf_wk|
    checks its transcription, not a second method.  The weakly-Kahler value is
    included only where the residual gate admits it: ``kf_wk`` is a masked
    array, 0-d at a lone pair, masked where ``holomorphic_curvature_wk`` would
    raise.  ``k``, the ``k_scalars`` at the pair(s), is taken when not passed in.
    """
    if jet is None:
        jet = _phi_jet(profile, pv.t, pv.s)
    kf_closed = holomorphic_curvature_closed(profile, pv, jet)
    kf_disc = holomorphic_curvature_disc(profile, pv, cfg, k)
    return CurvatureReport(kf_disc=kf_disc, kf_closed=kf_closed,
                           kf_wk=_wk_columns(profile, pv, jet)[0])
