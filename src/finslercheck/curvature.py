"""Holomorphic curvature and Kahler-type torsion diagnostics.

The weakly-Kahler condition for F = sqrt(r phi(t, s)) is, in terms of phi,

    (phi - s phi_s)[phi + (t-s) phi_s][phi_s - phi_t + s (phi_ts + phi_ss)]
      + s (t-s) phi_ss [phi (phi_s - phi_t) + s phi_s (phi_t + phi_s)]  =  0

and, after the substitution

    U = (s phi + s (t-s) phi_s) / phi,      W = (phi_t + phi_s) / phi,

equivalently

    s U (U - t) W_s - s (U - t) U_s W - 2 (U - s) U_s  =  0.

Three holomorphic-curvature evaluations are provided:

* ``holomorphic_curvature_direct``   the defining horizontal contraction
  -(2/G^2) G_a delta_gbar(N^a_b) v^b vbar^g, evaluated by Wirtinger finite
  differences of the closed-form spray (no chain rule);
* ``holomorphic_curvature_closed``   the general closed form
  -(2/phi){[s(dk2/dt + dk2/ds) + k2] + U [s(dk3/dt + dk3/ds) + 2 k3]};
* ``holomorphic_curvature_wk``       the weakly-Kahler specialisation
  -(2/phi){s(W_t + W_s) - s^2 (t-s) W_s^2 / U_s + W}, guarded by the
  residual of the weakly-Kahler equation at the same point.

Universal identities (no Kahler hypothesis), each exposed as a residual:

    s (U_t + U_s) = s^2 (t-s) W_s + U            (mixed-partial integrability)
    dk2/ds + U dk3/ds = 0
    k1 = U_s phi^2,  k2 = (W U_s - U W_s)/U_s,  k3 = W_s / U_s

Columns.  ``uw``, the residuals and the three curvatures take (t, s), or a
``PointVector``, at one point or at many: arrays of (t, s), or a
``PointVector`` of (n, m) columns.  Each entry of a result carries the bits of
its point alone.  Guards take one path for both: one failing point fails the
call as it fails alone (``curvature_report`` masks ``kf_wk`` instead).  An
optional ``jet``, phi's order-3 jet at the point(s), and the U/W data ``d`` of
``wk_residual_uw`` and ``lemma_integrability_residual`` are built when not
passed in, so that a caller can share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUs, DomainViolation, NotWeaklyKahler
from .functions1d import _pow_for
from .jets import INDICES, Jet2
from .numerics import FDConfig, wirtinger_gradient
from .profiles import MetricProfile, _check_jet_entries, _first
from .tensors import (
    LeviData,
    PointVector,
    SprayData,
    _g_alpha,
    _spray,
    _spray_scalars,
    _spray_vector,
    _sum_rows,
    connection_coefficients,
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
    "holomorphic_curvature_direct",
    "holomorphic_curvature_closed",
    "holomorphic_curvature_wk",
    "wk_spray_identities_residual",
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
    kf_direct: float
    kf_closed: float
    kf_wk: float | None


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
    """Where the U/W transform applies, as (margin, validity) masks (bools at a point).

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
    return (a + b) / _pow_for(phi)(phi, 3)


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


def _wk_gate(d: UWData, t, s):
    """(residual, gated, degenerate) for the weakly-Kahler formula.

    gated: the U/W residual reaches WK_RESIDUAL_GATE; degenerate: |U_s| is
    below US_DEGENERACY.  Bools at a point, masks over columns.
    """
    residual = _uw_residual(d, t, s)
    return residual, abs(residual) >= WK_RESIDUAL_GATE, abs(d.U_s) < US_DEGENERACY


def _wk_formula(phi, d: UWData, t, s):
    return -(2.0 / phi) * (s * (d.W_t + d.W_s)
                           - s * s * (t - s) * _pow_for(d.W_s)(d.W_s, 2) / d.U_s
                           + d.W)


def holomorphic_curvature_wk(profile: MetricProfile, pv: PointVector,
                             jet: Jet2 | None = None):
    """K_F under the weakly-Kahler condition, in U and W only.

    The precondition is enforced by evaluating the weakly-Kahler residual at
    the same (t, s) rather than trusting the profile's family tag.
    """
    t, s = pv.t, pv.s
    _check_uw_domain(profile, t, s)
    if jet is None:
        jet = _phi_jet(profile, t, s)
    d = _uw_data(jet, t, s)
    residual, gated, degenerate = _wk_gate(d, t, s)
    if np.any(gated):
        (residual,) = _first(gated, residual)
        raise NotWeaklyKahler(
            f"weakly-Kahler residual {residual:.3e} exceeds gate {WK_RESIDUAL_GATE:.1e}")
    if np.any(degenerate):
        (U_s,) = _first(degenerate, d.U_s)
        raise DegenerateUs(f"U_s = {U_s} is degenerate")
    return _wk_formula(jet.value, d, t, s)


def _wk_columns(profile, pv, jet):
    """The weakly-Kahler K_F over columns, masked where ``holomorphic_curvature_wk`` raises."""
    t, s = pv.t, pv.s
    d = _uw_data(jet, t, s)
    margin, valid = _uw_domain(profile, t, s)
    _, gated, degenerate = _wk_gate(d, t, s)
    applies = margin & valid & ~gated & ~degenerate
    # masked columns may divide by a zero U_s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.ma.masked_array(_wk_formula(jet.value, d, t, s), mask=~applies)


def holomorphic_curvature_direct(profile: MetricProfile, pv: PointVector,
                                 cfg: FDConfig | None = None, k=None):
    """K_F from its definition, by Wirtinger FD of the closed-form spray.

    K_F = -(2/G^2) G_g delta_nubar(2 GG^g) vbar^nu with the conjugated
    horizontal derivative delta_nubar = d/dzbar^nu - conj(N^m_nu) d/dvbar^m.
    Both contractions are directional: contracting vbar^nu turns the
    z-derivative term into the anti-holomorphic derivative of
    tau -> spray(z + tau v, v) at tau = 0, and conj(N^m_nu) vbar^nu = conj(2 GG^m)
    turns the v-derivative term into the same along tau -> spray(z, v + tau 2GG).
    Both come from one stencil of spray(z + tau_z dz, v + tau_v dv) over
    (tau_z, tau_v) in C^2.  For columns of pairs the base point tau = 0, and
    so the step, is the same for every pair: one stencil serves them all.
    ``k``, the ``k_scalars`` at the pair(s), gives the spray there when passed in.
    """
    cfg = cfg or FDConfig()
    z, v = pv.z, pv.v
    spray0 = _spray_vector(profile, z, v) if k is None else _spray(k[1], k[2], pv.pairing, z, v)
    ga, phi = _g_alpha(profile, pv)
    G = pv.r * phi

    scale_z = np.maximum(1.0, np.max(np.abs(v), axis=0))
    scale_v = np.maximum(1.0, np.max(np.abs(spray0), axis=0))
    dz, dv = (v / scale_z)[..., None], (spray0 / scale_v)[..., None]

    def field(tau):
        # (n, [pairs,] m): the stencil of every pair, flattened into columns
        zs, vs = z[..., None] + tau[0] * dz, v[..., None] + tau[1] * dv
        return _spray_vector(profile, zs.reshape(pv.n, -1), vs.reshape(pv.n, -1)).reshape(zs.shape)

    # anti[0] = sum_nu d(2GG^g)/dzbar^nu vbar^nu / scale_z, anti[1] the v-term / scale_v
    _, anti = wirtinger_gradient(field, np.zeros(2, dtype=complex), cfg, shape=spray0.shape)
    term1 = anti[0] * scale_z
    # with spray0 = 0 there is no v-transport at all
    term2 = np.where(np.any(spray0, axis=0), anti[1] * scale_v, 0.0)

    value = np.real(-(2.0 / _pow_for(G)(G, 2)) * _sum_rows(ga * (term1 - term2)))
    return value if isinstance(value, np.ndarray) else float(value)


def wk_spray_identities_residual(profile: MetricProfile, t: float, s: float):
    """(k1 - U_s phi^2, k2 - (W U_s - U W_s)/U_s, k3 - W_s/U_s).

    These hold for every unitary-invariant profile, with no Kahler hypothesis.
    """
    _check_uw_domain(profile, t, s)
    j = _phi_jet(profile, t, s)
    k1, k2, k3 = _spray_scalars(**_order1_jets(j, t, s))
    d = _uw_data(j, t, s)
    if abs(d.U_s) < US_DEGENERACY:
        raise DegenerateUs(f"U_s = {d.U_s} is degenerate")
    r1 = k1.value - d.U_s * j.value * j.value
    r2 = k2.value - (d.W * d.U_s - d.U * d.W_s) / d.U_s
    r3 = k3.value - d.W_s / d.U_s
    return r1, r2, r3


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
    if np.ndim(strong) == 0:
        strong, kahler, weakly = float(strong), float(kahler), float(weakly)
    return KahlerReport(strong_residual=strong, kahler_residual=kahler,
                        weakly_residual=weakly)


def curvature_report(profile: MetricProfile, pv: PointVector,
                     cfg: FDConfig | None = None,
                     jet: Jet2 | None = None, k=None) -> CurvatureReport:
    """K_F by all applicable methods.

    The weakly-Kahler value is included only where the residual gate admits
    it.  For columns every field is an array, and ``kf_wk`` a masked array,
    masked where ``holomorphic_curvature_wk`` would raise.  ``k``, the
    ``k_scalars`` at the pair(s), is taken when not passed in.
    """
    cfg = cfg or FDConfig()
    if jet is None:
        jet = _phi_jet(profile, pv.t, pv.s)
    kf_closed = holomorphic_curvature_closed(profile, pv, jet)
    kf_direct = holomorphic_curvature_direct(profile, pv, cfg, k)
    if isinstance(pv.t, np.ndarray):
        kf_wk = _wk_columns(profile, pv, jet)
    else:
        try:
            kf_wk = holomorphic_curvature_wk(profile, pv, jet)
        except (NotWeaklyKahler, DegenerateUs, DomainViolation):
            kf_wk = None
    return CurvatureReport(kf_direct=kf_direct, kf_closed=kf_closed, kf_wk=kf_wk)
