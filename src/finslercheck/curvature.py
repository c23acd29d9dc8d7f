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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUs, DomainViolation, NotWeaklyKahler
from .jets import Jet2
from .numerics import FDConfig, wirtinger_gradient
from .profiles import MetricProfile, PhiJet
from .tensors import (
    LeviData,
    PointVector,
    SprayData,
    _g_alpha,
    _spray_scalars,
    _spray_vector,
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
    pairwise_dev: float


def _order1_jets(j: PhiJet, t: float, s: float) -> dict:
    """Order-1 (t, s)-jets of t, s, phi and its partials, from the order-3 jet.

    The keys are the parameters of ``tensors._spray_scalars``.
    """
    return {
        "t": Jet2.var_t(t, 1),
        "s": Jet2.var_s(s, 1),
        "phi": Jet2(1, [j.phi, j.phi_t, j.phi_s]),
        "phi_t": Jet2(1, [j.phi_t, j.phi_tt, j.phi_ts]),
        "phi_s": Jet2(1, [j.phi_s, j.phi_ts, j.phi_ss]),
        "phi_ts": Jet2(1, [j.phi_ts, j.phi_tts, j.phi_tss]),
        "phi_ss": Jet2(1, [j.phi_ss, j.phi_tss, j.phi_sss]),
    }


def _u(t, s, phi, phi_s):
    """U = (s phi + s (t-s) phi_s) / phi, on floats or order-1 jets."""
    return (s * phi + s * (t - s) * phi_s) / phi


def _check_uw_domain(profile, t, s):
    if not (0.0 < s <= (1.0 - _UW_MARGIN) * t):
        raise DomainViolation(
            f"U/W transform needs 0 < s <= (1 - 1e-6) t, got (t, s) = ({t}, {s})")
    if not profile.is_valid(t, s):
        raise DomainViolation(f"(t, s) = ({t}, {s}) outside profile validity")


def uw(profile: MetricProfile, t: float, s: float) -> UWData:
    """U, W and their first partials at (t, s)."""
    _check_uw_domain(profile, t, s)
    return _uw_data(profile.jet(t, s), t, s)


def _uw_data(j: PhiJet, t: float, s: float) -> UWData:
    q = _order1_jets(j, t, s)
    U = _u(q["t"], q["s"], q["phi"], q["phi_s"])
    W = (q["phi_t"] + q["phi_s"]) / q["phi"]
    return UWData(U=U.value, W=W.value,
                  U_s=U.partial(0, 1), U_t=U.partial(1, 0),
                  W_s=W.partial(0, 1), W_t=W.partial(1, 0))


def wk_residual_phi(profile: MetricProfile, t: float, s: float) -> float:
    """Left side of the weakly-Kahler equation in phi, normalized by phi^3."""
    j = profile.jet(t, s)
    a = (j.phi - s * j.phi_s) * (j.phi + (t - s) * j.phi_s) \
        * (j.phi_s - j.phi_t + s * (j.phi_ts + j.phi_ss))
    b = s * (t - s) * j.phi_ss \
        * (j.phi * (j.phi_s - j.phi_t) + s * j.phi_s * (j.phi_t + j.phi_s))
    return (a + b) / j.phi ** 3


def _uw_residual(d: UWData, t: float, s: float) -> float:
    return (s * d.U * (d.U - t) * d.W_s
            - s * (d.U - t) * d.U_s * d.W
            - 2.0 * (d.U - s) * d.U_s)


def wk_residual_uw(profile: MetricProfile, t: float, s: float) -> float:
    """Left side of the weakly-Kahler equation in U, W (already scale-free)."""
    return _uw_residual(uw(profile, t, s), t, s)


def lemma_integrability_residual(profile: MetricProfile, t: float, s: float) -> float:
    """s (U_t + U_s) - s^2 (t-s) W_s - U; zero for every profile (phi_ts = phi_st)."""
    d = uw(profile, t, s)
    return s * (d.U_t + d.U_s) - s * s * (t - s) * d.W_s - d.U


def k2_k3_identity_residual(profile: MetricProfile, t: float, s: float) -> float:
    """dk2/ds + U dk3/ds; identically zero for every unitary-invariant profile."""
    j = profile.jet(t, s)
    _, k2, k3 = _spray_scalars(**_order1_jets(j, t, s))
    return k2.partial(0, 1) + _u(t, s, j.phi, j.phi_s) * k3.partial(0, 1)


def holomorphic_curvature_closed(profile: MetricProfile, pv: PointVector,
                                 jet: PhiJet | None = None) -> float:
    """K_F from the general closed form in k2, k3 and their (t, s)-derivatives.

    ``jet``, the order-3 jet at (pv.t, pv.s), is taken here when not passed in.
    """
    t, s = pv.t, pv.s
    if jet is None:
        jet = profile.jet(t, s)
    _, k2, k3 = _spray_scalars(**_order1_jets(jet, t, s))
    U = _u(t, s, jet.phi, jet.phi_s)
    term2 = s * (k2.partial(1, 0) + k2.partial(0, 1)) + k2.value
    term3 = s * (k3.partial(1, 0) + k3.partial(0, 1)) + 2.0 * k3.value
    return -(2.0 / jet.phi) * (term2 + U * term3)


def holomorphic_curvature_wk(profile: MetricProfile, pv: PointVector,
                             jet: PhiJet | None = None) -> float:
    """K_F under the weakly-Kahler condition, in U and W only.

    The precondition is enforced by evaluating the weakly-Kahler residual at
    the same (t, s) rather than trusting the profile's family tag.  ``jet``,
    the order-3 jet at (pv.t, pv.s), is taken here when not passed in.
    """
    t, s = pv.t, pv.s
    _check_uw_domain(profile, t, s)
    if jet is None:
        jet = profile.jet(t, s)
    d = _uw_data(jet, t, s)
    residual = _uw_residual(d, t, s)
    if abs(residual) >= WK_RESIDUAL_GATE:
        raise NotWeaklyKahler(
            f"weakly-Kahler residual {residual:.3e} exceeds gate {WK_RESIDUAL_GATE:.1e}")
    if abs(d.U_s) < US_DEGENERACY:
        raise DegenerateUs(f"U_s = {d.U_s} is degenerate")
    return -(2.0 / jet.phi) * (s * (d.W_t + d.W_s)
                           - s * s * (t - s) * d.W_s ** 2 / d.U_s
                           + d.W)


def holomorphic_curvature_direct(profile: MetricProfile, pv: PointVector,
                                 cfg: FDConfig | None = None) -> float:
    """K_F from its definition, by Wirtinger FD of the closed-form spray.

    K_F = -(2/G^2) G_g delta_nubar(2 GG^g) vbar^nu with the conjugated
    horizontal derivative delta_nubar = d/dzbar^nu - conj(N^m_nu) d/dvbar^m.
    Both contractions are directional: contracting vbar^nu turns the
    z-derivative term into the anti-holomorphic derivative of
    tau -> spray(z + tau v, v) at tau = 0, and conj(N^m_nu) vbar^nu = conj(2 GG^m)
    turns the v-derivative term into the same along tau -> spray(z, v + tau 2GG).
    Both come from one stencil of spray(z + tau_z dz, v + tau_v dv) over
    (tau_z, tau_v) in C^2.
    """
    cfg = cfg or FDConfig()
    z, v = pv.z, pv.v
    spray0 = _spray_vector(profile, z, v)
    ga, phi = _g_alpha(profile, pv)
    G = pv.r * phi

    scale_z = max(1.0, float(np.max(np.abs(v))))
    scale_v = max(1.0, float(np.max(np.abs(spray0))))
    dz, dv = (v / scale_z)[:, None], (spray0 / scale_v)[:, None]
    # anti[0] = sum_nu d(2GG^g)/dzbar^nu vbar^nu / scale_z, anti[1] the v-term / scale_v
    _, anti = wirtinger_gradient(
        lambda tau: _spray_vector(profile, z[:, None] + tau[0] * dz, v[:, None] + tau[1] * dv),
        np.zeros(2, dtype=complex), cfg)
    term1 = anti[0] * scale_z
    # with spray0 = 0 there is no v-transport at all
    term2 = anti[1] * scale_v if np.any(spray0) else np.zeros_like(spray0)

    value = -(2.0 / G ** 2) * np.sum(ga * (term1 - term2))
    return float(np.real(value))


def wk_spray_identities_residual(profile: MetricProfile, t: float, s: float):
    """(k1 - U_s phi^2, k2 - (W U_s - U W_s)/U_s, k3 - W_s/U_s).

    These hold for every unitary-invariant profile, with no Kahler hypothesis.
    """
    _check_uw_domain(profile, t, s)
    j = profile.jet(t, s)
    k1, k2, k3 = _spray_scalars(**_order1_jets(j, t, s))
    d = _uw_data(j, t, s)
    if abs(d.U_s) < US_DEGENERACY:
        raise DegenerateUs(f"U_s = {d.U_s} is degenerate")
    r1 = k1.value - d.U_s * j.phi * j.phi
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
    ``spray_coefficients``, are built here when not passed in.
    """
    cfg = cfg or FDConfig()
    if levi is None:
        levi = levi_closed(profile, pv, cfg)
    conn = connection_coefficients(profile, pv, cfg, levi=levi, spray=spray)
    gamma = conn.gamma
    delta = gamma - np.transpose(gamma, (0, 2, 1))
    scale_g = max(float(np.max(np.abs(gamma))), 1e-300)
    v_l1 = float(np.sum(np.abs(pv.v)))
    ga_l1 = float(np.sum(np.abs(levi.g_alpha)))
    strong = float(np.max(np.abs(delta))) / scale_g
    delta_v = np.einsum('abg,g->ab', delta, pv.v)
    kahler = float(np.max(np.abs(delta_v))) / (scale_g * v_l1)
    weakly_vec = np.einsum('a,ab->b', levi.g_alpha, delta_v)
    weakly = float(np.max(np.abs(weakly_vec))) / (scale_g * v_l1 * ga_l1)
    return KahlerReport(strong_residual=strong, kahler_residual=kahler,
                        weakly_residual=weakly)


def curvature_report(profile: MetricProfile, pv: PointVector,
                     cfg: FDConfig | None = None) -> CurvatureReport:
    """K_F by all applicable methods plus the maximal pairwise deviation.

    The weakly-Kahler value is included only where the residual gate admits
    it.  The closed and weakly-Kahler values share one order-3 jet.
    """
    cfg = cfg or FDConfig()
    jet = profile.jet(pv.t, pv.s)
    kf_closed = holomorphic_curvature_closed(profile, pv, jet)
    kf_direct = holomorphic_curvature_direct(profile, pv, cfg)
    try:
        kf_wk = holomorphic_curvature_wk(profile, pv, jet)
    except (NotWeaklyKahler, DegenerateUs, DomainViolation):
        kf_wk = None
    values = [kf_direct, kf_closed] + ([kf_wk] if kf_wk is not None else [])
    dev = max(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:])
    return CurvatureReport(kf_direct=kf_direct, kf_closed=kf_closed,
                           kf_wk=kf_wk, pairwise_dev=dev)
