"""The universal identities of F = sqrt(r phi(t, s)), proved for a generic phi.

The spray scalars k1, k2, k3 of ``tensors._levi_head`` and
``tensors._spray_scalars`` and the U/W transform of ``curvature`` are
transcribed below into sympy, with phi an undetermined function of (t, s).
Each identity then reduces to 0 as a rational function of phi's partials.  The
package's float closed forms, and its two weakly-Kahler residuals, are tied to
the transcription by evaluating it with mpmath at 50 digits on random order-3
jets of phi.

sympy is an optional dependency (the ``symbolic`` extra); without it this
module is skipped.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
import mpmath  # noqa: E402  (a dependency of sympy)

from finslercheck import curvature, tensors  # noqa: E402
from finslercheck.jets import INDICES, NCOEF, Jet2  # noqa: E402

from conftest import synthetic_profile  # noqa: E402

t, s = sympy.symbols("t s", positive=True)
phi = sympy.Function("phi")(t, s)
phi_t, phi_s = phi.diff(t), phi.diff(s)
phi_ts, phi_ss = phi.diff(t, s), phi.diff(s, 2)

# tensors._levi_head and tensors._spray_scalars
head = phi + (t - s) * phi_s
k1 = (phi - s * phi_s) * head + s * (t - s) * phi * phi_ss
k2 = ((head + s * (t - s) * phi_ss) * (phi_t + phi_s) - s * head * (phi_ts + phi_ss)) / k1
k3 = (phi * (phi_ts + phi_ss) - phi_s * (phi_t + phi_s)) / k1

# curvature._u and curvature._uw_data
U = (s * phi + s * (t - s) * phi_s) / phi
W = (phi_t + phi_s) / phi
U_s, U_t, W_s, W_t = U.diff(s), U.diff(t), W.diff(s), W.diff(t)

# curvature.wk_residual_phi and curvature.wk_residual_uw
WK_PHI = ((phi - s * phi_s) * head * (phi_s - phi_t + s * (phi_ts + phi_ss))
          + s * (t - s) * phi_ss * (phi * (phi_s - phi_t) + s * phi_s * (phi_t + phi_s))
          ) / phi ** 3
WK_UW = s * U * (U - t) * W_s - s * (U - t) * U_s * W - 2 * (U - s) * U_s

IDENTITIES = {
    "k1": k1 - U_s * phi ** 2,
    "k2": k2 - (W * U_s - U * W_s) / U_s,
    "k3": k3 - W_s / U_s,
    "integrability": s * (U_t + U_s) - s ** 2 * (t - s) * W_s - U,
    "k2k3": k2.diff(s) + U * k3.diff(s),
}


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_identity_holds_for_every_phi(name):
    assert sympy.simplify(sympy.together(IDENTITIES[name])) == 0


# phi's partials to order 2 as plain symbols, for numeric evaluation
PARTIALS = {(i, j): sympy.Symbol(f"phi_{i}{j}") for i, j in INDICES[:NCOEF[2]]}
AS_SYMBOLS = {phi.diff(*[t] * i, *[s] * j) if i + j else phi: symbol
              for (i, j), symbol in PARTIALS.items()}


def _evaluator(exprs):
    """mpmath evaluation of ``exprs`` at (t, s) and phi's partials in ``PARTIALS`` order."""
    return sympy.lambdify([t, s, *PARTIALS.values()],
                          [expr.xreplace(AS_SYMBOLS) for expr in exprs], modules="mpmath")


def random_jets(count, seed=20260219):
    """``count`` points (t, s) with 0 < s < t, each with a random order-3 jet of phi > 0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t_at = float(rng.uniform(0.2, 3.0))
        s_at = t_at * float(rng.uniform(0.05, 0.95))
        coeffs = rng.normal(size=NCOEF[3])
        coeffs[0] = rng.uniform(0.5, 2.0)
        yield t_at, s_at, coeffs.tolist()


def test_float_closed_forms_match_the_transcription():
    k_ref = _evaluator([k1, k2, k3])
    uw_ref = _evaluator([U, W, U_s, U_t, W_s, W_t])
    wk_ref = _evaluator([WK_PHI, WK_UW])
    worst = 0.0
    with mpmath.workdps(50):
        for t_at, s_at, coeffs in random_jets(50):
            prof = synthetic_profile(lambda t, s, order, c=coeffs: Jet2(order, c[:NCOEF[order]]),
                                     lambda t, s, c=coeffs: c[0])
            jet = prof.raw_jet(t_at, s_at, 3)
            args = [mpmath.mpf(t_at), mpmath.mpf(s_at)] + \
                [mpmath.mpf(jet.partial(i, j)) for i, j in PARTIALS]
            d = curvature.uw(prof, t_at, s_at)
            got = list(tensors.k_scalars(prof, t_at, s_at)) + \
                [d.U, d.W, d.U_s, d.U_t, d.W_s, d.W_t] + \
                [curvature.wk_residual_phi(prof, t_at, s_at, jet),
                 curvature.wk_residual_uw(prof, t_at, s_at, d)]
            for x, ref in zip(got, k_ref(*args) + uw_ref(*args) + wk_ref(*args), strict=True):
                worst = max(worst, float(abs(x - ref) / max(1, abs(ref))))
    assert worst < 1e-14
