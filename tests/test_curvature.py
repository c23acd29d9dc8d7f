"""U/W transform, weakly-Kahler residuals, curvature formulas, classification."""

import math

import numpy as np
import pytest

import finslercheck as fc
from finslercheck.errors import DegenerateUs, DomainViolation, NotWeaklyKahler
from finslercheck.jets import NCOEF, Jet2
from finslercheck import curvature
from finslercheck.tensors import _spray, k_scalars

from conftest import CATALOG_NAMES, make_points, synthetic_profile

WK_NAMES = ["h-const", "h-linear", "h-square", "h-exp", "h-rational",
            "wk-linear", "wk-square", "wk-exp", "wk-rational",
            "model-k4", "model-k0", "model-km4"]


class TestUW:
    def test_flat_model_values(self):
        d = fc.uw(fc.model_profile(0, 1.0), 1.0, 0.25)
        # for this family U = sqrt(t s) and W = 1/sqrt(t s)
        assert d.U == pytest.approx(0.5, rel=1e-12)
        assert d.W == pytest.approx(2.0, rel=1e-12)
        assert d.U_s == pytest.approx(1.0, rel=1e-12)
        assert d.U_t == pytest.approx(0.25, rel=1e-12)
        assert d.W_s == pytest.approx(-4.0, rel=1e-12)
        assert d.W_t == pytest.approx(-1.0, rel=1e-12)

    def test_linear_hermitian_values(self):
        d = fc.uw(fc.hermitian_profile(fc.Linear(1.0)), 1.0, 0.25)
        assert d.U == pytest.approx(0.4, rel=1e-14)
        assert d.W == pytest.approx(1.6, rel=1e-14)

    @pytest.mark.parametrize("name", ["h-exp", "wk-rational", "model-k4"])
    def test_inverse_relations(self, name, profiles):
        # phi_s = (U - s)/(s (t - s)) phi and phi_t = (W - (U-s)/(s(t-s))) phi
        prof = profiles[name]
        for pv in make_points(prof, count=4, seed=41):
            t, s = pv.t, pv.s
            d = fc.uw(prof, t, s)
            j = prof.raw_jet(t, s, 3)
            phi, phi_t, phi_s = j.partial(0, 0), j.partial(1, 0), j.partial(0, 1)
            ratio = (d.U - s) / (s * (t - s))
            assert abs(ratio * phi - phi_s) < 1e-10 * max(1.0, abs(phi_s))
            assert abs((d.W - ratio) * phi - phi_t) < 1e-10 * max(1.0, abs(phi_t))

    def test_domain_guards(self):
        prof = fc.model_profile(0, 1.0)
        with pytest.raises(DomainViolation):
            fc.uw(prof, 1.0, 0.0)
        with pytest.raises(DomainViolation):
            fc.uw(prof, 1.0, 1.0)  # s = t excluded for U/W consumers


class TestWeaklyKahlerResiduals:
    @pytest.mark.parametrize("name", ["h-linear", "h-square", "h-exp", "h-rational"])
    def test_hermitian_phi_residual_vanishes(self, name, profiles):
        prof = profiles[name]
        for pv in make_points(prof, count=5, seed=43):
            assert abs(fc.wk_residual_phi(prof, pv.t, pv.s)) < 1e-10

    @pytest.mark.parametrize("name", ["wk-linear", "wk-square", "wk-exp", "wk-rational"])
    def test_wk_randers_residuals_vanish(self, name, profiles):
        prof = profiles[name]
        for pv in make_points(prof, count=50, seed=47):
            assert abs(fc.wk_residual_phi(prof, pv.t, pv.s)) < 1e-8
            assert abs(fc.wk_residual_uw(prof, pv.t, pv.s)) < 1e-8

    def test_flat_model_hand_value(self):
        # with U = 0.5, U_s = 1, W = 2, W_s = -4 at (1, 1/4) the terms cancel
        assert fc.wk_residual_uw(fc.model_profile(0, 1.0), 1.0, 0.25) == \
            pytest.approx(0.0, abs=1e-14)

    def test_perturbed_residuals_move_away(self, profiles):
        prof = profiles["perturbed"]
        pts = make_points(prof, count=50, seed=53)
        big_phi = sum(abs(fc.wk_residual_phi(prof, pv.t, pv.s)) > 1e-3 for pv in pts)
        big_uw = sum(abs(fc.wk_residual_uw(prof, pv.t, pv.s)) > 1e-3 for pv in pts)
        assert big_phi >= 0.9 * len(pts)
        assert big_uw >= 0.9 * len(pts)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_co_vanishing_of_both_forms(self, name, profiles):
        # the two formulations vanish together: both < 1e-8 or both > 1e-6
        prof = profiles[name]
        for pv in make_points(prof, count=5, seed=59):
            a = abs(fc.wk_residual_phi(prof, pv.t, pv.s))
            b = abs(fc.wk_residual_uw(prof, pv.t, pv.s))
            assert (a < 1e-8 and b < 1e-8) or (a > 1e-6 and b > 1e-6)

    def test_library_call_returns_ieee_values(self):
        # outside run_suite a public function warns and returns nan, where the
        # suite would raise: phi^3 underflows to 0 at c = 1e-150
        with pytest.warns(RuntimeWarning, match="invalid value"):
            residual = fc.wk_residual_phi(fc.model_profile(0, 1e-150), 0.5, 0.2)
        assert math.isnan(residual)


class TestUniversalIdentities:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_integrability_residual(self, name, profiles):
        # holds for every profile, weakly Kahler or not
        prof = profiles[name]
        for pv in make_points(prof, count=5, seed=61):
            assert abs(fc.lemma_integrability_residual(prof, pv.t, pv.s)) < 1e-8

    def test_integrability_hand_points(self):
        assert abs(fc.lemma_integrability_residual(
            fc.hermitian_profile(fc.Linear(1.0)), 1.0, 0.25)) < 1e-14
        assert abs(fc.lemma_integrability_residual(
            fc.model_profile(4, 1.0), 0.5, 0.1)) < 1e-8

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_k2_k3_identity(self, name, profiles):
        prof = profiles[name]
        for pv in make_points(prof, count=5, seed=67):
            assert abs(fc.k2_k3_identity_residual(prof, pv.t, pv.s)) < 1e-7

    def test_k2_k3_euclidean_exact(self, euclidean):
        assert fc.k2_k3_identity_residual(euclidean, 1.0, 0.3) == 0.0

    @pytest.mark.parametrize("name", ["h-exp", "wk-square", "perturbed"])
    def test_spray_identities(self, name, profiles):
        prof = profiles[name]
        for pv in make_points(prof, count=5, seed=71):
            k1, k2, k3 = k_scalars(prof, pv.t, pv.s)
            d = fc.uw(prof, pv.t, pv.s)
            phi = prof.raw_jet(pv.t, pv.s, 3).value
            r1 = k1 - d.U_s * phi * phi
            r2 = k2 - (d.W * d.U_s - d.U * d.W_s) / d.U_s
            r3 = k3 - d.W_s / d.U_s
            assert abs(r1) / max(1.0, abs(k1)) < 1e-7
            assert abs(r2) < 1e-7
            assert abs(r3) < 1e-7

    def test_wk_specialized_k2(self, profiles):
        # under the weakly-Kahler condition k2 = -2 (U - s)/(s (U - t))
        prof = profiles["wk-square"]
        for pv in make_points(prof, count=5, seed=73):
            _, k2, _ = k_scalars(prof, pv.t, pv.s)
            d = fc.uw(prof, pv.t, pv.s)
            expected = -2.0 * (d.U - pv.s) / (pv.s * (d.U - pv.t))
            assert abs(k2 - expected) < 1e-7 * max(1.0, abs(k2))


class TestCurvature:
    def test_euclidean_flat_by_all_methods(self, euclidean):
        pv = fc.PointVector(np.array([0.8 + 0.1j, -0.3 + 0.6j]),
                            np.array([1.0 + 0j, 0.4 - 0.2j]))
        assert fc.holomorphic_curvature_closed(euclidean, pv) == pytest.approx(0.0, abs=1e-12)
        assert fc.holomorphic_curvature_disc(euclidean, pv) == pytest.approx(0.0, abs=1e-10)

    def test_flat_model_wk_hand_value(self):
        prof = fc.model_profile(0, 1.0)
        pts = [pv for pv in make_points(prof, count=10, seed=79)]
        pv = pts[0]
        assert abs(fc.holomorphic_curvature_wk(prof, pv)) < 1e-12

    @pytest.mark.parametrize("k,c", [(4, 1.0), (0, 1.0), (-4, 1.0), (4, 0.5), (-4, 2.0)])
    def test_models_have_constant_curvature(self, k, c):
        prof = fc.model_profile(k, c)
        for pv in make_points(prof, count=5, seed=83):
            assert abs(fc.holomorphic_curvature_closed(prof, pv) - k) < 1e-6
            assert abs(fc.holomorphic_curvature_wk(prof, pv) - k) < 1e-6
            assert abs(fc.holomorphic_curvature_disc(prof, pv) - k) < 1e-4

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_direct_matches_closed_everywhere(self, name, profiles):
        # the FD evaluation of the definition, along the disc, against the
        # closed form, with no Kahler hypothesis
        prof = profiles[name]
        for pv in make_points(prof, count=3, seed=89):
            closed = fc.holomorphic_curvature_closed(prof, pv)
            disc = fc.holomorphic_curvature_disc(prof, pv)
            assert abs(closed - disc) < 1e-4

    @pytest.mark.parametrize("name", WK_NAMES)
    def test_wk_matches_closed_on_weakly_kahler(self, name, profiles):
        prof = profiles[name]
        for pv in make_points(prof, count=3, seed=97):
            closed = fc.holomorphic_curvature_closed(prof, pv)
            wk = fc.holomorphic_curvature_wk(prof, pv)
            assert abs(closed - wk) < 1e-6

    def test_wk_guard_rejects_perturbed(self, profiles):
        prof = profiles["perturbed"]
        pv = make_points(prof, count=1, seed=101)[0]
        with pytest.raises(NotWeaklyKahler):
            fc.holomorphic_curvature_wk(prof, pv)

    def test_degenerate_us_guard(self):
        # phi = exp(-s): U = s (1 - t + s), so U_s = 1 - t + 2s vanishes at
        # t = 1 + 2s while the weakly-Kahler residual also vanishes there
        def jet_fn(t, s, order):
            c = [0.0] * NCOEF[order]
            e = math.exp(-s)
            sign = 1.0
            js = [0, 2, 5, 9]  # positions of the pure-s coefficients
            fact = [1.0, 1.0, 2.0, 6.0]
            for j in range(order + 1):
                c[js[j]] = sign * e / fact[j]
                sign = -sign
            return Jet2(order, c)

        prof = synthetic_profile(jet_fn, lambda t, s: math.exp(-s))
        with pytest.raises(DegenerateUs):
            _call_wk_at(prof, 2.0, 0.5)

    def test_constancy_of_closed_curvature(self):
        prof = fc.model_profile(4, 1.0)
        vals = [fc.holomorphic_curvature_closed(prof, pv)
                for pv in make_points(prof, count=20, seed=103)]
        assert np.std(vals, ddof=1) < 1e-8

    def test_scale_invariance_of_flat_family(self):
        # the flat model with c in {0.5, 1, 2} scales phi; curvature stays 0
        for c in (0.5, 1.0, 2.0):
            prof = fc.model_profile(0, c)
            for pv in make_points(prof, count=3, seed=107):
                assert abs(fc.holomorphic_curvature_closed(prof, pv)) < 1e-10
                assert abs(fc.wk_residual_phi(prof, pv.t, pv.s)) < 1e-10

    def test_report_assembles_all_methods(self, profiles):
        prof = profiles["model-k4"]
        pv = make_points(prof, count=1, seed=109)[0]
        rep = fc.curvature_report(prof, pv)
        assert rep.kf_wk.shape == () and not np.ma.is_masked(rep.kf_wk)
        kf = (rep.kf_disc, rep.kf_closed, rep.kf_wk)
        assert max(abs(a - b) for a in kf for b in kf) < 1e-4
        prof2 = profiles["perturbed"]
        pv2 = make_points(prof2, count=1, seed=109)[0]
        rep2 = fc.curvature_report(prof2, pv2)
        assert rep2.kf_wk.shape == () and np.ma.is_masked(rep2.kf_wk)


def _disc_at(prof, pv, w):
    """K(w) of the disc z + zeta v + zeta^2 w at the lone pair ``pv``, for each column of w."""
    m = w.shape[1]
    cols = fc.PointVector(np.repeat(pv.z[:, None], m, axis=1), np.repeat(pv.v[:, None], m, axis=1))
    return curvature._disc_curvature(prof, cols, w)


def _fitted_maximum(prof, pv, step=0.5):
    """K at the maximiser of the quadratic fitted to K(w) by central differences about w = 0.

    K is a concave quadratic in (Re w, Im w), flat along w || v; the fit uses no spray.
    """
    dim = 2 * pv.n
    to_w = np.concatenate([np.eye(pv.n), 1j * np.eye(pv.n)], axis=1)
    e = step * np.eye(dim)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    x = np.array([np.zeros(dim)] + [sign * e[i] for i in range(dim) for sign in (1, -1)]
                 + [a * e[i] + b * e[j] for i, j in pairs for a, b in
                    ((1, 1), (1, -1), (-1, 1), (-1, -1))]).T
    k = _disc_at(prof, pv, to_w @ x)
    plus, minus, cross = k[1:2 * dim + 1:2], k[2:2 * dim + 1:2], k[2 * dim + 1:].reshape(-1, 4)
    grad = (plus - minus) / (2 * step)
    hess = np.diag((plus - 2 * k[0] + minus) / step ** 2)
    for (i, j), (pp, pm, mp, mm) in zip(pairs, cross):
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4 * step ** 2)
    best = -np.linalg.pinv(hess, rcond=1e-8, hermitian=True) @ grad
    return _disc_at(prof, pv, (to_w @ best)[:, None])[0]


DISC_NAMES = ["model-k4", "wk-exp", "perturbed", "h-exp"]


class TestDiscCurvature:
    """K_F is the largest curvature at 0 of a holomorphic disc through (z; v)."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", DISC_NAMES)
    def test_connection_free_maximum(self, name, n, profiles):
        # measured: at most 2.4e-9 over these profiles and the k = 0 and -4 models
        prof = profiles[name]
        for pv in make_points(prof, n=n, count=3, seed=5):
            closed = fc.holomorphic_curvature_closed(prof, pv)
            assert abs(_fitted_maximum(prof, pv) - closed) < 1e-8

    @pytest.mark.parametrize("name", CATALOG_NAMES[1:])
    def test_straight_disc_is_a_lower_bound(self, name, profiles):
        # the Euclidean profile (first) has a zero spray: its straight disc is the geodesic one
        prof = profiles[name]
        for n in (2, 3):
            pvs = make_points(prof, n=n, count=5, seed=6)
            for pv in pvs:
                straight = _disc_at(prof, pv, np.zeros((n, 1)))[0]
                assert straight < fc.holomorphic_curvature_closed(prof, pv)

    @pytest.mark.parametrize("name", CATALOG_NAMES[1:])
    def test_a_wrong_spray_lowers_the_disc(self, name, profiles):
        prof = profiles[name]
        for pv in make_points(prof, n=3, count=3, seed=7):
            _, k2, k3 = k_scalars(prof, pv.t, pv.s)
            w = -0.5 * _spray(k2, k3, pv.pairing, pv.z, pv.v)
            kf = _disc_at(prof, pv, np.stack([w, 0.9 * w, 1.1 * w], axis=1))
            assert kf[0] == fc.holomorphic_curvature_disc(prof, pv)
            assert kf[1] < kf[0] and kf[2] < kf[0]


def _call_wk_at(prof, t, s):
    """Invoke the wk curvature formula at a synthetic (t, s) point."""
    z = np.array([math.sqrt(t) + 0j, 0.0])
    sigma = s / t
    v = np.array([math.sqrt(sigma) + 0j, math.sqrt(1.0 - sigma)])
    return fc.holomorphic_curvature_wk(prof, fc.PointVector(z, v))


class TestKahlerClassification:
    def test_hermitian_is_kahler(self, profiles):
        prof = profiles["h-rational"]
        for pv in make_points(prof, count=3, seed=113):
            rep = fc.kahler_classify(prof, pv)
            assert rep.strong_residual < 1e-6
            assert rep.kahler_residual < 1e-6
            assert rep.weakly_residual < 1e-6

    def test_wk_exponential_is_weakly_but_not_kahler(self, profiles):
        prof = profiles["wk-exp"]
        hits = 0
        pts = make_points(prof, count=10, seed=127)
        for pv in pts:
            rep = fc.kahler_classify(prof, pv)
            if rep.weakly_residual < 1e-6 and rep.kahler_residual > 1e-3:
                hits += 1
        assert hits >= 0.9 * len(pts)

    def test_perturbed_h_breaks_weakly(self, profiles):
        prof = profiles["perturbed"]
        pts = make_points(prof, count=10, seed=131)
        hits = sum(fc.kahler_classify(prof, pv).weakly_residual > 1e-3 for pv in pts)
        assert hits >= 0.9 * len(pts)

    @pytest.mark.parametrize("name", ["h-exp", "wk-exp", "model-k4", "perturbed"])
    def test_residual_implication_chain(self, name, profiles):
        # contraction can only shrink a vanishing antisymmetry
        prof = profiles[name]
        for pv in make_points(prof, count=3, seed=137):
            rep = fc.kahler_classify(prof, pv)
            assert rep.kahler_residual < rep.strong_residual * (1 + 1e-6) + 1e-10
            assert rep.weakly_residual < rep.kahler_residual * (1 + 1e-6) + 1e-10
