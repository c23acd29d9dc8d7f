"""Levi matrix, determinant, sprays and connections against their oracles."""

import numpy as np
import pytest

import finslercheck as fc
from finslercheck.errors import DegenerateK1, StencilOutsideDomain, ZeroVector
from finslercheck.jets import Jet2
from finslercheck.tensors import k_scalars, metric_scalars

from conftest import CATALOG_NAMES, make_points, synthetic_profile


class TestInvariants:
    def test_orthogonal(self):
        r, t, s, p = fc.invariants(np.array([1.0 + 0j, 0.0]), np.array([0.0j, 1.0]))
        assert (r, t, s, p) == (1.0, 1.0, 0.0, 0.0)

    def test_parallel(self):
        r, t, s, p = fc.invariants(np.array([1.0 + 0j, 0.0]), np.array([2.0 + 0j, 0.0]))
        assert (r, t, s) == (4.0, 1.0, 1.0)
        assert p == 2.0

    def test_generic(self):
        r, t, s, p = fc.invariants(np.array([1.0 + 0j, 1.0]), np.array([1.0 + 0j, 0.0]))
        assert (r, t, s) == (1.0, 2.0, 1.0)
        assert p == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            fc.invariants(np.array([1.0 + 0j, 0.0]), np.array([0.0j, 0.0]))

    def test_point_vector_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            fc.PointVector(np.array([1.0 + 0j]), np.array([1.0 + 0j]))

    def test_columns_match_single_points_bitwise(self, rng):
        # the stencil engine's array path must reproduce the lone-point bits
        n, m = 4, 50
        z = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        v = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        r, t, s, p = fc.invariants(z, v)
        r1, t1, s1, p1 = fc.invariants(z[:, 0], v)   # one base point against many vectors
        for k in range(m):
            assert (r[k], t[k], s[k], p[k]) == fc.invariants(z[:, k], v[:, k])
            assert (r1[k], t1, s1[k], p1[k]) == fc.invariants(z[:, 0], v[:, k])

    def test_zero_column_rejected(self):
        v = np.array([[1.0, 0.0], [0.5, 0.0]], dtype=complex)
        with pytest.raises(ZeroVector):
            fc.invariants(np.array([1.0 + 0j, 0.5]), v)

    def test_cauchy_schwarz_holds_on_samples(self, profiles):
        for pv in make_points(profiles["model-k0"], count=20, seed=3):
            assert 0.0 < pv.s < pv.t


class TestLeviMatrix:
    def test_euclidean_identity(self, euclidean):
        pv = fc.PointVector(np.array([0.3 + 1j, -0.2 + 0.4j]),
                            np.array([1.0 + 0j, 0.5 - 0.1j]))
        levi = fc.levi_closed(euclidean, pv)
        assert np.allclose(levi.levi, np.eye(2), atol=1e-14)
        assert levi.det == pytest.approx(1.0)
        oracle = fc.levi_oracle(euclidean, pv)
        assert np.allclose(oracle, np.eye(2), atol=1e-9)

    def test_linear_hermitian_example(self):
        prof = fc.hermitian_profile(fc.Linear(1.0))
        pv = fc.PointVector(np.array([1.0 + 0j, 0.0]), np.array([0.0j, 1.0]))
        levi = fc.levi_closed(prof, pv)
        assert np.allclose(levi.levi, [[2.0, 0.0], [0.0, 1.0]], atol=1e-14)
        assert levi.det == pytest.approx(2.0)
        oracle = fc.levi_oracle(prof, pv)
        assert np.max(np.abs(levi.levi - oracle)) < 1e-6

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_matches_oracle(self, name, n, profiles):
        prof = profiles[name]
        for pv in make_points(prof, n=n, count=3, seed=11 + n):
            levi = fc.levi_closed(prof, pv)
            oracle = fc.levi_oracle(prof, pv)
            scale = np.max(np.abs(levi.levi))
            assert np.max(np.abs(levi.levi - oracle)) / scale < 1e-6

    def test_flat_model_positive_definite(self, profiles):
        for pv in make_points(profiles["model-k0"], count=5, seed=2):
            levi = fc.levi_closed(profiles["model-k0"], pv)
            assert fc.positive_definite(levi.levi)


class TestDeterminant:
    def test_euclidean_all_dimensions(self, euclidean):
        for n in (2, 3, 4):
            assert fc.det_closed(euclidean, 1.0, 0.3, n) == pytest.approx(1.0)

    def test_linear_hermitian_value(self):
        prof = fc.hermitian_profile(fc.Linear(1.0))
        assert fc.det_closed(prof, 1.0, 0.0, 2) == pytest.approx(2.0)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_linear_algebra(self, name, n, profiles):
        prof = profiles[name]
        for pv in make_points(prof, n=n, count=2, seed=5 + n):
            levi = fc.levi_closed(prof, pv)
            closed = fc.det_closed(prof, pv.t, pv.s, n)
            assert abs(closed - levi.det) / abs(levi.det) < 1e-8


class TestPseudoconvexity:
    def test_euclidean(self, euclidean):
        cond1, cond2, ok = fc.pseudoconvexity_check(euclidean, 1.0, 0.4)
        assert (cond1, cond2, ok) == (1.0, 1.0, True)

    def test_wk_square_is_convex(self, profiles):
        prof = profiles["wk-square"]
        for pv in make_points(prof, count=5, seed=9):
            _, _, ok = fc.pseudoconvexity_check(prof, pv.t, pv.s)
            assert ok

    def test_inverse_t_boundary_case(self):
        # f = 1/t: cond1 = 1/t > 0 but cond2 = 0 (f + t f' vanishes identically)
        prof = fc.hermitian_profile(fc.Power(1.0, -1.0))
        cond1, cond2, ok = fc.pseudoconvexity_check(prof, 1.0, 0.5)
        assert cond1 == pytest.approx(1.0, abs=1e-14)
        assert cond2 == pytest.approx(0.0, abs=1e-14)
        assert not ok


class TestSpray:
    def test_euclidean_vanishes(self, euclidean):
        pv = fc.PointVector(np.array([1.0 + 0.2j, -0.4j]), np.array([0.3j, 1.0 + 0j]))
        sp = fc.spray_coefficients(euclidean, pv)
        assert sp.k2 == sp.k3 == 0.0
        assert np.allclose(sp.spray, 0.0, atol=1e-14)
        assert np.allclose(sp.nconn, 0.0, atol=1e-14)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_connection_contracts_to_spray(self, name, profiles):
        # closed-form N against the closed-form spray: exact linear algebra
        prof = profiles[name]
        for pv in make_points(prof, count=3, seed=23):
            sp = fc.spray_coefficients(prof, pv)
            scale = max(1.0, float(np.max(np.abs(sp.spray))))
            assert np.max(np.abs(sp.nconn @ pv.v - sp.spray)) / scale < 1e-8

    @pytest.mark.parametrize("name", ["h-exp", "wk-exp", "model-k4", "model-km4", "perturbed"])
    def test_closed_connection_matches_fd(self, name, profiles):
        prof = profiles[name]
        for pv in make_points(prof, count=2, seed=31):
            sp = fc.spray_coefficients(prof, pv)
            nfd = fc.nonlinear_connection_fd(prof, pv)
            scale = max(1.0, float(np.max(np.abs(sp.nconn))))
            assert np.max(np.abs(sp.nconn - nfd)) / scale < 1e-6

    def test_k1_equals_us_phi_squared_on_flat_model(self, profiles):
        prof = profiles["model-k0"]
        for pv in make_points(prof, count=5, seed=13):
            k1, _, _ = k_scalars(prof, pv.t, pv.s)
            d = fc.uw(prof, pv.t, pv.s)
            phi = prof.value(pv.t, pv.s)
            assert abs(k1 - d.U_s * phi * phi) < 1e-8 * max(1.0, abs(k1))

    def test_degenerate_k1_raises(self):
        # phi = 1 - s/2: k1 = (1)(1 - t/2), zero at t = 2 while phi stays positive
        def jet_fn(t, s, order):
            from finslercheck.jets import NCOEF
            c = [0.0] * NCOEF[order]
            c[0] = 1.0 - 0.5 * s
            c[2] = -0.5
            return Jet2(order, c)

        prof = synthetic_profile(jet_fn, lambda t, s: 1.0 - 0.5 * s)
        with pytest.raises(DegenerateK1):
            k_scalars(prof, 2.0, 0.5)


class TestConnectionCoefficients:
    def test_euclidean_vanishes(self, euclidean):
        pv = fc.PointVector(np.array([0.5 + 0.1j, 1.0 - 0.3j]),
                            np.array([1.0 + 0j, 0.2 + 0.4j]))
        conn = fc.connection_coefficients(euclidean, pv)
        assert np.max(np.abs(conn.gamma)) < 1e-9
        assert np.max(np.abs(conn.cee)) < 1e-9

    def test_hermitian_kahler_symmetry(self):
        prof = fc.hermitian_profile(fc.Linear(1.0))
        for pv in make_points(prof, count=3, seed=17):
            conn = fc.connection_coefficients(prof, pv)
            asym = conn.gamma - np.transpose(conn.gamma, (0, 2, 1))
            scale = max(1.0, float(np.max(np.abs(conn.gamma))))
            assert np.max(np.abs(asym)) / scale < 1e-6

    @pytest.mark.parametrize("name", ["h-exp", "model-k4", "perturbed"])
    def test_mixed_coefficients_annihilate_v(self, name, profiles):
        # C^a_{bg} v^g = 0: the Levi matrix is invariant under complex
        # scaling of v, so its v-gradient contracts to zero along v
        prof = profiles[name]
        for pv in make_points(prof, count=2, seed=41):
            conn = fc.connection_coefficients(prof, pv)
            contracted = np.einsum('abg,g->ab', conn.cee, pv.v)
            scale = max(1.0, float(np.max(np.abs(conn.cee))))
            assert np.max(np.abs(contracted)) / scale < 1e-6

    def test_wk_randers_breaks_full_symmetry(self, profiles):
        # the headline family: torsion contracted with the metric vanishes,
        # the uncontracted symmetry does not
        prof = profiles["wk-exp"]
        for pv in make_points(prof, count=3, seed=19):
            conn = fc.connection_coefficients(prof, pv)
            asym = conn.gamma - np.transpose(conn.gamma, (0, 2, 1))
            scale = max(1.0, float(np.max(np.abs(conn.gamma))))
            assert np.max(np.abs(asym)) / scale > 1e-3
            rep = fc.kahler_classify(prof, pv)
            assert rep.weakly_residual < 1e-6


class TestEulerAndUnitary:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_euler_identities(self, name, profiles):
        prof = profiles[name]
        for pv in make_points(prof, count=3, seed=29):
            levi = fc.levi_closed(prof, pv)
            grad = abs(complex(np.sum(levi.g_alpha * pv.v)) - levi.G) / levi.G
            quad = complex(np.einsum('ab,a,b->', levi.levi, pv.v, np.conj(pv.v)))
            assert grad < 1e-10
            assert abs(quad - levi.G) / levi.G < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_unitary_invariance_of_scalars(self, n, profiles):
        prof = profiles["model-k4"]
        A = fc.seeded_unitary(n, 99)
        assert np.max(np.abs(A @ A.conj().T - np.eye(n))) < 1e-12
        for pv in make_points(prof, n=n, count=3, seed=37):
            base = metric_scalars(prof, pv.z, pv.v)
            moved = metric_scalars(prof, A @ pv.z, A @ pv.v)
            for key in base:
                dev = abs(base[key] - moved[key]) / max(1.0, abs(base[key]))
                assert dev < 1e-8, key


def counting_value(prof):
    """Make ``prof.value`` count its calls (an instance attribute shadows the method)."""
    calls = []
    method = prof.value

    def value(t, s):
        calls.append(np.shape(s))
        return method(t, s)

    prof.value = value
    return calls


class TestOracleStencils:
    """The FD oracles evaluate each stencil in one call and police every point."""

    def test_each_oracle_calls_its_field_once(self):
        prof = fc.wk_randers_profile(fc.Exponential(1.0))
        calls = counting_value(prof)
        for pv in make_points(prof, n=3, count=2, seed=5):
            del calls[:]
            fc.levi_oracle(prof, pv)
            assert len(calls) == 1 and calls[0][0] > 1
            del calls[:]
            fc.nonlinear_connection_fd(prof, pv)
            assert len(calls) == 1 and calls[0][0] > 1

    @staticmethod
    def near_randers_guard():
        # t = 1 and s just above 1e-6 t; the stencil moves v[0] by up to 2e-3
        prof = fc.wk_randers_profile(fc.Exponential(1.0))
        pv = fc.PointVector(np.array([1.0 + 0j, 0.0]), np.array([1.001e-3 + 0j, 1.0]))
        assert 1e-6 * pv.t < pv.s < 1.01e-6 * pv.t
        assert prof.is_valid(pv.t, pv.s)
        return prof, pv

    def test_levi_oracle_rejects_stencil_across_randers_guard(self):
        prof, pv = self.near_randers_guard()
        with pytest.raises(StencilOutsideDomain):
            fc.levi_oracle(prof, pv)

    def test_nconn_fd_rejects_stencil_across_randers_guard(self):
        prof, pv = self.near_randers_guard()
        with pytest.raises(StencilOutsideDomain):
            fc.nonlinear_connection_fd(prof, pv)

    def test_nconn_fd_rejects_stencil_across_ball_edge(self):
        # k = -4 model with c = 1 lives on t < 1; the z-stencil pushes t past it
        prof = fc.model_profile(-4, 1.0)
        pv = fc.PointVector(np.array([np.sqrt(0.9995) + 0j, 0.0]), np.array([0.6 + 0j, 0.8]))
        assert prof.is_valid(pv.t, pv.s)
        with pytest.raises(StencilOutsideDomain):
            fc.nonlinear_connection_fd(prof, pv)
        # the Levi oracle moves only v, so t never leaves the ball
        levi = fc.levi_closed(prof, pv)
        oracle = fc.levi_oracle(prof, pv)
        assert np.max(np.abs(levi.levi - oracle)) / np.max(np.abs(levi.levi)) < 1e-6
