"""Wirtinger differentiation and Hermitian linear algebra against exact values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finslercheck as fc
from finslercheck import numerics
from finslercheck.errors import (
    ConfigError,
    DomainViolation,
    HermitianViolation,
    NonFiniteEvaluation,
    SingularMatrix,
    StencilOutsideDomain,
)
from finslercheck.numerics import FDConfig

from conftest import slice_counts


class TestWirtingerGradient:
    def test_bilinear_exact(self):
        # f = w1 * conj(w2): df/dw1 = conj(w2), df/dwbar2 = w1, others 0
        point = np.array([1.0 + 0j, 2.0 + 0j])
        holo, anti = fc.wirtinger_gradient(lambda w: w[0] * np.conj(w[1]), point)
        assert np.allclose(holo, [2.0, 0.0], atol=1e-9)
        assert np.allclose(anti, [0.0, 1.0], atol=1e-9)

    def test_modulus_squared_single_variable(self):
        holo, anti = fc.wirtinger_gradient(lambda w: abs(w[0]) ** 2,
                                           np.array([3.0 + 0j]))
        assert abs(holo[0] - 3.0) < 1e-9
        assert abs(anti[0] - 3.0) < 1e-9

    def test_exponential_mixed(self):
        # f = exp(w + wbar) is real-valued; both derivatives equal exp(2 Re w)
        expected = math.exp(0.4)
        point = np.array([0.2 + 0.1j])
        holo, anti = fc.wirtinger_gradient(
            lambda w: np.exp(w[0] + np.conj(w[0])), point)
        assert abs(holo[0] - expected) < 1e-8
        assert abs(anti[0] - expected) < 1e-8

    @given(x=st.floats(-1.5, 1.5), y=st.floats(-1.5, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_real_field_conjugation_symmetry(self, x, y):
        # anti = conj(holo) for real-valued fields, within 10 * step^2
        cfg = FDConfig()

        def field(w):
            return (abs(w[0]) ** 2 + np.cos(w[0] + np.conj(w[0]))).real

        holo, anti = fc.wirtinger_gradient(field, np.array([complex(x, y)]), cfg)
        assert abs(anti[0] - np.conj(holo[0])) < 10.0 * cfg.step ** 2

    def test_richardson_convergence_order(self):
        # doubling the level count must shrink the coarse-step error by >= 10x
        point = np.array([0.2 + 0.1j])
        expected = math.exp(0.4)

        def field(w):
            return np.exp(w[0] + np.conj(w[0]))

        errs = {}
        for levels in (1, 2):
            holo, _ = fc.wirtinger_gradient(
                field, point, FDConfig(step=0.1, richardson_levels=levels))
            errs[levels] = abs(holo[0] - expected)
        assert errs[1] > 10.0 * errs[2]

    def test_nonfinite_field_raises(self):
        with pytest.raises(NonFiniteEvaluation):
            fc.wirtinger_gradient(lambda w: float("nan"), np.array([0j]))

    def test_domain_rejection_becomes_stencil_error(self):
        def field(w):
            if np.any(w[0].real > 1.0):
                raise DomainViolation("out of range")
            return abs(w[0]) ** 2

        with pytest.raises(StencilOutsideDomain):
            fc.wirtinger_gradient(field, np.array([1.0 + 0j]))


class TestMixedHessian:
    def test_euclidean_norm_gives_identity(self):
        H = fc.wirtinger_mixed_hessian(
            lambda w: abs(w[0]) ** 2 + abs(w[1]) ** 2,
            np.array([0.3 + 0.2j, -0.4 + 1.1j]))
        assert np.allclose(H, np.eye(2), atol=1e-8)

    def test_product_modulus(self):
        # f = |w1 w2|^2 at (1, 2): diag (4, 1), cross term conj(w1) w2 = 2
        H = fc.wirtinger_mixed_hessian(
            lambda w: abs(w[0] * w[1]) ** 2, np.array([1.0 + 0j, 2.0 + 0j]))
        assert np.allclose(H, [[4.0, 2.0], [2.0, 1.0]], atol=1e-6)

    def test_hermitian_for_real_fields(self):
        H = fc.wirtinger_mixed_hessian(
            lambda w: (abs(w[0]) ** 2 * abs(w[1]) ** 2
                       + np.cos(w[0] + np.conj(w[0])).real),
            np.array([0.7 - 0.3j, 0.2 + 0.5j]))
        assert np.max(np.abs(H - H.conj().T)) < 1e-10

    def test_violation_on_complex_contamination(self):
        # real at the center, but an imaginary part with a nonzero mixed
        # second derivative leaks in off-center: both H[0,1] and H[1,0] pick
        # up +i/4 * 0.01, which cannot be conjugate-symmetric
        def field(w):
            x = w[0].real - 0.5
            u = w[1].real - 0.25
            return abs(w[0]) ** 2 + 0.01j * x * u

        with pytest.raises(HermitianViolation):
            fc.wirtinger_mixed_hessian(field, np.array([0.5 + 0j, 0.25 + 0j]))


class TestWirtingerSecond:
    def test_cross_block_mixed(self):
        # f = w1 * conj(w2) + |w1|^2 |w2|^2: d^2 f / dw1 dwbar2 = 1 + conj(w1) w2
        point = np.array([0.4 + 0.3j, -0.2 + 0.8j])

        def field(w):
            return w[0] * np.conj(w[1]) + abs(w[0]) ** 2 * abs(w[1]) ** 2

        got = fc.wirtinger_second(field, point, 0, 1, conj_i=False, conj_j=True)
        expected = 1.0 + np.conj(point[0]) * point[1]
        assert abs(got - expected) < 1e-8

    def test_same_index_diagonal(self):
        got = fc.wirtinger_second(lambda w: abs(w[0]) ** 4, np.array([1.2 - 0.7j]),
                                  0, 0, conj_i=False, conj_j=True)
        # d^2 |w|^4 / dw dwbar = 4 |w|^2
        assert abs(got - 4.0 * abs(1.2 - 0.7j) ** 2) < 1e-7


class TestHermitianInverseDet:
    def test_identity(self):
        inv, det = fc.hermitian_inverse_det(np.eye(2, dtype=complex))
        assert np.allclose(inv, np.eye(2))
        assert det == pytest.approx(1.0)

    def test_diagonal(self):
        inv, det = fc.hermitian_inverse_det(np.diag([2.0 + 0j, 1.0]))
        assert np.allclose(inv, np.diag([0.5, 1.0]))
        assert det == pytest.approx(2.0)

    def test_two_by_two_cofactor(self):
        m = np.array([[2.0, 1j], [-1j, 2.0]])
        inv, det = fc.hermitian_inverse_det(m)
        assert det == pytest.approx(3.0)
        assert np.allclose(inv, np.array([[2.0, -1j], [1j, 2.0]]) / 3.0, atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_inverse_times_matrix_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = a @ a.conj().T + np.eye(3)  # Hermitian, well-conditioned
        inv, det = fc.hermitian_inverse_det(m)
        assert np.max(np.abs(inv @ m - np.eye(3))) < 1e-10
        assert det > 0

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            fc.hermitian_inverse_det(np.diag([1.0 + 0j, 1e-15]))

    def test_asymmetric_raises(self):
        with pytest.raises(HermitianViolation):
            fc.hermitian_inverse_det(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


class TestPositiveDefinite:
    def test_identity_true(self):
        assert fc.positive_definite(np.eye(3, dtype=complex))

    def test_indefinite_false(self):
        assert not fc.positive_definite(np.diag([1.0 + 0j, -1.0]))

    def test_gram_matrix_true(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert fc.positive_definite(a @ a.conj().T + 0.1 * np.eye(4))

    def test_negative_trace_false(self):
        assert not fc.positive_definite(-np.eye(2, dtype=complex))

    def test_rank_deficient_false(self):
        v = np.array([1.0, 2.0 + 1j])
        assert not fc.positive_definite(np.outer(v, v.conj()))


class TestFDConfig:
    def test_step_bounds(self):
        with pytest.raises(ValueError):
            FDConfig(step=1.5)
        with pytest.raises(ValueError):
            FDConfig(step=0.0)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            FDConfig(richardson_levels=5)
        with pytest.raises(ValueError):
            FDConfig(richardson_levels=0)

    def test_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            FDConfig(step=2.0)
        with pytest.raises(ConfigError):
            FDConfig(richardson_levels=9)
        with pytest.raises(ConfigError):
            FDConfig(tol_pd=0.0)


def _gradient(field, point):
    return fc.wirtinger_gradient(field, point)


def _second(field, point):
    return fc.wirtinger_second(field, point, np.arange(point.size), 0,
                               conj_i=False, conj_j=True)


def _hessian(field, point):
    return fc.wirtinger_mixed_hessian(field, point)


ENGINE_CALLS = [_gradient, _second, _hessian]
ENGINE_POINT = np.array([0.4 + 0.3j, -0.2 + 0.8j, 0.1 - 0.5j])


def smooth_field(w):
    return abs(w[0]) ** 2 * abs(w[1]) ** 2 + np.cos(w[2] + np.conj(w[2])).real


def vector_field(w):
    # d(w0 conj w1)/dw0 = conj(w1), d|w2|^2/dwbar2 = w2
    return np.stack([w[0] * np.conj(w[1]), abs(w[2]) ** 2])


class TestStencilEngine:
    """One field call per derivative request, with every stencil point policed."""

    @pytest.mark.parametrize("call", ENGINE_CALLS)
    def test_field_called_once_on_columns(self, call):
        seen = []

        def field(w):
            seen.append(w.shape)
            return smooth_field(w)

        call(field, ENGINE_POINT)
        assert len(seen) == 1
        dim, m = seen[0]
        assert dim == ENGINE_POINT.size and m > 1

    @pytest.mark.parametrize("call", ENGINE_CALLS)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_single_nonfinite_point_raises(self, call, where):
        def field(w):
            out = np.asarray(smooth_field(w), dtype=float).copy()
            k = {"first": 0, "middle": out.size // 2, "last": -1}[where]
            out[k] = np.nan
            return out

        with pytest.raises(NonFiniteEvaluation):
            call(field, ENGINE_POINT)

    @pytest.mark.parametrize("call", ENGINE_CALLS)
    def test_single_rejected_point_raises(self, call):
        # only p + 2h e_x0, the outermost point along +x of coordinate 0, is rejected
        p = ENGINE_POINT
        edge = p[0].real + 1.5 * FDConfig().step

        def field(w):
            outside = ((w[0].real > edge) & (w[0].imag == p[0].imag)
                       & (w[1] == p[1]) & (w[2] == p[2]))
            if np.count_nonzero(outside) != 1:
                pytest.fail("exactly one stencil point was meant to be outside")
            if np.any(outside):
                raise DomainViolation("one point outside")
            return smooth_field(w)

        with pytest.raises(StencilOutsideDomain):
            call(field, ENGINE_POINT)

    def test_parts_differentiate_each_block_with_its_own_step(self):
        # blocks of different sizes get different base steps; each block's
        # derivatives carry the bits of a separate call with the rest held fixed
        point = np.array([1.5 + 0.3j, -0.2 + 0.8j, 3.0 - 0.5j])
        holo, anti = fc.wirtinger_gradient(smooth_field, point, parts=(2, 1))

        def held(block):
            def field(w):
                full = np.repeat(point[:, None], w.shape[1], axis=1)
                full[block] = w
                return smooth_field(full)
            return fc.wirtinger_gradient(field, point[block])

        for block in (slice(0, 2), slice(2, 3)):
            holo_b, anti_b = held(block)
            assert np.array_equal(holo[block], holo_b)
            assert np.array_equal(anti[block], anti_b)
        # one block is the plain call
        plain = fc.wirtinger_gradient(smooth_field, point)
        assert np.array_equal(fc.wirtinger_gradient(smooth_field, point, parts=(3,))[0], plain[0])
        with pytest.raises(ValueError, match="parts"):
            fc.wirtinger_gradient(smooth_field, point, parts=(1, 1))

    def test_vector_field_gradient_shape(self):
        holo, anti = fc.wirtinger_gradient(vector_field, ENGINE_POINT, shape=(2,))
        assert holo.shape == anti.shape == (3, 2)
        assert abs(holo[0, 0] - np.conj(ENGINE_POINT[1])) < 1e-9
        assert abs(anti[2, 1] - ENGINE_POINT[2]) < 1e-9

    def test_many_pairs_match_single_pairs(self):
        rows, cols = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
        many = fc.wirtinger_second(smooth_field, ENGINE_POINT, rows, cols,
                                   conj_i=True, conj_j=False)
        assert many.shape == (3, 3)
        for a in range(3):
            for b in range(3):
                one = fc.wirtinger_second(smooth_field, ENGINE_POINT, a, b,
                                          conj_i=True, conj_j=False)
                assert isinstance(one, complex)
                assert one == many[a, b]

    def test_field_without_point_axis_is_rejected(self):
        with pytest.raises(ValueError, match="trailing axis"):
            fc.wirtinger_gradient(lambda w: 1.0, ENGINE_POINT)

    @pytest.mark.parametrize("call", ENGINE_CALLS + [
        lambda field, point: fc.wirtinger_gradient(field, point, shape=(3,)),
        lambda field, point: fc.wirtinger_gradient(field, point, shape=(2, 1))],
        ids=["gradient", "second", "hessian", "gradient-3", "gradient-2x1"])
    def test_value_shape_other_than_declared_is_rejected(self, call):
        # the vector field's values are (2, m): none of these calls declares (2,)
        with pytest.raises(ValueError, match=r"for \d+ points, not \(.*\): values need the "
                                             "value shape and a trailing axis"):
            call(vector_field, ENGINE_POINT)


def base_points(count=7, seed=3):
    """Base points (3, count) at scales on both sides of the unit step floor."""
    rng = np.random.default_rng(seed)
    scale = np.array([0.3, 1.0, 4.0, 0.8, 2.5, 0.1, 7.0][:count])
    return ENGINE_POINT[:, None] * scale + 0.2 * (rng.normal(size=(3, count))
                                                  + 1j * rng.normal(size=(3, count)))


class TestBasePoints:
    """(dim, B) base points: field calls within the budget, each base point's bits as alone."""

    @pytest.mark.parametrize("budget", [None, 1, 100])
    def test_each_base_point_as_alone(self, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(numerics, "FIELD_VALUES", budget)
        points = base_points()
        calls = []
        evaluate = numerics._evaluate
        monkeypatch.setattr(numerics, "_evaluate",
                            lambda field, cols, **kw: (calls.append(cols.shape[1]),
                                                       evaluate(field, cols, **kw))[1])
        holo, anti = fc.wirtinger_gradient(smooth_field, points)
        rows = np.arange(3)[:, None]
        second = fc.wirtinger_second(smooth_field, points, rows, rows.T, conj_i=True,
                                     conj_j=False)
        H = fc.wirtinger_mixed_hessian(smooth_field, points)
        assert holo.shape == anti.shape == (7, 3) and second.shape == H.shape == (7, 3, 3)
        sizes = calls[:]
        for k in range(7):
            alone = fc.wirtinger_gradient(smooth_field, points[:, k])
            assert np.array_equal(holo[k], alone[0]) and np.array_equal(anti[k], alone[1])
            assert np.array_equal(second[k], fc.wirtinger_second(
                smooth_field, points[:, k], rows, rows.T, conj_i=True, conj_j=False))
            assert np.array_equal(H[k], fc.wirtinger_mixed_hessian(smooth_field, points[:, k]))
        # as many base points as the budget holds (a scalar field gives one
        # value per column), at least one
        per_point = calls[-3:]
        assert sizes == [count * size for size in per_point
                         for count in slice_counts(7, numerics.FIELD_VALUES // size)]
        assert max(sizes) <= max(numerics.FIELD_VALUES, max(per_point))

    def test_zero_base_points_give_empty_results(self, monkeypatch):
        monkeypatch.setattr(numerics, "_evaluate", lambda *args, **kw: pytest.fail("field call"))
        empty = np.zeros((3, 0), dtype=complex)
        holo, anti = fc.wirtinger_gradient(vector_field, empty, shape=(2,))
        rows = np.arange(3)[:, None]
        second = fc.wirtinger_second(smooth_field, empty, rows, rows.T, conj_i=True,
                                     conj_j=False)
        H = fc.wirtinger_mixed_hessian(smooth_field, empty, carry=np.zeros((1, 0)))
        assert holo.shape == anti.shape == (0, 3, 2)
        assert second.shape == H.shape == (0, 3, 3)

    def test_carry_rides_along(self, monkeypatch):
        monkeypatch.setattr(numerics, "FIELD_VALUES", 90)
        points, weights = base_points(), np.array([[0.5, 1.0, 2.0, 1.5, 0.7, 3.0, 1.1]])

        def weighted(w):
            return w[3].real * smooth_field(w[:3])

        H = fc.wirtinger_mixed_hessian(weighted, points, carry=weights)
        for k in range(7):
            assert np.array_equal(H[k], fc.wirtinger_mixed_hessian(
                lambda w: weights[0, k] * smooth_field(w), points[:, k]))

    def test_guards_name_the_first_bad_base_point(self):
        # real at every base point; off-centre an imaginary part with a mixed
        # second derivative leaks in at the base points flagged 1 (the first is 2)
        points = np.array([[0.5, 0.7, 0.2, 0.9, 0.4], [0.25, 0.1, 0.3, 0.6, 0.8]]) + 0j
        flags = np.array([[0.0, 0.0, 1.0, 0.0, 1.0]])

        def field(w):
            x, u = w[0].real - w[2].real, w[1].real - w[3].real
            return abs(w[0]) ** 2 + 0.01j * w[4].real * x * u

        carry = np.concatenate([points, flags])
        with pytest.raises(HermitianViolation, match="at matrix 2 of the stack$"):
            fc.wirtinger_mixed_hessian(field, points, carry=carry)
        H = fc.wirtinger_mixed_hessian(field, points[:, :2], carry=carry[:, :2])
        assert H.shape == (2, 2, 2)
        bad = base_points()
        bad[1, 4] = np.inf
        with pytest.raises(NonFiniteEvaluation):
            fc.wirtinger_gradient(smooth_field, bad)

    def test_stacked_matrices(self, rng):
        A = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        M = A @ np.conj(A).swapaxes(-1, -2) + 0.1 * np.eye(3)
        M[[1, 4]] = np.diag([1.0, 1.0, 1e-15])
        M[5] = -M[5]
        with pytest.raises(SingularMatrix, match=r"^eigenvalue magnitude below threshold "
                                                 r"1\.000e-12 at matrix 1 of the stack$"):
            fc.hermitian_inverse_det(M)
        assert fc.positive_definite(M).tolist() == [fc.positive_definite(m) for m in M] \
            == [True, False, True, True, False, False]
        good = M[[0, 2, 3]]
        inv, det = fc.hermitian_inverse_det(good)
        for k in range(3):
            one_inv, one_det = fc.hermitian_inverse_det(good[k])
            assert np.array_equal(inv[k], one_inv) and det[k] == one_det
        skew = good.copy()
        skew[2, 0, 1] += 1e-3
        with pytest.raises(HermitianViolation, match="at matrix 2 of the stack$"):
            fc.hermitian_inverse_det(skew)
        # a stack of one matrix names no place, as the matrix alone does
        for one in (M[1], M[1:2]):
            with pytest.raises(SingularMatrix, match=r"^eigenvalue magnitude below threshold "
                                                     r"1\.000e-12$"):
                fc.hermitian_inverse_det(one)
        for one in (skew[2], skew[2:3]):
            with pytest.raises(HermitianViolation, match=r"\(tol 1\.0e-08\)$"):
                numerics.check_hermitian(one)


# The point-by-point stencils the engine replaced, kept as its reference: one
# scalar field call per stencil point, summed in stencil order.
_W1, _K1 = (1.0, -8.0, 8.0, -1.0), (-2.0, -1.0, 1.0, 2.0)


def _ref_d1(f, p, d, h):
    acc = 0.0
    for w, k in zip(_W1, _K1):
        acc = acc + w * f(p + (k * h) * d)
    return acc / (12.0 * h)


def _ref_d2_same(f, p, d, h):
    return (-f(p + (2.0 * h) * d) + 16.0 * f(p + h * d) - 30.0 * f(p)
            + 16.0 * f(p - h * d) - f(p - (2.0 * h) * d)) / (12.0 * h * h)


def _ref_d2_cross(f, p, da, db, h):
    acc = 0.0
    for wa, ka in zip(_W1, _K1):
        for wb, kb in zip(_W1, _K1):
            acc = acc + (wa * wb) * f(p + (ka * h) * da + (kb * h) * db)
    return acc / (144.0 * h * h)


def _ref_rich(stencil, f, p, *dirs, cfg):
    h0 = cfg.step * max(1.0, float(np.max(np.abs(p))))
    vals = [stencil(f, p, *dirs, h0 / 2.0 ** k) for k in range(cfg.richardson_levels)]
    order = 4
    while len(vals) > 1:
        c = 2.0 ** order
        vals = [(c * fine - coarse) / (c - 1.0) for coarse, fine in zip(vals, vals[1:])]
        order += 2
    return vals[0]


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_engine_matches_point_by_point_reference(levels):
    cfg = FDConfig(step=2e-3, richardson_levels=levels)
    p = ENGINE_POINT
    # values as 0-d complex arrays, as the old per-point probe returned them
    f = lambda x: np.asarray(smooth_field(x[:, None])[0], dtype=complex)  # noqa: E731
    e = np.eye(p.size, dtype=complex)
    holo, _ = fc.wirtinger_gradient(smooth_field, p, cfg)
    H = fc.wirtinger_mixed_hessian(smooth_field, p, cfg)
    for a in range(p.size):
        dx = _ref_rich(_ref_d1, f, p, e[a], cfg=cfg)
        dy = _ref_rich(_ref_d1, f, p, 1j * e[a], cfg=cfg)
        assert holo[a] == 0.5 * (dx - 1j * dy)
        dxx = _ref_rich(_ref_d2_same, f, p, e[a], cfg=cfg)
        dyy = _ref_rich(_ref_d2_same, f, p, 1j * e[a], cfg=cfg)
        assert H[a, a] == 0.25 * (dxx + dyy)
    for a, b in ((0, 1), (1, 2)):
        cxx = _ref_rich(_ref_d2_cross, f, p, e[a], e[b], cfg=cfg)
        cyy = _ref_rich(_ref_d2_cross, f, p, 1j * e[a], 1j * e[b], cfg=cfg)
        cxy = _ref_rich(_ref_d2_cross, f, p, e[a], 1j * e[b], cfg=cfg)
        cyx = _ref_rich(_ref_d2_cross, f, p, 1j * e[a], e[b], cfg=cfg)
        hab = 0.25 * ((cxx + cyy) + 1j * (cxy - cyx))
        hba = 0.25 * ((cxx + cyy) + 1j * (cyx - cxy))
        assert H[a, b] == 0.5 * (hab + np.conj(hba))
        second = fc.wirtinger_second(smooth_field, p, a, b, conj_i=False, conj_j=True, cfg=cfg)
        assert second == 0.25 * (cxx + 1j * cxy - 1j * cyx + cyy)
