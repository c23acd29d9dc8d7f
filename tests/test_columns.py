"""Closed forms on stencil columns: the bits of the lone point, one field call per stencil."""

import math
import re
import warnings

import numpy as np
import pytest

import finslercheck as fc
from finslercheck import cli as fc_cli
from finslercheck import curvature, numerics, suite
from finslercheck.errors import (
    DegenerateK1,
    DegenerateUs,
    DomainViolation,
    FinslerCheckError,
    NotWeaklyKahler,
    StencilOutsideDomain,
)
from finslercheck.jets import NCOEF, Jet2
from finslercheck.sampling import Samples
from finslercheck.suite import SuiteConfig, run_suite
from finslercheck.tensors import _levi_matrix, _spray_vector, invariants, k_scalars

from conftest import CATALOG_NAMES, make_points, slice_counts, synthetic_profile

M = 9


def column_jets(rng, order, positive=False):
    """A jet with array coefficients and the jets of its columns."""
    coeffs = rng.normal(size=(NCOEF[order], M))
    if positive:
        coeffs[0] = 0.5 + np.abs(coeffs[0])
    return Jet2(order, list(coeffs)), [Jet2(order, coeffs[:, k].tolist()) for k in range(M)]


def assert_columns(got, singles):
    """Every coefficient of the array jet ``got`` carries the bits of the single-point jets."""
    for slot in range(len(got.c)):
        column = np.broadcast_to(got.c[slot], (M,))
        assert column.tolist() == [one.c[slot] for one in singles], slot


class TestJetColumns:
    OPS = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "add-float": lambda a, b: a + 0.7,
        "rsub-float": lambda a, b: 0.7 - a,
        "mul-float": lambda a, b: 2.5 * a,
        "div-float": lambda a, b: a / 3.0,
        "rdiv-float": lambda a, b: 3.0 / b,
        "neg": lambda a, b: -a,
        "sqrt": lambda a, b: b.sqrt(),
        "chain": lambda a, b: a * b - 2.0 * (a / b),
    }

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_array_coefficients_match_scalar_bits(self, op, order, rng):
        fn = self.OPS[op]
        a, a_cols = column_jets(rng, order)
        b, b_cols = column_jets(rng, order, positive=True)
        assert_columns(fn(a, b), [fn(x, y) for x, y in zip(a_cols, b_cols)])
        # the operands' coefficient arrays are never updated in place
        assert_columns(a, a_cols)
        assert_columns(b, b_cols)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_constructors_take_arrays(self, order, rng):
        t = 0.5 + rng.random(M)
        derivs = [rng.normal(size=M) for _ in range(order + 1)]
        assert_columns(Jet2.var_s(t, order), [Jet2.var_s(x, order) for x in t.tolist()])
        assert_columns(Jet2.var_t(t, order), [Jet2.var_t(x, order) for x in t.tolist()])
        assert_columns(Jet2.from_t_derivs(derivs, order),
                       [Jet2.from_t_derivs([d[k] for d in derivs], order) for k in range(M)])
        # a mixed jet: array value, float derivatives (as var_s of a stencil)
        a, a_cols = column_jets(rng, order, positive=True)
        S = Jet2.var_s(t, order)
        assert_columns((a * S).sqrt() / S,
                       [(x * Jet2.var_s(s, order)).sqrt() / Jet2.var_s(s, order)
                        for x, s in zip(a_cols, t.tolist())])

    def test_numpy_operand_defers_to_the_jet(self, rng):
        a, a_cols = column_jets(rng, 2)
        scale = rng.normal(size=M)
        got = scale * a
        assert isinstance(got, Jet2)
        assert_columns(got, [s * x for s, x in zip(scale.tolist(), a_cols)])

    def test_float_jets_stay_python_floats(self):
        a = Jet2(3, [1.3, 0.2, 0.1, 0.05, 0.01, 0.02, 0.001, 0.002, 0.003, 0.004])
        b = Jet2.var_s(0.4, 3) + Jet2.from_t_derivs((2.0, 0.5, 0.25, 0.125), 3)
        for jet in (a + b, a - b, a * b, a / b, a.sqrt(), 1.0 - a, 2.0 / b, a + 1,
                    Jet2.constant(2, 3), Jet2.var_t(1, 3)):
            assert all(type(x) is float for x in jet.c), jet

    def test_guards_fire_at_a_single_column(self):
        value = np.array([1.0, 0.0, 2.0])
        zero = Jet2(1, [value, 1.0, 1.0])
        with pytest.raises(ZeroDivisionError):
            Jet2(1, [np.ones(3), 0.0, 0.0]) / zero
        with pytest.raises(ValueError, match="non-positive"):
            zero.sqrt()


def stencil_points(prof, n=3, count=3, seed=17):
    """Columns (n, m) of z and v, built from sampled points and small moves of them."""
    zs, vs = [], []
    for pv in make_points(prof, n=n, count=count, seed=seed):
        for k in range(3):
            zs.append(pv.z + 1e-4 * k * pv.v)
            vs.append(pv.v * (1.0 + 1e-4j * k))
    return np.array(zs).T.copy(), np.array(vs).T.copy()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_raw_jet_columns_match_scalar_bits(name, profiles):
    prof = profiles[name]
    z, v = stencil_points(prof)
    _, t, s, _ = invariants(z, v)
    for order in (1, 2, 3):
        got = prof.raw_jet(t, s, order)
        singles = [prof.raw_jet(a, b, order) for a, b in zip(t.tolist(), s.tolist())]
        for slot in range(NCOEF[order]):
            column = np.broadcast_to(got.c[slot], t.shape).tolist()
            assert column == [one.c[slot] for one in singles], (order, slot)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_closed_forms_on_columns_match_scalar_bits(name, profiles):
    prof = profiles[name]
    z, v = stencil_points(prof)
    _, t, s, _ = invariants(z, v)
    got_k = k_scalars(prof, t, s)
    for k, (a, b) in enumerate(zip(t.tolist(), s.tolist())):
        assert [x[k] for x in got_k] == list(k_scalars(prof, a, b))
    spray, levi = _spray_vector(prof, z, v), _levi_matrix(prof, z, v)
    assert spray.shape == z.shape and levi.shape == (3, 3, z.shape[1])
    for k in range(z.shape[1]):
        assert np.array_equal(spray[:, k], _spray_vector(prof, z[:, k], v[:, k]))
        assert np.array_equal(levi[..., k], _levi_matrix(prof, z[:, k], v[:, k]))


class TestWkDerivativesFetchedOnce:
    @staticmethod
    def counted_exponential():
        f = fc.Exponential(1.0)
        calls = []
        method = f.derivs

        def derivs(t, order):
            calls.append(order)
            return method(t, order)

        f.derivs = derivs
        return f, calls

    @pytest.mark.parametrize("h_scale", [1.0, 1.1])
    def test_one_fetch_per_evaluation(self, h_scale):
        f, calls = self.counted_exponential()
        prof = fc.wk_randers_profile(f, h_scale=h_scale)
        ts = np.array([0.5, 0.7, 0.9])
        for t, s in ((0.7, 0.3), (ts, 0.4 * ts)):
            for evaluate in (lambda: prof.value(t, s), lambda: prof.raw_jet(t, s, 3),
                             lambda: prof.raw_jet(t, s, 1)):
                del calls[:]
                evaluate()
                assert len(calls) == 1

    @pytest.mark.parametrize("h_scale", [1.0, 1.1])
    def test_same_bits_as_separate_fetches(self, h_scale):
        f = fc.Exponential(1.0)
        shared = fc.wk_randers_profile(f, h_scale=h_scale)
        h = fc.WkH(f) if h_scale == 1.0 else fc.Scaled(fc.WkH(f), h_scale)
        separate = fc.randers_profile(f, fc.WkG(f), h)
        ts = np.linspace(0.2, 2.0, 7)
        ss = ts * np.linspace(0.1, 0.9, 7)
        assert shared.value(ts, ss).tolist() == separate.value(ts, ss).tolist()
        for t, s in zip(ts.tolist(), ss.tolist()):
            assert shared.value(t, s) == separate.value(t, s)
            assert shared.raw_jet(t, s, 3).c == separate.raw_jet(t, s, 3).c


def count_field_calls(monkeypatch):
    """Record the columns of every field call the stencil engine makes."""
    calls = []
    evaluate = numerics._evaluate

    def counted(field, columns, **kwargs):
        calls.append(columns.shape)
        return evaluate(field, columns, **kwargs)

    monkeypatch.setattr(numerics, "_evaluate", counted)
    return calls


class TestOneFieldCall:
    def test_direct_curvature(self, monkeypatch, profiles):
        calls = count_field_calls(monkeypatch)
        for pv in make_points(profiles["model-k4"], n=3, count=2, seed=3):
            del calls[:]
            fc.holomorphic_curvature_direct(profiles["model-k4"], pv)
            # tau = (tau_z, tau_v): 2 coordinates x 2 axes x 6 distinct points
            assert calls == [(2, 24)]

    def test_connection_coefficients(self, monkeypatch, profiles):
        calls = count_field_calls(monkeypatch)
        for n in (2, 3):
            for pv in make_points(profiles["wk-exp"], n=n, count=1, seed=4):
                del calls[:]
                fc.connection_coefficients(profiles["wk-exp"], pv)
                assert calls == [(2 * n, 2 * n * 2 * 6)]

    def test_classify_builds_levi_once(self, monkeypatch, profiles):
        from finslercheck import curvature, tensors
        prof = profiles["wk-exp"]
        pv = make_points(prof, n=2, count=1, seed=4)[0]
        expected = curvature.kahler_classify(prof, pv)
        built = []
        levi_closed = tensors.levi_closed

        def counted(*args, **kwargs):
            built.append(1)
            return levi_closed(*args, **kwargs)

        monkeypatch.setattr(tensors, "levi_closed", counted)
        monkeypatch.setattr(curvature, "levi_closed", counted)
        assert curvature.kahler_classify(prof, pv) == expected
        assert len(built) == 1


def s_profile(derivs):
    """A synthetic profile phi(s), from ``derivs(s)``: phi and its s-derivatives to order 3."""
    def jet(t, s, order):
        c = [0.0 * t] * NCOEF[order]
        for j, d in enumerate(derivs(s)[: order + 1]):
            c[(0, 2, 5, 9)[j]] = d / math.factorial(j) + 0.0 * t
        return Jet2(order, c)

    return synthetic_profile(jet, lambda t, s: derivs(s)[0])


def pairs(t, s):
    """Pairs (z, v) at n = 2 with invariants (t, s): one pair, or pairs as columns."""
    t, s = np.asarray(t), np.asarray(s)
    return fc.PointVector(np.array([np.sqrt(t), 0.0 * t]) + 0j,
                          np.array([np.sqrt(s / t), np.sqrt(1.0 - s / t)]) + 0j)


# phi = exp(-s): U_s = 1 - t + 2 s, and the weakly-Kahler residual is -U_s (s^3 - s)
# on t = 1 + 2 s - U_s; 1e-10 off that line both the gate and U_s pass
EXP_MINUS_S = s_profile(lambda s: (np.exp(-s), -np.exp(-s), np.exp(-s), -np.exp(-s)))
NEAR_LINE = [1.0 + 2.0 * s - 1e-10 for s in (0.3, 0.4, 0.5, 0.6)]
EXTREME = ([0.5, 0.6, 1e-300, 0.7], [0.1, 0.2, 1e-301, 0.3])

# guard: (profile, evaluate(profile, t, s), ts, ss, error); the failing point is column 2
GUARDS = {
    "region": ("wk-exp", lambda p, t, s: p.raw_jet(t, s, 2),
               [0.5, 0.6, 0.7, 0.8], [0.2, 0.3, 0.5e-6 * 0.7, 0.4], DomainViolation),
    "phi": (s_profile(lambda s: (1.0 - s, -1.0, 0.0, 0.0)), fc.wk_residual_phi,
            [2.0] * 4, [0.2, 0.5, 1.5, 0.7], DomainViolation),
    "uw-margin": ("wk-exp", fc.uw, [0.5, 0.6, 0.7, 0.8], [0.2, 0.3, 0.7, 0.4], DomainViolation),
    "uw-validity": ("wk-exp", fc.uw, [0.5, 0.6, 0.7, 0.8], [0.2, 0.3, 0.5e-6 * 0.7, 0.4],
                    DomainViolation),
    # k1 = 1 - t/2
    "k1": (s_profile(lambda s: (1.0 - 0.5 * s, -0.5, 0.0, 0.0)), k_scalars,
           [1.0, 0.5, 2.0, 3.0], [0.5] * 4, DegenerateK1),
    "wk-gate": (EXP_MINUS_S, lambda p, t, s: fc.holomorphic_curvature_wk(p, pairs(t, s)),
                NEAR_LINE[:2] + [1.0] + NEAR_LINE[3:], [0.3, 0.4, 0.5, 0.6], NotWeaklyKahler),
    "us": (EXP_MINUS_S, lambda p, t, s: fc.holomorphic_curvature_wk(p, pairs(t, s)),
           NEAR_LINE[:2] + [2.0] + NEAR_LINE[3:], [0.3, 0.4, 0.5, 0.6], DegenerateUs),
    "extreme-t-region": (fc.hermitian_profile(fc.Power(1.0, -0.5)),
                         lambda p, t, s: p.raw_jet(t, s, 3), *EXTREME, DomainViolation),
    "extreme-t-fetch": ("wk-exp", lambda p, t, s: p.raw_jet(t, s, 3), *EXTREME, DomainViolation),
}


class TestDomainEdgesOnColumns:
    @pytest.mark.parametrize("guard", list(GUARDS))
    def test_a_failing_column_raises_as_that_point_alone(self, guard, profiles):
        prof, evaluate, ts, ss, error = GUARDS[guard]
        prof = profiles[prof] if isinstance(prof, str) else prof
        alone = outcome(lambda: evaluate(prof, ts[2], ss[2]))
        assert isinstance(alone, str) and alone.startswith(f"{error.__name__}: "), alone
        assert outcome(lambda: evaluate(prof, np.array(ts), np.array(ss))) == alone
        for t, s in ((ts[2], ss[2]), (math.nan, ss[2])):
            assert type(prof.is_valid(t, s)) is bool and type(prof.smooth_at(t, s)) is bool

    def test_one_column_outside_the_ball(self):
        # k = -4, c = 1 lives on t < 1; with dz = v only the column tau_z = +2h leaves it
        prof = fc.model_profile(-4, 1.0)
        h, a = numerics.DEFAULT_STEP, 0.6
        z = np.array([1.0 - 1.5 * h * a + 0j, 0.0])
        v = np.array([a + 0j, 0.8])
        pv = fc.PointVector(z, v)
        assert prof.is_valid(pv.t, pv.s)
        t_along = [invariants(z + tau * v, v)[1] for tau in (h / 2, h, 2 * h)]
        assert t_along[0] < t_along[1] < 1.0 < t_along[2]
        with pytest.raises(StencilOutsideDomain) as info:
            fc.holomorphic_curvature_direct(prof, pv)
        named = re.search(r"\(t, s\) = \(([^,]+), ([^)]+)\)", str(info.value))
        assert named and abs(float(named.group(1)) - t_along[2]) < 1e-12

    def test_one_column_below_the_randers_guard(self, profiles):
        prof = profiles["wk-exp"]
        ts = np.array([0.5, 0.6, 0.7, 0.8])
        ss = np.array([0.2, 0.5e-6 * 0.6, 0.3, 0.4e-6 * 0.8])
        with pytest.raises(DomainViolation, match=r"\(t, s\) = \(0.6, 3e-07\)"):
            prof.raw_jet(ts, ss, 2)
        ss[1] = 0.3
        with pytest.raises(DomainViolation, match=r"\(t, s\) = \(0.8, 3.2e-07\)"):
            prof.raw_jet(ts, ss, 2)

    def test_one_degenerate_k1_column(self):
        # phi = 1 - s/2: k1 = 1 - t/2, zero at t = 2 while phi stays positive
        def jet_fn(t, s, order):
            c = [0.0] * NCOEF[order]
            c[0] = 1.0 - 0.5 * s
            c[2] = -0.5
            return Jet2(order, c)

        prof = synthetic_profile(jet_fn, lambda t, s: 1.0 - 0.5 * s)
        ts, ss = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5])
        with pytest.raises(DegenerateK1, match=r"k1 = 0.0 "):
            k_scalars(prof, ts, ss)
        k1, _, _ = k_scalars(prof, ts[[0, 2]], ss[[0, 2]])
        assert k1.tolist() == [0.5, -0.5]


def pairs_at(t, fractions, n=2, seed=0):
    """PointVectors with |z|^2 = t and s/t = each fraction, in random directions."""
    rng = np.random.default_rng(seed)
    out = []
    for sigma in fractions:
        e = rng.normal(size=n) + 1j * rng.normal(size=n)
        e /= np.linalg.norm(e)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        w -= np.sum(w * np.conj(e)) * e
        w /= np.linalg.norm(w)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2))
        out.append(fc.PointVector(np.sqrt(t) * e, np.sqrt(sigma) * phase[0] * e
                                  + np.sqrt(1.0 - sigma) * phase[1] * w))
    return out


def outcome(evaluate):
    """What a check gives: its result, or the class and message of its error."""
    try:
        return evaluate()
    except FinslerCheckError as exc:
        return f"{type(exc).__name__}: {exc}"


def columns_of(pvs):
    return fc.PointVector(np.stack([pv.z for pv in pvs], axis=1),
                          np.stack([pv.v for pv in pvs], axis=1))


def assert_chunk_is_per_sample(prof, pvs, names=suite.CHECK_NAMES):
    """Each check over ``pvs`` at once gives, bit for bit, the per-sample records.

    Where some sample raises, the chunk raises the error of the first one.
    Returns the per-sample results (G and the check's outputs) by check.
    """
    cfg = numerics.FDConfig()
    unitary = fc.seeded_unitary(pvs[0].n, 1)
    cols = columns_of(pvs)
    out = {}
    for name in names:
        singles = [outcome(lambda: suite._check_rows(suite._Chunk(prof, pv, cfg, unitary),
                                                     (name,))[0])
                   for pv in pvs]
        errors = [one for one in singles if isinstance(one, str)]
        chunk = outcome(lambda: suite._check_rows(suite._Chunk(prof, cols, cfg, unitary),
                                                  (name,)))
        if errors:
            assert chunk == errors[0], name
        else:
            # repr tells the bits apart (and -0.0 from 0.0) and shows the key order
            assert [repr(row) for row in chunk] == [repr(one) for one in singles], name
            assert [row["G"] for row in chunk] == [pv.r * prof.value(pv.t, pv.s) for pv in pvs]
        out[name] = singles
    return out


class TestSamplesAsColumns:
    def test_point_vector_columns_carry_each_pair(self, profiles):
        pvs = make_points(profiles["wk-exp"], n=3, count=6, seed=2)
        cols = columns_of(pvs)
        assert cols.n == 3
        for name in ("r", "t", "s", "pairing"):
            assert getattr(cols, name).tolist() == [getattr(pv, name) for pv in pvs]
        with pytest.raises(ValueError, match="equal shape"):
            fc.PointVector(cols.z, cols.v[:, :3])

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("name", ["wk-exp", "model-k4", "perturbed"])
    def test_larger_n(self, name, n, profiles):
        # at n >= 4 a sum over the first axis of (n, m) columns differs from the sum of one column
        results = assert_chunk_is_per_sample(profiles[name], make_points(profiles[name], n=n,
                                                                        count=6, seed=5))
        has_wk = ["kf_wk" in rec for rec in results["curvature"]]
        assert all(has_wk) if name != "perturbed" else not any(has_wk)

    def test_randers_guard(self, profiles):
        # s/t just above 1e-6: the jet-only checks hold, the direct curvature's stencil
        # crosses the guard at every sample
        prof = profiles["wk-exp"]
        pvs = pairs_at(0.7, np.linspace(1.001e-6, 1.2e-6, 6))
        results = assert_chunk_is_per_sample(prof, pvs)
        assert all(isinstance(one, dict) for one in results["wk_uw"])
        assert all(one.startswith("StencilOutsideDomain") for one in results["curvature"])

    @pytest.mark.parametrize("name", ["model-k4", "wk-exp"])
    def test_uw_margin(self, name, profiles):
        # s/t across 1 - 1e-6: kf_wk drops out exactly where the wk formula raises
        prof = profiles[name]
        pvs = pairs_at(0.8, np.linspace(1.0 - 1.5e-6, 1.0 - 0.5e-6, 11))
        results = assert_chunk_is_per_sample(prof, pvs)
        raises = [isinstance(outcome(lambda: fc.holomorphic_curvature_wk(prof, pv)), str)
                  for pv in pvs]
        assert 0 < sum(raises) < len(pvs)
        assert ["kf_wk" not in rec for rec in results["curvature"]] == raises
        assert results["wk_uw"][raises.index(True)].startswith("DomainViolation: U/W transform")

    def test_near_the_edge_of_the_ball(self, profiles):
        prof = profiles["model-km4"]
        assert_chunk_is_per_sample(prof, make_points(prof, n=2, count=8, seed=7,
                                                     t_range=(0.99, 0.995)))

    def test_uw_domain_off_the_interval(self, profiles):
        # t at the k = -4 pole t = c = 1 and past it: masked out without a
        # floating-point error, which would send a chunk the per-sample way
        prof = profiles["model-km4"]
        t = np.array([0.5, 1.0, 1.5, 0.9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                margin, valid = curvature._uw_domain(prof, t, 0.5 * t)
                with pytest.raises(DomainViolation,
                                   match=r"^\(t, s\) = \(1.0, 0.5\) outside profile validity$"):
                    fc.wk_residual_uw(prof, t, 0.5 * t)
        assert margin.tolist() == [True] * 4
        assert valid.tolist() == [True, False, False, True]

    def test_large_z(self, profiles):
        prof = profiles["model-k0"]
        assert_chunk_is_per_sample(prof, make_points(prof, n=3, count=8, seed=8,
                                                     t_range=(0.99e6, 1.01e6)))

    @pytest.mark.parametrize("name", ["model-km4", "perturbed"])
    def test_public_functions_take_columns(self, name, profiles):
        prof = profiles[name]
        pvs = make_points(prof, n=3, count=5, seed=12)
        cols = columns_of(pvs)
        for fn in (fc.holomorphic_curvature_closed, fc.holomorphic_curvature_direct,
                   fc.holomorphic_curvature_wk):
            singles = [outcome(lambda: fn(prof, pv)) for pv in pvs]
            errors = [one for one in singles if isinstance(one, str)]
            got = outcome(lambda: fn(prof, cols))
            assert (got == errors[0]) if errors else (got.tolist() == singles), fn.__name__
        for fn in (fc.wk_residual_phi, fc.wk_residual_uw, fc.lemma_integrability_residual,
                   fc.k2_k3_identity_residual):
            assert fn(prof, cols.t, cols.s).tolist() == [fn(prof, pv.t, pv.s) for pv in pvs]

    def test_phi_jet_guards_every_column(self):
        def jet_fn(t, s, order):
            c = [0.5 + 0.0 * t for _ in range(NCOEF[order])]
            c[0] = 1.0 - t
            c[-1] = np.where(t > 2.5, np.inf, 0.5)
            return Jet2(order, c)

        prof = synthetic_profile(jet_fn, lambda t, s: 1.0 - t)
        ts = np.array([0.2, 0.5, 1.5, 2.0])
        for t, s in ((ts, 0.1 * ts), (1.5, 0.15)):
            with pytest.raises(DomainViolation, match=r"^phi must be positive, got -0.5$"):
                fc.wk_residual_phi(prof, t, s)
        with pytest.raises(DomainViolation, match=r"^phi must be positive, got -0.5$"):
            prof.smooth_jet(1.5, 0.15, 3)
        ts = np.array([0.2, 3.0])
        with pytest.raises(DomainViolation, match=r"^non-finite jet entry$"):
            fc.wk_residual_phi(prof, ts, 0.1 * ts)


def field_columns(monkeypatch):
    """Record (field name, columns) of every field call the stencil engine makes."""
    calls = []
    evaluate = numerics._evaluate

    def counted(field, columns, **kwargs):
        calls.append((field.__qualname__.split(".")[0], columns.shape[1]))
        return evaluate(field, columns, **kwargs)

    monkeypatch.setattr(numerics, "_evaluate", counted)
    return calls


def per_sample_only(monkeypatch):
    """Send every chunk the per-sample way: each sample alone, checks in order."""
    rows = suite._check_rows

    def lone_only(ctx, checks):
        if np.ndim(ctx.pv.t):
            raise ValueError("columns refused")
        return rows(ctx, checks)

    monkeypatch.setattr(suite, "_check_rows", lone_only)


def run_cli(argv, capsys):
    """(exit code, stderr lines) of one CLI run."""
    code = fc_cli.main(argv)
    return code, capsys.readouterr().err.splitlines()


class TestOracleChunks:
    """The FD-oracle checks over a chunk, each field call within numerics.FIELD_VALUES values."""

    @staticmethod
    def nconn_columns(prof, n):
        """Columns of one sample's nconn stencil."""
        with pytest.MonkeyPatch.context() as mp:
            calls = field_columns(mp)
            fc.nonlinear_connection_fd(prof, make_points(prof, n=n, count=1, seed=1)[0])
        return calls[0][1]

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_records_match_a_per_sample_run(self, n, monkeypatch, profiles):
        # three samples per nconn field call, five per chunk: counts 1,
        # budget - 1, budget, budget + 1 and CHUNK + 1 cross every seam
        prof = profiles["wk-exp"]
        budget, chunk = 3, 5
        monkeypatch.setattr(suite, "CHUNK", chunk)
        monkeypatch.setattr(numerics, "FIELD_VALUES", budget * self.nconn_columns(prof, n))
        configs = [SuiteConfig(profile={"family": "wk-randers",
                                        "f": {"kind": "exp", "c": 1.0, "a": 1.0}},
                               sample=fc.SampleSpec(n=n, count=count, seed=20 + count))
                   for count in (1, budget - 1, budget, budget + 1, chunk + 1)]
        calls = field_columns(monkeypatch)
        chunked = [run_suite(config) for config in configs]
        nconn = [size for name, size in calls if name == "nonlinear_connection_fd"]
        assert max(nconn) == numerics.FIELD_VALUES
        per_sample_only(monkeypatch)
        for config, got in zip(configs, chunked):
            want = run_suite(config)
            assert len(got.records) == config.sample.count
            assert [repr(rec) for rec in got.records] == [repr(rec) for rec in want.records]
            assert repr(got) == repr(want)

    def test_library_oracle_slices_by_itself(self, monkeypatch, profiles):
        # no budget passed: more samples than one field call holds, each with its bits alone
        prof = profiles["wk-exp"]
        pvs = make_points(prof, n=3, count=30, seed=4)
        calls = field_columns(monkeypatch)
        fc.levi_oracle(prof, pvs[0])
        size = calls.pop()[1]
        H = fc.levi_oracle(prof, columns_of(pvs))
        assert [columns for _, columns in calls] == \
            [k * size for k in slice_counts(30, numerics.FIELD_VALUES // size)]
        assert len(calls) > 2
        for k, pv in enumerate(pvs):
            assert np.array_equal(H[k], fc.levi_oracle(prof, pv))

    @pytest.mark.parametrize("n", [2, 4])
    def test_stencil_leaving_the_ball_mid_chunk(self, n, monkeypatch, capsys):
        # the fifth of eight samples has t = 0.9985: its nconn stencil crosses t = 1
        argv = ["verify", "--model", "km4", "--t-range", "0.9", "0.99999", "--n", str(n),
                "--samples", "8", "--seed", "3"]
        code, err = run_cli(argv, capsys)
        assert code == 3 and len(err) == 1
        assert re.fullmatch(r"numerical error: stencil point rejected: \(t, s\) = \(1\.0\d+, "
                            r"[\d.]+\) outside validity region of randers profile", err[0])
        per_sample_only(monkeypatch)
        assert run_cli(argv, capsys) == (code, err)

    @staticmethod
    def singular_samples(monkeypatch):
        """phi = 1 - s/2, whose k1 = 1 - t/2 vanishes at t = 2; of five samples the third has t = 2."""
        def jet_fn(t, s, order):
            c = [0.0 * t for _ in range(NCOEF[order])]
            c[0] = 1.0 - 0.5 * s + 0.0 * t
            c[2] = -0.5 + 0.0 * t
            return Jet2(order, c)

        prof = synthetic_profile(jet_fn, lambda t, s: 1.0 - 0.5 * s + 0.0 * t)
        z = np.array([[1.0, 0.5], [0.8, 0.6], [1.0, 1.0], [1.2, 0.3], [0.9, 0.2]]).T + 0j
        v = np.array([[0.3 + 0.2j, 1.0 - 0.4j]] * 5).T * np.array([1.0, 1.1, 0.9, 1.3, 0.7])
        samples = Samples(list(range(5)), z, v)
        monkeypatch.setattr(suite, "profile_from_descriptor", lambda desc: prof)
        monkeypatch.setattr(suite, "sample_domain_detailed", lambda spec, prof: (samples, []))
        return samples

    @pytest.mark.parametrize("checks, error", [
        (None, r"numerical error: eigenvalue magnitude below threshold \S+"),
        ("curvature", r"numerical error: k1 = \S+ is degenerate relative to phi\^2 = \S+"),
    ], ids=["singular-levi", "degenerate-k1"])
    def test_degenerate_sample_mid_chunk(self, checks, error, monkeypatch, capsys):
        samples = self.singular_samples(monkeypatch)
        prof = suite.profile_from_descriptor(None)
        names = (checks,) if checks else suite.CHECK_NAMES
        alone = [outcome(lambda: suite._check_rows(
            suite._Chunk(prof, samples.point(k), numerics.FDConfig(), np.eye(2)), names))
            for k in range(5)]
        # the third sample, t = 2, is the only one that raises
        assert [isinstance(one, str) for one in alone] == [False, False, True, False, False]
        argv = ["verify", "--model", "k4", "--n", "2", "--samples", "5", "--t-range", "0.5", "3"]
        argv += ["--checks", checks] if checks else []
        code, err = run_cli(argv, capsys)
        assert code == 3 and len(err) == 1
        assert re.fullmatch(error, err[0])
        per_sample_only(monkeypatch)
        assert run_cli(argv, capsys) == (code, err)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9])
def test_quadratic_form_keeps_the_one_sample_einsum_order(n, rng):
    M = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
    v = rng.normal(size=(n, 50)) + 1j * rng.normal(size=(n, 50))
    want = [complex(np.einsum('ab,a,b->', M[k], v[:, k], np.conj(v[:, k]))) for k in range(50)]
    assert suite._quadratic_form(M, v).tolist() == want
    assert [complex(suite._quadratic_form(M[k], v[:, k])) for k in range(50)] == want
