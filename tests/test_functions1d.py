"""1-D catalog: closed-form derivatives against centered finite differences."""

import math

import numpy as np
import pytest

import finslercheck as fc
from finslercheck.errors import InvalidCatalogEntry
from finslercheck.functions1d import _exp, function_from_descriptor


def fd4(fn, t, h):
    """4th-order central difference of a scalar callable."""
    return (fn(t - 2 * h) - 8 * fn(t - h) + 8 * fn(t + h) - fn(t + 2 * h)) / (12 * h)


MEMBERS = [
    ("constant", fc.Constant(2.5), [0.5, 1.0, 2.0]),
    ("linear", fc.Linear(1.3), [0.5, 1.0, 2.0]),
    ("square", fc.Power(1.0, 2.0), [0.5, 1.0, 2.0]),
    ("power-2.7", fc.Power(0.8, 2.7), [0.5, 1.0, 2.0]),
    ("inverse", fc.Power(1.0, -1.0), [0.5, 1.0, 2.0]),
    ("exp", fc.Exponential(1.0), [0.5, 1.0, 2.0]),
    ("exp-neg", fc.Exponential(2.0, -0.7), [0.5, 1.0, 2.0]),
    ("rational", fc.Rational(1.0, 1.0), [0.5, 1.0, 2.0]),
    ("rational-neg", fc.Rational(4.0, -1.0), [0.5, 1.0, 1.8]),
    ("sum", fc.SumFn([fc.Linear(1.0), fc.Exponential(0.5)]), [0.5, 1.0, 2.0]),
    ("scaled", fc.Scaled(fc.Rational(1.0, 1.0), 1.1), [0.5, 1.0, 2.0]),
    ("wk-g", fc.WkG(fc.Exponential(1.0)), [0.5, 1.0, 2.0]),
    ("wk-h", fc.WkH(fc.Rational(1.0, 1.0)), [0.5, 1.0, 2.0]),
]


@pytest.mark.parametrize("name,fn,ts", MEMBERS, ids=[m[0] for m in MEMBERS])
def test_derivatives_match_finite_differences(name, fn, ts):
    # each derivative order checked against an FD of the order below
    h = 1e-3
    for t in ts:
        d = fn.derivs(t, fn.max_order)
        for k in range(1, len(d)):
            approx = fd4(lambda x, k=k: fn.derivs(x, k - 1)[k - 1], t, h)
            scale = max(1.0, abs(d[k]))
            assert abs(d[k] - approx) / scale < 1e-6, (name, t, k)


def test_wk_pair_at_exponential():
    # f = e^t at t = 1: g = (t f' - f)/(2t) = 0, h = (t f' + f)/(2t) = e
    g = fc.WkG(fc.Exponential(1.0))
    h = fc.WkH(fc.Exponential(1.0))
    assert g.value(1.0) == pytest.approx(0.0, abs=1e-14)
    assert h.value(1.0) == pytest.approx(math.e, rel=1e-14)


def test_wk_derived_loses_one_order():
    assert fc.WkG(fc.Exponential(1.0)).max_order == 3
    with pytest.raises(InvalidCatalogEntry):
        fc.WkG(fc.Exponential(1.0)).derivs(1.0, 4)


def test_rational_interval_respects_pole():
    fn = fc.Rational(4.0, -1.0)  # t / (4 - t^2), pole at t = 2
    assert fn.t_interval == (0.0, 2.0)
    assert fn.contains(1.9)
    assert not fn.contains(2.1)


def test_rational_requires_positive_a():
    with pytest.raises(InvalidCatalogEntry):
        fc.Rational(-1.0, 1.0)


def test_nonfinite_parameters_rejected():
    with pytest.raises(InvalidCatalogEntry):
        fc.Linear(float("nan"))
    with pytest.raises(InvalidCatalogEntry):
        fc.Exponential(float("inf"))


def test_ints_beyond_float_range_rejected():
    # math.isfinite(10**400) overflows converting to float; the entry is simply invalid
    with pytest.raises(InvalidCatalogEntry):
        fc.Constant(10 ** 400)
    with pytest.raises(InvalidCatalogEntry):
        fc.Power(1.0, -10 ** 400)
    with pytest.raises(InvalidCatalogEntry, match="model profile needs c > 0"):
        fc.model_profile(4, 10 ** 400)


def test_sum_interval_is_intersection():
    s = fc.SumFn([fc.Rational(4.0, -1.0), fc.Linear(1.0)])
    assert s.t_interval == (0.0, 2.0)


@pytest.mark.parametrize("name,fn,_", MEMBERS, ids=[m[0] for m in MEMBERS])
def test_descriptor_round_trip(name, fn, _):
    clone = function_from_descriptor(fn.descriptor())
    for t in (0.7, 1.4):
        assert clone.derivs(t, clone.max_order) == fn.derivs(t, fn.max_order)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidCatalogEntry):
        function_from_descriptor({"kind": "spline", "c": 1.0})
    with pytest.raises(InvalidCatalogEntry):
        function_from_descriptor({"kind": "linear"})  # missing parameter


@pytest.mark.parametrize("name,fn,ts", MEMBERS, ids=[m[0] for m in MEMBERS])
def test_array_derivs_match_scalar_bitwise(name, fn, ts):
    arr = np.array(ts)
    got = fn.derivs(arr, fn.max_order)
    for k, t in enumerate(ts):
        expected = fn.derivs(t, fn.max_order)
        assert [float(np.broadcast_to(d, arr.shape)[k]) for d in got] == list(expected)
    assert np.array_equal(fn.contains(arr), [fn.contains(t) for t in ts])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _libm_exp(t):
    return np.array([math.exp(x) for x in np.ravel(t).tolist()]).reshape(np.shape(t))


# dense grids over (-746, 709.78], subnormal results included, and the special values
EXP_GRID = np.concatenate([np.linspace(-746.0, 709.78, 100_003),
                           np.linspace(-746.0, -700.0, 20_001),
                           np.linspace(-1.0, 1.0, 20_001),
                           np.linspace(708.9, 709.78, 20_001),
                           [0.0, -0.0, math.inf, -math.inf, math.nan, -744.44, -708.5]])


@pytest.mark.parametrize("t", [EXP_GRID, np.stack([EXP_GRID, EXP_GRID[::-1]])], ids=["1d", "2d"])
def test_exp_of_an_array_carries_libm_bits(t):
    # one complex-exp call below 709.0 and libm above it
    got = _exp(t)
    assert got.shape == t.shape
    assert np.array_equal(_bits(got), _bits(_libm_exp(t)))


def test_exp_of_a_0d_array_is_a_0d_array_with_libm_bits():
    for x in EXP_GRID[::997].tolist() + [-0.0, math.inf, -math.inf, math.nan, 709.5]:
        got = _exp(np.array(x))
        assert type(got) is np.ndarray and got.shape == ()
        assert _bits(got) == _bits(math.exp(x))


def test_exp_of_an_array_raises_as_libm_past_float_range():
    with pytest.raises(OverflowError) as libm:
        math.exp(710.0)
    with pytest.raises(OverflowError) as info:
        _exp(np.array([1.0, 710.0]))
    assert str(info.value) == str(libm.value)
    with pytest.raises(OverflowError):
        _exp(np.array(709.79))
