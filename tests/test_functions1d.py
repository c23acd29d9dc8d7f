"""1-D catalog: closed-form derivatives against centered finite differences."""

import math

import numpy as np
import pytest

import finslercheck as fc
from finslercheck.errors import InvalidCatalogEntry
from finslercheck.functions1d import _array_pow, _exp, function_from_descriptor


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


def _pow_outcome(v, p):
    """``v ** p``, or None where it raises or leaves the reals."""
    try:
        out = v ** p
    except ArithmeticError:
        return None
    return out if isinstance(out, float) else None


# the exponents of the call sites: small integers, t^(n - 2) for n = 2 ... 32, and
# the fractional, negative and large ones a power profile can ask for
POW_EXPONENTS = sorted({0, 1, 2, 3, 4, 5, *range(31), -1, -2, -3, 0.5, 1.5, -1.5, 300.0})

_POW_RNG = np.random.default_rng(2024)
# dense grids of both signs, subnormals of both signs and random finite bit patterns
POW_BASES = np.concatenate([
    np.linspace(-4.0, 4.0, 4001),
    np.linspace(0.0, 1e3, 2001),
    np.geomspace(1e-300, 1e300, 2001) * np.resize([1.0, -1.0], 2001),
    _POW_RNG.integers(1, 2**52, size=1000, dtype=np.uint64).view(float)
    * np.resize([1.0, -1.0], 1000),
    _POW_RNG.integers(0, 2**64, size=4000, dtype=np.uint64).view(float),
    [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.7976931348623157e308],
])
POW_BASES = POW_BASES[np.isfinite(POW_BASES)]


@pytest.mark.parametrize("p", POW_EXPONENTS)
def test_pow_of_an_array_carries_the_bits_of_the_builtin(p):
    # where ``**`` gives a float at every entry, the array takes one libm call per entry
    x = np.array([v for v in POW_BASES.tolist() if _pow_outcome(v, p) is not None])
    assert len(x) > 2000
    expected = np.array([v ** p for v in x.tolist()])
    for shape in ((-1,), (2, -1)):
        arr = x[: len(x) // 2 * 2].reshape(shape)
        got = _array_pow(arr, p)
        assert type(got) is np.ndarray and got.shape == arr.shape
        assert np.array_equal(_bits(got).ravel(), _bits(expected[: arr.size]))


@pytest.mark.parametrize("p", [0, 2, 3, -1, 0.5, -1.5, 300.0])
def test_pow_of_a_0d_array_is_a_0d_array_with_the_bits_of_the_builtin(p):
    for v in POW_BASES[::97].tolist() + [0.0, -0.0, 1.0, -1.0, 5e-324]:
        if _pow_outcome(v, p) is None:
            continue
        got = _array_pow(np.array(v), p)
        assert type(got) is np.ndarray and got.shape == ()
        assert _bits(got) == _bits(v ** p)


@pytest.mark.parametrize("x,p", [
    ([1.5, math.inf, -math.inf, math.nan, -0.0], 2),
    ([2.0, math.inf, math.nan, 0.25], -1.5),
    ([4.0, -8.0, 0.5], 0.5),            # a negative base leaves the reals
    ([1e-150, -1e-154, 3.0], -2),       # huge results, within float range
], ids=["inf-nan", "inf-nan-fractional", "complex", "near-overflow"])
def test_pow_of_an_array_with_a_result_off_the_finite_floats_is_the_builtin(x, p):
    got = _array_pow(np.array(x), p)
    expected = np.array([v ** p for v in x])
    assert got.dtype == expected.dtype
    assert [repr(one) for one in got.tolist()] == [repr(one) for one in expected.tolist()]


@pytest.mark.parametrize("x,p", [([2.0, 1e200], 2), ([3.0, 1e-200], -2), ([7.0, 10.0], 309),
                                 ([2.0, 0.0], -1), ([1.0, 0.0], -1.5)])
def test_pow_of_an_array_raises_as_the_builtin(x, p):
    # x[1] ** p raises
    with pytest.raises(ArithmeticError) as builtin:
        [v ** p for v in x]
    for arr in (np.array(x), np.array([x, x]), np.array(x[1])):
        with pytest.raises(type(builtin.value)) as info:
            _array_pow(arr, p)
        assert str(info.value) == str(builtin.value)
