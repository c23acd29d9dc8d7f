"""Profile construction, jet values, validity regions, jet self-consistency."""

import math
import re
import warnings

import numpy as np
import pytest

import finslercheck as fc
from finslercheck.errors import DomainViolation, InvalidCatalogEntry, InvalidCurvatureTag
from finslercheck.jets import INDICES

from conftest import CATALOG_NAMES


class TestHermitian:
    def test_constant_is_euclidean(self):
        prof = fc.euclidean_profile()
        j = prof.raw_jet(1.3, 0.4, 3)
        assert j.partial(0, 0) == 1.0
        assert all(j.partial(i, k) == 0.0 for i, k in INDICES[1:])

    def test_linear_jet(self):
        prof = fc.hermitian_profile(fc.Linear(1.0))
        j = prof.raw_jet(2.0, 1.0, 3)
        assert j.partial(0, 0) == pytest.approx(3.0)
        assert j.partial(1, 0) == pytest.approx(1.0)
        assert j.partial(0, 1) == pytest.approx(1.0)
        assert j.partial(2, 0) == j.partial(1, 1) == j.partial(0, 2) == 0.0

    def test_rational_phi_s_quotient_rule(self):
        # phi_s = f'(t) = (1 - t^2) / (1 + t^2)^2
        prof = fc.hermitian_profile(fc.Rational(1.0, 1.0))
        for t, s in [(0.5, 0.2), (1.5, 0.7), (2.0, 1.0)]:
            expected = (1.0 - t * t) / (1.0 + t * t) ** 2
            assert prof.raw_jet(t, s, 3).partial(0, 1) == pytest.approx(expected, rel=1e-13)

    def test_needs_positive_f(self):
        with pytest.raises(InvalidCatalogEntry):
            fc.hermitian_profile(fc.Constant(-1.0))
        with pytest.raises(InvalidCatalogEntry):
            fc.hermitian_profile(fc.Constant(0.0))

    def test_validity_requires_levi_positivity(self):
        # f = 1/t has f + t f' = 0 identically: no valid points, but smooth ones
        prof = fc.hermitian_profile(fc.Power(1.0, -1.0))
        assert not prof.is_valid(1.0, 0.5)
        assert prof.smooth_at(1.0, 0.5)
        with pytest.raises(DomainViolation):
            prof.raw_jet(1.0, 0.5, 3)
        prof.smooth_jet(1.0, 0.5, 3)


class TestRanders:
    def test_zero_h_is_rejected(self):
        with pytest.raises(InvalidCatalogEntry):
            fc.randers_profile(fc.Linear(1.0), fc.Constant(0.0), fc.Constant(0.0))

    def test_direct_value(self):
        # f = t, g = 0, h = 1 at (1, 0.25): (sqrt(1) + sqrt(0.25))^2 = 2.25
        prof = fc.randers_profile(fc.Linear(1.0), fc.Constant(0.0), fc.Constant(1.0))
        assert prof.value(1.0, 0.25) == pytest.approx(2.25, rel=1e-15)

    def test_direct_value_all_ones(self):
        prof = fc.randers_profile(fc.Constant(1.0), fc.Constant(1.0), fc.Constant(1.0))
        assert prof.value(1.0, 1.0) == pytest.approx((math.sqrt(2.0) + 1.0) ** 2, rel=1e-15)

    def test_small_s_outside_validity(self):
        prof = fc.randers_profile(fc.Linear(1.0), fc.Constant(0.0), fc.Constant(1.0))
        assert not prof.is_valid(1.0, 1e-8)  # below the s >= 1e-6 t floor
        assert prof.is_valid(1.0, 1e-5)
        with pytest.raises(DomainViolation):
            prof.raw_jet(1.0, 0.0, 3)


class TestWkRanders:
    def test_linear_f_equals_plain_randers(self):
        c = 0.7
        wk = fc.wk_randers_profile(fc.Linear(c))
        plain = fc.randers_profile(fc.Linear(c), fc.Constant(0.0), fc.Constant(c))
        for t, s in [(0.5, 0.2), (1.3, 0.9), (2.0, 0.4)]:
            a, b = wk.raw_jet(t, s, 3), plain.raw_jet(t, s, 3)
            for i, k in INDICES:
                va, vb = a.partial(i, k), b.partial(i, k)
                assert va == pytest.approx(vb, rel=1e-12, abs=1e-12), (i, k)

    def test_exponential_pair(self):
        prof = fc.wk_randers_profile(fc.Exponential(1.0))
        assert prof.descriptor["family"] == "wk-randers"
        # the derived g vanishes at t = 1 for f = e^t
        g = fc.WkG(fc.Exponential(1.0))
        assert g.value(1.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("h_scale", [1.0, 1.1])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_fetch_matches_separate_g_and_h(self, order, h_scale):
        # one fetch of f feeds g and h, each power of t taken once, with the bits
        # of separate WkG and WkH calls
        f = fc.SumFn([fc.Exponential(1.0), fc.Rational(1.0, 1.0)])
        fetch = fc.wk_randers_profile(f, h_scale)._fetch
        g, h = fc.WkG(f), fc.Scaled(fc.WkH(f), h_scale)
        for t in (0.7, np.array([0.3, 0.7, 1.9]), np.array([[0.5, 2.5]])):
            fd, gd, hd = fetch(t, order)
            assert len(gd) == len(hd) == order + 1
            want = (f.derivs(t, order), g.derivs(t, order), h.derivs(t, order))
            for got, expected in zip((fd, gd, hd), want):
                for a, b in zip(got, expected):
                    assert np.array_equal(np.asarray(a).view(np.int64),
                                          np.asarray(b).view(np.int64))

    def test_excluded_case_inverse_t(self):
        # f = c/t makes t f' + f vanish identically: h has no positive values
        with pytest.raises(InvalidCatalogEntry):
            fc.wk_randers_profile(fc.Power(1.0, -1.0))


class TestModels:
    def test_flat_model_values(self):
        prof = fc.model_profile(0, 1.0)
        assert prof.value(1.0, 0.25) == pytest.approx(2.25, rel=1e-15)
        j = prof.raw_jet(1.0, 0.25, 3)
        assert j.partial(0, 1) == pytest.approx(3.0, rel=1e-13)
        assert j.partial(1, 0) == pytest.approx(1.5, rel=1e-13)

    def test_positive_model_coefficients(self):
        # f = t/(c^2+t^2) generates g = -t^2/(c^2+t^2)^2 and h = c^2/(c^2+t^2)^2
        c = 1.3
        f = fc.Rational(c * c, 1.0)
        g, h = fc.WkG(f), fc.WkH(f)
        for t in (0.4, 1.0, 2.2):
            den = (c * c + t * t) ** 2
            assert g.value(t) == pytest.approx(-t * t / den, rel=1e-12)
            assert h.value(t) == pytest.approx(c * c / den, rel=1e-12)

    def test_negative_model_coefficients(self):
        c = 1.0
        f = fc.Rational(c * c, -1.0)
        g, h = fc.WkG(f), fc.WkH(f)
        for t in (0.3, 0.7):
            den = (c * c - t * t) ** 2
            assert g.value(t) == pytest.approx(t * t / den, rel=1e-12)
            assert h.value(t) == pytest.approx(c * c / den, rel=1e-12)

    def test_domain_restrictions(self):
        assert not fc.model_profile(4, 1.0).is_valid(0.0, 0.0)   # punctured at 0
        km4 = fc.model_profile(-4, 1.0)
        assert not km4.is_valid(1.0, 0.5)                        # ball boundary t = c
        assert km4.is_valid(0.5, 0.2)
        assert km4.t_interval == (0.0, 1.0)

    def test_bad_tags(self):
        with pytest.raises(InvalidCurvatureTag):
            fc.model_profile(2, 1.0)
        with pytest.raises(InvalidCatalogEntry):
            fc.model_profile(4, -1.0)


class TestJetSelfConsistency:
    # every jet slot (i, k), phi's partial i times in t and k times in s,
    # against a 1-D 4th-order FD of its parent slot
    PARENTS = {
        (1, 0): ((0, 0), "t"), (0, 1): ((0, 0), "s"),
        (2, 0): ((1, 0), "t"), (1, 1): ((1, 0), "s"), (0, 2): ((0, 1), "s"),
        (3, 0): ((2, 0), "t"), (2, 1): ((2, 0), "s"),
        (1, 2): ((1, 1), "s"), (0, 3): ((0, 2), "s"),
    }

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_jet_matches_fd(self, name, profiles):
        prof = profiles[name]
        lo, hi = prof.t_interval
        hi = min(hi, lo + 2.0)
        t = lo + 0.6 * (hi - lo)
        s = 0.45 * t
        h = 1e-3 * max(1.0, t)
        j = prof.raw_jet(t, s, 3)
        for slot, (parent, axis) in self.PARENTS.items():
            def parent_val(tt, ss):
                return prof.raw_jet(tt, ss, 3).partial(*parent)

            if axis == "t":
                approx = (parent_val(t - 2 * h, s) - 8 * parent_val(t - h, s)
                          + 8 * parent_val(t + h, s) - parent_val(t + 2 * h, s)) / (12 * h)
            else:
                approx = (parent_val(t, s - 2 * h) - 8 * parent_val(t, s - h)
                          + 8 * parent_val(t, s + h) - parent_val(t, s + 2 * h)) / (12 * h)
            value = j.partial(*slot)
            assert abs(value - approx) / max(1.0, abs(value)) < 1e-6, (name, slot)


class TestDescriptors:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_round_trip(self, name, profiles):
        prof = profiles[name]
        clone = fc.profile_from_descriptor(prof.descriptor)
        lo, hi = prof.t_interval
        t = lo + 0.5 * (min(hi, lo + 2.0) - lo)
        s = 0.3 * t
        assert clone.value(t, s) == prof.value(t, s)

    def test_unknown_family(self):
        with pytest.raises(InvalidCatalogEntry):
            fc.profile_from_descriptor({"family": "kropina"})


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_array_value_matches_scalar_bitwise(name, profiles):
    # one formula per family: arrays of (t, s) give the scalar bits at each point
    prof = profiles[name]
    lo, hi = prof.t_interval
    hi = min(hi, lo + 2.5)
    ts = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7)
    ss = ts * np.linspace(0.1, 0.9, 7)
    values = prof.value(ts, ss)
    assert values.shape == ts.shape
    for t, s, got in zip(ts.tolist(), ss.tolist(), values.tolist()):
        assert got == prof.value(t, s)
    # a scalar t against an array of s, as in the Levi oracle's stencil
    t = float(ts[3])
    ss = t * np.linspace(0.1, 0.9, 7)
    assert prof.value(t, ss).tolist() == [prof.value(t, s) for s in ss.tolist()]


@pytest.mark.parametrize("name", ["wk-exp", "h-rational"])
def test_array_value_rejects_single_point(name, profiles):
    prof = profiles[name]
    ts = np.array([0.5, 0.6, 0.7])
    ss = np.array([0.2, 0.3, 0.9])     # s > t at the last point only
    with pytest.raises(DomainViolation, match=r"\(t, s\) = \(0.7, 0.9\)"):
        prof.value(ts, ss)


def _predicate_points():
    """(t, s) pairs on and off every catalog profile's region, as two arrays."""
    inf, nan = math.inf, math.nan
    ts = [0.05, 0.3, 0.5, 0.9, 0.999, 1.0, 1.2, 2.0, 7.5, 30.0]
    pairs = [(t, f * t) for t in ts for f in (0.0, 1e-7, 1e-6, 0.2, 0.7, 1.0 - 1e-7, 1.0)]
    pairs += [(t, 1.01 * t) for t in ts]                                 # s > t
    pairs += [(-1.0, 0.1), (0.0, 0.0), (0.0, 0.1), (1e-300, 1e-301)]     # t at or below 0
    pairs += [(nan, 0.1), (0.5, nan), (inf, 0.1), (-inf, 0.1), (0.5, inf), (0.5, -inf),
              (inf, inf), (nan, nan)]
    t, s = zip(*pairs)
    return np.array(t), np.array(s)


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("predicate", ["is_valid", "smooth_at"])
def test_array_predicates_match_scalar(name, predicate, profiles):
    # the k = -4 model (c = 1) takes t = 1, its pole, and t = 1.2, past it
    t, s = _predicate_points()
    fn = getattr(profiles[name], predicate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            mask = fn(t, s)
            one_by_one = [fn(a, b) for a, b in zip(t.tolist(), s.tolist())]
    assert mask.dtype == bool and mask.shape == t.shape
    assert mask.tolist() == one_by_one
    assert any(one_by_one) and not all(one_by_one)
    # scalar t against an array s, and a 2-D array, broadcast the same way
    assert fn(0.5, s[:7]).tolist() == [fn(0.5, b) for b in s[:7].tolist()]
    assert fn(t.reshape(-1, 1)[:6], s[:6].reshape(-1, 1)).ravel().tolist() == one_by_one[:6]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_array_predicates_overflow_as_floats_do(name, profiles):
    # far out, Python floats overflow to inf silently, or raise OverflowError
    # from pow and exp; the arrays do the same, without a floating-point error
    prof = profiles[name]
    t = np.array([1e200, 1e200, 1e155, 1e300])
    s = np.array([0.5e200, 0.5, 1e154, 1e299])
    with np.errstate(all="raise"):
        try:
            expected = [prof.is_valid(a, b) for a, b in zip(t.tolist(), s.tolist())]
        except OverflowError:
            with pytest.raises(OverflowError):
                prof.is_valid(t, s)
            return
        assert prof.is_valid(t, s).tolist() == expected


# a*b, the radicand of 2 sqrt(a b) with a = f + g s and b = h s, underflows to 0
UNDERFLOW = fc.randers_profile(fc.Linear(1e-300), fc.Constant(0.0), fc.Constant(1e-300))
GUARDED = {**{name: None for name in CATALOG_NAMES}, "randers-underflow": UNDERFLOW,
           # smooth everywhere, valid nowhere: f + t f' = 0
           "h-inverse": fc.hermitian_profile(fc.Power(1.0, -1.0)),
           # smooth for s < 1/3, valid for t < 1/3
           "h-decay": fc.hermitian_profile(fc.Exponential(1.0, -3.0))}


def _raises_domain_violation(evaluate) -> bool:
    try:
        evaluate()
    except DomainViolation:
        return True
    return False


@pytest.mark.parametrize("name", list(GUARDED))
def test_one_guard_for_every_method(name, profiles):
    prof = GUARDED[name] or profiles[name]
    # the guard reads f and f' only: at t = 1e-300 an order-3 jet's higher
    # derivatives overflow where the point may be valid (see below), so it is left out
    t, s = _predicate_points()
    points = [(a, b) for a, b in zip(t.tolist(), s.tolist()) if a != 1e-300]
    points += [(0.25, 0.2), (0.25, 0.4), (0.5, 0.2), (0.5, 0.4), (1.0, 0.5), (1.0, 0.5e-300)]
    valid, invalid = [], []
    for a, b in points:
        ok = prof.is_valid(a, b)
        assert _raises_domain_violation(lambda: prof.value(a, b)) is not ok, (a, b)
        assert _raises_domain_violation(lambda: prof.raw_jet(a, b, 3)) is not ok, (a, b)
        smooth = prof.smooth_at(a, b)
        assert _raises_domain_violation(lambda: prof.smooth_jet(a, b, 2)) is not smooth, (a, b)
        (valid if ok else invalid).append((a, b))
    assert invalid
    # one invalid column among valid ones rejects the whole call, naming that column
    for bad in invalid[:: max(1, len(invalid) // 8)]:
        cols = valid[:2] + [bad] + valid[2:4]
        ts, ss = (np.array(x) for x in zip(*cols))
        where = re.escape(f"(t, s) = ({bad[0]}, {bad[1]}) outside")
        for evaluate in (lambda: prof.value(ts, ss), lambda: prof.raw_jet(ts, ss, 3)):
            with pytest.raises(DomainViolation, match=where):
                evaluate()


# f = t^-0.5: at t = 1e-300, f' = -t^-1.5 / 2 leaves float range inside the region
INVERSE_SQRT = fc.hermitian_profile(fc.Power(1.0, -0.5))
EXTREME_TS, EXTREME_SS = np.array([0.5, 0.6, 1e-300, 0.7]), np.array([0.1, 0.2, 1e-301, 0.3])


@pytest.mark.parametrize("name", ["wk-exp", "h-square", "model-k4", "model-k0", "model-km4",
                                  "h-inverse-sqrt"])
@pytest.mark.parametrize("order", [2, 3])
def test_lone_jet_at_extreme_t_raises_domain_violation(name, order, profiles):
    # the higher derivatives leave float range before the guard reads them,
    # also where the point is valid (wk-exp); as a column among valid ones,
    # the point raises the error it raises alone
    prof = INVERSE_SQRT if name == "h-inverse-sqrt" else profiles[name]
    assert prof.is_valid(1e-300, 1e-301).tolist() is (name == "wk-exp")
    for jet in (prof.raw_jet, prof.smooth_jet):
        with pytest.raises(DomainViolation, match=r"^\(t, s\) = \(1e-300, 1e-301\)") as alone:
            jet(1e-300, 1e-301, order)
        with pytest.raises(DomainViolation) as column:
            jet(EXTREME_TS, EXTREME_SS, order)
        assert str(column.value) == str(alone.value)


def test_order0_derivatives_leaving_float_range_are_outside_validity():
    prof = INVERSE_SQRT
    # a point gives a 0-d mask
    assert prof.is_valid(1e-300, 1e-301).shape == prof.smooth_at(1e-300, 1e-301).shape == ()
    assert not prof.is_valid(1e-300, 1e-301) and not prof.smooth_at(1e-300, 1e-301)
    assert prof.is_valid(EXTREME_TS, EXTREME_SS).tolist() == [True, True, False, True]
    assert prof.smooth_at(EXTREME_TS, EXTREME_SS).tolist() == [True, True, False, True]
    for t, s in ((1e-300, 1e-301), (EXTREME_TS, EXTREME_SS)):
        with pytest.raises(DomainViolation, match=r"^\(t, s\) = \(1e-300, 1e-301\) outside "
                                                  r"validity region of hermitian profile$"):
            prof.value(t, s)


@pytest.mark.parametrize("order", [0, 4, -1, None, 2.0])
def test_jet_order_outside_one_to_three_is_rejected(order, profiles):
    prof = profiles["h-exp"]
    for jet in (prof.raw_jet, prof.smooth_jet):
        with pytest.raises(ValueError, match=r"^jet order must be 1, 2 or 3, got "):
            jet(0.5, 0.1, order)


def test_underflowing_radicand_is_outside_validity():
    assert not UNDERFLOW.is_valid(1.0, 0.5) and not UNDERFLOW.smooth_at(1.0, 0.5)
    for evaluate in (lambda: UNDERFLOW.value(1.0, 0.5), lambda: UNDERFLOW.raw_jet(1.0, 0.5, 3)):
        with pytest.raises(DomainViolation, match=r"^\(t, s\) = \(1.0, 0.5\) outside validity "
                                                  r"region of randers profile$"):
            evaluate()


@pytest.mark.parametrize("k", [4.5, "4", True, False, None, [4], 2, math.nan])
def test_model_tag_is_4_0_or_minus_4(k):
    with pytest.raises(InvalidCurvatureTag):
        fc.profile_from_descriptor({"family": "model", "k": k, "c": 1})


@pytest.mark.parametrize("c", [True, False, "1", None, -1.0, math.inf])
def test_model_c_is_a_positive_number(c):
    with pytest.raises(InvalidCatalogEntry):
        fc.profile_from_descriptor({"family": "model", "k": 4, "c": c})


def test_model_tag_may_be_an_integral_float():
    prof = fc.profile_from_descriptor({"family": "model", "k": -4.0, "c": 1})
    assert prof.descriptor["k"] == -4 and isinstance(prof.descriptor["k"], int)
    assert prof.value(0.5, 0.2) == fc.model_profile(-4, 1.0).value(0.5, 0.2)
