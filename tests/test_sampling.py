"""Seeded sampling: determinism, domain respect, rejection behavior."""

import math

import numpy as np
import pytest

import finslercheck as fc
from finslercheck import sampling
from finslercheck.errors import ConfigError, EmptyAfterRejection
from finslercheck.sampling import default_t_range, sample_domain_detailed


def test_same_seed_is_bitwise_identical():
    prof = fc.model_profile(0, 1.0)
    spec = fc.SampleSpec(n=3, count=20, seed=42)
    a = fc.sample_domain(spec, prof)
    b = fc.sample_domain(spec, prof)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.z, pb.z)
        assert np.array_equal(pa.v, pb.v)


def test_different_seeds_differ():
    prof = fc.model_profile(0, 1.0)
    a = fc.sample_domain(fc.SampleSpec(count=5, seed=1), prof)
    b = fc.sample_domain(fc.SampleSpec(count=5, seed=2), prof)
    assert not np.allclose(a[0].z, b[0].z)


def test_ranges_are_respected():
    prof = fc.model_profile(0, 1.0)
    spec = fc.SampleSpec(count=50, seed=7, t_range=(0.4, 0.9),
                         s_fraction_range=(0.2, 0.3))
    for pv in fc.sample_domain(spec, prof):
        assert 0.4 <= pv.t <= 0.9
        assert 0.2 <= pv.s / pv.t <= 0.3


def test_ball_model_stays_inside_ball():
    prof = fc.model_profile(-4, 1.0)
    for pv in fc.sample_domain(fc.SampleSpec(count=50, seed=11), prof):
        assert pv.t < 1.0
        assert 0.0 < pv.s < pv.t


def test_default_range_inside_validity():
    km4 = fc.model_profile(-4, 0.5)
    lo, hi = default_t_range(km4)
    assert 0.0 < lo < hi < 0.5


def test_t_range_outside_validity_rejected():
    km4 = fc.model_profile(-4, 1.0)
    with pytest.raises(ConfigError):
        fc.sample_domain(fc.SampleSpec(count=5, seed=0, t_range=(0.5, 2.0)), km4)


def test_rejection_storm_raises():
    # f = e^{-3t}: Hermitian validity f + t f' = e^{-3t}(1 - 3t) < 0 for t > 1/3
    prof = fc.hermitian_profile(fc.Exponential(1.0, -3.0))
    with pytest.raises(EmptyAfterRejection):
        fc.sample_domain(fc.SampleSpec(count=10, seed=3, t_range=(0.5, 1.0)), prof)


def test_partial_rejection_is_recorded(monkeypatch):
    # f = e^{-3t} is valid for t < 1/3, about half of the window (0.2, 0.45):
    # with two attempts per index some indices exhaust
    monkeypatch.setattr(sampling, "_MAX_ATTEMPTS", 2)
    prof = fc.hermitian_profile(fc.Exponential(1.0, -3.0))
    points, rejections = sample_domain_detailed(
        fc.SampleSpec(count=30, seed=5, t_range=(0.2, 0.45)), prof)
    assert rejections
    assert all(r["reason"].startswith("profile rejects (t, s) = (") for r in rejections)
    assert len(points) + len(rejections) == 30
    assert sorted(points.index + [r["index"] for r in rejections]) == list(range(30))


def test_spec_validation():
    with pytest.raises(ConfigError):
        fc.SampleSpec(n=1)
    with pytest.raises(ConfigError):
        fc.SampleSpec(count=0)
    with pytest.raises(ConfigError):
        fc.SampleSpec(s_fraction_range=(0.0, 0.5))
    with pytest.raises(ConfigError):
        fc.SampleSpec(t_range=(2.0, 1.0))


def test_seeded_unitary_properties():
    for n in (2, 4):
        a = fc.seeded_unitary(n, 9)
        b = fc.seeded_unitary(n, 9)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a @ a.conj().T - np.eye(n))) < 1e-12


# The per-index scalar sampler the batched rounds replaced, kept as their
# reference: each index draws its attempts one by one on its own stream.

def _reference_stream(seed, index):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _reference_draw(rng, n, t_range, s_range, profile):
    """One attempt of the scalar sampler: (PointVector, None) or (None, reason)."""
    t = rng.uniform(*t_range)
    sigma = rng.uniform(*s_range)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    norm = np.linalg.norm(u)
    if norm < 1e-12:
        return None, "degenerate direction draw"
    e = u / norm
    z = math.sqrt(t) * e
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = w - np.sum(w * np.conj(e)) * e
    wnorm = np.linalg.norm(w)
    if wnorm < 1e-12:
        return None, "degenerate orthogonal draw"
    w = w / wnorm
    th1, th2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    v = (math.sqrt(sigma) * np.exp(1j * th1) * e
         + math.sqrt(1.0 - sigma) * np.exp(1j * th2) * w)
    pv = fc.PointVector(z, v)
    if not (0.0 < pv.s < pv.t):
        return None, f"s/t constraint violated (s={pv.s}, t={pv.t})"
    if not profile.is_valid(pv.t, pv.s):
        return None, f"profile rejects (t, s) = ({pv.t}, {pv.s})"
    return pv, None


def reference_sample(spec, profile, max_attempts=64):
    """The scalar per-index loop: (points, rejections) with points a list of (index, pv)."""
    t_range = spec.t_range or default_t_range(profile)
    points, rejections, total = [], [], 0
    for index in range(spec.count):
        rng = _reference_stream(spec.seed, index)
        reason = "no attempt"
        for _ in range(max_attempts):
            total += 1
            pv, reason = _reference_draw(rng, spec.n, t_range, spec.s_fraction_range, profile)
            if pv is not None:
                points.append((index, pv))
                break
        else:
            rejections.append({"index": index, "reason": reason})
    if len(points) < 0.1 * total:
        raise EmptyAfterRejection(f"{total - len(points)} of {total} draws rejected")
    return points, rejections


def outcome(sample, spec, profile):
    """Indices, z and v bytes and rejections of a sampler, or the class and text of its error."""
    try:
        points, rejections = sample(spec, profile)
    except Exception as exc:   # the error itself is compared
        return f"{type(exc).__name__}: {exc}"
    if isinstance(points, sampling.Samples):
        points = [(index, points.point(k)) for k, index in enumerate(points.index)]
    return ([(index, pv.z.tobytes(), pv.v.tobytes()) for index, pv in points], rejections)


def assert_same_as_reference(spec, profile, max_attempts=64):
    expected = outcome(lambda *a: reference_sample(*a, max_attempts=max_attempts), spec, profile)
    assert outcome(sample_domain_detailed, spec, profile) == expected
    return expected


# the retry window straddles the Hermitian validity boundary t = 1/3 of f = e^{-3t}
RETRY_WINDOW = (0.2, 0.45)


class TestSameDrawsAsTheScalarLoop:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("seed", [0, 42, -7, 2 ** 63 + 5])
    def test_bit_equal_samples(self, n, seed):
        for prof in (fc.model_profile(-4, 1.0), fc.wk_randers_profile(fc.Exponential(1.0))):
            points, rejections = assert_same_as_reference(
                fc.SampleSpec(n=n, count=25, seed=seed), prof)
            assert len(points) == 25 and not rejections

    @pytest.mark.parametrize("n", [2, 4])
    def test_retries_on_their_own_streams(self, n):
        prof = fc.hermitian_profile(fc.Exponential(1.0, -3.0))
        spec = fc.SampleSpec(n=n, count=40, seed=5, t_range=RETRY_WINDOW)
        points, rejections = assert_same_as_reference(spec, prof)
        assert len(points) == 40 and not rejections
        # some index needed more than one attempt
        first = [_reference_draw(_reference_stream(5, index), n, RETRY_WINDOW, (0.1, 0.9),
                                 prof)[0] for index in range(40)]
        assert any(pv is None for pv in first)

    def test_exhausted_indices_give_the_same_reasons(self, monkeypatch):
        monkeypatch.setattr(sampling, "_MAX_ATTEMPTS", 2)
        prof = fc.hermitian_profile(fc.Exponential(1.0, -3.0))
        spec = fc.SampleSpec(n=3, count=40, seed=5, t_range=RETRY_WINDOW)
        points, rejections = assert_same_as_reference(spec, prof, max_attempts=2)
        assert rejections and len(points) + len(rejections) == 40
        assert all(r["reason"].startswith("profile rejects (t, s) = (") for r in rejections)

    def test_same_empty_after_rejection_message(self):
        prof = fc.hermitian_profile(fc.Exponential(1.0, -3.0))
        spec = fc.SampleSpec(count=10, seed=3, t_range=(0.5, 1.0))
        assert assert_same_as_reference(spec, prof).startswith("EmptyAfterRejection: ")

    def test_same_error_from_the_same_index(self, monkeypatch):
        # the predicate rejects t below 0.5 and raises, naming its t, above 0.9:
        # the scalar loop raises at the first index whose attempts reach t > 0.9
        # before 0.5 <= t <= 0.9, which here is not the first index whose first
        # attempt has t > 0.9
        prof = fc.model_profile(0, 1.0)
        spec = fc.SampleSpec(n=3, count=30, seed=9, t_range=(0.1, 1.0))
        first_ts = [_reference_draw(_reference_stream(9, index), 3, spec.t_range, (0.1, 0.9),
                                    prof)[0].t for index in range(30)]
        valid = prof.is_valid

        def predicate(t, s):
            high = np.asarray(t)[np.asarray(t) > 0.9]
            if high.size:
                raise ValueError(f"no t above 0.9, got {float(high[0])!r}")
            return (np.asarray(t) >= 0.5) & valid(t, s)

        monkeypatch.setattr(prof, "is_valid", predicate)
        error = assert_same_as_reference(spec, prof)
        assert error.startswith("ValueError: no t above 0.9, got ")
        assert error != f"ValueError: no t above 0.9, got {next(t for t in first_ts if t > 0.9)!r}"


def test_sample_columns_slice_into_point_vectors():
    prof = fc.model_profile(4, 1.0)
    samples, _ = sample_domain_detailed(fc.SampleSpec(n=3, count=7, seed=1), prof)
    assert len(samples) == 7 and samples.z.shape == (3, 7)
    cols = samples.columns(2, 5)
    for k in range(3):
        one = samples.point(2 + k)
        assert (cols.t[k], cols.s[k], cols.r[k], cols.pairing[k]) == \
            (one.t, one.s, one.r, one.pairing)
