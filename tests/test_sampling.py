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
    @pytest.mark.parametrize("n, count", [(2, 300), (3, 300), (4, 200), (8, 200), (32, 200)],
                             ids=["2", "3", "4", "8", "32"])
    @pytest.mark.parametrize("seed", [0, 42, -7, 2 ** 63 + 5])
    def test_bit_equal_samples(self, n, count, seed):
        # the first attempt of most rows comes from the Philox kernel; a row whose
        # words meet a normal off the ziggurat's fast path draws on its own stream
        # (at n = 32, 128 normals per attempt, most rows)
        fast = sampling._first_draws(seed, list(range(count)), n)[3]
        assert fast.any() and not fast.all()
        for prof in (fc.model_profile(-4, 1.0), fc.wk_randers_profile(fc.Exponential(1.0))):
            points, rejections = assert_same_as_reference(
                fc.SampleSpec(n=n, count=count, seed=seed), prof)
            assert len(points) == count and not rejections

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
        # ... and some of those had their first attempt from the Philox kernel
        fast = sampling._first_draws(5, list(range(40)), n)[3]
        assert any(pv is None and on_kernel for pv, on_kernel in zip(first, fast))

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


def test_sample_columns_slice_into_point_vectors():
    prof = fc.model_profile(4, 1.0)
    samples, _ = sample_domain_detailed(fc.SampleSpec(n=3, count=7, seed=1), prof)
    assert len(samples) == 7 and samples.z.shape == (3, 7)
    cols = samples.columns(2, 5)
    for k in range(3):
        one = samples.point(2 + k)
        assert (cols.t[k], cols.s[k], cols.r[k], cols.pairing[k]) == \
            (one.t, one.s, one.r, one.pairing)


# The first round's Philox kernel, pinned to the installed numpy

MASK64 = 0xFFFFFFFFFFFFFFFF


def numpy_normal(words):
    """(Generator.normal() fed ``words`` by a Philox buffer, whether it took one word alone)."""
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    state = bits.state
    state["buffer"] = np.array(list(words) + [0] * (4 - len(words)), dtype=np.uint64)
    state["buffer_pos"] = 0
    bits.state = state
    x = np.random.Generator(bits).normal()
    after = bits.state
    return x, after["buffer_pos"] == 1 and after["state"]["counter"][0] == 0


def ziggurat_word(idx, rabs, sign=0):
    return (rabs << 9) | (sign << 8) | idx


def numpy_ziggurat():
    """numpy's (ki, wi), read one draw at a time: fast exactly when rabs < ki[idx]."""
    ki, wi = np.zeros(256, dtype=np.uint64), np.zeros(256)
    for idx in range(256):
        lo, hi = 0, 2 ** 52                 # the least rabs off the fast path
        while lo < hi:
            mid = (lo + hi) // 2
            if numpy_normal([ziggurat_word(idx, mid)])[1]:
                lo = mid + 1
            else:
                hi = mid
        ki[idx] = lo
        # rabs = 1 gives wi[idx]; where ki[idx] <= 1 the slow path, given a zero
        # uniform next, accepts that tiny x too
        wi[idx] = numpy_normal([ziggurat_word(idx, 1), 0])[0]
    return ki, wi


class TestPhiloxKernel:
    INDICES = [0, 1, 7, 2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40 + 3]

    @pytest.mark.parametrize("seed", [0, 42, -7, 2 ** 63 + 5])
    def test_words_and_uniforms_match_numpy(self, seed):
        words = sampling._philox_words(seed, self.INDICES, 5)
        assert words.shape == (len(self.INDICES), 20) and words.dtype == np.uint64
        for row, index in zip(words, self.INDICES):
            key = np.array([seed & MASK64, index], dtype=np.uint64)
            assert np.array_equal(row, np.random.Philox(key=key).random_raw(20))
            want = np.random.Generator(np.random.Philox(key=key)).random(20)
            assert sampling._uniforms(row).tobytes() == want.tobytes()

    def test_kernel_multiplies_arrays_only(self, monkeypatch):
        # numpy 1.x promotes a uint64 scalar's & or >> with a Python int to a
        # float, which those operations refuse
        mulhilo = sampling._mulhilo

        def arrays_only(a, b):
            assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            return mulhilo(a, b)

        monkeypatch.setattr(sampling, "_mulhilo", arrays_only)
        sampling._philox_words(42, self.INDICES, 2)
        assert all(isinstance(w, np.ndarray) for w in sampling._PHILOX_W)

    def test_tables_are_numpys(self):
        ki, wi = sampling._ziggurat()
        assert ki[0] == 0xEF33D8025EF6A and ki[1] == 0
        want_ki, want_wi = numpy_ziggurat()
        assert np.array_equal(ki, want_ki)
        assert wi.tobytes() == want_wi.tobytes()

    def test_normals_match_numpy_on_the_fast_path(self):
        ki = sampling._ziggurat()[0].astype(object)
        rng = np.random.default_rng(3)
        words = [int(w) for w in rng.integers(0, 2 ** 63, size=2000, dtype=np.int64)]
        words += [int(w) | 1 << 63 for w in words[:500]]
        # both sides of each threshold, both signs, and a zero rabs (numpy's -0.0 + 0.0)
        words += [ziggurat_word(idx, int(rabs), sign) for idx in range(0, 256, 5)
                  for rabs in (0, max(ki[idx], 1) - 1, ki[idx]) for sign in (0, 1)]
        x, fast = sampling._normals(np.array(words, dtype=np.uint64))
        for word, got, on_path in zip(words, x.tolist(), fast.tolist()):
            want, one_word = numpy_normal([word])
            assert on_path == one_word
            if on_path:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert fast.any() and not fast.all()
