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


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_seeded_unitary_is_the_generator_build(n):
    for seed in (9, 2 ** 63 + 5):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0xA5A5], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        d = np.diag(r)
        assert fc.seeded_unitary(n, seed).tobytes() == (q * (d / np.abs(d))).tobytes()


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


def first_attempt_wedges(seed, count, n):
    """Whether the first attempt of each of indices 0 to count - 1 meets the wedge.

    Its normals read words 2 to 4n + 1 of the stream; the first of those off the
    ziggurat's fast path starts a normal, and a wedge where its idx is not 0.
    """
    words = sampling._philox_words(seed, list(range(count)), n + 1)[:, 2:-2]
    slow = ~sampling._normals(words)[1]
    first = words[np.arange(count), np.argmax(slow, axis=1)]
    return slow.any(axis=1) & ((first & 0xFF) != 0)


class TestSameDrawsAsTheScalarLoop:
    @pytest.mark.parametrize("n, count", [(2, 300), (3, 300), (4, 200), (8, 200), (32, 200)],
                             ids=["2", "3", "4", "8", "32"])
    @pytest.mark.parametrize("seed", [0, 42, -7, 2 ** 63 + 5])
    def test_bit_equal_samples(self, n, count, seed):
        # most rows take all their normals on the ziggurat's fast path, one word
        # each; some meet the wedge, and at n = 32, 128 normals per attempt, most do
        wedge = first_attempt_wedges(seed, count, n)
        assert wedge.any() and not wedge.all()
        assert wedge.mean() > 0.5 or n < 32
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
        # ... and some of those met the wedge, so that their retry starts past
        # the words it read
        wedge = first_attempt_wedges(5, 40, n)
        assert any(pv is None and met for pv, met in zip(first, wedge))

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


# The sampler's Philox kernel and ziggurat, pinned to the installed numpy

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


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def uniform_word(u):
    """The word whose ``Generator.random`` is u, to 53 bits."""
    return int(u * 2 ** 53) << 11


def walk(words):
    """The sampler's first normal from ``words``: (x, words read)."""
    gauss, stop = sampling._walk(np.array([words], dtype=np.uint64), np.zeros(1, dtype=int), 1)
    return gauss[0, 0], stop[0]


def ziggurat_events(words):
    """(wedges, tails): the normals drawn from ``words`` that met the wedge or the tail.

    A wedge reads its word and the next, whatever it decides, and the tail reads
    pairs of uniforms until one passes: the walk from event to event needs no fi.
    """
    slow = np.flatnonzero(~sampling._normals(words)[1]).tolist()
    words = words.tolist()
    at, wedges, tails = 0, 0, 0
    for p in slow:
        if p < at:                          # a uniform an event read
            continue
        if words[p] & 0xFF:
            wedges, at = wedges + 1, p + 2
            continue
        tails, at = tails + 1, p + 1
        while True:
            a, b = ((w >> 11) * 2.0 ** -53 for w in words[at:at + 2])
            at += 2
            if -2.0 * math.log1p(-b) > (sampling._TAIL_INV_R * math.log1p(-a)) ** 2:
                break
    return wedges, tails


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

    def test_words_from_a_start_block(self):
        starts = list(range(len(self.INDICES)))
        words = sampling._philox_words(42, self.INDICES, 3, starts)
        for row, index, start in zip(words, self.INDICES, starts):
            raw = np.random.Philox(key=np.array([42, index], dtype=np.uint64)).random_raw(
                4 * start + 12)
            assert np.array_equal(row, raw[4 * start:])

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
        ki, wi, fi = sampling._ziggurat()
        assert ki[0] == 0xEF33D8025EF6A and ki[1] == 0 and fi[0] == 1.0
        want_ki, want_wi = numpy_ziggurat()
        assert np.array_equal(ki, np.concatenate([want_ki, want_ki]))
        assert wi.tobytes() == np.concatenate([want_wi, -want_wi]).tobytes()
        # fi decides the wedge: at each idx, numpy takes x with the greatest
        # uniform that the walk takes it with, and starts over with the next
        filler = ziggurat_word(3, 1000)
        for idx in range(1, 256):
            for rabs in ((3 * int(ki[idx]) + 2 ** 52) // 4, (int(ki[idx]) + 3 * 2 ** 52) // 4):
                word = ziggurat_word(idx, rabs, idx & 1)
                lo, hi = 0, 2 ** 53                 # the least uniform it rejects
                while lo < hi:
                    mid = (lo + hi) // 2
                    if walk([word, mid << 11, filler])[1] == 2:
                        lo = mid + 1
                    else:
                        hi = mid
                assert 0 < lo < 2 ** 53
                for u, end in ((lo - 1, 2), (lo, 3)):
                    x, read = walk([word, u << 11, filler])
                    assert read == end and same_bits(numpy_normal([word, u << 11, filler])[0], x)

    def test_the_tail_matches_numpy(self):
        # the tail takes its sign from bit 8 of rabs, not of the word, and reads
        # pairs (a, b) of uniforms until -2 log1p(-b) > (log1p(-a) / r)^2
        ki = sampling._ziggurat()[0]
        take, skip = [uniform_word(0.1), uniform_word(0.9)], [uniform_word(0.99), uniform_word(0.1)]
        after = np.random.Philox(key=np.zeros(2, dtype=np.uint64)).random_raw(8).tolist()
        for rabs in (int(ki[0]), 2 ** 52 - 1, 2 ** 52 - 1 - 0x100):
            word = ziggurat_word(0, rabs, 1 - (rabs >> 8 & 1))
            for tail, end in ((take, 3), (skip + take, 5)):
                got, read = walk([word] + tail + after)
                x = numpy_normal([word] + tail[:3])[0]
                assert read == end and same_bits(x, got)
                assert abs(x) > sampling._TAIL_R and (x < 0) == bool(rabs >> 8 & 1)

    @pytest.mark.parametrize("seed, index", [(0, 0), (42, 7), (2 ** 63 + 5, 2 ** 32 + 1)])
    def test_long_streams_match_numpy(self, seed, index):
        key = np.array([seed & MASK64, index], dtype=np.uint64)
        bits = np.random.Philox(key=key)
        want = np.random.Generator(bits).normal(size=250_000)
        state = bits.state
        used = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
        _, gauss, _, end = sampling._read(seed, np.array([index]), np.zeros(1, dtype=np.int64),
                                          0, 250_000, 0)
        assert gauss[0].tobytes() == want.tobytes() and end.tolist() == [used]
        wedge, tail = ziggurat_events(np.random.Philox(key=key).random_raw(used))
        assert wedge >= 1000 and tail >= 20

    def test_a_window_that_runs_out_reads_again(self, monkeypatch):
        # one spare block leaves a few of 2000 rows at n = 8 without the words
        # their wedges read: those read again with a longer window
        calls = []
        read = sampling._read

        def counted(*args):
            calls.append(len(args[1]))
            return read(*args)

        monkeypatch.setattr(sampling, "_read", counted)
        head, gauss, tail, end = sampling._read(7, np.arange(2000), np.zeros(2000, dtype=np.int64),
                                                2, 32, 2, 1)
        assert len(calls) > 1 and calls[1] < 20
        for index in range(2000):
            bits = np.random.Philox(key=np.array([7, index], dtype=np.uint64))
            g = np.random.Generator(bits)
            want = np.concatenate([g.random(2), g.normal(size=32), g.random(2)])
            got = np.concatenate([head[index], gauss[index], tail[index]])
            assert got.tobytes() == want.tobytes()
            state = bits.state
            assert end[index] == 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]

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
