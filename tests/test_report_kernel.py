"""The report's 17-digit kernel, bit for bit against ``format(x, ".17g")``.

``report._g17`` writes each float64 of a block as its ``'%.17g'`` bytes from
double-double arithmetic; ``format`` stays the reference.  Together the sets
below hold over a million values.
"""

from fractions import Fraction

import numpy as np
import pytest

from finslercheck import report
from finslercheck.suite import Records

def kernel_text(x):
    """The kernel's fields of ``x``, each followed by a comma, in blocks of ``report._BLOCK``."""
    comma = np.full((len(x), 1), ord(","), np.uint8)
    out = [np.hstack([report._g17(x[i:i + report._BLOCK]), comma[i:i + report._BLOCK]])
           for i in range(0, len(x), report._BLOCK)]
    return np.concatenate(out).tobytes().translate(None, b"\0").decode()


def assert_bits(values):
    x = np.ascontiguousarray(values, dtype=float)
    expected = [format(v, ".17g") for v in x.tolist()]
    got = kernel_text(x)
    if got != ",".join(expected) + ",":
        wrong = [(v, a, b) for v, a, b in zip(x.tolist(), got.split(","), expected) if a != b]
        pytest.fail(f"{len(wrong)} of {len(x)} differ, first (x, kernel, format): {wrong[:3]}")


def neighbours(x, ulps=2):
    """``x`` and the doubles up to ``ulps`` steps on either side."""
    out, up, down = [x], x, x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def bit_patterns(seed, count, high=2 ** 64):
    """``count`` doubles of random bit patterns below ``high`` (2^52 gives subnormals)."""
    return np.random.default_rng(seed).integers(0, high, count, dtype=np.uint64).view(np.float64)


def signed(x):
    return np.concatenate([x, -x])


POWERS = np.array([float(f"1e{m}") for m in range(-45, 46)])


def exact_ties(rng, count_per_q=2000):
    """Doubles x whose x 10^q is an odd multiple of 1/2 in [1e16, 1e17): %.17g rounds a tie.

    x = m 2^-(q+1) with m odd and m 5^q / 2 in [1e16, 1e17); such ties exist for q = 1..24,
    that is for exponents k = 16 - q from -8 to 15.
    """
    out = []
    for q in range(1, 25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** q), min(2 * 10 ** 17 // 5 ** q, 2 ** 53)
        m = rng.integers(lo // 2, hi // 2, count_per_q) * 2 + 1
        out.append(m * 2.0 ** -(q + 1))
    return np.concatenate(out)


def test_table_of_tens_is_exact():
    for q in range(report._Q0, report._Q0 + 64):
        hi, lo = report._ten(q)
        exact = Fraction(10) ** q
        assert hi == float(exact) and lo == float(exact - Fraction(hi))


class TestKernelBits:
    def test_random_bit_patterns(self):
        x = bit_patterns(1, 400_000)
        assert_bits(x[np.isfinite(x)])

    def test_scaled_normals_across_the_fast_range_and_past_it(self):
        rng = np.random.default_rng(2)
        assert_bits(rng.normal(size=300_000) * 10.0 ** rng.integers(-36, 36, 300_000))

    def test_uniforms_in_one_decade(self):
        assert_bits(np.random.default_rng(3).random(100_000))

    def test_powers_of_ten_and_their_neighbours(self):
        edges = np.array([1e-30, 1e30, 1e-4, 1e16, 1e17, 2.0 ** 53, 2.0 ** 63])
        assert_bits(signed(neighbours(np.concatenate([POWERS, edges]), ulps=4)))
        # the one double of the fast range whose 17 digits carry to 1e17: 1e-14 lies within
        # half a unit of the 17th digit below 10^-14
        assert 10 ** 17 - Fraction(1, 2) <= Fraction(1e-14) * 10 ** 31 < 10 ** 17
        assert kernel_text(np.array([1e-14, -1e-14])) == "1e-14,-1e-14,"

    def test_carries_and_nines(self):
        nines = np.array([99999999999999999.0, 9.9999999999999999e-5, 0.99999999999999999,
                          9999999999999998.0, 999999999999999.9, 0.099999999999999992])
        assert_bits(signed(neighbours(nines, ulps=8)))

    def test_exact_ties_and_halves(self):
        ties = exact_ties(np.random.default_rng(4))
        for x in ties[::997].tolist():
            assert (Fraction(x) * 10 ** (16 - int(np.floor(np.log10(x)))) * 2).denominator == 1
        halves = np.array([1234567890123456.5, 1000000000000000.25, 1000000000000000.75,
                           0.5, 2.5, 4503599627370495.5, 123456789012345.67])
        assert_bits(signed(np.concatenate([ties, halves, neighbours(ties[:2000])])))

    def test_zeros_and_subnormals(self):
        tiny = bit_patterns(5, 20_000, high=2 ** 52)
        least = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308])
        assert_bits(np.concatenate([[0.0, -0.0, 0.0], signed(tiny), signed(least)]))
        assert kernel_text(np.array([0.0, -0.0])) == "0,-0,"

    def test_integer_cells(self):
        large = np.random.default_rng(6).integers(0, 2 ** 53, 20_000)
        ints = np.concatenate([np.arange(100_000), large,
                               [2 ** 53 - 1, 10 ** 16 - 1, 10 ** 16, 10 ** 16 + 2]])
        assert_bits(ints.astype(float))
        # '%d' of the index and n columns gives the same text
        assert kernel_text(np.array([3.0, 100.0, 12345.0])) == "%d,%d,%d," % (3, 100, 12345)

    def test_notation_switches(self):
        around = np.array([1e-4, 1e-5, 1e16, 1e17, 9.99999999999999e-5, 0.00010000000000000001,
                           99999999999999990.0, 1.0000000000000002e17])
        assert_bits(signed(neighbours(around, ulps=64)))
        assert kernel_text(np.array([1e-4, 9.5e-5, 1e16, 1e17])) == \
            "0.0001,9.5000000000000005e-05,10000000000000000,1e+17,"

    def test_round_decimals(self):
        k = np.arange(-50_000, 50_000)
        assert_bits(np.concatenate([k / 1000, k / 7, k * 0.1, k * 1e-10, k * 1e10]))


def test_kernel_calls_stay_within_a_block(monkeypatch):
    sizes, kernel = [], report._g17
    monkeypatch.setattr(report, "_g17", lambda x: sizes.append(len(x)) or kernel(x))
    n, fields = 3, ("wk_phi_residual",)
    width = 8 + 4 * n + len(fields)
    values = np.random.default_rng(7).normal(size=(3000, width))
    values[:, 0], values[:, 1] = np.arange(3000), n
    records = Records(n, fields, values, np.ones(values.shape, dtype=bool))
    text = report._rows_text(records, lambda mask: report._json_template(records, mask), ",")
    assert max(sizes) <= report._BLOCK and sum(sizes) == values.size
    assert text.count("{") == 3000
