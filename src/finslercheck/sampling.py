"""Seeded, reproducible domain sampling.

The generator is Philox (counter-based, 4x64), keyed per sample index as
``key = (seed, index)``.  Streams for distinct indices are statistically
independent and the whole sample set is a pure function of the seed, so two
runs with the same configuration give bitwise-identical samples.

Each draw places t uniformly in ``t_range``, picks a target fraction
sigma = s/t uniformly in ``s_fraction_range``, draws z with |z|^2 = t and
uniform direction, then mixes a unit tangent vector from the z-direction and a
Gram-Schmidt-orthogonal direction so that s/t = sigma exactly.  Draws that the
profile rejects are retried within the same per-index stream and recorded;
rejection sampling (never clamping) keeps boundary-degenerate points out.

Draws are made in rounds over the sample indices.  A round makes one attempt
on the stream of every index still pending: ``random(2)`` (t and sigma),
``normal(4n)`` (the two Gaussian vectors) and ``random(2)`` (two phases),
whatever the attempt's outcome, and then the geometry, the invariants and the
validity mask (``MetricProfile.is_valid`` on arrays) over all of them at once
as (B, n) rows.  The first round takes every index's Philox words over
counters 1..n+1 in one array step, and reads them as numpy's ``random`` and
``normal`` do; an index whose words meet a normal off the ziggurat's fast path
draws from its own stream, as every index does in later rounds.  Each index
therefore gets the attempts, and the bits, it would get alone.
``sample_domain_detailed`` returns the accepted pairs as (n, B) columns, a
``Samples``, with the rejections; ``sample_domain`` splits them into one
``PointVector`` each.
"""

from __future__ import annotations

import binascii
import math
import zlib
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError, EmptyAfterRejection
from .profiles import MetricProfile, S_MIN_FRACTION
from .tensors import PointVector, invariants

__all__ = ["SampleSpec", "Samples", "sample_domain", "sample_domain_detailed",
           "default_t_range", "seeded_unitary"]

_MAX_ATTEMPTS = 64
# the largest dimension: one pair's connection stencil, which no field-call
# slice splits, holds about n^3 values (about 180 MB of peak memory at n = 32)
MAX_N = 32


@dataclass(frozen=True)
class SampleSpec:
    """What to draw: dimension (2 to ``MAX_N``), count, seed and the (t, s/t) windows."""

    n: int = 2
    count: int = 100
    seed: int = 0
    t_range: tuple[float, float] | None = None
    s_fraction_range: tuple[float, float] = (0.1, 0.9)

    def __post_init__(self):
        if not 2 <= self.n <= MAX_N:
            raise ConfigError(f"dimension must lie in [2, {MAX_N}], got {self.n}")
        if self.count < 1:
            raise ConfigError(f"count must be positive, got {self.count}")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
        lo, hi = self.s_fraction_range
        if not (S_MIN_FRACTION < lo < hi < 1.0 - S_MIN_FRACTION):
            raise ConfigError(
                f"s_fraction_range must be a nonempty sub-interval of "
                f"({S_MIN_FRACTION}, {1 - S_MIN_FRACTION}), got {self.s_fraction_range}")
        if self.t_range is not None:
            tlo, thi = self.t_range
            if not (0.0 <= tlo < thi and math.isfinite(thi)):
                raise ConfigError(f"t_range must be a nonempty finite interval, got {self.t_range}")


def default_t_range(profile: MetricProfile) -> tuple[float, float]:
    """A t-window inside the profile's validity interval, with 10% margins.

    Unbounded intervals are cut at lo + 2.5 so that e.g. profiles on all of
    t > 0 are sampled on (0.25, 2.25).
    """
    lo, hi = profile.t_interval
    if not math.isfinite(hi):
        hi = lo + 2.5
    width = hi - lo
    return (lo + 0.1 * width, hi - 0.1 * width)


def _key(seed: int, index: int) -> np.ndarray:
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


def _complex_gaussian(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _uniform(lo, hi, r):
    """``Generator.uniform(lo, hi)`` from the ``Generator.random()`` draw ``r``, bit for bit."""
    return lo + (hi - lo) * r


def _row_norms(x):
    """|x| of each row of a (B, n) complex array, with the bits of ``np.linalg.norm(row)``.

    ``np.linalg.norm`` takes BLAS dot products of the strided real and imaginary
    views.  A stacked matmul of the same views gives its bits; a sum, or a
    matmul of a contiguous copy, does not.
    """
    re, im = x.real, x.imag
    square = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(square[:, 0, 0])


# Philox4x64-10's multipliers and key increments, as arrays: an operation of a
# numpy scalar with a Python int promotes to a float under numpy 1.x's rules
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
# ki (256 uint64) then wi (256 float64) of ``_ziggurat``: little-endian, zlib, base64
_ZIGGURAT = (
    "eNo11Xk8VPsbB/CTkC1HtN2KVMpSjSWhPIS6IUsLEm6KpFLZt1QKURK6la0sNQljyywY+2BsLQgt5BaikAZli9LvmT9+"
    "88/7db5zzvme7/Z53EY3XtX7IUn8/5dVP5dYKSJBGIVUzFo/XkwM86qDpw5KEsHT7UM2DEmi5FlwiNmoJJG9Z1bM+C+S"
    "WPn8j9M3bZL4Z6NT3N79JBH/eHX/EyeSSI+38gvyJIn7e5RGGJdIot32hMR4BEl82BhmmxFLEl2tFg0KCSQhOvl+ES2F"
    "JHxnQyaPPyaJGTOHDx5ZJNFt3X58PJckyJKVp+YKSKLe1yo6jUUSAfOuG0aKSUJy4NHQSClJfBMXTMmpIAnbc3+Oq3FI"
    "woSqLRVaQxKvHPqCMrgkoc4LSqDW879HiRbUSBLhH8wcNZ6RxKoNAkMvnpMEd8eMtMVLkkgaibUobCYJtSbZqkWtJPGZ"
    "+8Zi7yuSODDRl+XdRhJyTWP7Y9pJIpB1O+l+B0lYkXfYia9JYiQphhP5hiQ0Bhtp7m9JYlDkorXJO5K4tSUvakUnSbTl"
    "ZS76D73lKOWZ1EUS8hTOUYv3JNH6y+Gfn+jl+yVfU7pJIsV7ZYjufyRxW1XzRhvqkqblcuIDSVgejPbkoRRWxgLfjyRh"
    "8C3p5AT6XaG836OHJI5QN9Z8Rs3ZSmDXi+PYVX6rAc1e835IvY8k/l3dFZ6IRhgWxs6h+6Jttjl8IgkVojWpGL2Slzok"
    "1U8SmgEde0+h/4iat5eiCnFt+eIDON5yy2k7VFq6v/EJGhkhoz/Kb5fq9ND6jL6u97uIZi+Rc61Ev08M2PxBBTIJO/0v"
    "JLEjVT/0Ikr19PxUhO42CogeQ2+NWd1WGiSJnSu2zzmiLiLXuu+i5c1jhg3olOVlnZ+o7IPrL5SHSGL4RruoHUq9f3cu"
    "AnU18cploq+L7m36iF76nOMjOozr7DqerIFuidPIsUdX+b7OCEHH1nxIyETlO3+Ev0Dh88nAMVRmRNVf5ivOi8p8+HaU"
    "5ayefxidvdY34Y8ulf98LB69lNIywUJbTSfYbag+xZ0+ig5WyH0SHyGJZfb0Q4po+9MUQSM0flz5twM6wTtn4IeyJA60"
    "RaPSa/8teoLOK3LHyvnPzVlfa0eZjTd8h9Dif69w51Gl8O0BMt9IYqHptVhF1FxVQUoXdT+SN2eB/lebaH0cHdxvKOuN"
    "htL6bcPQxi3pwvdQweLwzekoy823kYkecjX8WMPXPd3rFdp+E0I+oleTbpPf0KUdpNwsyjWTzhfmkYSwfSdHGu0Rvm0r"
    "hyqcNPNRRsv7xZZpovCAraePToQq84zRiAJZxYOo4RWDITsef78qbXdGxxOOiLuhQYv0z3mhoRc1jgSipcIXW4JRxj6T"
    "tmvo7hNFx2+iBxtfBMWiXRuD5e+hw8pZBxPRf0xkJJP5/fl426Sh+S+cFalortHZsHTUa+uv0xno7Bv3t5mo2Kxgcxaq"
    "u23QjIZKuSgf4Ou4iNPJb7f2j/zCv09B1iSQ/1xYKvUm/z1d/etl+e9VkN9O4fdDebqp/AHa/12hLgHdKQbGd9HlfjYG"
    "MfxxJWvl30B/612JCUVvsDM/XET/aP954Mvvr4JWew4NJlIPufD/V3r8twNaZGuZxJ+vFmFiH3/+DmzptQL0nUoPQw0V"
    "Cs1zVkDtge24AjVeqkIVRV+YflKcw3U6t85/+CsaLLi+/z1/PXc0Sz5HJ7YIupSgTTpD3Rlo9JC2911UK0tnzRV0M6ek"
    "7QxK5AtHW6Hr0z8YAvpO1e3LBnTPZ1UfMVRzflHXKO5DdrGkVAd//7rHiRSj1WrSRYloIG2x2AX+PlYnJ21R56YI1+3o"
    "dibLfAna6hFz7yuejztFD5W5aLcEb/I+ahTe1OuBpq7NazdCzbaKF/DP35DAKrs+PI+265Py89FNn2KiA9EBn98tu9Cp"
    "zmhzQVT3sOqbOjzv6cY03WuokrGs8S70TZ1/xRTmxedB7tFsdJge1GOHGtBuTwminG2hJjmYO0/c1vqZowJUFalBzKl3"
    "OUUPL6PBajppEqjRtI7PPcy3q94JnkvRIxNaHVGYh9pyv6t+Yl4m03nbj6Lz/arShZintjZJCwl0aVhgKGDuFpzicU9j"
    "Hmd7bS4IxZzOng+uu475/Vu3XtQPc12mSnlgL+Z9qABlZgbrgV8pozcc64Ngi8noZ6wf4icr8mSwnkiP9ZkuwDqT28DK"
    "fPSKP1/+gn1YnxhLHN9lYd1av/Wle1sD1r/1cqqba3FfsjkhJ7EOaloTXOEirKdKKkcMsH4m/r1ALiGVJH7JppvMRmIu"
    "qo1N17li3q3ZZma/iiQudC4L1DVtgfqp35/Eo6OA5bAFnh64A066e3RKLsWBRKbq4K8FiVDeak6R2HAfpp10VC2IZPD1"
    "9rVXzU2B2tfmW0000iCvLEZRw+Ih7D4qoCs0+RACtAwTMu48gslVQbFURSpcfXdCh1JIhcl/bTm74DGo0qnVqRWPwebB"
    "n+jRHemQOa+nVUZPB9/2Vc5+G59AfPOizKtxT2A4uLNFXSAD9C49dmo7mwGeQsQdalsGZMzsbe/SyoQAFaZUXmIm7J7c"
    "m/f3DF6L7bZ6YZMF9/0vprrQsyCxxZJGEafBsNyWUOMTNNhbpxPTVEKDLZnp3S8ks8HuZcD5U87ZoLZcyj2PlQ3J52TO"
    "04VyQDnI6Po1mxzYmXYoRis9BzRCq1TejOfAD0u7n576uTg/Gk9kbuZC1Cbv+aaOXDApviqZJpcHUmv7lVNO5UEtewPR"
    "/DQPrPzHaTun82D+W1vhV718IDyCtg2F5UNz6M+KnU35sMl57NqXxU/hxtQ766mDTyH/7fXU83FPIZcye9nq3VMY0TTq"
    "Oby4AO7H7pg0oBTAryfLU4ctC0DqobfDYY8CEJ/wuh0RWwAyTuXXLj8tgCsvzFz1WgrgrMhys0ZeAfCWxWnIS9KhklRf"
    "ZLyVDob/xqTpm9NBTp5bJXKWDppdgasyI+lw4zzv4OosOjxXmZlxracDpaPnblQ/HdIeGiTdFGDAUD3X+6Q8A9bWDl2W"
    "1WfA3FmaBMuBAVfaZV1VLjBg9du/GkLiGdBFYTuXMRlgxe51ftfKgBja88HObwx4a+K+uFqMCWolE70xikx45LjJc88e"
    "Jrw+9Ky07zgT3I4IVbpdZoILg+HxXxITFuqxq3SLmNAjezgxoo0JYfbeHyp5TPBN7fEaEGPBUd+MrXObWJCuBoPEbrxu"
    "eOYz7cgCrVrX1I9BLFCNNdEojcd2Q4Gp6wwWdC9h5po2s0AoQ2c5McwCZxvH0RyhQrCPEvtusa4Q9ru6vf4MhdDIWG0Z"
    "cKQQAo/ZSBK+hbA0XLI+JLYQ7FYrbPidXQh6PpdfedcXQvst1YufegtBxzGtcf/vQqhd+/g4e2URUAuog7KaRSC+qVgw"
    "ZH8ReMc32fa5FYG2Oj3MKKII6IwDytRHRVC2mzm4oKIIDrUrOTm/KwLrGSd17o8i+Ho6alqRLIb6pWcOxqgUQzfPs3v6"
    "72JY6zOw/aRTMZhOjM6+uVQMdytKGy0Si0F0aRQ8YxbD3Pr3P8xbiuHLB59bb4bx/uGI9FPCbPCPaOwi1rNhWVpkM1WP"
    "DRWTr9Za2rGhLjjIY6EfG7ZOGx+rvc2G3RyhOzG5bEiWeJRzspENim57Dpr2syG20Ed5J1ECxmFK3TprSuCX2Kj0Xp0S"
    "uEldeMHZugR4rz3LYjxLQF2FEvn8VglUJe26+xetBLZ0vr51oa4Elvh6bB7pLYF9bbN4UkrgjtbPHRKrS8GhkbquTLsU"
    "bpSJp16xLoV02j5ve69S0FN/6GIeUwoi42n6h3NKoXnS/mVgYyloMaN6WQOlsOpR7X7xhWXgkHh/7JJ8GRASPQ/F9Mtw"
    "vzQbFjqUgWLkrpLLF8oApgfGXRLKwH1j+PuzhWVA5VDO3m0vg7D8kAfd42XwcPnIOROpctgaNDbwllIOaxa7y9yyKAeh"
    "6yMirufKYUXG1x7XqHLIoWpVxGaXw+03ug29TeWg3XNazXGoHNxjozSERStAflRb6r1SBRjXb1v2waQCNox/iZc6UwFP"
    "5t5O+ERWgKe7fJJodgVImv6aaXtWAdqUQ3GvvlbAmjbTOeHFlTC1d5jrS6mEG6+qk9YcqISN8wmqhHcliFWpmK27Vwki"
    "HtOckKJK2Jkp5b+hsxJoIwucRH5Vwjqrmpsaa6vgvEUxmW5UBacXNMkfc62C0IRIQdebVVC13mtlWX4VhH9RbTveXgXi"
    "Uyur7WaqwO9hu3GHJAeMm2IFstZxIEeAFkbT5EDDpL5llzEHgpl5U7oOHDi9KXNDqzsHVlBOxCaGcsCaOiiSEM8BLsfL"
    "72U2B0w6eK/0qjigppetOdzOgbsnl7R0DHKgKC1j9M9vDhh6ygu6y1TD9qNlD9YpV8N5Ue4Z2V3VoEs5buJiUw0/eCm6"
    "P89Wg5N0m+/H0GrI/Wp5eNX9aohRvRKQR6+GexletOSmatiR3z/3tbcaFnT21aTNVkPIC8GUcpka4LV7BBlvrQGF5Nz0"
    "v41roOeIf0O5Uw1Q7LJmGZdqIFAy4CUlsQYOialYabNqIOF9vHpHaw1MBtLoi3n4fP7hthHxWnicftrxogoqnS/ENa0F"
    "g6xtQW1nakHM8PAd5s1amL2R7+mXWwsZgiuYii214DdxPPv991roGihJTl/BhXuO1ssS9biwbGfmnmYXLpTvTvZzjuaC"
    "ov3ZFJ9iLghEvly88RMXDHOHrNKk6sAoeOehJQZ1sLp/H43uVQed0V5RnCd1MN+6U+Fmdx2Yy0W0nFleD8NuxMVmq3qo"
    "HUirNIirB40+0eiz7+tBM+jYmJJiA/gIix6Ou9AAt5rfTGztaADN78pCC3c0wtJL2VVkTiPE7/G410NpghxbgwW8501g"
    "H3AvsDv2GdB/B+qsTXwO2/JEQ1m6L+F/WUNL/g=="
)


@cache
def _ziggurat():
    """numpy's ziggurat tables (ki, wi) of its standard normal.

    A word w gives idx = w & 0xff, a sign (bit 8) and rabs (bits 9-60).  Its
    normal takes the fast path when rabs < ki[idx], and is then rabs wi[idx], signed.
    """
    raw = np.frombuffer(zlib.decompress(binascii.a2b_base64(_ZIGGURAT)), dtype="<u8")
    return raw[:256], raw[256:].view("<f8")


def _mulhilo(a, b):
    """(high, low) 64-bit halves of the products a * b of uint64 arrays, from 32-bit halves."""
    a0, a1, b0, b1 = a & 0xFFFFFFFF, a >> 32, b & 0xFFFFFFFF, b >> 32
    p10, p01 = a1 * b0, a0 * b1
    mid = (a0 * b0 >> 32) + (p10 & 0xFFFFFFFF) + (p01 & 0xFFFFFFFF)
    return a1 * b1 + (p10 >> 32) + (p01 >> 32) + (mid >> 32), a * b


def _philox_words(seed, indices, blocks):
    """(len(indices), 4 blocks): the first words of each stream ``_rng(seed, index)`` yields."""
    # arrays, never numpy scalars, so that the key's increments wrap silently
    key = _key(seed, 0)[:1, None], np.asarray(indices, dtype=np.uint64)[:, None]
    ctr = [np.zeros((len(indices), blocks), dtype=np.uint64) for _ in range(4)]
    ctr[0] += np.arange(1, blocks + 1, dtype=np.uint64)
    for r in range(10):
        if r:
            key = key[0] + _PHILOX_W[0], key[1] + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
    return np.stack(ctr, axis=-1).reshape(len(indices), 4 * blocks)


def _uniforms(words):
    """``Generator.random`` of each word."""
    return (words >> 11) * 2.0 ** -53


def _normals(words):
    """(x, fast): ``Generator.normal`` of each word where ``fast``, on the ziggurat's fast path."""
    ki, wi = _ziggurat()
    idx, rabs = (words & 0xFF).astype(np.intp), (words >> 9) & 0xFFFFFFFFFFFFF
    x = rabs * wi[idx]
    # Generator.normal adds loc = 0.0, so -0.0 comes out as 0.0
    return np.where(words & 0x100, -x, x) + 0.0, rabs < ki[idx]


def _first_draws(seed, indices, n):
    """Each index's ``_draws`` on a fresh stream, from its words: (frac, gauss, phase, fast).

    Row k holds index k's draws where ``fast[k]``, that is where each of its 4n
    normals takes the ziggurat's fast path, one word each; other rows are void.
    """
    # 4096 streams at a time bound the kernel's temporaries
    parts = []
    for k in range(0, len(indices), 4096):
        words = _philox_words(seed, indices[k:k + 4096], n + 1)
        gauss, fast = _normals(words[:, 2:-2])
        parts.append((_uniforms(words[:, :2]), gauss, _uniforms(words[:, -2:]),
                      np.all(fast, axis=1)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _draws(g, n):
    """One attempt's draws from the stream ``g``: t and sigma, the 4n Gaussians, two phases."""
    return g.random(2), g.normal(size=4 * n), g.random(2)


def _attempt(frac, gauss, phase, n, t_range, s_range, profile):
    """One attempt for each stream from its ``_draws``, one row per stream: (z, v, reasons).

    ``reasons[k]`` is None where row k is accepted and otherwise says why it
    is not; z and v hold the accepted rows' pairs.
    """
    t = _uniform(*t_range, frac[:, 0])
    sigma = _uniform(*s_range, frac[:, 1])
    theta = _uniform(0.0, 2.0 * math.pi, phase)
    u = gauss[:, :n] + 1j * gauss[:, n:2 * n]
    w = gauss[:, 2 * n:3 * n] + 1j * gauss[:, 3 * n:]
    # a degenerate row divides by a tiny norm; its entries are never read
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        norm = _row_norms(u)
        e = u / norm[:, None]
        z = np.sqrt(t)[:, None] * e
        w = w - np.sum(w * np.conj(e), axis=-1)[:, None] * e  # <w, e> = 0
        wnorm = _row_norms(w)
        w = w / wnorm[:, None]
        v = ((np.sqrt(sigma) * np.exp(1j * theta[:, 0]))[:, None] * e
             + (np.sqrt(1.0 - sigma) * np.exp(1j * theta[:, 1]))[:, None] * w)
    reasons = ["degenerate direction draw" if a < 1e-12
               else "degenerate orthogonal draw" if b < 1e-12 else None
               for a, b in zip(norm.tolist(), wnorm.tolist())]
    rows = [k for k, reason in enumerate(reasons) if reason is None]
    if rows:
        _, t, s, _ = invariants(z[rows].T, v[rows].T)
        ordered = (0.0 < s) & (s < t)
        valid = ordered.copy()
        valid[ordered] = profile.is_valid(t[ordered], s[ordered])
        for k, in_order, ok, t_k, s_k in zip(rows, ordered.tolist(), valid.tolist(),
                                             t.tolist(), s.tolist()):
            if not in_order:
                reasons[k] = f"s/t constraint violated (s={s_k}, t={t_k})"
            elif not ok:
                reasons[k] = f"profile rejects (t, s) = ({t_k}, {s_k})"
    return z, v, reasons


def _draw_indices(spec, t_range, profile, indices):
    """Attempts on the streams of ``indices`` until each is accepted or exhausted.

    Each round makes one attempt on every stream still pending.  Returns
    (z, v, reasons, attempts): the (len(indices), n) rows of the accepted
    pairs, None or the last attempt's reason for each index, and the number of
    attempts made.
    """
    # past the first round's precomputed draws, one Philox serves every stream,
    # switched by its state: building a Philox per index costs ten times more,
    # as it draws OS entropy the key overrides
    g = _rng(spec.seed, 0)
    bits = g.bit_generator
    fresh = bits.state
    saved = {}      # the state of each stream that went on past an attempt

    def switch_to(k):
        bits.state = saved.get(k) or dict(
            fresh, state=dict(fresh["state"], key=_key(spec.seed, indices[k])))

    z = np.zeros((len(indices), spec.n), dtype=complex)
    v = np.zeros_like(z)
    reasons = ["no attempt"] * len(indices)
    pending = list(range(len(indices)))
    attempts = 0
    frac, gauss, phase, drawn = _first_draws(spec.seed, indices, spec.n)
    for _ in range(_MAX_ATTEMPTS):
        if not pending:
            break
        attempts += len(pending)
        for row in np.flatnonzero(~drawn).tolist():
            switch_to(pending[row])
            frac[row], gauss[row], phase[row] = _draws(g, spec.n)
        zs, vs, why = _attempt(frac, gauss, phase, spec.n, t_range,
                               spec.s_fraction_range, profile)
        for k, reason in zip(pending, why):
            reasons[k] = reason
        rows = [row for row, reason in enumerate(why) if reason is None]
        done = [pending[row] for row in rows]
        z[done], v[done] = zs[rows], vs[rows]
        pending = [k for k, reason in zip(pending, why) if reason is not None]
        # a rejected stream goes on from after this attempt's draws: making them
        # again costs less than reading back the state of every stream
        for k in pending:
            switch_to(k)
            _draws(g, spec.n)
            saved[k] = bits.state
        frac, phase = np.empty((len(pending), 2)), np.empty((len(pending), 2))
        gauss, drawn = np.empty((len(pending), 4 * spec.n)), np.zeros(len(pending), dtype=bool)
    return z, v, reasons, attempts


@dataclass(frozen=True)
class Samples:
    """The accepted samples as columns: column k of ``z`` and ``v`` is sample ``index[k]``.

    z and v have shape (n, B), with B = ``len(samples)``.
    """

    index: list
    z: np.ndarray
    v: np.ndarray

    def __len__(self):
        return len(self.index)

    def columns(self, start: int, stop: int) -> PointVector:
        """Samples ``start`` to ``stop`` as one column PointVector."""
        return PointVector(self.z[:, start:stop], self.v[:, start:stop])

    def point(self, k: int) -> PointVector:
        """Sample k alone."""
        return PointVector(self.z[:, k], self.v[:, k])


def sample_domain_detailed(spec: SampleSpec, profile: MetricProfile):
    """(samples, rejections): rejections list one dict per exhausted index.

    ``samples`` is a ``Samples``, the accepted pairs as columns in index order.
    """
    t_range = spec.t_range or default_t_range(profile)
    lo, hi = t_range
    ilo, ihi = profile.t_interval
    if lo < ilo or hi > ihi:
        raise ConfigError(
            f"t_range {t_range} leaves the profile validity interval {profile.t_interval}")
    indices = list(range(spec.count))
    z, v, reasons, attempts = _draw_indices(spec, t_range, profile, indices)
    accepted = [index for index, reason in zip(indices, reasons) if reason is None]
    rejections = [{"index": index, "reason": reason}
                  for index, reason in zip(indices, reasons) if reason is not None]
    if len(accepted) < 0.1 * attempts:
        raise EmptyAfterRejection(
            f"{attempts - len(accepted)} of {attempts} draws rejected")
    samples = Samples(accepted, np.ascontiguousarray(z[accepted].T),
                      np.ascontiguousarray(v[accepted].T))
    return samples, rejections


def sample_domain(spec: SampleSpec, profile: MetricProfile):
    """Deterministic list of valid PointVectors for the profile."""
    samples, _ = sample_domain_detailed(spec, profile)
    return [samples.point(k) for k in range(len(samples))]


def seeded_unitary(n: int, seed: int) -> np.ndarray:
    """A deterministic unitary matrix from a QR factorization with fixed phases."""
    rng = _rng(seed, 0xA5A5)
    q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))
