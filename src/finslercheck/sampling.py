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
on the stream of every index still pending, from the word where its last
attempt stopped: ``random(2)`` (t and sigma), ``normal(4n)`` (the two Gaussian
vectors) and ``random(2)`` (two phases), read from the Philox words as numpy's
``Generator`` reads them, and then the geometry, the invariants and the
validity mask (``MetricProfile.is_valid`` on arrays) over all of them at once
as (B, n) rows.  Each index therefore gets the attempts, and the bits, it
would get alone.
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
# 0-d arrays, which numpy need not convert as it does a Python int
_LOW, _32 = np.array(0xFFFFFFFF, dtype=np.uint64), np.array(32, dtype=np.uint64)
# the right edge r of numpy's normal ziggurat, and 1 / r, which its tail reads
_TAIL_R, _TAIL_INV_R = 3.6541528853610088, 0.27366123732975828
# ki (256 uint64), wi and fi (256 float64 each) of ``_ziggurat``: little-endian, zlib, base64
_ZIGGURAT = (
    "eNo113k4Vd3bB/BdURlyDI1KVCKeIkLKzV3qCZWUIcWTIqlUppAkRYiEUqYylIRjnufhmInMZErmzEOZovRbrvd6zz+fa++z"
    "915nr3Wv730d44ndj+V/clD//4ksXfTPW8tOKTrkLmh+WEcNjxfYz57joOznGoa0kjiozE/2DqcmOKio4wusSlto1ObKv/pj"
    "B2nUf7v1fU6o0SjfD1v7PurTqDBfDStbMxr15vie0SQ7GtWgfZV9yoVGde5+oh3uRaPaalXLBP1oFMtM+xp6EI2yXHCYufKB"
    "Rs2f0u00jaRRHZoNV6ZiaBQtc/P1xQQaVWqp4RGSQqPuLRntGk2nURz974dGs2jUGBtTUHQujdK+/ffKfgaNUg49yOlYSKPq"
    "dHtsw4tplMS4rV9o6fLv2UO3LadRzp2n9CQ/0SjeXSuHqippVPGheW7VzzQqYNRLNbWaRu2v4MtfU0ujBoqbVU/U0aiz0z2R"
    "FvU0anvFpJpnA42ySXkR8KaRRmnQvDP8m2jUaIAnw62ZRkkOltNNvtCowbUPNJVbaNTzvbHum1ppVH1sxJqvxOd6nGYBbTRK"
    "QIxxSbWdRtX+1v3vF/Hhm8yRoA4aFWSx2UHuK416IS7lWk80DJExvNpJo86c8zAbJ4qlhK+w/EajjowFXJsm/hDM6TPtolEX"
    "QncXDhBPZ+yBi93kPTDneRkxalv7kEQPjXq5tc3Zn+hyNNVrkXjSQ+uAbi+NEqVqA9KJj2KDhzj7aJTUvcYT14n/sZxuyCIK"
    "+tTHsfWT9805M3eRyM3dV/6R6ObCozCxfJ6z1VRmgNhUavWAGMW13SiP+GO6X+svcWUEdVHhO406FKzg+IAYambWm0Y8pnjP"
    "Y5L4fFLjxZ5BGnV4k/SiHtFwrVPHK2JO9eTRMuLsmYeyv4h8b59WiQzRqGHXBpaLxNA3rxZdiEbK5jHJxKa010LfiHYD0XdZ"
    "hsk6G00FShL3+khG6xB5LZvCHYiT2zr9IogCrT+dq4gwcM1mksgzKm7NM0LmRXTJWZqYYiARd5644NQzbU1cLzBw2ZdoF1Qz"
    "nUKsVZnOqCcqiJkkThAHc7f3so3SqA06ierCxIb4ICZFou+UyB9d4vT47SNWxBT2s/UeRG7+l2kfiUvCxZM5y/ctajo1EJPL"
    "XS2HiOkvHxUvEfc4S9/jGaNRq1ScvISJp8UFOeWIJhdiF1WJX4v8Na8QB9WO8lkQHel92k+I5XvDVr8mMqU7/xNGTDG2LE8m"
    "qhsd/Va4rEmYeR2x4Rk4fCM+DnhBGyOub6RtXyAWn+KOWz1Oo1brtDK4iV2rX2hvJwpeO3VXhJjTx7pBighvM+QViNOOIuNK"
    "RJcEPuFzxKOPjgxdHF+u1z3SBsQpvwtsxkTbNQq3zYmODyQv2BCzVj+osScmnVSudyIeu5p25RnxXHmVrRexbbe9wGvisEjk"
    "OX/if8o8HIHL49210AohxlUZCIcSYxRvPQkjmu/7fSOcuNBs8iWCyLrAVB1JlDsweIpO5DQUObus3hpG6/J5TWu378vXCfIp"
    "2yzf9yQ49Nnyc9r6dvItP1dQQFpseRyxeKGct8S+H4IlfsTDrKD0irjRSuuI5/J7BcrEuRL/yD/ydCS6ZkR0PiD+Pfj3reXy"
    "eLn0ottEeypY3XD5+z0f/tUlpmmfCVier5rV1Mnl+Tu7t1sDiC2iXUn7icyOsQaCRB3I0NtEVFovGspCrFLpFV4k63R7h/Xw"
    "CNGeaWdf+/J6HqrmqCRO72UyzCRWyA51hBM9hg5avCLKRMpue0T8h5FZf5NIxa320CDuDOs8CsQWcePvu4jHB8TvshKllta0"
    "TZA6zEjn4Gxcrl8Tn7XpxIL93Gn+RBv6Otb7y3UsQZvRJhpUuBhJE6WTU05zEWtNPV+PkP3hnfZOpJjYwT4+84ao6FzRbUoM"
    "5o9tUCSe2seWsLz/hlbyXuwh+1F7Z0BcHFGo19PDhth/908NEmdbPU4zEeXOizeXkP0epkSXcyLuUeJTQmJziXXuLMmLgcHi"
    "S1HE4UTbrovEI/QXs0xExgFH5WiSOx+N+a1OE1eGinIOkpxqiU5795Bov182hJ2oOCd79zXJt8cWfmbriRemZRrdSR4e3P4n"
    "/xfJy8DEcelLxKU+ce5UkqfaWgGrKOL6JzaOQHI34fp48Q2Sx1Hm/yQ4kpyOWrIveUry+49cKYsVyXWefJH+EyTvHVeKzc+T"
    "fmCVldTtTPoDU43yxADpH2zXcmN5SD/hnuxRWUH6TExZSsT7uuX5smbqIf0piUuvJZL0rZ37PpvUl5H+t3O7+D9FpC4zGA7X"
    "SB+U0qSKV6eRfrpH9MIR0j/9/12x3S+YRv3mC1NecCO5uH9yrsSI5N22A6d0eGnU/dYNNnIqNVA6+6eXzcMdUnT3QvxZb9CX"
    "Oy6baecD7BHig79X+ENO7Wkx9l1vYE5fVlyVCgRLC0sd8ZggKGo6vU9ZMgRisz2FJVXfwbFLK+WYZ97BPZmjfuHe72GG19Yr"
    "VDgUHrdclRVLDYWZl9oMhA8gnhhaEJz7AbTe/vWYOBQGEUvyMtmJYWDZwGtgtfsj+FaviXjs8xGG7VtrJFaGg7zdB/36W+Fg"
    "xkx5h9aHQ/j8iYY2mQi4J5rMGesfAcdmTsT+O0+OWY9pVGlFwhvrB8GGiZHgX3OGLsZGh+Htex2VrtLhRImsZ0UmHfZGhHVU"
    "cUTBxc/37lw3iIL9GzlNYlOiIPA2z51E5mgQsVV86qQVDYdD1D1lwqJB0jFftHkqGn6eufjLTCGGzI/kR55nMeAuZLFU0RgD"
    "yumPOUK2xwInf59I0PVYKMrYRVXHx4KG9RT98FwsLI3Vp47IxwFlantg6EkcVDv+yj1cEQdCBpNO39fFg+tsi+bsuXiI+/I0"
    "+I5PPMSILTzUaImHUSnFrvPrEuCN16GZI2IJ8PvjxuDhMwnA+c5C97xpArBNm79w8UoAHv0cp4fxCfCo6pSRfE0C3Fq78VT5"
    "eAKMb/CRFOBIhDyaxBqlfYlw9KVniMLpRNguUJy/9lYiSLXZ8Ea4JYLrnfFzWyMToVJ0ft6oNBHEGrteufclQsi7IwHPVibB"
    "UGmxxTWBJOAvGnrIp5AEi7fo7Cm6SfCogc9I9H4SbP2ypczBNwnaxDIMspOTQCOj26ClNgk86ZWDrWNJ8EXZZF0BazLsz5zu"
    "9hROhvd6QmbHjydDk/qnrJ4ryWB8gTnP+GEyGCYlmX4NSIZV8hn5cmnJ0MV33t+lPhme6Fh05o0ng2Vwl3k/awpcsgzftyiU"
    "AmH7YZA6Ro7LPt2d00sBmSKj4G+2KSDupSyZ5UvOH105+zQpBTq4kmNUqlOAOVx2IzWcAgZaehPRzKmg4876Q3VHKqgZGTcN"
    "QCqUJ209c+9CKthc1uKgLFNhvTNHqYNXKlzcKrjrT1QqyN99WGdRmgoNz8Uf9HangqxeSLnan1Qo4v9wJWNzGoQmhA7ySaUB"
    "m1A6k4NaGlj4Vmj3GKfBQYnEJ4ouaZCYdFYk9H0aZB9LHlyRmwbqDXv0DVrSQHNeX6L4ZxqM3HCfE6alQ+n6m+c8RdOhY9ys"
    "Y+7fdOC/2y99TT8dVKYnFprt0uFVbla5qn86sKx3h0/J6bC4s/3n6Zp0+N5593nzMLl+2CXs+uoMsHYpb6N2ZsCGELfqUPkM"
    "yJ2p4z9zMQNK7G1NV1llwL45pctFLzLgGIPZ2zMmAwLZ30dfK88AYePj51T6MsAr9a7IYSoTlJ7s6ZDdlgm/WSe4T8hmwrPQ"
    "VfcNNDNhvMks29MsEyRExdwqn2dCfgC+2kLPhL2tTc/vl2QCl6XpP6PdmXCyfoHslEzwlvl1iH1rFuiWh+7IPpgFrtlswY80"
    "syCMftJCxzwL5CXeGZ72zIK1UyEK56OzoHpG57NNeRbIJLt3p/RnAe/7IjW2Vdmg6/9m0k4gGyj2rnesCtmkXqqPpupmg7Ab"
    "Zj68nw0w1z9l6JcNJrud22+lZkMoQ+zWq4ZseBLn8LZjKhvebRy9rcyZA/tsJ/u/iOXAtnUmPM9Vc4D56ehao9s5sCl8pMvI"
    "PQeiQ2VyvaJy4EWzXFl3RQ4c7LqxX28oB0y83CVXs+SCwMRBzvY9uaBUemBDp3Iu7Jr67st5Mxc+Ln6ZvuuWC2YmAgEsUbnA"
    "ofJ7vv5TLhwUU/epG8mFbfUqi6vX5cHsieFiS7E8cK0rCNh2Ng92L/mJUxZ5wJovemrH6zxYazrHcEjLg8MRnNa7WvOAPrpC"
    "f+3vPNihUfhMkj8f7qim08IU8+HGigqBy0b54OjnxmT0LB/yd5pvzo7LB+fv4vVXGvKBbXZzwcX5fLB616DUyMEApQqvlZE7"
    "GBC9kv6ELsWAshmFM21KDLBPjp2V02XADaGIXbUmDNgkdtXL35EBmqGDa/18GVDMMLf6HMUA5cbxOvl8BuyXj5IabmDAq2tc"
    "NY2DDEgLCZ/4+4cBR80EmEx4CkD6UvbbHSIFcIel+CYfFoCc2BVlQ60C+DkeJPfrVgHoc9dbfnMsgJiRM+d53xSAp/ije7GJ"
    "BfA63JweWFEAh+L6Fke6C2BFa09hyEIBOFQxBeXwFMJ4g6mt0r5CEAyMCftXqRC6LliX5egXgtjFyIUku0Kw4bj3Wcy/ENRZ"
    "RTUOphSCX7uvRGNtIczY0BPXjZP7487Xj7IVwYewG3oPRInccczFKkVwJPKAbf3NImA9et47+VkRLLjGmVnFFEE406Zk4Zoi"
    "sJq+EtX+owja+jMDwzYVw2s9zQ3+8sWw4XDE8WrDYsg5Fmhl4FEMwjq3gu6mF8NKt8/rdvcWw9GYIY0QzhJQtD+sznWkBLb2"
    "naQnmpdAq4e5O+NjCSzVHhZ81lECp7e71NzcWArDxtSDao1SKOoPyTviUwqSPSwet9pLQcr28uQe4TK4u5rlvM/9Mnhe3Ty9"
    "r7EMpH6IMK86VA7r7aLyadHl4Hvc9HWXWAVEax9ZMV5ZATr3Xtt0eH2CxD82svz+lXAglsUxRe4z/N+//kl8Onm/wvj4BG6g"
    "39bVTB/He5PCXVw4jj6dTBGmDWP4I0d7tbfZGHZseW+jsn4MR/ZFRB7IHcVHNvRqPeNRHM4ab922dRQdO7rPjFSPoPqM1+Fr"
    "ziPI+VXK8bDCCIYO3kbRX8PItNt2ail1GLsrzja5Ww4jLX7mD6kgbOG/Ni43O4QOqwU9dmYOYYGtvvaJh0OoZLu18KXiEKqZ"
    "S+ROrR3CSNYBNa3aQVz5LUs51n8QY3IO/h7RH0STmvM05r2DWNkjcGps9jteuBF4703hd2xKeAervL7j+RazNfz/fUfuOzjd"
    "L/Idx22Hs87OD6CbztXgC2UDKCp3Tm/OdwB39XqLCl8fwM3sWv49BwfwmtBjf0GWATT+e9J0sK0f3f4rjxGJ7Ucvj9NCfY/6"
    "8USwxySPRj823b6mkyrUj9fTBAaLF/qQcUZFDWv60Ea9w2JHWB9yn/12+cb9Prwvo3KSS60Pey9LP9uyuw8ddS8E2C/24geJ"
    "eE6F+l7k+GwQrkXvxSaq7Z+ix704dHbG3elCL0ofNqvw29+LE7KGfxbW9uK43LBWTHcPnvT5sj4qqwc3fH7l+eNVD44xMYs4"
    "3elBp/YXOpeUevDHnDjdbkcPCvh607sWu/FmgObS0+Zu5KpDbfPEbjwLb83ePu/GtkMu3Mw3ujGQrscZe6wbZfkllL35u5Hn"
    "omRo8mIXvlM8ysnZ0oVxrWYe4Sld6HApgM/6ZRfKwGTVQ5MuFMPw+JxTXSjq6N4tIdKFxZ8ynDtWd+H73AfP71V8w08UPSLI"
    "+Rv+tBWvFFH8hj5e9ua8fztRkz9XwCSnE0uKzhjvsu1E57eXh2VlO5HlsLVS7OxXTDzPJvko9Sse6BQyjLX8io85V76XkfqK"
    "d3TjUrZMd6ByJOOuVkoHln2hsgctOzBjL59pvXQHbjLWt+Oaa8eXd8ybwzLacSvPGht323b8JJFsUAztqO78PvjM3zYM1rl8"
    "WKSwDR+3hJ3UcG5DVYbAcKVyGyo4nTjkzd6G315t1/tY24qljM1OTD6t+Cqkqz3uYituqjzw9sP2Vtwwlfm7u7cFXV924k16"
    "C6bpxETKmrZg67qoR2rSLcjVmsEVu/gFE9ZPx58t/IIj6t7xh9y+4Fhi2c3rZ7/gaX26XOumLxh1mtvF81sz7uh0jXWJaMae"
    "yt28BabNuKH/wUF52WYsr39suUA14/FC62PzFU2YN968ReZVE1Ir5M2S/2vCMTmNQlOhJvS+k+9pPNmIoYGc2h+yGrHRODZk"
    "i3MjLgkWTVSpNeIWW+m6HN5GbK/3rB3sb8C4Y1N2ZxMb8D7P2hs/7RowuO7X7jrlBhSf1VEdWt+ARmt23JPrrsev6KtQFluP"
    "2xNVjz63rUe3zk38z5TqMbhq7j5jfT1udNg8K9ZTh2cnCw81xdfhoKbmWNLDOrw+LpVddqoOdwnWqPHw1mExy9OLPoO12KaY"
    "5KqaXosyx154ybnUYuuQ4s7LWrVob1k2my5YiyWvvrm5D9agtGTGc07XGqz3H7q9JFyDxwMrwjTLq/Er7EnivlmNTub/bpRl"
    "rUbWF2VaxdGfUe1c0nya6mesMtV7RpusQo1v5gGfvatQKaglfVK6Ct9vzrO1aa3EKImntoYPK/FwXZV6yo5KXLNZO/R66Se0"
    "F9rCZn/rE8rb75Oc4/yEOkv1+fVpFShsZ3yZ81IF3lywzI9fVYG6Dt4vE6LKUfaNwzNu9XK0Muc3aPpVhrs+3GiYf1+G4am2"
    "gXYny3Cjkq/9lZ+l+N+PHQphgaUYOBUbqnSiFH89mbc+OVmCt/l+usa8KUHpG+X0O/+WYAF/b6zHZDHuq565zR5YjE1WqwqH"
    "lIoxTuKm++7pIhz/MhiV/64IXaNTmDNUi/CaqJ0Tx2Ih8q6x5SmKLMR0vSehTecLUQo27z7BXIiKD62816cU4NV9kf1HrhZg"
    "pkkoXyV3AWaxqMsnFzLQOT/j1C8LBoo+XK0ZtIuBe3feqlSg5+M2DnWRv2z5eOrjmx8PTPPQa9BaP7UhF/tf5mZGy+Yiq6Wc"
    "yuXgHNzAyXajlikHD/T8sPl7KxsPzH4aGm3IQheD4QMBkIVbdIM6mMIzMfpdmNV+zkxU35MftO1BBjZPKKz4NJCO1lxROoc0"
    "0vH0yZt3bzHScLOqs6C+WBqGGVlqbw1Kxbh/Fla/ZU9Fnp1bj3TbpaDLG6FdE2PJaKbQ2ldyORm5JN7WGNUn4ct1X483/JuE"
    "D9388tizEjFo04/a9eKJuNt3w96xsAT069sf7Lc1AaVNbv+zVygeHc4lKTVtjEODqdglMZZY3Cu6h6bwJxrNLsu+WPMzCq9q"
    "ifx6MUzH6NQbol29kbhdOP7eYmcEGtb6Jw+1h2Nj7A9IavuIl4S5OC61h2HluH/1j68f0G9aftCuJxRzjPlDmIfeI9djXzH/"
    "qXdY/HHzF4f5ELR67tjOyx2MvCyfn2zZH4jzIzvPhKi/QdYCKq3uvj865rNNt330RcOExR/Dza+RRy/aQ3bdK+Tef0VqlcpL"
    "VPlqoSa6wQtjvNSEPcLc0SbMYx3TUVfsquFV9B1xQm9xHxHvjw548Mbo/JVuO7yUwd4aGWyNfxITVvE/M8PrCQXHQi5fQ9pc"
    "ZhpzuCb+D/RNTOc="
)


@cache
def _ziggurat():
    """numpy's ziggurat tables ki, wi and fi of its standard normal, ki and wi by 9 bits.

    A word w gives idx = w & 0xff, a sign (bit 8) and rabs (bits 9-60).  Its normal
    takes the fast path when rabs < ki[idx] and is then rabs wi[idx], signed, that
    is rabs wi[w & 0x1ff] here, where ki and wi run on to ki and -wi.
    """
    raw = np.frombuffer(zlib.decompress(binascii.a2b_base64(_ZIGGURAT)), dtype="<u8")
    ki, wi = raw[:256], raw[256:512].view("<f8")
    return np.concatenate([ki, ki]), np.concatenate([wi, -wi]), raw[512:].view("<f8")


def _mulhilo(a, b):
    """(high, low) 64-bit halves of the products a * b of uint64 arrays, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW, a >> _32, b & _LOW, b >> _32
    # no sum carries past 64 bits: (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64
    low = a1 * b0 + (a0 * b0 >> _32)
    mid = a0 * b1 + (low & _LOW)
    return a1 * b1 + (low >> _32) + (mid >> _32), a * b


def _philox_words(seed, indices, blocks, start=0):
    """(len(indices), 4 blocks): each stream's words from block ``start`` (one, or one each) on.

    Word p of stream (seed, index), the p-th of numpy's ``Philox`` keyed (seed, index), is
    lane p % 4 of counter p // 4 + 1.
    """
    # arrays, never numpy scalars, so that the key's increments wrap silently
    key = (np.array([[seed & 0xFFFFFFFFFFFFFFFF]], dtype=np.uint64),
           np.asarray(indices, dtype=np.uint64)[:, None])
    ctr = [np.zeros((len(indices), blocks), dtype=np.uint64) for _ in range(4)]
    ctr[0] += np.arange(1, blocks + 1, dtype=np.uint64) + np.asarray(start, np.uint64)[..., None]
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
    ki, wi, _ = _ziggurat()
    low, rabs = (words & 0x1FF).astype(np.intp), (words >> 9) & 0xFFFFFFFFFFFFF
    # Generator.normal adds loc = 0.0, so -0.0 comes out as 0.0
    return rabs * wi[low] + 0.0, rabs < ki[low]


def _walk(words, c, m):
    """(gauss, stop): numpy's m normals from word c[k] of each row of ``words``, and the
    word after them, past the row's words where they run out.

    A word off the ziggurat's fast path from c on starts a normal unless an earlier
    one read it: the wedge reads the next word's uniform and takes x or starts over,
    the tail reads pairs of uniforms until one passes.
    """
    fi, width = _ziggurat()[2], words.shape[1]
    x, fast = _normals(words)
    rows, at = (~fast & (np.arange(width) >= c[:, None])).nonzero()
    # what each word off the path does if it starts a normal: take x or not, and
    # where its normal's words end
    k = (words[rows, at] & 0xFF).astype(np.intp)
    u = _uniforms(words[rows, np.minimum(at + 1, width - 1)])
    f = np.array([math.exp(-0.5 * v * v) for v in x[rows, at].tolist()])     # libm's exp
    keep = ((fi[k - 1] - fi[k]) * u + fi[k] < f) | (k == 0)
    end = at + 2 - (k == 0)
    t = (k == 0).nonzero()[0]
    while t.size:           # the tail, whose sign is bit 8 of rabs
        a, b = (_uniforms(words[rows[t], np.minimum(end[t] + j, width - 1)]) for j in (0, 1))
        xx = -_TAIL_INV_R * np.array([math.log1p(-v) for v in a.tolist()])
        yy = -np.array([math.log1p(-v) for v in b.tolist()])
        end[t] += 2
        took = (yy + yy > xx * xx) | (end[t] > width)
        sign = 0.5 - (words[rows[t], at[t]] >> 17 & 1)
        x[rows[t[took]], at[t[took]]] = np.copysign(_TAIL_R + xx, sign)[took]
        t = t[~took]
    # which of them start normals, in turn: cursor[r] is row r's next word, left[r]
    # the number of its normals still to read, and shift[r, j] the words that
    # normal j skips past the one before it
    cursor, left = c.tolist(), [m] * len(c)
    shift = np.zeros((len(c), m + 1), dtype=np.intp)
    for r, e, kept, stop in zip(rows.tolist(), at.tolist(), keep.tolist(), end.tolist()):
        if cursor[r] <= e < cursor[r] + left[r]:
            left[r] -= e - cursor[r]
            shift[r, m - left[r] + kept] += stop - e - kept
            left[r] -= kept
            cursor[r] = stop
    starts = np.minimum(c[:, None] + np.arange(m) + shift.cumsum(axis=1)[:, :m], width - 1)
    return x[np.arange(len(c))[:, None], starts], np.add(cursor, left)


def _read(seed, indices, pos, lead, m, trail, spare=2):
    """(head, gauss, tail, end): numpy's ``random(lead)``, ``normal(m)`` and ``random(trail)``
    on each stream (seed, indices[k]) past its first pos[k] words, and the word after.

    The window holds ``spare`` blocks past lead + m + trail words, and one more per 64
    normals, for the words that normals off the ziggurat's fast path read: enough in all
    but about 1 row in 10^4, which reads again with twice as many.
    """
    if len(indices) > 4096:             # bounds the kernel's temporaries
        parts = [_read(seed, indices[k:k + 4096], pos[k:k + 4096], lead, m, trail)
                 for k in range(0, len(indices), 4096)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    offset, row = pos % 4, np.arange(len(pos))[:, None]
    width = 4 * ((offset.max() + lead + m + trail + 3) // 4 + spare + m // 64)
    words = _philox_words(seed, indices, width // 4, pos // 4)
    gauss, stop = _walk(words, offset + lead, m)
    head = _uniforms(words[row, offset[:, None] + np.arange(lead)])
    tail = _uniforms(words[row, np.minimum(stop[:, None] + np.arange(trail), width - 1)])
    end = pos - offset + stop + trail
    short = (stop + trail > width).nonzero()[0]
    if short.size:
        _, gauss[short], tail[short], end[short] = _read(
            seed, indices[short], pos[short], lead, m, trail, 2 * spare)
    return head, gauss, tail, end


def _attempt(frac, gauss, phase, n, t_range, s_range, profile):
    """One attempt for each stream from its ``_read``, one row per stream: (z, v, reasons).

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
    z = np.zeros((spec.count, spec.n), dtype=complex)
    v = np.zeros_like(z)
    reasons = ["no attempt"] * spec.count
    pending, pos, attempts = list(range(spec.count)), np.zeros(spec.count, dtype=np.int64), 0
    # each round makes one attempt on the stream of every index still pending, from the
    # word where its last attempt stopped
    for _ in range(_MAX_ATTEMPTS):
        if not pending:
            break
        attempts += len(pending)
        frac, gauss, phase, pos[pending] = _read(spec.seed, np.array(pending), pos[pending],
                                                 2, 4 * spec.n, 2)
        zs, vs, why = _attempt(frac, gauss, phase, spec.n, t_range,
                               spec.s_fraction_range, profile)
        for k, reason in zip(pending, why):
            reasons[k] = reason
        rows = [row for row, reason in enumerate(why) if reason is None]
        done = [pending[row] for row in rows]
        z[done], v[done] = zs[rows], vs[rows]
        pending = [k for k, reason in zip(pending, why) if reason is not None]
    accepted = [index for index, reason in enumerate(reasons) if reason is None]
    rejections = [{"index": index, "reason": reason}
                  for index, reason in enumerate(reasons) if reason is not None]
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
    re, im = _read(seed, np.array([0xA5A5]), np.zeros(1, dtype=np.int64),
                   0, 2 * n * n, 0)[1].reshape(2, n, n)
    q, r = np.linalg.qr(re + 1j * im)
    d = np.diag(r)
    return q * (d / np.abs(d))
