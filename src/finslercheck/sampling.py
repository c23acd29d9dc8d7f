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
on the stream of every index still pending: three calls per stream,
``random(2)`` (t and sigma), ``normal(4n)`` (the two Gaussian vectors) and
``random(2)`` (two phases), whatever the attempt's outcome, and then the
geometry, the invariants and the validity mask (``MetricProfile.is_valid`` on
arrays) over all of them at once as (B, n) rows.  Each index therefore gets
the attempts, and the bits, it would get alone.  ``sample_domain_detailed``
returns the accepted pairs as (n, B) columns, a ``Samples``, with the
rejections; ``sample_domain`` splits them into one ``PointVector`` each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    # one Philox serves every stream, switched by its state: building a Philox
    # per index costs ten times more, as it draws OS entropy the key overrides
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
    for _ in range(_MAX_ATTEMPTS):
        if not pending:
            break
        attempts += len(pending)
        frac, phase = np.empty((len(pending), 2)), np.empty((len(pending), 2))
        gauss = np.empty((len(pending), 4 * spec.n))
        for row, k in enumerate(pending):
            switch_to(k)
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
