"""Wirtinger-calculus finite differentiation and small dense Hermitian linear algebra.

Fields here are smooth but generally non-holomorphic functions of one or more
complex variables, so complex-step differentiation does not apply.  Every
derivative is assembled from 4th-order central differences along real axes,

    d/dw     = (d/dx - i d/dy) / 2,
    d/dwbar  = (d/dx + i d/dy) / 2,

optionally Richardson-extrapolated over step halvings (error orders 4, 6, 8, ...).
These routines are the independent oracle that every closed-form tensor in the
rest of the package is checked against, so they deliberately share no code with
the analytic jet machinery.

Field contract.  A field takes m points at once, as the columns of a complex
array ``w`` of shape (dim, m): ``w[a]`` is coordinate a at every point.  It
returns its values with a trailing axis of length m, so shape (m,) for a
scalar field and (k, m) or (k, l, m) for a vector or matrix field.  Each call
of ``wirtinger_gradient``, ``wirtinger_second`` or ``wirtinger_mixed_hessian``
builds every point it needs (all axes, all index pairs, all Richardson levels
and, for the Hessian, the centre) and calls the field once, with each distinct
point once.  A DomainViolation raised by the field becomes
StencilOutsideDomain, and a non-finite value at any point raises
NonFiniteEvaluation.  Each estimate is accumulated as acc = acc + w_k F_k in
stencil order, so it carries the same bits as a point-by-point evaluation.
The package's own fields take columns natively: the FD oracles' metric
``r phi(t, s)`` and the closed-form spray and Levi matrix that the direct
curvature and the connection coefficients differentiate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DomainViolation,
    HermitianViolation,
    NonFiniteEvaluation,
    SingularMatrix,
    StencilOutsideDomain,
)

__all__ = [
    "FDConfig",
    "wirtinger_gradient",
    "wirtinger_mixed_hessian",
    "wirtinger_second",
    "hermitian_inverse_det",
    "positive_definite",
    "check_hermitian",
]

DEFAULT_STEP = 1e-3
DEFAULT_TOL_HERM = 1e-8
DEFAULT_TOL_PD = 1e-12


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference configuration.

    ``step`` is a relative base step: the actual spacing used at a point p is
    ``step * max(1, |p|_inf)``.  ``richardson_levels`` halvings of the step are
    combined by Richardson extrapolation (1 means plain stencils).  Invalid
    values raise ConfigError, which is also a ValueError.
    """

    step: float = DEFAULT_STEP
    richardson_levels: int = 2
    tol_herm: float = DEFAULT_TOL_HERM
    tol_pd: float = DEFAULT_TOL_PD

    def __post_init__(self):
        if not (0.0 < self.step < 1.0):
            raise ConfigError(f"step must lie in (0, 1), got {self.step}")
        if not (1 <= int(self.richardson_levels) <= 4):
            raise ConfigError("richardson_levels must be an integer in [1, 4]")
        if self.tol_herm <= 0.0 or self.tol_pd <= 0.0:
            raise ConfigError("tolerances must be positive")


@dataclass(frozen=True, eq=False)
class _Stencil:
    """At step h the estimate is sum_k weights[k] F(p + h offsets[k] . dirs) / (norm h^power)."""

    weights: tuple
    offsets: tuple      # per point, one multiple of h for each direction of the line
    norm: float
    power: int

    def denominator(self, h):
        return self.norm * h if self.power == 1 else self.norm * h * h


# 4th-order central first derivative, 4th-order second derivative along one
# real line, and the tensor product of two first-derivative stencils
_D1 = _Stencil((1.0, -8.0, 8.0, -1.0), ((-2.0,), (-1.0,), (1.0,), (2.0,)), 12.0, 1)
_D2 = _Stencil((-1.0, 16.0, -30.0, 16.0, -1.0),
               ((2.0,), (1.0,), (0.0,), (-1.0,), (-2.0,)), 12.0, 2)
_D2_CROSS = _Stencil(tuple(wa * wb for wa in _D1.weights for wb in _D1.weights),
                     tuple((ka, kb) for (ka,) in _D1.offsets for (kb,) in _D1.offsets),
                     144.0, 2)


def _evaluate(field: Callable, columns: np.ndarray) -> np.ndarray:
    """The field at the points ``columns`` (dim, m), policing domain and finiteness."""
    m = columns.shape[1]
    try:
        values = field(columns)
    except DomainViolation as exc:
        raise StencilOutsideDomain(f"stencil point rejected: {exc}") from exc
    values = np.asarray(values, dtype=complex)
    finite = np.isfinite(values)
    if not finite.all():
        per_point = finite.reshape(-1, finite.shape[-1]).all(axis=0) if finite.ndim else [False]
        where = columns[:, int(np.argmin(per_point)) % m]
        raise NonFiniteEvaluation(f"field returned non-finite value at stencil point {where!r}")
    if values.shape[-1:] != (m,):
        raise ValueError(f"field returned shape {values.shape} for {m} points; "
                         "values need a trailing axis with one entry per point")
    return values


def _richardson(values: Sequence):
    """Extrapolate a sequence of stencil values at steps h, h/2, h/4, ...

    Central stencils of 4th order have even error expansions, so successive
    eliminated orders are 4, 6, 8.
    """
    vals = list(values)
    order = 4
    while len(vals) > 1:
        f = 2.0 ** order
        vals = [(f * fine - coarse) / (f - 1.0) for coarse, fine in zip(vals, vals[1:])]
        order += 2
    return vals[0]


def _base_step(point: np.ndarray, cfg: FDConfig) -> float:
    scale = float(np.max(np.abs(point))) if point.size else 0.0
    return cfg.step * max(1.0, scale)


def _base_steps(point: np.ndarray, cfg: FDConfig, parts) -> np.ndarray:
    """The base step of each coordinate: that of its block when ``parts`` splits the point."""
    if parts is None:
        return np.full(point.size, _base_step(point, cfg))
    if sum(parts) != point.size or min(parts, default=1) < 1:
        raise ValueError(f"parts {tuple(parts)} do not split {point.size} coordinates")
    ends = np.cumsum(parts)
    return np.concatenate([np.full(size, _base_step(point[end - size:end], cfg))
                           for size, end in zip(parts, ends)])


def _as_point(point) -> np.ndarray:
    point = np.atleast_1d(np.asarray(point, dtype=complex))
    if not np.all(np.isfinite(point)):
        raise NonFiniteEvaluation("differentiation point is not finite")
    return point


@dataclass(frozen=True)
class _Plan:
    """Stencil geometry of a set of lines, independent of the point and the step."""

    moves: tuple            # per direction: (point, coordinate, imaginary 0/1, multiple of h0)
    size: int               # distinct points
    inverse: np.ndarray     # distinct point of each stencil row
    groups: tuple           # (stencil, indices of its lines, their first
                            # coordinates), rows in this order


_UNITS = np.array([1.0, 1j])


@lru_cache(maxsize=64)
def _plan(lines: tuple, levels: int, centre: bool) -> _Plan:
    """Rows ordered by stencil, then line, level and stencil point; the centre last.

    Level l has step h0 / 2^l and the offsets are +-1 or +-2 steps, so every
    coordinate shift is an exact multiple k / 2^l of h0 and equal shifts are
    equal bits: each distinct point is evaluated once.
    """
    groups, rows = [], []
    for stencil in dict.fromkeys(st for st, _ in lines):
        idx = tuple(i for i, (st, _) in enumerate(lines) if st is stencil)
        groups.append((stencil, idx, _frozen([lines[i][1][0][0] for i in idx], np.int32)))
        for i in idx:
            for level in range(levels):
                for offset in stencil.offsets:
                    rows.append(frozenset((a, imaginary, k / 2.0 ** level)
                                          for (a, imaginary), k in zip(lines[i][1], offset)
                                          if k))
    if centre:
        rows.append(frozenset())
    distinct = {}
    inverse = [distinct.setdefault(row, len(distinct)) for row in rows]
    moves = ([], [])
    for point, row in enumerate(distinct):
        for slot, move in enumerate(sorted(row)):
            moves[slot].append((point,) + move)
    # compact dtypes: the cache holds every plan for the life of the process
    return _Plan(tuple(tuple(_frozen(col, dtype)
                             for col, dtype in zip(zip(*m), (np.int32, np.int32, np.int8, float)))
                       for m in moves if m),
                 len(distinct), _frozen(inverse, np.int32), tuple(groups))


def _frozen(values, dtype) -> np.ndarray:
    """A read-only array: cached plans are shared by every caller."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _estimates(field: Callable, point: np.ndarray, lines: tuple, cfg: FDConfig,
               centre: bool = False, parts=None):
    """Richardson-extrapolated stencil estimates along ``lines``, from one field call.

    A line is ``(stencil, axes)`` with one ``(coordinate, imaginary)`` axis per
    offset coordinate of the stencil.  Returns the estimates, with one entry
    per line on the last axis, and the field's value at ``point`` (None unless
    ``centre``).  ``parts`` gives blocks of coordinates their own base steps.
    """
    plan = _plan(lines, cfg.richardson_levels, centre)
    h0 = _base_steps(point, cfg, parts)
    halvings = 2.0 ** np.arange(cfg.richardson_levels)
    columns = np.repeat(point[:, None], plan.size, axis=1)
    # p + (k h) e_a + (k' h) e_b with the bits of a point-by-point stencil
    for at, coord, imaginary, multiple in plan.moves:
        columns[coord, at] += (multiple * h0[coord]) * _UNITS[imaginary]
    values = _evaluate(field, columns)[..., plan.inverse]

    lead = values.shape[:-1]
    out = np.empty(lead + (len(lines),), dtype=complex)
    start = 0
    for stencil, idx, first in plan.groups:
        shape = (len(idx), len(halvings), len(stencil.weights))
        size = shape[0] * shape[1] * shape[2]
        block = values[..., start:start + size].reshape(lead + shape)
        start += size
        acc = 0.0
        for k, w in enumerate(stencil.weights):
            acc = acc + w * block[..., k]
        # each line's step at each level: h0 of its first coordinate / 2^level
        # (only wirtinger_gradient takes parts, and its lines have one direction)
        levels = acc / stencil.denominator(h0[first][:, None] / halvings)
        out[..., idx] = _richardson([levels[..., k] for k in range(len(halvings))])
    return out, (values[..., -1] if centre else None)


def wirtinger_gradient(field: Callable, point, cfg: FDConfig | None = None, parts=None):
    """Holomorphic and anti-holomorphic first derivatives of ``field`` at ``point``.

    ``field`` follows the column contract of this module; a vector or matrix
    field is differentiated componentwise.  Returns ``(holo, anti)`` with
    ``holo[a] ~ d field / d w^a`` and ``anti[a] ~ d field / d wbar^a``.  For a
    real-valued field ``anti = conj(holo)``.  ``parts``, block sizes summing to
    the dimension, gives each consecutive block of coordinates its own base
    step from the block alone, so its derivatives carry the bits of a separate
    call at that block with the other coordinates held fixed.
    """
    cfg = cfg or FDConfig()
    point = _as_point(point)
    lines = tuple((_D1, ((a, imaginary),))
                  for a in range(point.size) for imaginary in (False, True))
    est, _ = _estimates(field, point, lines, cfg, parts=parts)
    dx, dy = est[..., 0::2], est[..., 1::2]
    holo = np.moveaxis(0.5 * (dx - 1j * dy), -1, 0)
    anti = np.moveaxis(0.5 * (dx + 1j * dy), -1, 0)
    return np.ascontiguousarray(holo), np.ascontiguousarray(anti)


def wirtinger_second(field: Callable, point, i, j,
                     conj_i: bool, conj_j: bool, cfg: FDConfig | None = None):
    """Mixed second Wirtinger derivatives of a scalar field, selected by index and bar-flags.

    Returns ``d^2 field / d w_i^(ci) d w_j^(cj)`` where a True flag picks the
    conjugated variable.  ``i`` and ``j`` may be integer arrays that broadcast
    together: every derivative they select then comes from one field call, in
    an array of their broadcast shape.  The four real-axis second derivatives
    entering each combination are true 2-D stencils, never nested first
    differences.
    """
    cfg = cfg or FDConfig()
    point = _as_point(point)
    ii, jj = np.broadcast_arrays(np.asarray(i), np.asarray(j))
    lines, parts = [], []

    def line(stencil, *axes):
        lines.append((stencil, axes))
        return len(lines) - 1

    for a, b in zip(ii.ravel().tolist(), jj.ravel().tolist()):
        ex_a, ey_a, ex_b, ey_b = (a, False), (a, True), (b, False), (b, True)
        if a == b:
            xy = line(_D2_CROSS, ex_a, ey_a)
            parts.append((line(_D2, ex_a), line(_D2, ey_a), xy, xy))
        else:
            parts.append((line(_D2_CROSS, ex_a, ex_b), line(_D2_CROSS, ey_a, ey_b),
                          line(_D2_CROSS, ex_a, ey_b), line(_D2_CROSS, ey_a, ex_b)))
    est, _ = _estimates(field, point, tuple(lines), cfg)
    cxx, cyy, cxy, cyx = (est[..., np.reshape(k, ii.shape)] for k in zip(*parts))
    s1 = 1.0 if conj_i else -1.0
    s2 = 1.0 if conj_j else -1.0
    out = 0.25 * (cxx + s2 * 1j * cxy + s1 * 1j * cyx - s1 * s2 * cyy)
    return complex(out) if np.ndim(out) == 0 else out


def wirtinger_mixed_hessian(field: Callable, point, cfg: FDConfig | None = None) -> np.ndarray:
    """Mixed Hessian H[a, b] ~ d^2 field / d w^a d wbar^b of a scalar field.

    For a real-valued field the result must be Hermitian; an asymmetry beyond
    ``cfg.tol_herm`` (absolute, on the unit-scaled matrix) raises
    HermitianViolation, otherwise the Hermitian average is returned.
    """
    cfg = cfg or FDConfig()
    point = _as_point(point)
    m = point.size
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    lines = [(_D2, ((a, imaginary),)) for a in range(m) for imaginary in (False, True)]
    for a, b in pairs:
        ex_a, ey_a, ex_b, ey_b = (a, False), (a, True), (b, False), (b, True)
        lines += [(_D2_CROSS, (ex_a, ex_b)), (_D2_CROSS, (ey_a, ey_b)),
                  (_D2_CROSS, (ex_a, ey_b)), (_D2_CROSS, (ey_a, ex_b))]
    est, at_point = _estimates(field, point, tuple(lines), cfg, centre=True)
    center = complex(at_point.reshape(()))
    H = np.zeros((m, m), dtype=complex)
    diag = np.arange(m)
    H[diag, diag] = 0.25 * (est[0:2 * m:2] + est[1:2 * m:2])
    if pairs:
        cxx, cyy, cxy, cyx = (est[2 * m + k::4] for k in range(4))
        # d^2/dw^a dwbar^b and d^2/dw^b dwbar^a from the same four stencils
        a, b = np.array(pairs).T
        H[a, b] = 0.25 * ((cxx + cyy) + 1j * (cxy - cyx))
        H[b, a] = 0.25 * ((cxx + cyy) + 1j * (cyx - cxy))
    field_is_real = abs(center.imag) <= 1e-10 * max(1.0, abs(center))
    if field_is_real:
        scale = max(1.0, float(np.max(np.abs(H)))) if m else 1.0
        asym = float(np.max(np.abs(H - H.conj().T)))
        if asym > cfg.tol_herm * scale:
            raise HermitianViolation(
                f"mixed Hessian of a real-valued field is asymmetric by {asym:.3e}")
        H = 0.5 * (H + H.conj().T)
    return H


def check_hermitian(m, tol: float = DEFAULT_TOL_HERM) -> np.ndarray:
    """Validate conjugate symmetry of ``m`` within ``tol`` (unit-scaled, absolute)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.max(np.abs(m))))
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > tol * scale:
        raise HermitianViolation(f"matrix asymmetric by {asym:.3e} (tol {tol:.1e})")
    return m


def hermitian_inverse_det(m, tol_pd: float = DEFAULT_TOL_PD,
                          tol_herm: float = DEFAULT_TOL_HERM):
    """Inverse and (real) determinant of a Hermitian matrix.

    Works through the eigendecomposition, so the determinant is a product of
    real eigenvalues and the inverse is Hermitian by construction.  An
    eigenvalue of magnitude below ``tol_pd * max|eig|`` raises SingularMatrix.
    """
    m = check_hermitian(m, tol_herm)
    w, vecs = np.linalg.eigh(m)
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    if wmax == 0.0 or float(np.min(np.abs(w))) < tol_pd * wmax:
        raise SingularMatrix(f"eigenvalue magnitude below threshold {tol_pd * wmax:.3e}")
    det = float(np.prod(w))
    inv = (vecs / w) @ vecs.conj().T
    inv = 0.5 * (inv + inv.conj().T)
    return inv, det


def positive_definite(m, tol_pd: float = DEFAULT_TOL_PD) -> bool:
    """Positive definiteness via a pivoted Hermitian triangular factorization.

    The pivot threshold is ``tol_pd * trace / n``; any pivot at or below it
    (or non-finite) makes the answer False.  Never raises.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    tr = float(np.trace(m).real)
    if not math.isfinite(tr) or tr <= 0.0:
        return False
    threshold = tol_pd * tr / n
    L = np.zeros((n, n), dtype=complex)
    for k in range(n):
        pivot = m[k, k].real - float(np.sum(np.abs(L[k, :k]) ** 2))
        if not math.isfinite(pivot) or pivot <= threshold:
            return False
        L[k, k] = math.sqrt(pivot)
        for j in range(k + 1, n):
            L[j, k] = (m[j, k] - np.sum(L[j, :k] * np.conj(L[k, :k]))) / L[k, k]
    return True
