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
returns its values in the shape the caller declares, with a trailing axis of
length m: (m,) for the scalar fields of ``wirtinger_second`` and
``wirtinger_mixed_hessian``, and ``shape + (m,)``, say (k, m) or (k, l, m),
for ``wirtinger_gradient``'s ``shape=``; others raise ValueError.  Each call
of ``wirtinger_gradient``, ``wirtinger_second`` or ``wirtinger_mixed_hessian``
at one point builds every point it needs (all axes, all index pairs, all
Richardson levels and, for the Hessian, the centre) and calls the field once,
with each distinct point once.  A DomainViolation raised by the field becomes
StencilOutsideDomain, and a non-finite value at any point raises
NonFiniteEvaluation.  Each estimate is accumulated as acc = acc + w_k F_k in
stencil order, so it carries the same bits as a point-by-point evaluation.
The package's own fields take columns natively: the FD oracles' metric
``r phi(t, s)``, also along a holomorphic disc for the curvature, and the
closed-form Levi matrix that the connection coefficients differentiate.

Base points.  The point of each derivative may be one point, shape (dim,),
or B base points, the columns of a (dim, B) array.  Each base point keeps its
own base step per coordinate, and their stencils go to the field base point
by base point (``size`` columns each); the results then carry a leading axis
of length B, and each base point's entries the bits of a call at that point
alone.  The routines slice the base points by themselves and take no budget:
each field call takes as many base points as keep it within ``FIELD_VALUES``
values (``size`` times the declared values per column for each), at least
one; zero base points give empty results and no field call.  The
Hermitian-asymmetry and non-finite guards hold at every base point; the
first base point that fails one raises.  ``wirtinger_mixed_hessian`` also
takes ``carry``, values per base point that ride along below the stencil
rows, unmoved, for fields that depend on more than the differentiated
coordinates.
``hermitian_inverse_det`` and ``positive_definite`` take one matrix or a
stack (B, n, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
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
# field values per field call (columns x values per column): bounds a stencil's
# temporaries; an oracle call over 128 samples at n = 4 peaks near 3 MB traced
FIELD_VALUES = 8192


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


def _evaluate(field: Callable, columns: np.ndarray, shape: tuple, carry=None) -> np.ndarray:
    """The field at the points ``columns`` (dim, m), policing domain, finiteness and shape.

    ``shape`` is the field's value shape at one point; ``carry``, rows of m
    columns, goes to the field below the points.
    """
    m = columns.shape[1]
    try:
        values = field(columns if carry is None else np.concatenate([columns, carry]))
    except DomainViolation as exc:
        raise StencilOutsideDomain(f"stencil point rejected: {exc}") from exc
    values = np.asarray(values, dtype=complex)
    finite = np.isfinite(values)
    if not finite.all():
        per_point = finite.reshape(-1, finite.shape[-1]).all(axis=0) if finite.ndim else [False]
        where = columns[:, int(np.argmin(per_point)) % m]
        where = np.array_repr(where, max_line_width=1 << 30)     # one line, as repr when short
        raise NonFiniteEvaluation(f"field returned non-finite value at stencil point {where}")
    if values.shape != shape + (m,):
        raise ValueError(f"field returned shape {values.shape} for {m} points, not "
                         f"{shape + (m,)}: values need the value shape and a trailing axis")
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


def _base_steps(points: np.ndarray, cfg: FDConfig, parts) -> np.ndarray:
    """The base step of each coordinate at each base point, the columns of ``points`` (dim, B).

    Each block of coordinates that ``parts`` splits the point into (one block
    when None) takes the step of its block, ``cfg.step * max(1, |block|_inf)``.
    """
    dim = points.shape[0]
    parts = (dim,) if parts is None else parts
    if sum(parts) != dim or min(parts, default=1) < 1:
        raise ValueError(f"parts {tuple(parts)} do not split {dim} coordinates")
    blocks = np.split(points, np.cumsum(parts)[:-1])
    return np.concatenate([np.broadcast_to(
        cfg.step * np.maximum(1.0, np.max(np.abs(block), axis=0, initial=0.0)), block.shape)
        for block in blocks])


def _as_points(point):
    """(points, lone): the base points as columns (dim, B), and whether ``point`` was one point."""
    point = np.asarray(point, dtype=complex)
    lone = point.ndim < 2
    points = np.atleast_1d(point)[:, None] if lone else point
    if not np.all(np.isfinite(points)):
        raise NonFiniteEvaluation("differentiation point is not finite")
    return points, lone


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


def _estimates(field: Callable, points: np.ndarray, lines: tuple, cfg: FDConfig,
               shape: tuple = (), centre: bool = False, parts=None, carry=None):
    """Richardson-extrapolated stencil estimates along ``lines`` at the base points ``points``.

    A line is ``(stencil, axes)`` with one ``(coordinate, imaginary)`` axis per
    offset coordinate of the stencil.  ``points`` holds B base points as
    columns (dim, B); ``shape`` is the field's value shape at one point.
    Returns the estimates, shape (B,) + ``shape`` + (len(lines),), and the
    field's values at the base points (None unless ``centre``).  ``parts``
    gives blocks of coordinates their own base steps; ``carry`` (k, B) rides
    along below each stencil column.  Each field call takes as many base
    points as keep it within ``FIELD_VALUES`` values, at least one.
    """
    plan = _plan(lines, cfg.richardson_levels, centre)
    h0, size = _base_steps(points, cfg, parts), plan.size
    halvings = 2.0 ** np.arange(cfg.richardson_levels)
    out = np.empty(points.shape[1:] + shape + (len(lines),), dtype=complex)
    at_points = np.empty(points.shape[1:] + shape, dtype=complex) if centre else None
    per_call = max(1, FIELD_VALUES // (size * prod(shape)))
    for start in range(0, points.shape[1], per_call):
        part = slice(start, start + per_call)
        columns, h = np.repeat(points[:, part, None], size, axis=2), h0[:, part]
        # p + (k h) e_a + (k' h) e_b with the bits of a point-by-point stencil
        for at, coord, imaginary, multiple in plan.moves:
            columns[coord, :, at] += (multiple[:, None] * h[coord]) * _UNITS[imaginary][:, None]
        carried = None if carry is None else np.repeat(carry[:, part], size, axis=1)
        values = _evaluate(field, columns.reshape(len(points), -1), shape=shape, carry=carried)
        # (b,) + shape + (rows,): the stencil rows of each base point of the slice
        values = np.moveaxis(values.reshape(shape + (-1, size)), -2, 0)[..., plan.inverse]
        row = 0
        for stencil, idx, first in plan.groups:
            dims = (len(idx), len(halvings), len(stencil.weights))
            block = values[..., row:row + prod(dims)].reshape(values.shape[:-1] + dims)
            row += prod(dims)
            acc = 0.0
            for k, w in enumerate(stencil.weights):
                acc = acc + w * block[..., k]
            # each line's step at each level: h0 of its first coordinate / 2^level
            # (only wirtinger_gradient takes parts, and its lines have one direction)
            steps = (h[first].T[:, :, None] / halvings).reshape(
                (-1,) + (1,) * len(shape) + dims[:2])
            levels = acc / stencil.denominator(steps)
            out[part][..., idx] = _richardson([levels[..., k] for k in range(len(halvings))])
        if centre:
            at_points[part] = values[..., -1]
    return out, at_points


def wirtinger_gradient(field: Callable, point, cfg: FDConfig | None = None, parts=None,
                       shape=()):
    """Holomorphic and anti-holomorphic first derivatives of ``field`` at ``point``.

    ``field`` follows the column contract of this module with values of
    ``shape`` at one point; a vector or matrix field is differentiated
    componentwise.  Returns ``(holo, anti)``, each (dim,) + ``shape``, with
    ``holo[a] ~ d field / d w^a`` and ``anti[a] ~ d field / d wbar^a``.  For a
    real-valued field ``anti = conj(holo)``.  ``parts``, block sizes summing to
    the dimension, gives each consecutive block of coordinates its own base
    step from the block alone, so its derivatives carry the bits of a separate
    call at that block with the other coordinates held fixed.  At B base points
    (dim, B) both carry a leading axis of length B.
    """
    cfg = cfg or FDConfig()
    points, lone = _as_points(point)
    lines = tuple((_D1, ((a, imaginary),))
                  for a in range(points.shape[0]) for imaginary in (False, True))
    est, _ = _estimates(field, points, lines, cfg, tuple(shape), parts=parts)
    dx, dy = est[..., 0::2], est[..., 1::2]
    holo = np.moveaxis(0.5 * (dx - 1j * dy), -1, 1)
    anti = np.moveaxis(0.5 * (dx + 1j * dy), -1, 1)
    if lone:
        holo, anti = holo[0], anti[0]
    return np.ascontiguousarray(holo), np.ascontiguousarray(anti)


def wirtinger_second(field: Callable, point, i, j,
                     conj_i: bool, conj_j: bool, cfg: FDConfig | None = None):
    """Mixed second Wirtinger derivatives of a scalar field, selected by index and bar-flags.

    Returns ``d^2 field / d w_i^(ci) d w_j^(cj)`` where a True flag picks the
    conjugated variable.  ``i`` and ``j`` may be integer arrays that broadcast
    together: every derivative they select then comes from one field call, in
    an array of their broadcast shape (after a leading axis of length B at B
    base points).  The four real-axis second derivatives entering each
    combination are true 2-D stencils, never nested first differences.
    """
    cfg = cfg or FDConfig()
    points, lone = _as_points(point)
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
    est, _ = _estimates(field, points, tuple(lines), cfg)
    cxx, cyy, cxy, cyx = (est[..., np.reshape(k, ii.shape)] for k in zip(*parts))
    s1 = 1.0 if conj_i else -1.0
    s2 = 1.0 if conj_j else -1.0
    out = 0.25 * (cxx + s2 * 1j * cxy + s1 * 1j * cyx - s1 * s2 * cyy)
    return out[0] if lone else out


def wirtinger_mixed_hessian(field: Callable, point, cfg: FDConfig | None = None,
                            carry=None) -> np.ndarray:
    """Mixed Hessian H[a, b] ~ d^2 field / d w^a d wbar^b of a scalar field.

    For a real-valued field the result must be Hermitian; an asymmetry beyond
    ``cfg.tol_herm`` (absolute, on the unit-scaled matrix) raises
    HermitianViolation, otherwise the Hermitian average is returned.  At B
    base points (dim, B) the result is a stack (B, dim, dim), guarded at each
    base point.  ``carry``, shape (k,) or (k, B), is appended below every
    stencil column of its base point, so the field sees (dim + k) rows.
    """
    cfg = cfg or FDConfig()
    points, lone = _as_points(point)
    m, count = points.shape
    if carry is not None:
        carry = np.asarray(carry, dtype=complex).reshape(len(carry), count)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    lines = [(_D2, ((a, imaginary),)) for a in range(m) for imaginary in (False, True)]
    for a, b in pairs:
        ex_a, ey_a, ex_b, ey_b = (a, False), (a, True), (b, False), (b, True)
        lines += [(_D2_CROSS, (ex_a, ex_b)), (_D2_CROSS, (ey_a, ey_b)),
                  (_D2_CROSS, (ex_a, ey_b)), (_D2_CROSS, (ey_a, ex_b))]
    est, center = _estimates(field, points, tuple(lines), cfg, centre=True, carry=carry)
    H = np.zeros((count, m, m), dtype=complex)
    diag = np.arange(m)
    H[:, diag, diag] = 0.25 * (est[:, 0:2 * m:2] + est[:, 1:2 * m:2])
    if pairs:
        cxx, cyy, cxy, cyx = (est[:, 2 * m + k::4] for k in range(4))
        # d^2/dw^a dwbar^b and d^2/dw^b dwbar^a from the same four stencils
        a, b = np.array(pairs).T
        H[:, a, b] = 0.25 * ((cxx + cyy) + 1j * (cxy - cyx))
        H[:, b, a] = 0.25 * ((cxx + cyy) + 1j * (cyx - cxy))
    field_is_real = np.abs(center.imag) <= 1e-10 * np.maximum(
        1.0, np.hypot(center.real, center.imag))
    if field_is_real.any():
        asym, scale = _asymmetry(H)
        bad = field_is_real & (asym > cfg.tol_herm * scale)
        if bad.any():
            (asym,), where = _first_bad(bad[0] if lone else bad, asym[0] if lone else asym)
            raise HermitianViolation(
                f"mixed Hessian of a real-valued field is asymmetric by {asym:.3e}{where}")
        H = np.where(field_is_real[:, None, None], 0.5 * (H + _adjoint(H)), H)
    return H[0] if lone else H


def _adjoint(m):
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(m).swapaxes(-1, -2)


def _asymmetry(m):
    """(max |m - m^H|, max(1, max |m|)) of a matrix, or of each matrix of a stack."""
    return (np.max(np.abs(m - _adjoint(m)), axis=(-2, -1), initial=0.0),
            np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1), initial=0.0)))


def _first_bad(bad, *values):
    """(``values`` at the first matrix where the mask ``bad`` holds, where that is).

    ``bad`` is a bool for one matrix or a mask over a stack; one matrix, alone or as a
    stack of one, gives no place.
    """
    if np.ndim(bad) == 0:
        return tuple(float(x) for x in values), ""
    k = int(np.argmax(bad))
    where = f" at matrix {k} of the stack" if len(bad) > 1 else ""
    return tuple(float(x[k]) for x in values), where


def check_hermitian(m, tol: float = DEFAULT_TOL_HERM) -> np.ndarray:
    """Validate conjugate symmetry of ``m`` within ``tol`` (unit-scaled, absolute).

    ``m`` is one matrix or a stack (B, n, n), each matrix checked on its own scale.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("expected a square matrix")
    asym, scale = _asymmetry(m)
    bad = asym > tol * scale
    if np.any(bad):
        (asym,), where = _first_bad(bad, asym)
        raise HermitianViolation(f"matrix asymmetric by {asym:.3e} (tol {tol:.1e}){where}")
    return m


def hermitian_inverse_det(m, tol_pd: float = DEFAULT_TOL_PD,
                          tol_herm: float = DEFAULT_TOL_HERM):
    """Inverse and (real) determinant of a Hermitian matrix, or of each of a stack (B, n, n).

    Works through the eigendecomposition, so the determinant is a product of
    real eigenvalues and the inverse is Hermitian by construction.  An
    eigenvalue of magnitude below ``tol_pd * max|eig|`` raises SingularMatrix,
    at the first matrix of a stack where one does.  A stack gives B
    determinants; one matrix gives one.
    """
    m = check_hermitian(m, tol_herm)
    w, vecs = np.linalg.eigh(m)
    magnitude = np.abs(w)
    wmax = np.max(magnitude, axis=-1, initial=0.0)
    singular = (wmax == 0.0) | (np.min(magnitude, axis=-1, initial=np.inf) < tol_pd * wmax)
    if np.any(singular):
        (wmax,), where = _first_bad(singular, wmax)
        raise SingularMatrix(f"eigenvalue magnitude below threshold {tol_pd * wmax:.3e}{where}")
    det = np.prod(w, axis=-1)
    inv = (vecs / w[..., None, :]) @ _adjoint(vecs)
    inv = 0.5 * (inv + _adjoint(inv))
    return inv, det


def positive_definite(m, tol_pd: float = DEFAULT_TOL_PD):
    """Positive definiteness via a pivoted Hermitian triangular factorization.

    The pivot threshold is ``tol_pd * trace / n``; any pivot at or below it
    (or non-finite) makes the answer False.  Never raises.  ``m`` is one
    matrix or a stack (B, n, n), which gives a mask, one entry per matrix.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    tr = np.trace(m, axis1=-2, axis2=-1).real
    ok = np.isfinite(tr) & (tr > 0.0)
    threshold = tol_pd * tr / n
    L = np.zeros(m.shape, dtype=complex)
    # a matrix that has failed goes on with a unit pivot; its answer stays False
    with np.errstate(all="ignore"):
        for k in range(n):
            pivot = m[..., k, k].real - np.sum(np.abs(L[..., k, :k]) ** 2, axis=-1)
            ok &= np.isfinite(pivot) & (pivot > threshold)
            L[..., k, k] = np.sqrt(np.where(ok, pivot, 1.0))
            for j in range(k + 1, n):
                L[..., j, k] = (m[..., j, k] - np.sum(L[..., j, :k] * np.conj(L[..., k, :k]),
                                                      axis=-1)) / L[..., k, k]
    return ok
