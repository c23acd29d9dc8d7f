"""Pointwise tensors of F = sqrt(r * phi(t, s)).

Conventions, fixed once for the whole package:

* pairing <z, v> = sum_a z^a * conj(v^a); this is the convention under which
  s_a := ds/dv^a = -r^-2 conj(v^a) |<z,v>|^2 + r^-1 <z,v> conj(z^a).
* the Levi matrix is stored as M[a, b] = G_{a b-bar}, so the squared length is
  sum_{a,b} M[a, b] v^a conj(v^b) and M is Hermitian.
* the inverse with upper indices, G^{a b-bar}, is conj(M^-1); with it the
  nonlinear connection is N = conj(M^-1) @ D where D[g, b] = d^2 G / d vbar^g d z^b.

Closed forms used here:

    M = (phi - s phi_s) I + r phi_ss outer(s_a, conj(s_a)) + phi_s outer(conj(z), z)
    det M = {(phi - s phi_s)[phi + (t-s) phi_s] + s (t-s) phi phi_ss} (phi - s phi_s)^(n-2)
    G_a = conj(v^a) phi + r phi_s s_a
    D   = phi_s pbar I + phi_t outer(v, conj(z)) + r phi_ts outer(conj(s_a), conj(z))
          + phi_ss pbar outer(conj(s_a), conj(v))
    2 GG^g = N^g_b v^b = k2 pbar v^g + k3 pbar^2 z^g

Every closed form has an independent Wirtinger finite-difference oracle in this
module or in the test-suite; the FD paths never reuse the chain-rule code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateK1, ZeroVector
from .functions1d import _pow_for
from .jets import Jet2
from .numerics import (
    FDConfig,
    hermitian_inverse_det,
    wirtinger_gradient,
    wirtinger_mixed_hessian,
    wirtinger_second,
)
from .profiles import MetricProfile, _first

__all__ = [
    "PointVector",
    "LeviData",
    "SprayData",
    "ConnectionData",
    "invariants",
    "levi_closed",
    "levi_oracle",
    "det_closed",
    "pseudoconvexity_check",
    "k_scalars",
    "spray_coefficients",
    "nonlinear_connection_fd",
    "connection_coefficients",
    "metric_scalars",
]

K1_DEGENERACY = 1e-12


def _coordinates(x):
    x = np.asarray(x, dtype=complex)
    # a vector's entries as Python complex numbers, a stencil's as rows
    return x.tolist() if x.ndim == 1 else x


def invariants(z, v):
    """(r, t, s, pairing) for a base point z and tangent vector v.

    r = |v|^2, t = |z|^2, pairing = <z, v>, s = |pairing|^2 / r, with
    0 <= s <= t by Cauchy-Schwarz (s is clamped against rounding overshoot).
    Vectors give floats and a complex pairing.  Arrays of shape (n, m), or a
    vector against one, hold m points as columns (the finite-difference field
    contract) and give arrays of length m.
    """
    r = t = p_re = p_im = 0.0
    # real arithmetic in the operation order of Python's complex multiply
    # a * conj(b), so that a stencil column gets the bits of the lone point
    for a, b in zip(_coordinates(z), _coordinates(v)):
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        t = t + (ar * ar + ai * ai)
        r = r + (br * br + bi * bi)
        p_re = p_re + (ar * br - ai * -bi)
        p_im = p_im + (ar * -bi + ai * br)
    if np.any(r == 0.0):
        raise ZeroVector("tangent vector v must be nonzero")
    s = (p_re * p_re + p_im * p_im) / r
    if np.any(s > t * (1.0 + 1e-9) + 1e-300):
        raise ValueError(f"s exceeds t beyond rounding slack (s - t up to {np.max(s - t):.3e})")
    if isinstance(s, np.ndarray):
        return r, t, np.minimum(s, t), p_re + 1j * p_im
    return r, t, min(s, t), complex(p_re, p_im)


@dataclass(frozen=True)
class PointVector:
    """A base point z in C^n and tangent vector v with derived invariants.

    z and v may also be (n, m) arrays holding m pairs as columns; r, t, s and
    the pairing are then arrays of length m, each entry with the bits of its
    pair alone.  The curvature closed forms and residuals take such columns.
    """

    z: np.ndarray
    v: np.ndarray
    n: int = field(init=False)
    r: float = field(init=False)
    t: float = field(init=False)
    s: float = field(init=False)
    pairing: complex = field(init=False)

    def __post_init__(self):
        z = np.array(self.z, dtype=complex)
        v = np.array(self.v, dtype=complex)
        if z.ndim not in (1, 2) or z.shape != v.shape:
            raise ValueError("z and v must be 1-D arrays of equal length, "
                             "or (n, m) columns of equal shape")
        if z.shape[0] < 2:
            raise ValueError("dimension must be at least 2 (s = t identically for n = 1)")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
            raise ValueError("z and v must be finite")
        z.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "v", v)
        r, t, s, pairing = invariants(z, v)
        object.__setattr__(self, "n", int(z.shape[0]))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "pairing", pairing)


@dataclass(frozen=True)
class LeviData:
    """Levi matrix M[a,b] = G_{a b-bar}, inverse G^{a b-bar} = conj(M^-1), det, gradient.

    Over B columns the matrices are stacks (B, n, n), det and G have length B
    and g_alpha is (n, B).
    """

    levi: np.ndarray
    inverse: np.ndarray
    det: float
    g_alpha: np.ndarray
    G: float


@dataclass(frozen=True)
class SprayData:
    """Over B columns k1..k3 have length B, spray is (n, B) and nconn a stack (B, n, n)."""

    k1: float
    k2: float
    k3: float
    spray: np.ndarray   # 2 GG^a
    nconn: np.ndarray   # N^a_b, chain-rule closed form


@dataclass(frozen=True)
class ConnectionData:
    gamma: np.ndarray   # Gamma^a_{b;g}, indices [a, b, g]
    cee: np.ndarray     # C^a_{b g}, indices [a, b, g]


# Closed forms below take one point (vectors z, v) or m points (the columns of
# (n, m) arrays, values with a trailing axis of length m), and a column carries
# the bits of the lone point.  numpy's vectorised complex multiply and complex
# abs, and its x ** 2, can differ in the last bit from the scalar operations of
# the one-point code, so the helpers below keep the scalar operation order.

def _cmul(a, b):
    """a * b in the operation order of a product of two complex scalars."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    out = np.empty(np.broadcast(ar, br).shape, dtype=complex)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


def _abs(x):
    """|x| of a complex number or array, as the libm hypot of Python's complex abs."""
    return np.hypot(x.real, x.imag) if isinstance(x, (np.ndarray, np.generic)) else abs(x)


def _outer(a, b):
    """outer(a, b) of two vectors, or of matching columns into shape (n, n, m)."""
    return a[:, None] * b[None, :]


def _eye(n, like):
    """The identity (n, n), with a trailing axis of length 1 when ``like`` holds columns."""
    return np.eye(n, dtype=complex).reshape((n, n) + (1,) * np.ndim(like))


def _stacked(M):
    """A matrix (n, n) as it is; matrices (n, n, m) over columns as a stack (m, n, n)."""
    return M if M.ndim == 2 else np.ascontiguousarray(np.moveaxis(M, -1, 0))


def _matvec(A, x):
    """A x for a matrix and a vector, or for a stack (B, n, n) and columns (n, B): (..., n).

    A stacked matmul gives each product the bits of the one-sample ``A @ x``.
    """
    return np.matmul(A, np.moveaxis(x, 0, -1)[..., None])[..., 0]


def _sum_rows(x):
    """The sum over the first axis, entry by entry as the 1-D sum of one column."""
    return np.sum(np.ascontiguousarray(x.T), axis=-1)


def _s_alpha(z, v, r, pairing):
    pw = _pow_for(r)
    return -np.conj(v) * pw(_abs(pairing), 2) / pw(r, 2) + pairing * np.conj(z) / r


def _levi_matrix(profile, z, v):
    """Closed-form Levi matrix (no inverse / determinant), (n, n) or (n, n, m)."""
    r, t, s, pairing = invariants(z, v)
    j = profile.raw_jet(t, s, 2)
    phi = j.value
    phi_s = j.partial(0, 1)
    phi_ss = j.partial(0, 2)
    sa = _s_alpha(z, v, r, pairing)
    M = (phi - s * phi_s) * _eye(len(z), t)
    M += (r * phi_ss) * _outer(sa, np.conj(sa))
    M += phi_s * _outer(np.conj(z), z)
    return M


def _g_alpha(profile, pv):
    """(G_a, phi) at the sample: the gradient G_a = conj(v^a) phi + r phi_s s_a, and phi."""
    j = profile.raw_jet(pv.t, pv.s, 1)
    phi = j.value
    ga = np.conj(pv.v) * phi + (pv.r * j.partial(0, 1)) * _s_alpha(pv.z, pv.v, pv.r, pv.pairing)
    return ga, phi


def levi_closed(profile: MetricProfile, pv: PointVector,
                cfg: FDConfig | None = None) -> LeviData:
    """LeviData from the closed forms; inverse/determinant via the eigensolver.

    Over columns the Levi matrix and its inverse are stacks (B, n, n), one
    eigensolver call for all of them.
    """
    cfg = cfg or FDConfig()
    M = _stacked(_levi_matrix(profile, pv.z, pv.v))
    inv_plain, det = hermitian_inverse_det(M, tol_pd=cfg.tol_pd, tol_herm=cfg.tol_herm)
    ga, phi = _g_alpha(profile, pv)
    return LeviData(levi=M, inverse=np.conj(inv_plain), det=det,
                    g_alpha=ga, G=pv.r * phi)


def levi_oracle(profile: MetricProfile, pv: PointVector,
                cfg: FDConfig | None = None) -> np.ndarray:
    """Mixed Wirtinger Hessian of v -> r phi(t, s(v)): the Levi matrix oracle.

    Each field call is one array evaluation of ``invariants`` and
    ``profile.value``; no jet or chain-rule code is involved.  Over columns
    the result is a stack (B, n, n).
    """
    n = pv.n

    def metric_sq(w):
        # the stencil's v over the base point's z, which rides along below it
        r, t, s, _ = invariants(w[n:], w[:n])
        return r * profile.value(t, s)

    return wirtinger_mixed_hessian(metric_sq, pv.v, cfg, carry=pv.z)


def det_closed(profile: MetricProfile, t, s, n: int):
    """Closed-form determinant of the Levi matrix, at (t, s) or at arrays of points."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    j = profile.raw_jet(t, s, 2)
    phi = j.value
    phi_s = j.partial(0, 1)
    _, k1 = _levi_head(t, s, phi, phi_s, j.partial(0, 2))
    tail = phi - s * phi_s
    return k1 * _pow_for(tail)(tail, n - 2)


def pseudoconvexity_check(profile: MetricProfile, t, s):
    """Strong pseudo-convexity conditions (cond1, cond2, ok), at (t, s) or at arrays of points.

    cond1 = phi - s phi_s and cond2 = the determinant head factor; the metric
    is strongly pseudo-convex at (t, s) iff both are positive.  Evaluates on
    the smooth region so boundary failures are reported rather than raised.
    """
    j = profile.smooth_jet(t, s, 2)
    phi, phi_s = j.value, j.partial(0, 1)
    cond1 = phi - s * phi_s
    _, cond2 = _levi_head(t, s, phi, phi_s, j.partial(0, 2))
    ok = (cond1 > 0.0) & (cond2 > 0.0)
    return cond1, cond2, ok if isinstance(ok, np.ndarray) else bool(ok)


def _levi_head(t, s, phi, phi_s, phi_ss):
    """(head, k1) with head = phi + (t-s) phi_s and the determinant head factor.

    k1 = (phi - s phi_s) head + s (t-s) phi phi_ss, on floats, arrays or jets.
    """
    head = phi + (t - s) * phi_s
    return head, (phi - s * phi_s) * head + s * (t - s) * phi * phi_ss


def _spray_scalars(t, s, phi, phi_t, phi_s, phi_ts, phi_ss):
    """(k1, k2, k3) from phi's partials at (t, s).

    The arguments are floats, arrays of points, or order-1 ``Jet2`` in (t, s)
    (then k1, k2, k3 are jets and carry their first partials).  k1 is the
    determinant head factor; k2, k3 are the coefficients of the spray
    decomposition 2 GG^g = k2 pbar v^g + k3 pbar^2 z^g.  Raises DegenerateK1
    when |k1| < 1e-12 phi^2 (pseudo-convexity failure) at any point, reading
    the value coefficient of a jet.
    """
    head, k1 = _levi_head(t, s, phi, phi_s, phi_ss)
    k1_0, phi_0 = (k1.value, phi.value) if isinstance(phi, Jet2) else (k1, phi)
    degenerate = abs(k1_0) < K1_DEGENERACY * phi_0 * phi_0
    if np.any(degenerate):
        k1_at, phi_at = _first(degenerate, k1_0, phi_0)
        raise DegenerateK1(f"k1 = {k1_at} is degenerate relative to phi^2 = {phi_at * phi_at}")
    k2 = ((head + s * (t - s) * phi_ss) * (phi_t + phi_s)
          - s * head * (phi_ts + phi_ss)) / k1
    k3 = (phi * (phi_ts + phi_ss) - phi_s * (phi_t + phi_s)) / k1
    return k1, k2, k3


def k_scalars(profile: MetricProfile, t, s):
    """The spray scalars (k1, k2, k3) at (t, s), or at every point of arrays t, s."""
    j = profile.raw_jet(t, s, 2)
    return _spray_scalars(t, s, j.value, j.partial(1, 0), j.partial(0, 1),
                         j.partial(1, 1), j.partial(0, 2))


def _spray(k2, k3, pairing, z, v):
    """2 GG^g = k2 pbar v^g + k3 pbar^2 z^g."""
    pbar = np.conj(pairing)
    return k2 * pbar * v + _cmul(k3 * pbar, pbar) * z


def _spray_vector(profile, z, v):
    """The spray 2 GG^g at one point, (n,), or at the columns of (n, m) arrays."""
    r, t, s, pairing = invariants(z, v)
    _, k2, k3 = k_scalars(profile, t, s)
    return _spray(k2, k3, pairing, z, v)


def _connection_matrix_closed(profile, z, v):
    """D[g, b] = G_{g-bar; b} = d^2 G / d vbar^g d z^b, chain-rule closed form."""
    r, t, s, pairing = invariants(z, v)
    j = profile.raw_jet(t, s, 2)
    phi_t = j.partial(1, 0)
    phi_s = j.partial(0, 1)
    phi_ts = j.partial(1, 1)
    phi_ss = j.partial(0, 2)
    pbar = np.conj(pairing)
    sbar = np.conj(_s_alpha(z, v, r, pairing))
    D = (phi_s * pbar) * _eye(len(z), t)
    D += phi_t * _outer(v, np.conj(z))
    D += (r * phi_ts) * _outer(sbar, np.conj(z))
    D += (phi_ss * pbar) * _outer(sbar, np.conj(v))
    return D


def spray_coefficients(profile: MetricProfile, pv: PointVector,
                       cfg: FDConfig | None = None,
                       levi: LeviData | None = None, k=None) -> SprayData:
    """Spray scalars, spray vector and the closed-form nonlinear connection.

    ``levi``, the sample's ``levi_closed``, and ``k``, its ``k_scalars``, are
    built here when not passed in.
    """
    k1, k2, k3 = k if k is not None else k_scalars(profile, pv.t, pv.s)
    spray = _spray(k2, k3, pv.pairing, pv.z, pv.v)
    if levi is None:
        levi = levi_closed(profile, pv, cfg)
    D = _stacked(_connection_matrix_closed(profile, pv.z, pv.v))
    nconn = levi.inverse @ D
    return SprayData(k1=k1, k2=k2, k3=k3, spray=spray, nconn=nconn)


def nonlinear_connection_fd(profile: MetricProfile, pv: PointVector,
                            cfg: FDConfig | None = None,
                            levi: LeviData | None = None) -> np.ndarray:
    """FD oracle for N^a_b: cross-block second Wirtinger derivatives of G.

    D[g, b] = d^2 G / d vbar^g d z^b is taken directly from the scalar field
    G(z, v) = r phi(t, s) on the joint 2n-dimensional point, all n^2 entries
    from one stencil evaluation, then contracted with the closed-form inverse
    Levi matrix.  ``levi``, the sample's ``levi_closed``, is built here when
    not passed in.  Over columns the result is a stack (B, n, n).
    """
    cfg = cfg or FDConfig()
    n = pv.n

    def joint_metric(w):
        r, t, s, _ = invariants(w[:n], w[n:])
        return r * profile.value(t, s)

    joint = np.concatenate([pv.z, pv.v])
    index = np.arange(n)
    D = wirtinger_second(joint_metric, joint, n + index[:, None], index[None, :],
                         conj_i=True, conj_j=False, cfg=cfg)
    if levi is None:
        levi = levi_closed(profile, pv, cfg)
    return levi.inverse @ D


def connection_coefficients(profile: MetricProfile, pv: PointVector,
                            cfg: FDConfig | None = None,
                            levi: LeviData | None = None,
                            spray: SprayData | None = None) -> ConnectionData:
    """Chern-Finsler connection coefficients Gamma^a_{b;g} and C^a_{b g}.

    The z- and v-derivatives of the closed-form Levi matrix are taken by
    Wirtinger finite differences, both from one stencil over the joint point
    (z, v); the horizontal derivative is delta/delta z^g = d/dz^g - N^m_g d/dv^m
    with the closed-form N.  ``levi`` and ``spray``, the sample's
    ``levi_closed`` and ``spray_coefficients``, are built here when not passed in.
    Over columns gamma and cee are stacks (B, n, n, n).
    """
    cfg = cfg or FDConfig()
    if levi is None:
        levi = levi_closed(profile, pv, cfg)
    if spray is None:
        spray = spray_coefficients(profile, pv, cfg, levi=levi)
    N = spray.nconn
    n = pv.n

    # z and v keep their own base steps, as if differentiated one at a time
    dM, _ = wirtinger_gradient(lambda w: _levi_matrix(profile, w[:n], w[n:]),
                               np.concatenate([pv.z, pv.v]), cfg, parts=(n, n), shape=(n, n))
    dMdz, dMdv = dM[..., :n, :, :], dM[..., n:, :, :]
    # dMdz[g][b, e] = d M[b, e] / d z^g ; horizontal correction subtracts N^m_g d/dv^m
    T = np.einsum('...gbe->...beg', dMdz) - np.einsum('...mg,...mbe->...beg', N, dMdv)
    gamma = np.einsum('...ae,...beg->...abg', levi.inverse, T)
    cee = np.einsum('...ae,...gbe->...abg', levi.inverse, dMdv)
    return ConnectionData(gamma=gamma, cee=cee)


def metric_scalars(profile: MetricProfile, z, v, cfg: FDConfig | None = None,
                   levi: LeviData | None = None, k=None, conds=None) -> dict:
    """The scalar outputs at (z, v): G, det, k1, k2, k3, cond1, cond2.

    All are invariant under a simultaneous unitary rotation of z and v.
    ``levi``, the ``levi_closed`` at (z, v), ``k``, its ``k_scalars``, and
    ``conds``, its ``pseudoconvexity_check``, are built here when not passed
    in.  Over columns (n, B) every output has length B.
    """
    pv = PointVector(np.asarray(z), np.asarray(v))
    if levi is None:
        levi = levi_closed(profile, pv, cfg)
    k1, k2, k3 = k if k is not None else k_scalars(profile, pv.t, pv.s)
    cond1, cond2, _ = conds if conds is not None else pseudoconvexity_check(profile, pv.t, pv.s)
    return {"G": levi.G, "det": levi.det, "k1": k1, "k2": k2, "k3": k3,
            "cond1": cond1, "cond2": cond2}
