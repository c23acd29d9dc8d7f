"""Truncated bivariate Taylor arithmetic in the variables (t, s).

A ``Jet2`` stores Taylor coefficients c[(i,j)] = (d^{i+j} f / dt^i ds^j) / (i! j!)
up to a fixed total order (1, 2 or 3), in graded-lexicographic layout.  Sums,
products, quotients and square roots propagate coefficients exactly, which turns
every chain-rule expansion in the profile and curvature formulas into plain
arithmetic on these objects.  Coefficients are numpy arrays of one shape
holding many (t, s) points at once (the finite-difference stencils of the
closed forms), or numbers at one point, which take the same numpy code; every
operation is elementwise IEEE arithmetic, so a column carries the bits of the
lone point.  The hot loops use precomputed index tables.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet2", "INDICES", "NCOEF"]

INDICES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
NCOEF = {1: 3, 2: 6, 3: 10}
_POS = {ij: k for k, ij in enumerate(INDICES)}
_FACT = (1.0, 1.0, 2.0, 6.0)


def _build_tables():
    mul, div, sqrt = {}, {}, {}
    for order in (1, 2, 3):
        idx = INDICES[: NCOEF[order]]
        pairs = []
        for out, (i, j) in enumerate(idx):
            for p in range(i + 1):
                for q in range(j + 1):
                    pairs.append((out, _POS[(p, q)], _POS[(i - p, j - q)]))
        mul[order] = tuple(pairs)
        # per-output pair lists for the triangular solves in div / sqrt
        div[order] = tuple(
            tuple((a, b) for (o, a, b) in pairs if o == out and a != out)
            for out in range(len(idx))
        )
        sqrt[order] = tuple(
            tuple((a, b) for (o, a, b) in pairs if o == out and a != 0 and b != 0)
            for out in range(len(idx))
        )
    return mul, div, sqrt


_MUL, _DIV, _SQRT = _build_tables()


class Jet2:
    __slots__ = ("order", "c")
    # numpy defers to the reflected operators below instead of broadcasting a jet
    __array_ufunc__ = None

    def __init__(self, order: int, coeffs):
        self.order = order
        self.c = list(coeffs)

    # --- constructors ---

    @classmethod
    def constant(cls, x: float, order: int) -> "Jet2":
        c = [0.0] * NCOEF[order]
        c[0] = x
        return cls(order, c)

    @classmethod
    def var_t(cls, t: float, order: int) -> "Jet2":
        c = [0.0] * NCOEF[order]
        c[0] = t
        c[1] = 1.0
        return cls(order, c)

    @classmethod
    def var_s(cls, s: float, order: int) -> "Jet2":
        c = [0.0] * NCOEF[order]
        c[0] = s
        c[2] = 1.0
        return cls(order, c)

    @classmethod
    def from_t_derivs(cls, derivs, order: int) -> "Jet2":
        """Lift a univariate function of t: c[(i,0)] = f^(i)(t) / i!."""
        if len(derivs) < order + 1:
            raise ValueError("need derivatives up to the jet order")
        c = [0.0] * NCOEF[order]
        for i in range(order + 1):
            c[_POS[(i, 0)]] = derivs[i] / _FACT[i]
        return cls(order, c)

    # --- readout ---

    @property
    def value(self) -> float:
        return self.c[0]

    def partial(self, i: int, j: int) -> float:
        """The partial derivative d^{i+j} / dt^i ds^j (de-normalized)."""
        return self.c[_POS[(i, j)]] * _FACT[i] * _FACT[j]

    # --- arithmetic ---

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.order, [a + b for a, b in zip(self.c, other.c)])
        c = self.c.copy()
        c[0] = c[0] + other
        return Jet2(self.order, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, [-a for a in self.c])

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.order, [a - b for a, b in zip(self.c, other.c)])
        c = self.c.copy()
        c[0] = c[0] - other
        return Jet2(self.order, c)

    def __rsub__(self, other):
        c = [-a for a in self.c]
        c[0] = c[0] + other
        return Jet2(self.order, c)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a, b = self.c, other.c
            out = [0.0] * len(a)
            for o, i, k in _MUL[self.order]:
                # in place only ever on a fresh sum, never on a coefficient of a or b
                out[o] += a[i] * b[k]
            return Jet2(self.order, out)
        return Jet2(self.order, [x * other for x in self.c])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self * (1.0 / other)
        u, v = self.c, other.c
        if np.any(v[0] == 0.0):
            raise ZeroDivisionError("jet division by a jet with zero value")
        w = [0.0] * len(u)
        w[0] = u[0] / v[0]
        table = _DIV[self.order]
        for out in range(1, len(u)):
            acc = u[out]
            for a, b in table[out]:
                acc = acc - w[a] * v[b]
            w[out] = acc / v[0]
        return Jet2(self.order, w)

    def __rtruediv__(self, other):
        return Jet2.constant(other, self.order) / self

    def sqrt(self) -> "Jet2":
        u = self.c
        if np.any(u[0] <= 0.0):
            raise ValueError("jet sqrt of a non-positive value")
        w = [0.0] * len(u)
        w[0] = np.sqrt(u[0])
        table = _SQRT[self.order]
        for out in range(1, len(u)):
            acc = u[out]
            for a, b in table[out]:
                acc = acc - w[a] * w[b]
            w[out] = acc / (2.0 * w[0])
        return Jet2(self.order, w)

    def __repr__(self):
        return f"Jet2(order={self.order}, c={self.c})"
