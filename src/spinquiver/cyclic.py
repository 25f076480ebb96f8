"""Cycle matrices stored by cyclic degree.

Every cycle matrix of a representation of the cyclic quiver is homogeneous in
the cyclic grading: X has degree +1, Y and Z degree -1, and Theta, ZX and
1 + XY degree 0.  A CycleMatrix keeps only its m nonzero n x n blocks; block
s maps vertex s to vertex s + deg, the (tail, head) convention of
words.letter_tail_head.  Paths compose left to right, so the product of
degrees a and b has blocks (A @ B)_s = A_s B_(s+a).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .words import letter_tail_head


@lru_cache(maxsize=None)
def _shifted(m: int, deg: int) -> np.ndarray:
    """The vertices s + deg (mod m), s = 0..m-1; read-only, as every caller shares it."""
    out = (np.arange(m) + deg) % m
    out.setflags(write=False)
    return out


def power_by_squaring(base, k: int):
    """base^k for k >= 1, or None for k = 0: the products out @ base and
    base @ base of binary exponentiation, in that order.

    CycleMatrix.power and the RK4 oracle's traced fields (flows._Node) both
    take their powers here, so their products associate alike.
    """
    if k < 0:
        raise ValueError(f"power needs k >= 0, got {k}")
    out = None
    while k:
        if k & 1:
            out = base if out is None else out @ base
        k >>= 1
        if k:
            base = base @ base
    return out


class CycleMatrix:
    """A cycle matrix of one cyclic degree: an (m, n, n) stack, block s from s to s + deg."""

    __slots__ = ("deg", "blocks")
    __array_ufunc__ = None      # numpy scalars defer to the operators below

    def __init__(self, deg: int, blocks):
        self.blocks = np.asarray(blocks)
        self.deg = deg % len(self.blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @staticmethod
    def of_letters(kind: str, blocks) -> "CycleMatrix":
        """The cycle matrix holding blocks[s] where the letter (kind, s) sits."""
        m = len(blocks)
        tail, head = letter_tail_head((kind, 0), m)
        stack = np.empty((m,) + np.shape(blocks[0]), dtype=complex)
        stack[[letter_tail_head((kind, s), m)[0] for s in range(m)]] = blocks
        return CycleMatrix(head - tail, stack)

    def block(self, tail: int, head: int):
        """The block from vertex tail to vertex head, or None where the degree puts none."""
        return None if (head - tail - self.deg) % self.m else self.blocks[tail]

    def letters(self, kind: str) -> list:
        """The blocks where the letters (kind, s) sit, s = 0..m-1."""
        return [self.block(*letter_tail_head((kind, s), self.m)) for s in range(self.m)]

    def __add__(self, other) -> "CycleMatrix":
        if isinstance(other, CycleMatrix):
            if (self.m, self.deg) != (other.m, other.deg):
                raise ValueError(f"cannot add cycle matrices of degrees {self.deg} and "
                                 f"{other.deg} (mod {self.m}, {other.m})")
            return CycleMatrix(self.deg, self.blocks + other.blocks)
        if self.deg:    # a scalar stands for that multiple of the identity, of degree 0
            raise ValueError(f"cannot add a scalar to a cycle matrix of degree {self.deg}")
        return CycleMatrix(0, self.blocks + other * np.eye(self.blocks.shape[1]))

    __radd__ = __add__

    def __sub__(self, other: "CycleMatrix") -> "CycleMatrix":
        return self + -other

    def __neg__(self) -> "CycleMatrix":
        return CycleMatrix(self.deg, -self.blocks)

    def __mul__(self, scalar) -> "CycleMatrix":
        if isinstance(scalar, CycleMatrix):
            return NotImplemented
        return CycleMatrix(self.deg, scalar * self.blocks)

    __rmul__ = __mul__

    def __matmul__(self, other: "CycleMatrix") -> "CycleMatrix":
        right = other.blocks
        if self.deg:
            right = right.take(_shifted(self.m, self.deg), axis=0)
        return CycleMatrix(self.deg + other.deg, self.blocks @ right)

    def inv(self) -> "CycleMatrix":
        """The inverse, of degree -deg: its block at s + deg inverts block s."""
        inverse = np.linalg.inv(self.blocks)
        if self.deg:
            inverse = inverse.take(_shifted(self.m, -self.deg), axis=0)
        return CycleMatrix(-self.deg, inverse)

    def power(self, k: int) -> "CycleMatrix":
        """self^k for k >= 0, by repeated squaring."""
        out = power_by_squaring(self, k)
        if out is None:
            return CycleMatrix(0, np.broadcast_to(np.eye(self.blocks.shape[1]), self.blocks.shape))
        return out

    def trace(self) -> complex:
        """Trace of the whole cycle matrix: 0 unless deg = 0 (mod m)."""
        return complex(np.trace(self.blocks, axis1=1, axis2=2).sum()) if self.deg == 0 else 0j

    def map(self, fn) -> "CycleMatrix":
        """Apply a matrix function block by block (meaningful at degree 0)."""
        return CycleMatrix(self.deg, np.stack([fn(b) for b in self.blocks]))

    def dense(self) -> np.ndarray:
        """The m n x m n matrix: block s in the rows of vertex s, the columns of s + deg."""
        m, n = self.blocks.shape[:2]
        out = np.zeros((m, n, m, n), dtype=complex)
        out[np.arange(m), :, _shifted(m, self.deg)] = self.blocks
        return out.reshape(m * n, m * n)
