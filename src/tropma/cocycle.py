"""Quadratic cocycle data of a polarized tropical abelian variety.

A cocycle packages the full lattice of periods Λ ⊂ Q^n, the symmetric bilinear
form b of the polarization and the constants z_λ(0) on a basis of Λ.  The value
group is fixed to Q throughout, so every quantity here is an exact rational.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Sequence

from . import linalg
from .linalg import Mat, Vec, dot, matvec, vec
from .polyhedra import AmbientLattice, Polytope, hull
from .value import Value, setfield


class UnpolarizedError(ValueError):
    pass


def _is_positive_definite(b: Mat) -> bool:
    n = len(b)
    for k in range(1, n + 1):
        minor = [row[:k] for row in b[:k]]
        if linalg.det(minor) <= 0:
            return False
    return True


class Cocycle(Value):
    """Periods, bilinear form and base constants (λ_i, b, z_{λ_i}(0)).

    The constants extend to all of Λ by the quadratic rule
    z_{λ+ν}(0) = z_λ(0) + z_ν(0) + b(λ,ν), and to affine functions via
    z_λ(ω) = z_λ(0) + b(λ,ω).
    """

    _fields = ("ambient", "periods", "b", "z0", "polarized")

    def __init__(self, ambient: AmbientLattice,
                 periods: Mat,            # rows are the basis vectors λ_1..λ_n of Λ
                 b: Mat,                  # symmetric n x n, positive definite if polarized
                 z0: Vec,                 # z_{λ_i}(0)
                 polarized: bool = True):
        n = ambient.n
        if len(periods) != n or any(len(l) != n for l in periods):
            raise ValueError("period basis must consist of n vectors in Q^n")
        if len(b) != n or any(len(r) != n for r in b):
            raise ValueError("b must be an n x n matrix")
        if len(z0) != n:
            raise ValueError("one base constant per period basis vector")
        if any(b[i][j] != b[j][i] for i in range(n) for j in range(n)):
            raise ValueError("b must be symmetric")
        if linalg.det(periods) == 0:
            raise ValueError("period vectors are linearly dependent")
        for lam in periods:
            blam = matvec(b, lam)
            if any(x.denominator != 1 for x in blam):
                raise ValueError("integrality violated: b(.,λ) must lie in M = Z^n")
        if polarized and not _is_positive_definite(b):
            raise ValueError("polarized cocycle requires positive definite b")
        setfield(self, "ambient", ambient)
        setfield(self, "periods", periods)
        setfield(self, "b", b)
        setfield(self, "z0", z0)
        setfield(self, "polarized", polarized)

    @classmethod
    def make(cls, periods, b, z0, polarized: bool = True) -> "Cocycle":
        periods = linalg.mat(periods)
        return cls(AmbientLattice(len(periods)), periods, linalg.mat(b),
                   vec(z0), polarized)

    # -- derived linear data ------------------------------------------------

    @property
    def n(self) -> int:
        return self.ambient.n

    def lattice_vector(self, k: Sequence[int]) -> Vec:
        """The lattice element Σ k_i λ_i, summed on integers."""
        den, rows = self.integer_periods()
        return tuple(Fraction(sum(ki * row[j] for ki, row in zip(k, rows) if ki), den)
                     for j in range(self.n))

    def integer_periods(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(d, d·periods) for the common denominator d of the period entries."""
        return self._integer_periods

    @functools.cached_property
    def _integer_periods(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        den = linalg.common_denominator(x for lam in self.periods for x in lam)
        return den, tuple(tuple(x.numerator * (den // x.denominator) for x in lam)
                          for lam in self.periods)

    def bilinear(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return dot(x, matvec(self.b, y))

    def linear_part_on_basis(self) -> Vec:
        """ℓ(λ_i) = z_{λ_i}(0) - b(λ_i,λ_i)/2 for each basis vector."""
        return self._linear_part

    @functools.cached_property
    def _linear_part(self) -> Vec:
        return tuple(z - self.bilinear(lam, lam) / 2
                     for z, lam in zip(self.z0, self.periods))

    def linear_covector(self) -> Vec:
        """The covector ℓ with <ℓ, λ_i> = z_{λ_i}(0) - b(λ_i,λ_i)/2."""
        return self._linear_covector

    @functools.cached_property
    def _linear_covector(self) -> Vec:
        ell = linalg.solve(self.periods, self.linear_part_on_basis())
        if ell is None:
            raise ValueError("period vectors are linearly dependent")
        return ell

    def covolume(self) -> Fraction:
        return abs(linalg.det(self.periods))

    # -- cocycle values ------------------------------------------------------

    def constant_at(self, k: Sequence[int]) -> Fraction:
        """z_λ(0) for λ given by integer coordinates k in the period basis."""
        lam = self.lattice_vector(k)
        ell = self.linear_part_on_basis()
        lin = sum((Fraction(ki) * li for ki, li in zip(k, ell)), Fraction(0))
        return self.bilinear(lam, lam) / 2 + lin

    def z_value(self, k: Sequence[int], omega: Sequence[Fraction]) -> Fraction:
        """z_λ(ω) = z_λ(0) + b(λ,ω)."""
        lam = self.lattice_vector(k)
        return self.constant_at(k) + self.bilinear(lam, vec(omega))

    def canonical_value(self, omega: Sequence[Fraction]) -> Fraction:
        """The canonical quadratic solution q of the cocycle rule, q(0) = 0."""
        if not self.polarized:
            raise UnpolarizedError("unpolarized cocycle has no canonical convex function")
        w = vec(omega)
        return self.bilinear(w, w) / 2 + dot(self.linear_covector(), w)

    def canonical_gradient(self, omega: Sequence[Fraction]) -> Vec:
        """∇q(ω) = b·ω + ℓ as a covector."""
        if not self.polarized:
            raise UnpolarizedError("unpolarized cocycle has no canonical convex function")
        w = vec(omega)
        return linalg.vadd(matvec(self.b, w), self.linear_covector())

    # -- fundamental domain ---------------------------------------------------

    def period_columns(self) -> Mat:
        return linalg.transpose(self.periods)

    def lattice_coordinates(self, x: Sequence[Fraction]) -> Vec:
        """Coordinates t with x = Σ t_i λ_i."""
        t = linalg.solve(self.period_columns(), vec(x))
        if t is None:
            raise ValueError("period vectors are linearly dependent")
        return t

    def canonicalize(self, x: Sequence[Fraction]) -> tuple[Vec, tuple[int, ...]]:
        """Translate x into the half-open fundamental parallelepiped at 0.

        Returns (x - λ, k) with λ = Σ k_i λ_i and the representative having
        lattice coordinates in [0, 1)^n.
        """
        t = self.lattice_coordinates(x)
        k = tuple(linalg.floor_frac(ti) for ti in t)
        lam = self.lattice_vector(k)
        return linalg.vsub(x, lam), k

    def fundamental_corners(self) -> tuple[Vec, ...]:
        """The 2^n corners Σ_{i in S} λ_i of the fundamental parallelepiped at 0."""
        return self._fundamental_corners

    @functools.cached_property
    def _fundamental_corners(self) -> tuple[Vec, ...]:
        return tuple(tuple(sum((lam[j] for use, lam in zip(bits, self.periods) if use),
                               Fraction(0)) for j in range(self.n))
                     for bits in itertools.product((0, 1), repeat=self.n))

    def fundamental_domain(self) -> Polytope:
        """The closed parallelepiped spanned by the period basis at the origin."""
        return hull(self.fundamental_corners())
