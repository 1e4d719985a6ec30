"""Multi-index sets, the canonical monomial embedding, and anisotropic dilations.

The basic combinatorial layer: finite sets of nonzero integer multi-indices in
``k`` variables (lexicographically ordered), the map sending an integer point
``x`` to the vector of its monomials, frequency vectors indexed by such a set,
the degree-weighted quasi-norm, and the dilation that scales the coordinate of
degree ``m`` by ``2**(t*m)``.

All arithmetic on lattice points is exact at any scale: ``canonical_map``
works in Python's arbitrary-precision integers, and ``monomial_images``,
which evaluates the monomials at a whole array of points at once, in int64
only while no value can overflow it.  Frequency vectors are
either exact (``Fraction`` entries) or floating; the backend is an explicit
flag and the two are never mixed inside one vector.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from numbers import Integral
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import PreconditionError

Scalar = Union[int, float, Fraction]


def degree(gamma: Sequence[int]) -> int:
    """Total degree of a multi-index."""
    return sum(gamma)


@dataclass(frozen=True)
class MultiIndexSet:
    """A finite set of nonzero multi-indices in ``k`` variables, sorted lexicographically."""

    k: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("dimension k must be >= 1")
        seen = set()
        for g in self.members:
            if len(g) != self.k:
                raise ValueError(f"multi-index {g} has wrong length (k={self.k})")
            if any((not isinstance(c, Integral)) or c < 0 for c in g):
                raise ValueError(f"multi-index {g} must have non-negative integer entries")
            if degree(g) < 1:
                raise ValueError("the zero multi-index is excluded")
            if g in seen:
                raise ValueError(f"duplicate multi-index {g}")
            seen.add(g)
        if list(self.members) != sorted(self.members):
            raise ValueError("members must be sorted lexicographically")

    @classmethod
    def from_indices(cls, k: int, indices) -> "MultiIndexSet":
        return cls(k, tuple(sorted({tuple(int(c) for c in g) for g in indices})))

    @classmethod
    def full_degree(cls, k: int, d0: int) -> "MultiIndexSet":
        """All multi-indices with total degree between 1 and ``d0``."""
        if k < 1 or d0 < 1:
            raise ValueError("need k >= 1 and d0 >= 1")
        members = [g for g in product(range(d0 + 1), repeat=k) if 1 <= degree(g) <= d0]
        return cls(k, tuple(sorted(members)))

    @property
    def d(self) -> int:
        """Cardinality of the set (the ambient dimension of frequency space)."""
        return len(self.members)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(degree(g) for g in self.members)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    def index(self, gamma: Sequence[int]) -> int:
        return self.members.index(tuple(gamma))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.members)

    def __contains__(self, gamma) -> bool:
        return tuple(gamma) in self.members


def full_degree_set(k: int, d0: int) -> MultiIndexSet:
    """Convenience wrapper: the full set of multi-indices of degree 1..d0."""
    return MultiIndexSet.full_degree(k, d0)


def canonical_map(x: Sequence[int], gammas: MultiIndexSet) -> tuple[int, ...]:
    """Evaluate every monomial of ``gammas`` at the integer point ``x``.

    The result is the image of ``x`` under the moment-curve style embedding;
    entries are exact Python integers, so there is no overflow at any scale.
    """
    if len(x) != gammas.k:
        raise ValueError(f"point has length {len(x)}, expected k={gammas.k}")
    xs = _integers(x)
    out = []
    for g in gammas.members:
        v = 1
        for xi, e in zip(xs, g):
            if e:
                v *= xi ** e
        out.append(v)
    return tuple(out)


def _integers(values) -> list[int]:
    """``values`` as Python integers.  A value that is not an integer (a
    float, even an integral one, a Fraction, a string) raises
    ``PreconditionError`` instead of being truncated."""
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise PreconditionError("coordinates must be integers") from None


def exact_dtype(bound: int):
    """The dtype of every exact integer array, from a ``bound`` on what it
    holds: int64 while bound < 2^62, Python integers (object dtype) above."""
    return np.int64 if bound < 2 ** 62 else object


def integer_rows(points, k: int) -> np.ndarray:
    """The integer points ``points`` as an (n, k) array: int64 while every
    coordinate is below 2^62 in magnitude, so that a sum of two cannot
    overflow, and Python integers (object dtype) otherwise.  A coordinate
    that is not an integer raises ``PreconditionError``."""
    y = np.empty(len(points) * k, np.int64)
    try:
        # struct packs integers only (by __index__) and refuses any beyond int64
        struct.pack_into(f"{y.size}q", y, 0, *chain.from_iterable(points))
        top = max(-int(y.min()), int(y.max())) if y.size else 0
        if exact_dtype(top) is np.int64:
            return y.reshape(len(points), k)
    except struct.error:
        pass
    return np.array(_integers(chain.from_iterable(points)),
                    dtype=object).reshape(len(points), k)


def monomial_images(points, monomials: Sequence[Sequence[int]]) -> np.ndarray:
    """Every monomial y^gamma of ``monomials`` at every row y of ``points``,
    exactly: an (n, len(monomials)) array, int64 while max |y|^deg < 2^62 and
    Python integers (object dtype) above."""
    k = len(monomials[0]) if monomials else 0
    y = integer_rows(points, k) if monomials else np.zeros((len(points), 0), np.int64)
    deg = max((degree(g) for g in monomials), default=0)
    top = max(-int(y.min()), int(y.max())) if y.size else 0
    dtype = exact_dtype(top ** deg)
    y = y.astype(dtype)
    out = np.empty((len(y), len(monomials)), dtype)
    for j, g in enumerate(monomials):
        col = np.ones(len(y), dtype)
        for c, e in zip(y.T, g):
            if e:
                col = col * c ** e
        out[:, j] = col
    return out


@dataclass(frozen=True)
class FrequencyVector:
    """A frequency vector indexed by a MultiIndexSet.

    ``exact=True`` means every entry is a Fraction (or int); otherwise every
    entry is a float.  Mixed backends are rejected so that exact phases never
    silently degrade to floating point.
    """

    gammas: MultiIndexSet
    values: tuple[Scalar, ...]
    exact: bool

    def __post_init__(self) -> None:
        if len(self.values) != len(self.gammas):
            raise ValueError("one value per multi-index required")
        if self.exact:
            if not all(isinstance(v, (Fraction, Integral)) for v in self.values):
                raise ValueError("exact vector requires Fraction/int entries")
        else:
            if not all(isinstance(v, float) for v in self.values):
                raise ValueError("float vector requires float entries")

    @classmethod
    def exact_vector(cls, gammas: MultiIndexSet, values) -> "FrequencyVector":
        return cls(gammas, tuple(Fraction(v) for v in values), True)

    @classmethod
    def float_vector(cls, gammas: MultiIndexSet, values) -> "FrequencyVector":
        return cls(gammas, tuple(float(v) for v in values), False)

    @classmethod
    def zero(cls, gammas: MultiIndexSet, exact: bool = True) -> "FrequencyVector":
        z = Fraction(0) if exact else 0.0
        return cls(gammas, tuple(z for _ in gammas.members), exact)

    def as_float(self) -> "FrequencyVector":
        if not self.exact:
            return self
        return FrequencyVector(self.gammas, tuple(float(v) for v in self.values), False)

    def torus(self) -> "FrequencyVector":
        """Reduce every entry mod 1 into [0, 1).  Exact backend only."""
        if not self.exact:
            raise ValueError("torus reduction is defined for the exact backend")
        return FrequencyVector(self.gammas, tuple(Fraction(v) % 1 for v in self.values), True)

    def __getitem__(self, gamma) -> Scalar:
        return self.values[self.gammas.index(gamma)]

    def sub(self, other: "FrequencyVector") -> "FrequencyVector":
        if self.gammas != other.gammas:
            raise ValueError("frequency vectors live over different index sets")
        if self.exact != other.exact:
            raise ValueError("mixed exact/float arithmetic is forbidden")
        vals = tuple(a - b for a, b in zip(self.values, other.values))
        return FrequencyVector(self.gammas, vals, self.exact)


def quasi_norm(xi: FrequencyVector) -> float:
    """max over indices of |xi_gamma| ** (1/|gamma|)."""
    best = 0.0
    for g, v in zip(xi.gammas.members, xi.values):
        a = abs(float(v))
        if a == 0.0:
            continue
        best = max(best, a ** (1.0 / degree(g)))
    return best


def anisotropic_dilate(xi: FrequencyVector, t: float) -> FrequencyVector:
    """Scale the coordinate of degree m by 2**(t*m).

    An exact vector stays exact when ``t`` is an integer; otherwise the result
    uses the float backend (the scale factor is irrational in general).
    """
    degs = xi.gammas.degrees
    if xi.exact and isinstance(t, Integral):
        vals = tuple(Fraction(v) * Fraction(2) ** (int(t) * m) for v, m in zip(xi.values, degs))
        return FrequencyVector(xi.gammas, vals, True)
    base = xi.as_float()
    vals = tuple(v * 2.0 ** (t * m) for v, m in zip(base.values, degs))
    return FrequencyVector(xi.gammas, vals, False)
