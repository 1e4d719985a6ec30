"""Convex bodies, dilated lattice-point enumeration, and near-boundary counts.

Three analytic families are shipped: open Euclidean balls, open cubes
(sup-norm balls) and open diagonal ellipsoids, each normalized to sit inside
the closed unit ball and contain a small ball around the origin.  A body is
given by its per-axis extents a_i and by how its gauge combines the axis
terms (y_i / a_i)^2: summed for balls and ellipsoids, maximized for cubes.

Membership is decided exactly in integers.  The denominators are cleared once
per body: with D the lcm of the denominators of the 1/a_i^2, the weights
w_i = D / a_i^2 are integers and the form of a lattice point y (the sum or the
maximum of w_i y_i^2) is D times its squared gauge.  The point lies in the
open dilate by t iff its form is below B = (largest integer strictly below
t^2 D) + 1, so points on the boundary of a dilate are excluded.

One scan serves every body: it masks the per-axis box of the dilate with that
comparison in numpy (int64 when no form in the box can overflow it, Python
integers otherwise) and emits the points in lexicographic order together with
their forms.  ``gauge_square`` is the exact per-point gauge, kept for single
queries and as the oracle of the scan.  A scan refuses a box of more cells
than ``DEFAULT_POINT_CAP``, or than the cap a caller gives ``lattice_points``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, product
from typing import Sequence

import numpy as np

from .errors import BudgetError, PreconditionError
from .multiindex import exact_dtype

DEFAULT_POINT_CAP = 10 ** 8


def dyadic_radius(t: float) -> float:
    """2**t, the radius of the operators at scale t.  Raises unless t lies in
    [0, 1024): from t = 1024 on, 2.0 ** t overflows a float."""
    if not 0 <= t < 1024:
        raise PreconditionError("t must lie in [0, 1024)")
    return 2.0 ** t


def _strict_int_below(bound: Fraction) -> int:
    """Largest integer strictly below ``bound``."""
    return (bound.numerator - 1) // bound.denominator


class ConvexBody:
    """Base class for the shipped bodies.  Instances are immutable.

    Subclasses supply ``axes``, the per-axis extents, and ``_combine``, the
    ufunc folding the axis terms of the gauge (``np.add`` or ``np.maximum``).
    """

    kind: str
    k: int
    inner_radius: float   # radius of a ball around 0 contained in the body
    outer_radius: float   # the body is contained in the closed ball of this radius (<= 1)
    _combine = np.add

    @property
    def axes(self) -> tuple[float, ...]:
        raise NotImplementedError

    # -- exact membership -------------------------------------------------

    def gauge_square(self, y: Sequence[int]) -> Fraction:
        raise NotImplementedError

    # -- float geometry ----------------------------------------------------

    def boundary_distance(self, x: Sequence[float], t: float) -> float:
        """Euclidean distance from ``x`` to the boundary of the dilate by ``t``."""
        raise NotImplementedError

    def diameter(self, t: float = 1.0) -> float:
        return 2.0 * t * self.outer_radius

    # -- enumeration --------------------------------------------------------

    @cached_property
    def _weights(self) -> tuple[int, tuple[int, ...]]:
        """(D, w) with D * gauge_square(y) equal to the form of y over the w_i."""
        inv = [1 / Fraction(a) ** 2 for a in self.axes]
        D = math.lcm(*(f.denominator for f in inv))
        return D, tuple(int(f * D) for f in inv)

    def _bound(self, t: float) -> int:
        """B such that a lattice point is in the open dilate by t iff its form is < B."""
        if not math.isfinite(t):
            raise PreconditionError("dilation parameter must be finite")
        if t <= 0:
            return 0
        return _strict_int_below(Fraction(t) ** 2 * self._weights[0]) + 1

    def _mask(self, t: float, cap: int) -> tuple[list[int], np.ndarray, np.ndarray]:
        """The box of the dilate by ``t``: axis radii, cell forms, inside mask."""
        B = self._bound(t)
        w = self._weights[1]
        radii = [math.isqrt(max(B - 1, 0) // wi) for wi in w]
        cells = math.prod(2 * r + 1 for r in radii)
        if cells > cap:
            raise BudgetError("lattice point cap", cells, cap)
        # bounds every w_i y_i^2 and every form in the box
        top = max(B, max(w) * (max(radii) + 1) ** 2 * self.k)
        dtype = exact_dtype(top)
        form = np.zeros((), dtype=dtype)
        for wi, r in zip(w, radii):
            y = np.arange(-r, r + 1, dtype=dtype)
            form = self._combine.outer(form, wi * y * y)
        return radii, form, form < B

    def _scan(self, t: float, cap: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """Lattice points of the open dilate by ``t`` in lexicographic order,
        with their forms."""
        radii, form, inside = self._mask(t, cap)
        box = product(*(range(-r, r + 1) for r in radii))
        return list(compress(box, inside.ravel().tolist())), form[inside]


@dataclass(frozen=True)
class EuclideanBall(ConvexBody):
    radius: float = 1.0
    k: int = 1

    kind = "euclidean-ball"

    def __post_init__(self) -> None:
        if not 0 < self.radius <= 1:
            raise ValueError("ball radius must lie in (0, 1]")
        object.__setattr__(self, "inner_radius", min(self.radius, 1 - 2.0 ** -20))
        object.__setattr__(self, "outer_radius", self.radius)

    @property
    def axes(self) -> tuple[float, ...]:
        return (self.radius,) * self.k

    def gauge_square(self, y) -> Fraction:
        s = sum(int(c) * int(c) for c in y)
        r = Fraction(self.radius)
        return Fraction(s) / (r * r)

    def boundary_distance(self, x, t: float) -> float:
        return abs(math.sqrt(sum(c * c for c in x)) - t * self.radius)


@dataclass(frozen=True)
class Cube(ConvexBody):
    """Open cube (-h, h)^k; requires h * sqrt(k) <= 1 to fit in the unit ball."""

    halfside: float = 1.0
    k: int = 1

    kind = "cube"
    _combine = np.maximum

    def __post_init__(self) -> None:
        if self.halfside <= 0:
            raise ValueError("halfside must be positive")
        if self.halfside * math.sqrt(self.k) > 1 + 1e-12:
            raise ValueError("cube does not fit in the unit ball; shrink halfside")
        object.__setattr__(self, "inner_radius", min(self.halfside, 1 - 2.0 ** -20))
        object.__setattr__(self, "outer_radius", self.halfside * math.sqrt(self.k))

    @property
    def axes(self) -> tuple[float, ...]:
        return (self.halfside,) * self.k

    def gauge_square(self, y) -> Fraction:
        m = max(abs(int(c)) for c in y)
        h = Fraction(self.halfside)
        return Fraction(m * m) / (h * h)

    def boundary_distance(self, x, t: float) -> float:
        s = t * self.halfside
        if max(abs(c) for c in x) <= s:
            return s - max(abs(c) for c in x)
        return math.sqrt(sum(max(abs(c) - s, 0.0) ** 2 for c in x))


@dataclass(frozen=True)
class DiagonalEllipsoid(ConvexBody):
    """Open ellipsoid sum (y_i / a_i)^2 < 1 with semi-axes a_i <= 1."""

    semiaxes: tuple[float, ...] = (1.0,)

    kind = "ellipsoid"

    def __post_init__(self) -> None:
        if not self.semiaxes or any(a <= 0 or a > 1 for a in self.semiaxes):
            raise ValueError("semi-axes must lie in (0, 1]")
        object.__setattr__(self, "inner_radius", min(self.semiaxes))
        object.__setattr__(self, "outer_radius", max(self.semiaxes))

    @property
    def k(self) -> int:
        return len(self.semiaxes)

    @property
    def axes(self) -> tuple[float, ...]:
        return self.semiaxes

    def gauge_square(self, y) -> Fraction:
        total = Fraction(0)
        for c, a in zip(y, self.semiaxes):
            af = Fraction(a)
            total += Fraction(int(c) * int(c)) / (af * af)
        return total

    def boundary_distance(self, x, t: float) -> float:
        axes = [t * a for a in self.semiaxes]
        p = [abs(float(c)) for c in x]
        if all(c == 0 for c in p):
            return min(axes)
        cands = [self._foot_distance_generic(axes, p)]
        # a query on a symmetry hyperplane can have its nearest point off the
        # plane: one branch per zero coordinate, with lam pinned at -A_i^2
        for i, pi in enumerate(p):
            if pi != 0:
                continue
            ai2 = axes[i] * axes[i]
            ok = True
            foot = [0.0] * len(p)
            resid = 1.0
            for j, pj in enumerate(p):
                if j == i or pj == 0:
                    continue
                den = axes[j] * axes[j] - ai2
                if den == 0:
                    ok = False
                    break
                foot[j] = axes[j] * axes[j] * pj / den
                resid -= (foot[j] / axes[j]) ** 2
            if ok and resid >= 0:
                # the freed coordinate contributes (0 - A_i sqrt(resid))^2
                d2 = sum((pj - fj) ** 2
                         for j2, (pj, fj) in enumerate(zip(p, foot)) if j2 != i)
                cands.append(math.sqrt(d2 + ai2 * resid))
        return min(cands)

    @staticmethod
    def _foot_distance_generic(axes, p) -> float:
        # largest root of sum over nonzero coords of (A_i p_i/(A_i^2+lam))^2 = 1
        # on (-min_{p_i>0} A_i^2, inf); strictly decreasing, so bisection works
        active = [(a, c) for a, c in zip(axes, p) if c > 0]
        amin2 = min(a * a for a, _ in active)

        def f(lam: float) -> float:
            return sum((a * c / (a * a + lam)) ** 2 for a, c in active) - 1.0

        lo = -amin2 * (1 - 1e-13)
        hi = max(1.0, math.sqrt(sum(c * c for c in p))) * max(axes) + max(axes) ** 2
        while f(hi) > 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
        lam = 0.5 * (lo + hi)
        d2 = 0.0
        for a, c in zip(axes, p):
            foot = a * a * c / (a * a + lam) if c > 0 else 0.0
            d2 += (c - foot) ** 2
        return math.sqrt(d2)


def euclidean_ball(k: int, radius: float = 1.0) -> EuclideanBall:
    return EuclideanBall(radius=radius, k=k)


def cube(k: int, halfside: float | None = None) -> Cube:
    if halfside is None:
        halfside = 1.0 / math.sqrt(k)
    return Cube(halfside=halfside, k=k)


def ellipsoid(semiaxes: Sequence[float]) -> DiagonalEllipsoid:
    return DiagonalEllipsoid(semiaxes=tuple(float(a) for a in semiaxes))


@dataclass(frozen=True)
class LatticePointSet:
    """Deduplicated, lexicographically sorted lattice points of a dilated body."""

    body: ConvexBody
    t: float
    points: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self._point_set

    @cached_property
    def _point_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.points)


def lattice_points(body: ConvexBody, t: float, cap: int = DEFAULT_POINT_CAP) -> LatticePointSet:
    """Enumerate the lattice points of the open dilate by ``t``.

    For t < 1 the dilate meets the lattice only at the origin (the body sits
    inside the unit ball), and that is what is returned.
    """
    if t < 0:
        raise PreconditionError("dilation parameter must be >= 0")
    if t < 1:
        return LatticePointSet(body, t, ((0,) * body.k,))
    return LatticePointSet(body, t, tuple(body._scan(t, cap)[0]))


def _point_array(body: ConvexBody, t: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """``lattice_points(body, t, cap)`` as an (n, k) int64 array, with the forms:
    ``np.argwhere`` walks the scan's box in the same lexicographic order."""
    if t < 1:       # the origin alone; lattice_points refuses t < 0
        return np.array(lattice_points(body, t, cap).points), np.zeros(1, np.int64)
    radii, form, inside = body._mask(t, cap)
    return np.argwhere(inside) - radii, form[inside]


def annulus_points(body: ConvexBody, t1: float, t2: float) -> LatticePointSet:
    """Lattice points of the dilate by ``t2`` that are not in the dilate by ``t1``.

    Single scan of the outer box; the inner set is never materialized.
    """
    if not 0 <= t1 <= t2:
        raise PreconditionError("need 0 <= t1 <= t2")
    pts, form = body._scan(t2, DEFAULT_POINT_CAP)
    # as in lattice_points, a dilate by t1 < 1 holds the origin (form 0) alone
    keep = form >= max(body._bound(t1), 1)
    return LatticePointSet(body, t2, tuple(compress(pts, keep.tolist())))


def near_boundary_count(body: ConvexBody, t: float, s: float) -> int:
    """Count lattice points within distance ``s`` of the boundary of the dilate."""
    if not 1 <= s <= body.diameter(t):
        raise PreconditionError("need 1 <= s <= diam of the dilate")
    b = int(math.ceil(t * body.outer_radius + s)) + 1
    if (cells := (2 * b + 1) ** body.k) > DEFAULT_POINT_CAP:
        raise BudgetError("near-boundary scan cap", cells, DEFAULT_POINT_CAP)
    return sum(1 for y in product(range(-b, b + 1), repeat=body.k)
               if body.boundary_distance(y, t) < s)


def gauge_groups(body: ConvexBody,
                 gauge_max: float) -> list[tuple[float, list[tuple[int, ...]]]]:
    """Nonzero lattice points with gauge < gauge_max, grouped by exact gauge value.

    Groups are returned in strictly increasing gauge order, each in
    lexicographic order; grouping keys are the exact integer forms, so points
    entering a dilation family at the same scale are never split by
    floating-point noise.
    """
    pts, form = body._scan(float(gauge_max), DEFAULT_POINT_CAP)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for p, f in zip(pts, form.tolist()):
        if f:
            groups.setdefault(f, []).append(p)
    D = body._weights[0]
    # int / int rounds correctly, so f / D == float(Fraction(f, D))
    return [(math.sqrt(f / D), groups[f]) for f in sorted(groups)]

