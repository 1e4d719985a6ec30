"""Independent reference computations that the benchmark's checks compare
radonlab's outputs against.

Each oracle takes a different route from the library code it checks: lattice
sets row by row with exact integer square roots, exponential sums by direct
vectorized summation of exactly reduced phases, symbols by dense fixed-order
quadrature.  None of them runs inside a timed job.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np


class CheckFailed(Exception):
    """A job's output disagrees with its oracle or invariant."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got: complex, want: complex, tol: float, what: str) -> None:
    require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def strict_floor(x: Fraction) -> int:
    """Largest integer strictly below ``x``."""
    return (x.numerator - 1) // x.denominator


# ---------------------------------------------------------------------------
# lattice points
# ---------------------------------------------------------------------------


def lattice_oracle(kind: str, axes, T: float) -> list[tuple[int, ...]]:
    """Integer points of the open dilate ``T * body``, in lexicographic order.

    ``kind`` is "cube" (axes are the half-sides) or "quadric" (balls and
    diagonal ellipsoids; axes are the semi-axes).  Every denominator is
    cleared first; for a quadric, each row of the first k-1 coordinates then
    gets its exact range of the last one from an integer square root.
    """
    Tf = Fraction(T)
    ax = [Fraction(a) for a in axes]
    if kind == "cube":
        b = strict_floor(Tf * ax[0])
        return list(product(range(-b, b + 1), repeat=len(ax)))
    inv = [1 / (a * a) for a in ax]
    T2 = Tf * Tf
    D = math.lcm(T2.denominator, *(c.denominator for c in inv))
    w = [int(c * D) for c in inv]
    B = int(T2 * D)                     # y is inside iff sum w_i y_i^2 < B
    heads = product(*(range(-math.floor(Tf * a), math.floor(Tf * a) + 1) for a in ax[:-1]))
    out = []
    for head in heads:
        room = B - sum(wi * c * c for wi, c in zip(w, head))
        if room > 0:
            m = math.isqrt((room - 1) // w[-1])
            out.extend(head + (c,) for c in range(-m, m + 1))
    return out


def box_cells(axes, T: float) -> int:
    """Cells of the integer bounding box of the dilate ``T * body``."""
    return math.prod(2 * math.floor(Fraction(T) * Fraction(a)) + 1 for a in axes)


def near_boundary_oracle(kind: str, k: int, size: float, t: float, s: float,
                         outer: float) -> int:
    """Vectorized count of lattice points within ``s`` of the dilate's boundary,
    for balls (``size`` = radius) and cubes (``size`` = half-side)."""
    b = int(math.ceil(t * outer + s)) + 1
    axes = np.meshgrid(*([np.arange(-b, b + 1, dtype=np.float64)] * k), indexing="ij")
    pts = np.stack([a.ravel() for a in axes])
    if kind == "ball":
        dist = np.abs(np.sqrt(np.sum(pts * pts, axis=0)) - t * size)
    else:
        half = t * size
        m = np.max(np.abs(pts), axis=0)
        over = np.maximum(np.abs(pts) - half, 0.0)
        dist = np.where(m <= half, half - m, np.sqrt(np.sum(over * over, axis=0)))
    return int(np.count_nonzero(dist < s))


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------


def phase_numerators(points, monomials, nums, Q: int) -> list[int]:
    """For each integer point y: sum of nums[i] * y^monomials[i] mod Q."""
    out = []
    for y in points:
        acc = 0
        for a, g in zip(nums, monomials):
            m = 1
            for c, e in zip(y, g):
                m *= c ** e
            acc += a * m
        out.append(acc % Q)
    return out


def unit_phases(numerators: list[int], Q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.array([n / Q for n in numerators]))


def gauss_oracle(nums, q: int, monomials, k: int) -> complex:
    """q^-k times the sum over r in {1..q}^k of e(sum a_i r^gamma_i / q)."""
    pts = list(product(range(1, q + 1), repeat=k))
    return complex(np.sum(unit_phases(phase_numerators(pts, monomials, nums, q), q))) / q ** k


def common_denominator(fracs) -> tuple[int, list[int]]:
    fr = [Fraction(f) for f in fracs]
    Q = math.lcm(*(f.denominator for f in fr))
    return Q, [int(f * Q) for f in fr]


def interval_averages(xi, degrees, j_values) -> list[complex]:
    """Averages of e(sum xi_i y^degrees[i]) over |y| <= j, for each j listed."""
    Q, nums = common_denominator(xi)
    jmax = max(j_values)
    mons = [(d,) for d in degrees]
    pos = unit_phases(phase_numerators([(y,) for y in range(1, jmax + 1)], mons, nums, Q), Q)
    neg = unit_phases(phase_numerators([(-y,) for y in range(1, jmax + 1)], mons, nums, Q), Q)
    prefix = np.concatenate(([1.0 + 0j], 1.0 + np.cumsum(pos + neg)))
    return [complex(prefix[j]) / (2 * j + 1) for j in j_values]


_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def interval_symbol(coeffs, degrees, R: float) -> complex:
    """(1 / 2R) times the integral over (-R, R) of e(sum c_i y^degrees[i]),
    by composite 48-point Gauss-Legendre with panels finer than the phase."""
    osc = sum(abs(float(c)) * R ** d for c, d in zip(coeffs, degrees))
    panels = max(16, int(8 * osc) + 1)
    edges = np.linspace(-R, R, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    y = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    phase = sum(float(c) * y ** d for c, d in zip(coeffs, degrees))
    vals = np.exp(2j * np.pi * phase).reshape(panels, -1)
    return complex(np.sum(half * (vals @ _GL_W))) / (2 * R)


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------


def brute_r_variation(values, r: float) -> float:
    """Maximum over all increasing index subsequences of the l^r norm of moves."""
    n = len(values)
    best = 0.0
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        moves = [abs(values[b] - values[a]) for a, b in zip(idx, idx[1:])]
        if not moves:
            continue
        v = max(moves) if math.isinf(r) else sum(m ** r for m in moves) ** (1.0 / r)
        best = max(best, v)
    return best


def blocks_of(times, tau: float) -> list[list[int]]:
    """Index sets of the samples in each block [n^tau, (n+1)^tau] with >= 2 samples."""
    if not times:
        return []
    n_max = int(math.ceil(max(times) ** (1.0 / tau))) + 1
    out = []
    for n in range(n_max + 1):
        lo, hi = n ** tau, (n + 1) ** tau
        idx = [i for i, t in enumerate(times) if lo <= t <= hi]
        if len(idx) >= 2:
            out.append(idx)
    return out


def distinct_moves(rows) -> int:
    """Number of distinct positive pairwise move sizes over all paths."""
    return len({abs(row[j] - row[i]) for row in rows
                for j in range(1, len(row)) for i in range(j)} - {0.0})
