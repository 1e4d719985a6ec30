"""Discrete multipliers of the convolution kernels, their continuous symbols,
major-arc approximation error reports, minor-arc increment reports, the box
average multiplier, oscillatory decay scans, and the full-residue kernel
identity.

Discrete multipliers at rational frequencies are exact-phase: every phase
comes from ``expsums.phase_numerators``, which reduces the numerator mod the
common denominator in integer arithmetic before any trigonometric call, for
all lattice points at once.  Float frequencies, the only inexact input, are
reduced mod 1 point by point in the same ``_phases`` helper, and the sums are
accumulated left to right.  Continuous symbols are computed by adaptive
Gauss-Legendre panels; principal values use the paired-annulus subtraction
form, which is absolutely convergent once the kernel's annulus integrals
vanish for the paired body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (BudgetError, NonconvergenceError, OscillationBudgetError,
                     PreconditionError)
from .lattice import ConvexBody, EuclideanBall, Cube, dyadic_radius, lattice_points
from .multiindex import (FrequencyVector, MultiIndexSet, canonical_map, degree,
                         quasi_norm)
from .expsums import (RationalPoint, gauss_sum, phase_numerators, running_sums,
                      unit_phase, unit_phases)
from .radon import CZKernelSpec, _check_flavor

DEFAULT_OSCILLATION_BUDGET = 1.0e6
BREAKPOINT_CAP = 10 ** 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# relative tolerance of the adaptive quadrature, and the panel doublings it may take
_SYMBOL_TOL, _MAX_LEVELS = 1e-8, 12
_T_GRID = tuple(i / 8 for i in range(9))    # sampled arc reports take t = N + i / 8
_IDENTITY_TOL = 1e-9    # relative to q^d, for the full-residue kernel identity


# ---------------------------------------------------------------------------
# frequency helpers
# ---------------------------------------------------------------------------


def _xi_entries(xi, gammas: MultiIndexSet):
    """Accept a FrequencyVector, a RationalPoint, or a plain sequence."""
    if hasattr(xi, "values") and hasattr(xi, "gammas"):
        if xi.gammas != gammas:
            raise ValueError("frequency vector is indexed by a different set")
        return tuple(xi.values), xi.exact
    if isinstance(xi, RationalPoint):
        return xi.components(), True
    vals = tuple(xi)
    exact = all(isinstance(v, (int, Fraction)) for v in vals)
    return (tuple(Fraction(v) for v in vals) if exact else tuple(float(v) for v in vals),
            exact)


def _phases(values, exact: bool, gammas: MultiIndexSet, points) -> np.ndarray:
    """e(xi . y^Gamma) at each point y: through the phase numerators mod the
    common denominator of an exact xi, by float reduction mod 1 otherwise."""
    if exact:
        rp = RationalPoint.from_fractions(values)
        return unit_phases(phase_numerators(points, gammas.members, rp.numerators, rp.q),
                           rp.q)
    vals = [float(v) for v in values]
    out = []
    for y in points:
        acc = 0.0
        for a, m in zip(vals, canonical_map(y, gammas)):
            acc = (acc + a * m) % 1.0
        out.append(unit_phase(acc))
    return np.array(out)


# ---------------------------------------------------------------------------
# discrete multipliers
# ---------------------------------------------------------------------------


def discrete_multiplier(flavor: str, body: ConvexBody, t: float,
                        gammas: MultiIndexSet, xi,
                        cz: CZKernelSpec | None = None) -> complex:
    """Fourier transform of the scale-2**t kernel at the frequency xi.

    Equals the exponential sum over the dilate's lattice points, normalized
    for the averaging flavor and kernel-weighted for the singular flavor.
    """
    _check_flavor(flavor, cz)
    pts = lattice_points(body, dyadic_radius(t)).points
    ph = _phases(*_xi_entries(xi, gammas), gammas, pts)
    if flavor == "averaging":
        return complex(running_sums(ph)[-1]) / len(pts)
    return complex(running_sums([p * complex(cz.evaluate(y))
                                 for p, y in zip(ph.tolist(), pts) if any(y)])[-1])


def _halfwidth(body: ConvexBody) -> Fraction:
    if isinstance(body, EuclideanBall) and body.k == 1:
        return Fraction(body.radius)
    if isinstance(body, Cube) and body.k == 1:
        return Fraction(body.halfside)
    raise ValueError("one-dimensional interval body required")


def multiplier_breakpoint_profile(flavor: str, body: ConvexBody,
                                  gammas: MultiIndexSet, xi, t_lo: float,
                                  t_hi: float, cz: CZKernelSpec | None = None
                                  ) -> list[tuple[int, complex]]:
    """All values of t -> m_t(xi) for t in [t_lo, t_hi], one per breakpoint (k = 1).

    The lattice set of the dilate changes only when 2**t crosses j/w for an
    integer j; between crossings the multiplier is constant, so the finite
    list returned here realizes the exact supremum over the closed interval.
    Entries are (outermost point j, multiplier value).
    """
    if gammas.k != 1:
        raise ValueError("breakpoint profile implemented for k = 1")
    w = _halfwidth(body)

    def j_at(t: float) -> int:
        bound = Fraction(dyadic_radius(t)) * w
        return max(0, (bound.numerator - 1) // bound.denominator)

    j_lo, j_hi = j_at(t_lo), j_at(t_hi)
    if 2 * j_hi + 1 > BREAKPOINT_CAP:
        raise BudgetError("breakpoint profile cap", 2 * j_hi + 1, BREAKPOINT_CAP)
    _check_flavor(flavor, cz)
    # 0, 1, -1, 2, -2, ...: the order in which the sums take the points
    ys = [(s * j,) for j in range(1, j_hi + 1) for s in (1, -1)]
    ph = _phases(*_xi_entries(xi, gammas), gammas, [(0,)] + ys)
    if flavor == "averaging":
        # S_0 = e(0) and S_j = S_{j-1} + (e(+j) + e(-j))
        S = running_sums(np.concatenate((ph[:1], ph[1::2] + ph[2::2])))[1:].tolist()
        return [(j, S[j] / (2 * j + 1)) for j in range(j_lo, j_hi + 1)]
    S = running_sums([p * complex(cz.evaluate(y)) for p, y in zip(ph[1:].tolist(), ys)])
    return [(j, complex(S[2 * j])) for j in range(j_lo, j_hi + 1)]


# ---------------------------------------------------------------------------
# continuous symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolEvaluation:
    value: complex
    t: float
    method: str
    error_estimate: float
    levels: int


def _gl_integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  panels: int) -> complex:
    edges = np.linspace(a, b, panels + 1)
    total = 0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        y = mid + half * _GL_NODES
        total += half * np.sum(_GL_WEIGHTS * f(y))
    return complex(total)


def _adaptive(f, a: float, b: float, start_panels: int) -> tuple[complex, float, int]:
    panels = max(4, start_panels)
    prev = _gl_integrate(f, a, b, panels)
    for level in range(1, _MAX_LEVELS + 1):
        panels *= 2
        cur = _gl_integrate(f, a, b, panels)
        err = abs(cur - prev)
        if err <= _SYMBOL_TOL * max(1.0, abs(cur)):
            return cur, err, level
        prev = cur
    raise NonconvergenceError(
        f"quadrature did not settle to {_SYMBOL_TOL} within {_MAX_LEVELS} refinements")


def _phase_poly_1d(vals, degs):
    coeffs = [(float(v), m) for v, m in zip(vals, degs)]

    def ph(y: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(y, dtype=float)
        for c, m in coeffs:
            if c:
                acc = acc + c * y ** m
        return acc

    return ph


def continuous_symbol(flavor: str, body: ConvexBody, t: float,
                      gammas: MultiIndexSet, xi,
                      cz: CZKernelSpec | None = None) -> SymbolEvaluation:
    """The scale-2**t symbol of the continuous counterpart operator at xi.

    Averaging: the normalized oscillatory integral over the dilate.
    Singular: the principal value against the paired kernel, realized in the
    absolutely convergent subtraction form.  Refuses frequencies whose total
    phase variation across the dilate exceeds the oscillation budget.
    """
    _check_flavor(flavor, cz)
    vals, _ = _xi_entries(xi, gammas)
    fvals = [float(v) for v in vals]
    degs = [degree(g) for g in gammas.members]
    R = dyadic_radius(t)

    if body.k == 1:
        w = float(_halfwidth(body))
        Rw = R * w
        osc = sum(abs(c) * Rw ** m for c, m in zip(fvals, degs))
        if osc > DEFAULT_OSCILLATION_BUDGET:
            raise OscillationBudgetError("oscillation budget", osc, DEFAULT_OSCILLATION_BUDGET)
        ph = _phase_poly_1d(fvals, degs)
        start = int(min(max(4, osc), 4096))
        if flavor == "averaging":
            f = lambda y: np.exp(2j * np.pi * ph(y))
            val, err, lev = _adaptive(f, -Rw, Rw, start)
            return SymbolEvaluation(val / (2 * Rw), t, "gl-interval", err / (2 * Rw), lev)
        if flavor == "singular":
            def paired(y: np.ndarray) -> np.ndarray:
                kp = np.array([cz.evaluate((float(v),)) for v in y])
                km = np.array([cz.evaluate((-float(v),)) for v in y])
                return np.exp(2j * np.pi * ph(y)) * kp + np.exp(2j * np.pi * ph(-y)) * km

            val, err, lev = _adaptive(paired, 0.0, Rw, start)
            return SymbolEvaluation(val, t, "gl-paired-pv", err, lev)

    if body.k == 2 and isinstance(body, EuclideanBall):
        Rr = R * body.radius

        def phase_xy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            acc = np.zeros_like(x, dtype=float)
            for c, g in zip(fvals, gammas.members):
                if c:
                    acc = acc + c * x ** g[0] * y ** g[1]
            return acc

        osc = sum(abs(c) * Rr ** degree(g) for c, g in zip(fvals, gammas.members))
        if osc > DEFAULT_OSCILLATION_BUDGET:
            raise OscillationBudgetError("oscillation budget", osc, DEFAULT_OSCILLATION_BUDGET)
        n_theta = int(min(max(32, 8 * math.sqrt(osc + 1)), 1024))
        theta = (np.arange(n_theta) + 0.5) * (2 * np.pi / n_theta)
        ct, st = np.cos(theta), np.sin(theta)
        start = int(min(max(4, osc / max(1.0, n_theta / 8)), 2048))

        if flavor == "averaging":
            def radial(rho: np.ndarray) -> np.ndarray:
                out = np.empty(len(rho), dtype=complex)
                for i, r_ in enumerate(rho):
                    out[i] = r_ * np.mean(np.exp(2j * np.pi * phase_xy(r_ * ct, r_ * st)))
                return out

            val, err, lev = _adaptive(radial, 0.0, Rr, start)
            area = math.pi * Rr * Rr
            return SymbolEvaluation(2 * math.pi * val / area, t, "gl-polar",
                                    2 * math.pi * err / area, lev)
        if flavor == "singular":
            kappa = np.array([cz.evaluate((float(c), float(s))) for c, s in zip(ct, st)])
            # zero spherical mean lets the constant term be subtracted ring by ring

            def radial_pv(rho: np.ndarray) -> np.ndarray:
                out = np.empty(len(rho), dtype=complex)
                for i, r_ in enumerate(rho):
                    ring = kappa * (np.exp(2j * np.pi * phase_xy(r_ * ct, r_ * st)) - 1.0)
                    out[i] = np.mean(ring) * 2 * np.pi / r_
                return out

            val, err, lev = _adaptive(radial_pv, 0.0, Rr, start)
            return SymbolEvaluation(val, t, "gl-polar-pv", err, lev)
    raise ValueError(f"no symbol path for body kind {body.kind!r} in dimension {body.k}")


# ---------------------------------------------------------------------------
# major-arc approximation error
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MajorArcReport:
    flavor: str
    N: int
    point: RationalPoint
    theta: tuple
    gauss_value: complex
    sup_error: float
    scale_term: float          # q * 2^-N
    quasi_term: float          # quasi-norm contribution of the offset
    holder_term: float         # (q 2^-N)^sigma for the singular flavor, else 0
    ratio_leading: float       # sup_error / scale_term
    ratio_full: float          # sup_error / (sum of the three terms)


def major_arc_error(flavor: str, body: ConvexBody, gammas: MultiIndexSet,
                    N: int, point: RationalPoint, theta: Sequence = (),
                    cz: CZKernelSpec | None = None) -> MajorArcReport:
    """Sup over t in [N, N+1] of the distance between the discrete multiplier
    at a/q + theta and the height G(a/q) times the continuous symbol at theta.

    For the singular flavor the comparison is between increments in t, which
    is the form in which the approximation is used.  With theta = 0 the
    symbol factor is constant and the supremum is evaluated exactly at every
    breakpoint of the lattice set; otherwise both sides are sampled on a
    uniform t-grid.
    """
    q = point.q
    theta = tuple(theta) if theta else tuple(Fraction(0) for _ in gammas.members)
    if len(theta) != len(gammas):
        raise ValueError("offset must have one entry per index")
    G = gauss_sum(point, gammas, body.k)
    theta_zero = all(v == 0 for v in theta)
    a_fr = point.components()
    xi = tuple(Fraction(f) + Fraction(v) if isinstance(v, (int, Fraction)) else float(f) + v
               for f, v in zip(a_fr, theta))

    if theta_zero and body.k == 1:
        prof = multiplier_breakpoint_profile(flavor, body, gammas, xi, N, N + 1, cz=cz)
        if flavor == "averaging":
            sup = max(abs(m - G) for _, m in prof)
        else:
            sup = _set_diameter(np.array([m for _, m in prof]))
    else:
        tg = [N + s for s in _T_GRID]
        ms = [discrete_multiplier(flavor, body, t, gammas, xi, cz=cz) for t in tg]
        phis = [continuous_symbol(flavor, body, t, gammas, theta, cz=cz).value
                for t in tg]
        if flavor == "averaging":
            sup = max(abs(m - G * p) for m, p in zip(ms, phis))
        else:
            sup = max((abs((ms[i] - ms[j]) - G * (phis[i] - phis[j]))
                       for i in range(len(tg)) for j in range(i + 1, len(tg))),
                      default=0.0)

    scale_term = q * 2.0 ** -N
    quasi = 0.0
    for g, v in zip(gammas.members, theta):
        m = degree(g)
        quasi = max(quasi, (2.0 ** (N * m) * scale_term * abs(float(v))) ** (1.0 / m))
    holder = (scale_term ** cz.sigma) if (flavor == "singular" and cz is not None) else 0.0
    denom = scale_term + quasi + holder
    return MajorArcReport(flavor, N, point, theta, G, sup, scale_term, quasi, holder,
                          sup / scale_term if scale_term > 0 else math.inf,
                          sup / denom if denom > 0 else math.inf)


# ---------------------------------------------------------------------------
# minor-arc increment report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncrementReport:
    flavor: str
    N: int
    gamma0: tuple[int, ...]
    a: int
    q: int
    beta_max: float            # largest beta with N^beta <= q <= 2^(N |gamma0|) N^-beta
    sup_increment: float
    alpha_rows: tuple[tuple[float, float], ...]   # (alpha, sup * N^alpha)


def multiplier_increment_report(flavor: str, body: ConvexBody,
                                gammas: MultiIndexSet, N: int,
                                gamma0: Sequence[int], a: int, q: int, xi,
                                alphas: Sequence[float] = (0.5, 1.0, 2.0),
                                cz: CZKernelSpec | None = None) -> IncrementReport:
    """Sup over t1, t2 in [N, N+1] of |m_t1(xi) - m_t2(xi)| for a frequency
    whose gamma0 component is a Dirichlet-close fraction a/q of intermediate
    size, reported against N^-alpha for the scanned alphas."""
    gamma0 = tuple(gamma0)
    l = degree(gamma0)
    if q < 2 or not q < 2.0 ** (N * l):
        raise PreconditionError("q must satisfy 1 < q < 2^(N |gamma0|)")
    beta_max = min(math.log(q, N), (N * l * math.log(2) - math.log(q)) / math.log(N))
    if beta_max <= 0:
        raise PreconditionError("no positive beta admits this q")
    vals, _ = _xi_entries(xi, gammas)
    xi0 = Fraction(vals[gammas.index(gamma0)])
    if abs(xi0 - Fraction(a, q)) > Fraction(1, q * q):
        raise PreconditionError("xi_gamma0 is not within 1/q^2 of a/q")
    if body.k == 1:
        prof = multiplier_breakpoint_profile(flavor, body, gammas, xi, N, N + 1, cz=cz)
        pts = np.array([m for _, m in prof])
    else:
        pts = np.array([discrete_multiplier(flavor, body, N + s, gammas, xi, cz=cz)
                        for s in _T_GRID])
    sup = _set_diameter(pts)
    rows = tuple((float(al), sup * N ** float(al)) for al in alphas)
    return IncrementReport(flavor, N, gamma0, a, q, beta_max, sup, rows)


def _set_diameter(zs: np.ndarray) -> float:
    """Exact diameter of a finite point set in the plane (hull + pairwise)."""
    pts = np.unique(np.round(np.column_stack([zs.real, zs.imag]), 15), axis=0)
    if len(pts) < 2:
        return 0.0
    if len(pts) > 8:
        pts = _convex_hull(pts)
    d2 = 0.0
    for i in range(len(pts)):
        diff = pts[i + 1:] - pts[i]
        if len(diff):
            d2 = max(d2, float(np.max(np.einsum("ij,ij->i", diff, diff))))
    return math.sqrt(d2)


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """Monotone chain; input unique rows."""
    P = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2:
                u, v = out[-1] - out[-2], p - out[-2]
                if u[0] * v[1] - u[1] * v[0] <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(P)
    upper = half(P[::-1])
    return np.array(lower[:-1] + upper[:-1])


# ---------------------------------------------------------------------------
# box average multiplier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxAverageMultiplier:
    """Product of one-dimensional Dirichlet kernels over a cube of integers.

    The underlying set is the full box {0, ..., L-1}^Gamma in the image
    lattice, so the value at a frequency is the product over coordinates of
    (1/L) sum_{j<L} e(j xi_gamma), evaluated exactly at rationals.
    """

    N: int
    chi: float
    gammas: MultiIndexSet
    L: int

    @staticmethod
    def _sinpi(fr: Fraction) -> float:
        # sin(pi x) for exact x in [0, 1), reduced into [0, 1/2] first so the
        # argument never lands next to pi (where sin cancels catastrophically)
        r = min(fr, 1 - fr)
        return math.sin(math.pi * float(r))

    def factor(self, xi_gamma: Fraction) -> complex:
        fr = Fraction(xi_gamma) % 1
        if fr == 0:
            return 1.0 + 0j
        L = self.L
        # (1/L) * e((L-1) xi / 2) * sin(pi L xi) / sin(pi xi), phases reduced exactly
        half = float((Fraction(L - 1) * fr / 2) % 1)
        m = L * fr
        s_num = self._sinpi(m % 1) * (1 if math.floor(m) % 2 == 0 else -1)
        s_den = self._sinpi(fr)
        return unit_phase(half) * (s_num / (L * s_den))

    def value(self, xi: Sequence) -> complex:
        out = 1.0 + 0j
        for v in xi:
            out *= self.factor(Fraction(v))
        return out


def box_average_multiplier(N: int, chi: float, gammas: MultiIndexSet) -> BoxAverageMultiplier:
    """The approximating multiplier at resolution N with box exponent chi in (0,1)."""
    if not 0 < chi < 1:
        raise PreconditionError("chi must lie in (0, 1)")
    expo = N ** chi - 2.0 * N ** (chi / 2.0)
    L = int(math.floor(2.0 ** expo)) + 1
    return BoxAverageMultiplier(N, chi, gammas, max(1, L))


@dataclass(frozen=True)
class BoxNeighborhoodReport:
    N: int
    chi: float
    point: RationalPoint
    gauss_value: complex
    center_error: float
    sup_error: float
    radius: tuple


def box_neighborhood_report(mult: BoxAverageMultiplier,
                            point: RationalPoint) -> BoxNeighborhoodReport:
    """|box multiplier - G(a/q)| at the center and corners of the neighborhood
    |xi_gamma - a_gamma/q| <= 2^(-N|gamma| + N^chi)."""
    gammas = mult.gammas
    G = gauss_sum(point, gammas, gammas.k)
    center = point.components()
    errs = [abs(mult.value(center) - G)]
    radius = tuple(Fraction(2) ** int(math.floor(mult.N ** mult.chi)) /
                   Fraction(2) ** (mult.N * degree(g)) for g in gammas.members)
    from itertools import product as iproduct
    for signs in iproduct((-1, 1), repeat=len(gammas)):
        xi = tuple(c + s * r for c, s, r in zip(center, signs, radius))
        errs.append(abs(mult.value(xi) - G))
    return BoxNeighborhoodReport(mult.N, mult.chi, point, G, errs[0], max(errs), radius)


# ---------------------------------------------------------------------------
# full-residue kernel identity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _character_sum(q: int, c: int) -> complex:
    """Sum of e(b c / q) over b = 1, ..., q."""
    b = np.arange(1, q + 1)[:, None]
    return complex(np.sum(unit_phases(phase_numerators(b, [(1,)], [c], q), q)))


def dirichlet_kernel_identity(q: int, d: int, x: Sequence[int]) -> int:
    """Sum of e(b . x) over all b in ({1..q}/q)^d, as an exact integer.

    Returns q^d when every coordinate of x is divisible by q and 0 otherwise;
    the closed form is cross-checked against direct exact-phase summation
    (the sum factors across coordinates), and the two must agree to within
    ``_IDENTITY_TOL`` * q^d.
    """
    if q < 1:
        raise PreconditionError("q must be >= 1")
    x = tuple(int(c) for c in x)
    if len(x) != d:
        raise ValueError("point has wrong dimension")
    closed = q ** d if all(c % q == 0 for c in x) else 0
    direct = 1.0 + 0j
    for c in x:
        direct *= _character_sum(q, c % q)
    if abs(direct - closed) > _IDENTITY_TOL * q ** d:
        raise AssertionError(
            f"kernel identity mismatch: direct {direct}, closed {closed}")
    return closed


# ---------------------------------------------------------------------------
# symbol decay scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayScanRow:
    t: float
    quasi: float               # 2^t * quasi-norm of xi
    symbol_mod: float
    decay_ratio: float         # |Phi| * (2^t q*)^(1/d)
    smallness_ratio: float     # |Phi - limit| * (2^t q*)^(-1/d)


@dataclass(frozen=True)
class DecayScanResult:
    flavor: str
    rows: tuple[DecayScanRow, ...]
    max_decay_ratio: float
    max_smallness_ratio: float


def symbol_decay_scan(flavor: str, body: ConvexBody, gammas: MultiIndexSet,
                      t_values: Sequence[float], xi_values: Sequence,
                      cz: CZKernelSpec | None = None) -> DecayScanResult:
    """Observed oscillatory-decay and smallness ratios of the symbol family.

    The decay regime tracks |Phi| against (2^t q*(xi))^(-1/d); the smallness
    regime tracks the distance from the zero-frequency limit (1 for the
    averaging flavor, 0 for the singular one) against (2^t q*(xi))^(1/d).
    """
    d = len(gammas)
    limit = 1.0 if flavor == "averaging" else 0.0
    rows = []
    for t in t_values:
        for xi in xi_values:
            vals, exact = _xi_entries(xi, gammas)
            fv = FrequencyVector.float_vector(gammas, [float(v) for v in vals])
            qn = dyadic_radius(t) * quasi_norm(fv)
            ev = continuous_symbol(flavor, body, t, gammas, xi, cz=cz)
            mod = abs(ev.value)
            decay = mod * qn ** (1.0 / d) if qn > 0 else 0.0
            small = abs(ev.value - limit) * qn ** (-1.0 / d) if qn > 0 else 0.0
            rows.append(DecayScanRow(float(t), qn, mod, decay, small))
    return DecayScanResult(flavor,
                           tuple(rows),
                           max((r.decay_ratio for r in rows), default=0.0),
                           max((r.smallness_ratio for r in rows), default=0.0))
