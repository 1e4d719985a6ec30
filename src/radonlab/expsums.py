"""Gauss sums, weighted Weyl sums, rational approximation, and the
generalized-Vandermonde change of variables.

Phase discipline: whenever a frequency is rational, the phase is reduced mod 1
in exact integer arithmetic before any trigonometric call, so large lattice
points never lose precision to cancellation.  One exact-phase path,
``phase_numerators`` then ``unit_phases``, serves every sum of e(P(y)) over
points in the package, on whole arrays of points in int64 or Python integers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, PreconditionError
from .lattice import ConvexBody, _point_array
from .multiindex import MultiIndexSet, degree, exact_dtype

DEFAULT_SUMMAND_CAP = 10 ** 9
# doublings of the exponent base vandermonde_automorphisms tries
_MAX_DOUBLINGS = 8
# summands one step of ``gauss_sum`` holds at once
_GAUSS_BLOCK = 1 << 16


def unit_phase(x: float) -> complex:
    """exp(2 pi i x)."""
    return cmath.exp(2j * math.pi * x)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, e) pairs, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class ReducedFraction:
    """A fraction a/q in lowest terms with q >= 1 (numerator may be any integer)."""

    a: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("denominator must be >= 1")
        if math.gcd(abs(self.a), self.q) != 1:
            raise ValueError("fraction is not reduced")

    @classmethod
    def make(cls, a: int, q: int) -> "ReducedFraction":
        if q == 0:
            raise ValueError("denominator must be nonzero")
        if q < 0:
            a, q = -a, -q
        g = math.gcd(abs(a), q) or 1
        return cls(a // g, q // g)

    @property
    def value(self) -> Fraction:
        return Fraction(self.a, self.q)


@dataclass(frozen=True)
class RationalPoint:
    """A vector of fractions with a common denominator, canonical in [0, 1)^d."""

    q: int
    numerators: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("common denominator must be >= 1")
        if any(not 0 <= a < max(self.q, 1) for a in self.numerators) or \
                (self.q == 1 and any(a != 0 for a in self.numerators)):
            raise ValueError("numerators must be canonical in [0, q)")

    @classmethod
    def make(cls, numerators: Sequence[int], q: int) -> "RationalPoint":
        if q < 1:
            raise ValueError("common denominator must be >= 1")
        return cls(q, tuple(int(a) % q for a in numerators))

    @classmethod
    def from_fractions(cls, fracs: Sequence[Fraction]) -> "RationalPoint":
        fr = [Fraction(f) for f in fracs]
        q = math.lcm(*(f.denominator for f in fr)) if fr else 1
        return cls.make([int(f * q) for f in fr], q)

    @property
    def d(self) -> int:
        return len(self.numerators)

    @property
    def reduced(self) -> bool:
        return math.gcd(self.q, *self.numerators) == 1 if self.numerators else self.q == 1

    def components(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.q) for a in self.numerators)


@dataclass(frozen=True)
class IntegerPolynomial:
    """A polynomial in k integer variables with exact rational coefficients."""

    k: int
    coeffs: tuple[tuple[tuple[int, ...], Fraction], ...]

    @classmethod
    def make(cls, k: int, coeffs: dict) -> "IntegerPolynomial":
        items = []
        for g, c in coeffs.items():
            g = tuple(int(e) for e in g)
            if len(g) != k or any(e < 0 for e in g):
                raise ValueError(f"bad exponent tuple {g}")
            c = Fraction(c)
            if c != 0:
                items.append((g, c))
        return cls(k, tuple(sorted(items)))

    def coeff(self, gamma: Sequence[int]) -> Fraction:
        g = tuple(gamma)
        for gg, c in self.coeffs:
            if gg == g:
                return c
        return Fraction(0)

    @property
    def degree(self) -> int:
        return max((degree(g) for g, _ in self.coeffs), default=0)

    def evaluate(self, x: Sequence[int]) -> Fraction:
        total = Fraction(0)
        for g, c in self.coeffs:
            m = 1
            for xi, e in zip(x, g):
                if e:
                    m *= int(xi) ** e
            total += c * m
        return total

    def is_integer_valued(self) -> bool:
        return all(c.denominator == 1 for _, c in self.coeffs)


# ---------------------------------------------------------------------------
# Exact phases
# ---------------------------------------------------------------------------


def phase_numerators(points, monomials, nums, Q: int) -> np.ndarray:
    """sum_i nums[i] * y^monomials[i] mod Q, exactly, for each row y of ``points``.

    Residues are int64 while products of two, below Q^2, stay below 2^62,
    that is while Q < 2^31; larger moduli use Python integers (object dtype)."""
    dtype = exact_dtype(Q * Q)
    acc = np.zeros(len(points), dtype)
    if not monomials:
        return acc
    y = np.asarray(points)
    if dtype is object or y.dtype.kind not in "iu":
        # coordinates beyond int64, which numpy may even hold as floats
        y = np.array(points, dtype=object)
    y = (y.reshape(len(acc), len(monomials[0])) % Q).astype(dtype)
    for a, g in zip(nums, monomials):
        m = np.ones(len(y), dtype)
        for c, e in zip(y.T, g):
            for _ in range(e):
                m = m * c % Q
        acc = (acc + a % Q * m) % Q
    return acc


def _root_table(Q: int) -> np.ndarray:
    """e(n / Q) for n = 0, ..., Q - 1."""
    return np.exp(2j * np.pi * np.arange(Q) / Q)


def unit_phases(num: np.ndarray, Q: int) -> np.ndarray:
    """e(num / Q) for phase numerators reduced mod Q: a table lookup while
    Q <= 2^16, else exp(2 pi i num/Q) with num/Q correctly rounded."""
    if Q <= 1 << 16:
        return _root_table(Q)[num]
    return np.exp(2j * np.pi * np.asarray(num / Q, dtype=float))


def running_sums(terms) -> np.ndarray:
    """0j, 0j + terms[0], (0j + terms[0]) + terms[1], ...: strictly left to
    right, as a Python loop adds (``np.sum`` pairs terms and rounds apart)."""
    return np.add.accumulate(np.concatenate(([0j], terms)))


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def gauss_sum(point: RationalPoint, gammas: MultiIndexSet, k: int) -> complex:
    """Normalized complete exponential sum of the canonical monomials mod q.

    q^{-k} * sum over r in {1..q}^k of e((a/q) . r^Gamma), with the phase
    numerator reduced mod q in integer arithmetic.
    """
    if point.d != len(gammas) or gammas.k != k:
        raise ValueError("rational point, index set and k do not match")
    q = point.q
    if q ** k > DEFAULT_SUMMAND_CAP:
        raise BudgetError("gauss sum summand cap", q ** k, DEFAULT_SUMMAND_CAP)
    # the exact residue counts, accumulated over blocks of the summands
    counts = np.zeros(q, np.int64)
    for start in range(0, q ** k, _GAUSS_BLOCK):
        flat = np.arange(start, min(start + _GAUSS_BLOCK, q ** k))
        r = np.stack(np.unravel_index(flat, (q,) * k), axis=1) + 1
        counts += np.bincount(phase_numerators(r, gammas.members, point.numerators, q),
                              minlength=q)
    return complex(np.dot(counts, _root_table(q))) / q ** k


@dataclass(frozen=True)
class GaussScanRow:
    q: int
    max_abs: float
    argmax: tuple[int, ...]


@dataclass(frozen=True)
class GaussScanResult:
    rows: tuple[GaussScanRow, ...]
    fitted_exponent: float
    fit_window: tuple[int, int]


def _gauss_max_over_numerators(q: int, gammas: MultiIndexSet) -> tuple[float, tuple[int, ...]]:
    """Max of |G(a/q)| over a with gcd(q, a_1, ..., a_d) = 1, via an FFT table (k = 1)."""
    d = len(gammas)
    shape = (q,) * d
    table = np.zeros(shape, dtype=np.float64)
    r = np.arange(1, q + 1)[:, None]
    np.add.at(table, tuple(phase_numerators(r, [g], [1], q) for g in gammas.members), 1.0)
    spec = np.abs(np.fft.fftn(table))
    # mask numerators with gcd(q, a) > 1: a == 0 mod p on every coordinate
    mask = np.ones(shape, dtype=bool)
    coords = np.indices(shape)
    for p, _ in factorize(q):
        bad = np.ones(shape, dtype=bool)
        for axis in range(d):
            bad &= (coords[axis] % p) == 0
        mask &= ~bad
    spec = np.where(mask, spec, -1.0)
    flat = int(np.argmax(spec))
    arg = np.unravel_index(flat, shape)
    return float(spec[arg]) / q, tuple(int(a) for a in arg)


def gauss_decay_scan(gammas: MultiIndexSet, k: int, q_max: int) -> GaussScanResult:
    """Table of max_a |G(a/q)| for q = 2..q_max plus a log-log decay fit over
    max(2, q_max // 4) <= q <= q_max.

    The per-q maximum is exhaustive over admissible numerators.  For k = 1 the
    whole numerator sweep is a multidimensional DFT of the residue-count table
    and is done by FFT; other k fall back to direct summation, capped in total.
    """
    if q_max < 2:
        raise PreconditionError("q_max must be >= 2")
    d = len(gammas)
    fft = lambda q: k == 1 and q ** d <= 2 ** 24
    # the direct branch sums q^k terms for each of q^d numerators
    needed = sum(q ** (d + k) for q in range(2, q_max + 1) if not fft(q))
    if needed > DEFAULT_SUMMAND_CAP:
        raise BudgetError("gauss scan total summands", needed, DEFAULT_SUMMAND_CAP)
    rows = []
    for q in range(2, q_max + 1):
        if fft(q):
            m, arg = _gauss_max_over_numerators(q, gammas)
            # table indices are residues mod q; report canonical numerators
            rows.append(GaussScanRow(q, m, arg))
        else:
            best, barg = -1.0, None
            for a in product(range(1, q + 1), repeat=d):
                if math.gcd(q, *a) != 1:
                    continue
                point = RationalPoint.make(a, q)
                v = abs(gauss_sum(point, gammas, k))
                if v > best:
                    best, barg = v, point.numerators
            rows.append(GaussScanRow(q, best, barg))
    lo = max(2, q_max // 4)
    fit = [(math.log(r.q), math.log(r.max_abs))
           for r in rows if r.q >= lo and r.max_abs > 0]
    slope = float(np.polyfit(*zip(*fit), 1)[0]) if len(fit) >= 2 else float("nan")
    return GaussScanResult(tuple(rows), slope, (lo, q_max))


# ---------------------------------------------------------------------------
# Weyl sums
# ---------------------------------------------------------------------------


def weyl_sum(poly: IntegerPolynomial, body: ConvexBody, N: float,
             phi: Callable[[tuple[int, ...]], complex] | None = None) -> complex:
    """Sum of e(P(n)) phi(n) over the lattice points of the dilate by N."""
    pts = _point_array(body, N, DEFAULT_SUMMAND_CAP)[0]
    rp = RationalPoint.from_fractions([c for _, c in poly.coeffs])
    v = unit_phases(phase_numerators(pts, [g for g, _ in poly.coeffs],
                                     rp.numerators, rp.q), rp.q)
    if phi is not None:
        v = [p * phi(n) for p, n in zip(v.tolist(), map(tuple, pts.tolist()))]
    return complex(running_sums(v)[-1])


# ---------------------------------------------------------------------------
# Rational approximation
# ---------------------------------------------------------------------------


def dirichlet_approx(theta, Q: int) -> ReducedFraction:
    """Best-style rational approximation with denominator at most Q.

    Continued-fraction convergents give a/q with q <= Q and
    |theta - a/q| <= 1/(q (Q+1)) <= 1/q^2.  Exact for binary-float input.
    """
    if Q < 1:
        raise PreconditionError("Q must be >= 1")
    x = Fraction(theta)
    a0 = math.floor(x)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = a0, 1
    rem = x - a0
    while rem != 0:
        x = 1 / rem
        a = math.floor(x)
        rem = x - a
        p_nxt, q_nxt = a * p_cur + p_prev, a * q_cur + q_prev
        if q_nxt > Q:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
    out = ReducedFraction.make(p_cur, q_cur)
    err = abs(Fraction(theta) - out.value)
    if not err <= Fraction(1, out.q * (Q + 1)):
        raise AssertionError("approximation quality violated")
    if not err <= Fraction(1, out.q * out.q):
        raise AssertionError("approximation is not within 1/q^2")
    return out


def dirichlet_rescale(theta, a: int, q: int, Q: int, M) -> ReducedFraction:
    """Rescaled approximation: from a/q near theta to a'/q' near Q*theta.

    Requires |theta - a/q| <= 1/q^2 with gcd(a, q) = 1 and 0 <= a < q <= M.
    Returns a'/q' with |Q*theta - a'/q'| <= 1/(2 q' M) and q/(2Q) <= q' <= 2M.
    """
    theta = Fraction(theta)
    M_int = int(math.floor(M))
    if Q < 1:
        raise PreconditionError("Q must be >= 1")
    if not (0 <= a < q and q <= M):
        raise PreconditionError("need 0 <= a < q <= M")
    if math.gcd(a, q) != 1:
        raise PreconditionError("a/q must be reduced")
    if abs(theta - Fraction(a, q)) > Fraction(1, q * q):
        raise PreconditionError("theta is not within 1/q^2 of a/q")
    out = dirichlet_approx(Q * theta, 2 * M_int)
    err = abs(Q * theta - out.value)
    if not err * 2 * out.q * M_int <= 1:
        raise AssertionError("rescaled approximation quality violated")
    if not Fraction(q, 2 * Q) <= out.q <= 2 * M_int:
        raise AssertionError("rescaled denominator out of range")
    return out


# ---------------------------------------------------------------------------
# Generalized Vandermonde change of variables
# ---------------------------------------------------------------------------


def _solve_fraction_system(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals (square, nonsingular)."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _homogeneous_indices(k: int, l: int) -> list[tuple[int, ...]]:
    return sorted(g for g in product(range(l + 1), repeat=k) if degree(g) == l)


@dataclass(frozen=True)
class VandermondeSystem:
    """Unimodular shears and the integer identities recovering one coefficient.

    ``matrices[j]`` is the shear x -> (x1, x2 + (j+1)^mu2 x1, ..., xk + (j+1)^muk x1).
    For each target index of total degree ``l``, ``coefficients`` holds integers
    (c0, (c1, ..., c_nu)) with c0 > 0 such that c0 * theta equals the integer
    combination sum_j c_j sigma_j of the x1^l coefficients of the sheared forms.
    """

    k: int
    l: int
    mu: tuple[int, ...]
    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    coefficients: dict

    @property
    def nu(self) -> int:
        return len(self.matrices)

    def coefficients_for(self, gamma0: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        return self.coefficients[tuple(gamma0)]


def vandermonde_automorphisms(k: int, l: int) -> VandermondeSystem:
    """Build the shear family and exact recovery coefficients for degree-l forms.

    The exponent weights are mu_i = B^(i-1) with B = l*k + 1, doubled on a
    collision of the derived exponents (a base-B digit argument shows the
    first choice already works; the retry is a guard, not an expectation).
    """
    if k < 1 or l < 1:
        raise PreconditionError("need k >= 1 and l >= 1")
    alphas = _homogeneous_indices(k, l)
    nu = len(alphas)
    if nu != math.comb(l + k - 1, k - 1):
        raise AssertionError("wrong number of homogeneous indices")
    B = l * k + 1
    for _ in range(_MAX_DOUBLINGS):
        mu = tuple(B ** i for i in range(k))   # mu_1 = 1 < mu_2 < ...
        # sigma_j = sum_alpha theta_alpha j^(e(alpha)), e(alpha) = sum_{i>=2} mu_i alpha_i
        exps = [sum(mu[i] * a[i] for i in range(1, k)) for a in alphas]
        if len(set(exps)) == nu:
            break
        B *= 2
    else:
        raise RuntimeError(
            f"failed to separate exponents within {_MAX_DOUBLINGS} doublings of the base")

    matrices = []
    for j in range(1, nu + 1):
        rows = []
        for i in range(k):
            row = [0] * k
            row[i] = 1
            if i >= 1:
                row[0] = j ** mu[i]
            rows.append(tuple(row))
        matrices.append(tuple(rows))

    # V[alpha][j] = (j+1)^e(alpha); solve V c = c0 e_{gamma0} exactly per target
    V = [[Fraction((j + 1) ** e) for j in range(nu)] for e in exps]
    coeffs = {}
    for idx, gamma0 in enumerate(alphas):
        rhs = [Fraction(1 if i == idx else 0) for i in range(nu)]
        x = _solve_fraction_system([row[:] for row in V], rhs)
        c0 = math.lcm(*(xi.denominator for xi in x))
        cj = tuple(int(xi * c0) for xi in x)
        coeffs[gamma0] = (c0, cj)
    return VandermondeSystem(k, l, mu, tuple(matrices), coeffs)


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for g1, c1 in p.items():
        for g2, c2 in q.items():
            g = tuple(a + b for a, b in zip(g1, g2))
            out[g] = out.get(g, Fraction(0)) + c1 * c2
    return {g: c for g, c in out.items() if c != 0}


def _poly_pow(p: dict, e: int, k: int) -> dict:
    out = {(0,) * k: Fraction(1)}
    for _ in range(e):
        out = _poly_mul(out, p)
    return out


def compose_coefficient(poly: IntegerPolynomial, L: Sequence[Sequence[int]],
                        target: Sequence[int]) -> Fraction:
    """Coefficient of x^target in P(L x), by exact multinomial expansion."""
    k = poly.k
    target = tuple(target)
    linear_forms = []
    for i in range(k):
        form = {}
        for j in range(k):
            c = int(L[i][j])
            if c:
                g = tuple(1 if m == j else 0 for m in range(k))
                form[g] = Fraction(c)
        linear_forms.append(form)
    total: dict = {}
    for g, c in poly.coeffs:
        term = {(0,) * k: c}
        for i, e in enumerate(g):
            if e:
                term = _poly_mul(term, _poly_pow(linear_forms[i], e, k))
        for gg, cc in term.items():
            total[gg] = total.get(gg, Fraction(0)) + cc
    return total.get(target, Fraction(0))


# ---------------------------------------------------------------------------
# Weyl bound reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylReport:
    N: float
    q: int
    a: int
    gamma0: tuple[int, ...]
    epsilon: float
    sum_modulus: float
    kappa: float
    bound: float
    ratio: float
    wooley_bound: float | None
    wooley_ratio: float | None


def weyl_bound_report(poly: IntegerPolynomial, body: ConvexBody, N: float,
                      gamma0: Sequence[int], a: int, q: int, epsilon: float,
                      phi=None) -> WeylReport:
    """Evaluate a Weyl sum against the shape N^k kappa^(-eps) log(N+1).

    kappa = min(q, N^{|gamma0|}/q).  For one variable the record also carries
    the logarithmic-loss bound N log N (1/q + 1/N + q/N^d)^(1/(2d^2-2d+1)).
    """
    gamma0 = tuple(gamma0)
    if not N > 0 or degree(gamma0) < 1:
        raise PreconditionError("need N > 0 and a nonconstant monomial gamma0")
    if q < 1 or math.gcd(abs(a), q) != 1:
        raise PreconditionError("a/q must be reduced with q >= 1")
    xi0 = poly.coeff(gamma0)
    if abs(xi0 - Fraction(a, q)) > Fraction(1, q * q):
        raise PreconditionError("leading coefficient is not within 1/q^2 of a/q")
    S = weyl_sum(poly, body, N, phi=phi)
    l = degree(gamma0)
    kappa = min(float(q), float(N) ** l / q)
    bound = float(N) ** body.k * kappa ** (-epsilon) * math.log(N + 1.0)
    ratio = abs(S) / bound if bound > 0 else math.inf
    wooley_bound = wooley_ratio = None
    if body.k == 1 and poly.degree >= 2:
        d = poly.degree
        wexp = 1.0 / (2 * d * d - 2 * d + 1)
        wooley_bound = float(N) * math.log(float(N)) * (1.0 / q + 1.0 / N + q / float(N) ** d) ** wexp
        wooley_ratio = abs(S) / wooley_bound if wooley_bound > 0 else math.inf
    return WeylReport(N, q, a, gamma0, epsilon, abs(S), kappa, bound, ratio,
                      wooley_bound, wooley_ratio)
