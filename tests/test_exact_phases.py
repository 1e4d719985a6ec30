"""The exact-phase path against the per-point evaluators it replaced.

The oracles below are the former library loops: every phase numerator is
built point by point from Python-integer powers (``pow`` or
``canonical_map``), and sums are accumulated one term at a time.  The
vectorized path performs the same floating-point operations in the same
order, so its results must be equal to theirs, not merely close.
"""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radonlab import (IntegerPolynomial, MultiIndexSet, RationalPoint, cube,
                      cz_inverse, cz_product, cz_quadrupole, discrete_multiplier,
                      ellipsoid, euclidean_ball, full_degree_set, gauss_decay_scan,
                      gauss_sum, lattice_points, multiplier_breakpoint_profile,
                      unit_phase, weyl_sum)
from radonlab.expsums import factorize, phase_numerators
from radonlab.multiindex import canonical_map, degree
from radonlab.multipliers import _halfwidth, _xi_entries

IV = euclidean_ball(1)
G1 = full_degree_set(1, 1)
G12 = full_degree_set(1, 2)
G13 = full_degree_set(1, 3)
G22 = full_degree_set(2, 2)
SQUARE = MultiIndexSet.from_indices(1, [(2,)])


# -- oracles: the former per-point evaluators -----------------------------------


def phase_numerators_oracle(points, monomials, nums, Q):
    """Exact powers in Python integers, reduced mod Q only at the end."""
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


def gauss_sum_oracle(point, gammas, k):
    q = point.q
    counts = [0] * q
    for r in product(range(1, q + 1), repeat=k):
        num = 0
        for a, g in zip(point.numerators, gammas.members):
            m = 1
            for ri, e in zip(r, g):
                if e:
                    m = (m * pow(ri, e, q)) % q
            num = (num + a * m) % q
        counts[num] += 1
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    return complex(np.dot(counts, roots)) / q ** k


def gauss_max_oracle(q, gammas):
    """The k = 1 scan's FFT over a residue-count table filled point by point."""
    d = len(gammas)
    shape = (q,) * d
    table = np.zeros(shape, dtype=np.float64)
    for r in range(1, q + 1):
        table[tuple(pow(r, degree(g), q) for g in gammas.members)] += 1.0
    spec = np.abs(np.fft.fftn(table))
    mask = np.ones(shape, dtype=bool)
    coords = np.indices(shape)
    for p, _ in factorize(q):
        bad = np.ones(shape, dtype=bool)
        for axis in range(d):
            bad &= (coords[axis] % p) == 0
        mask &= ~bad
    spec = np.where(mask, spec, -1.0)
    arg = np.unravel_index(int(np.argmax(spec)), shape)
    return float(spec[arg]) / q, tuple(int(a) for a in arg)


def weyl_sum_oracle(poly, body, N, phi=None):
    Q = math.lcm(*[c.denominator for _, c in poly.coeffs] or [1])
    numer = [(g, int(c * Q)) for g, c in poly.coeffs]
    table = np.exp(2j * np.pi * np.arange(Q) / Q) if Q <= 1 << 16 else None
    total = 0j
    for n in lattice_points(body, N):
        num = 0
        for g, a in numer:
            m = 1
            for ni, e in zip(n, g):
                if e:
                    m = (m * pow(int(ni), e, Q)) % Q
            num = (num + a * m) % Q
        v = table[num] if table is not None else unit_phase(num / Q)
        if phi is not None:
            v *= phi(n)
        total += v
    return total


def phase_function_oracle(xi, gammas):
    """y -> e(xi . y^Gamma), through canonical_map at every point."""
    values, exact = _xi_entries(xi, gammas)
    if exact:
        fr = [Fraction(v) for v in values]
        Q = math.lcm(*(f.denominator for f in fr)) if fr else 1
        nums = [int(f * Q) for f in fr]
        table = np.exp(2j * np.pi * np.arange(Q) / Q) if Q <= 1 << 16 else None

        def phase(y):
            num = 0
            for a, m in zip(nums, canonical_map(y, gammas)):
                num = (num + a * (m % Q)) % Q
            return complex(table[num]) if table is not None else unit_phase(num / Q)

        return phase

    vals = [float(v) for v in values]

    def phase_f(y):
        acc = 0.0
        for a, m in zip(vals, canonical_map(y, gammas)):
            acc = (acc + a * m) % 1.0
        return unit_phase(acc)

    return phase_f


def discrete_multiplier_oracle(flavor, body, t, gammas, xi, cz=None):
    phase = phase_function_oracle(xi, gammas)
    pts = lattice_points(body, 2.0 ** t)
    total = 0j
    for y in pts:
        if flavor == "averaging":
            total += phase(y)
        elif any(y):
            total += phase(y) * complex(cz.evaluate(y))
    return total / len(pts) if flavor == "averaging" else total


def profile_oracle(flavor, body, gammas, xi, t_lo, t_hi, cz=None):
    w = _halfwidth(body)
    phase = phase_function_oracle(xi, gammas)

    def j_at(t):
        bound = Fraction(2.0 ** t) * w
        return max(0, (bound.numerator - 1) // bound.denominator)

    j_lo, j_hi = j_at(t_lo), j_at(t_hi)
    S = phase((0,)) if flavor == "averaging" else 0j
    out = [(0, S)] if j_lo == 0 else []
    for j in range(1, j_hi + 1):
        if flavor == "averaging":
            S += phase((j,)) + phase((-j,))
        else:
            S += phase((j,)) * complex(cz.evaluate((j,)))
            S += phase((-j,)) * complex(cz.evaluate((-j,)))
        if j >= j_lo:
            out.append((j, S / (2 * j + 1) if flavor == "averaging" else S))
    return out


# -- phase_numerators --------------------------------------------------------------


@st.composite
def phase_cases(draw):
    k = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(-60, 60), st.integers(-2 ** 70, 2 ** 70))
    points = draw(st.lists(st.tuples(*[coord] * k), max_size=25))
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 5)] * k), min_size=1, max_size=5))
    nums = draw(st.lists(st.integers(-2 ** 40, 2 ** 40),
                         min_size=len(monomials), max_size=len(monomials)))
    Q = draw(st.one_of(st.integers(1, 2 ** 31 - 1), st.integers(2 ** 31, 2 ** 80),
                       st.sampled_from([2 ** 16, 2 ** 16 + 1, 2 ** 31 - 1, 2 ** 31])))
    return points, monomials, nums, Q


@settings(max_examples=300, deadline=None)
@given(phase_cases())
@example(([(2 ** 63 - 1,), (-2 ** 63,), (-1,)], [(3,), (1,)], [5, -2 ** 35], 2 ** 31 - 1))
@example(([(-1, 2 ** 64 - 1)], [(1, 2)], [1], 97))     # numpy would store it as floats
@example(([], [(2,)], [1], 7))
def test_phase_numerators_match_exact_powers(case):
    points, monomials, nums, Q = case
    got = phase_numerators(points, monomials, nums, Q)
    assert got.dtype == (np.int64 if Q < 2 ** 31 else object)
    assert [int(v) for v in got] == phase_numerators_oracle(points, monomials, nums, Q)


def test_phase_numerators_accept_int64_arrays():
    rng = np.random.default_rng(5)
    pts = rng.integers(-2 ** 40, 2 ** 40, size=(200, 2))
    mons, nums = [(1, 2), (3, 0), (0, 1)], [7, -3, 2 ** 33]
    for Q in (97, 2 ** 31 - 1, 2 ** 45 + 3):
        want = phase_numerators_oracle(pts.tolist(), mons, nums, Q)
        assert phase_numerators(pts, mons, nums, Q).tolist() == want


# -- differential tests against the oracles ---------------------------------------


def test_gauss_sum_equals_oracle():
    rng = random.Random(71)
    for gammas, k, qs in ((G12, 1, range(1, 40)), (G13, 1, (41, 64, 101)),
                          (SQUARE, 1, (2, 9, 199)), (G22, 2, (1, 2, 6, 13, 25)),
                          (MultiIndexSet.from_indices(3, [(1, 1, 1), (2, 0, 1)]), 3, (3, 8))):
        for q in qs:
            pt = RationalPoint.make([rng.randrange(q) for _ in gammas.members], q)
            assert gauss_sum(pt, gammas, k) == gauss_sum_oracle(pt, gammas, k)


def test_gauss_sum_rejects_mismatched_k():
    with pytest.raises(ValueError):
        gauss_sum(RationalPoint.make([1, 1], 5), G12, 2)


def test_gauss_scan_equals_oracle():
    for gammas, q_max in ((G12, 30), (G13, 12), (SQUARE, 41)):
        rows = gauss_decay_scan(gammas, 1, q_max).rows
        assert [(r.max_abs, r.argmax) for r in rows] == \
            [gauss_max_oracle(q, gammas) for q in range(2, q_max + 1)]
    g = MultiIndexSet.from_indices(2, [(1, 1)])
    for row in gauss_decay_scan(g, 2, 7).rows:
        q = row.q
        assert row.max_abs == max(abs(gauss_sum_oracle(RationalPoint.make([a], q), g, 2))
                                  for a in range(1, q + 1) if math.gcd(q, a) == 1)


def test_weyl_sum_equals_oracle():
    rng = random.Random(73)
    phis = (None, lambda n: complex(1 + 0.25 * n[0], -0.5), lambda n: 0.125 * n[0])
    for N in (0.5, 4.5, 64.0, 700.5):
        for Q in (2, 64, 2999, 2 ** 16 + 1, 2 ** 20 + 7, 2 ** 31 + 11, 2 ** 70 + 1):
            coeffs = {(1,): Fraction(rng.randrange(Q), Q), (2,): Fraction(1, 3),
                      (3,): Fraction(-rng.randrange(Q), Q)}
            poly = IntegerPolynomial.make(1, coeffs)
            for phi in phis:
                assert weyl_sum(poly, IV, N, phi=phi) == weyl_sum_oracle(poly, IV, N, phi)
    poly2 = IntegerPolynomial.make(2, {(1, 1): Fraction(3, 17), (2, 0): Fraction(5, 11),
                                       (0, 3): Fraction(1, 2 ** 33)})
    for body in (euclidean_ball(2), cube(2), ellipsoid([1.0, 0.8125])):
        assert weyl_sum(poly2, body, 20.0) == weyl_sum_oracle(poly2, body, 20.0)
    empty = IntegerPolynomial.make(1, {})
    assert weyl_sum(empty, IV, 4.5) == weyl_sum_oracle(empty, IV, 4.5) == 9


FREQUENCIES = ([Fraction(1, 3), Fraction(2, 5)],
               [Fraction(7, 2 ** 17), Fraction(-3, 2 ** 20)],     # table-free Q
               [Fraction(1, 2 ** 32 + 1), Fraction(3, 2)],         # object residues
               [0.1234, -0.02], [Fraction(1, 2), 0.3],             # float phases
               RationalPoint.make([1, 2], 5))


def test_discrete_multiplier_equals_oracle():
    cz = cz_inverse(IV)
    for t in (0.0, 1.0, 3.3, 7.5):
        for xi in FREQUENCIES:
            for body in (IV, cube(1, 0.75)):
                assert discrete_multiplier("averaging", body, t, G12, xi) == \
                    discrete_multiplier_oracle("averaging", body, t, G12, xi)
            assert discrete_multiplier("singular", IV, t, G12, xi, cz=cz) == \
                discrete_multiplier_oracle("singular", IV, t, G12, xi, cz)
    B2 = euclidean_ball(2)
    for t in (1.5, 4.0):
        for xi in ([Fraction(1, 3), Fraction(2, 5), Fraction(1, 7), 0, Fraction(1, 9)],
                   [0.1, 0.2, -0.3, 0.01, 0.002]):
            assert discrete_multiplier("averaging", B2, t, G22, xi) == \
                discrete_multiplier_oracle("averaging", B2, t, G22, xi)
            for cz2 in (cz_quadrupole(B2), cz_product(B2)):
                assert discrete_multiplier("singular", B2, t, G22, xi, cz=cz2) == \
                    discrete_multiplier_oracle("singular", B2, t, G22, xi, cz2)


def test_breakpoint_profile_equals_oracle():
    cz = cz_inverse(IV)
    for xi in ([Fraction(1, 3)], [Fraction(2, 7), Fraction(1, 5)], [0.123, 0.456],
               [Fraction(1, 2 ** 17), Fraction(3, 2 ** 40)]):
        gammas = G1 if len(xi) == 1 else G12
        for lo, hi in ((0, 1), (0.5, 2.5), (6, 7), (11, 12)):
            for body in (IV, cube(1, 0.6)):
                assert multiplier_breakpoint_profile("averaging", body, gammas, xi, lo, hi) \
                    == profile_oracle("averaging", body, gammas, xi, lo, hi)
            assert multiplier_breakpoint_profile("singular", IV, gammas, xi, lo, hi, cz=cz) \
                == profile_oracle("singular", IV, gammas, xi, lo, hi, cz)
