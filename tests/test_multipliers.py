import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import radonlab.multipliers as mp
from radonlab import (OscillationBudgetError,
                      PreconditionError, RationalPoint, box_average_multiplier,
                      box_neighborhood_report, continuous_symbol, cz_inverse,
                      cz_quadrupole, dirichlet_kernel_identity,
                      discrete_multiplier, euclidean_ball, full_degree_set,
                      gauss_sum, major_arc_error, multiplier_breakpoint_profile,
                      multiplier_increment_report, singular_kernel,
                      symbol_decay_scan, unit_phase)

IV = euclidean_ball(1)
G1 = full_degree_set(1, 1)
G12 = full_degree_set(1, 2)


# -- discrete multipliers ------------------------------------------------------


def test_multiplier_at_zero():
    assert discrete_multiplier("averaging", IV, 3.0, G12,
                               [Fraction(0), Fraction(0)]) == pytest.approx(1.0)


def test_singular_multiplier_at_zero_odd_kernel():
    v = discrete_multiplier("singular", IV, 5.0, G12,
                            [Fraction(0), Fraction(0)], cz=cz_inverse(IV))
    assert abs(v) <= 1e-12


def test_multiplier_alternating_example():
    v = discrete_multiplier("averaging", IV, 2.0, G1, [Fraction(1, 2)])
    assert v == pytest.approx(-1 / 7, abs=1e-12)
    assert abs(v) == pytest.approx(1 / 7, abs=1e-12)


def test_multiplier_matches_naive_dft():
    rng = random.Random(3)
    from radonlab import averaging_kernel
    for _ in range(200):
        t = rng.uniform(0.5, 3.5)
        q = rng.randrange(1, 30)
        a = [rng.randrange(0, q) for _ in range(2)]
        xi = [Fraction(a[0], q), Fraction(a[1], q)]
        m = discrete_multiplier("averaging", IV, t, G12, xi)
        kern = averaging_kernel(IV, t, G12)
        naive = sum(w * cmath.exp(2j * math.pi * (float(xi[0]) * x[0] +
                                                  float(xi[1]) * x[1]))
                    for x, w in kern.entries)
        assert m == pytest.approx(naive, abs=1e-10)


def test_multiplier_integer_periodicity():
    rng = random.Random(5)
    for _ in range(10):
        xi = [Fraction(rng.randrange(0, 7), 7), Fraction(rng.randrange(0, 5), 5)]
        shifted = [xi[0] + 1, xi[1] - 2]
        a = discrete_multiplier("averaging", IV, 2.5, G12, xi)
        b = discrete_multiplier("averaging", IV, 2.5, G12, shifted)
        assert a == pytest.approx(b, abs=1e-12)


def test_breakpoint_profile_covers_interval():
    prof = multiplier_breakpoint_profile("averaging", IV, G1, [Fraction(1, 3)],
                                         2.0, 3.0)
    js = [j for j, _ in prof]
    assert js[0] == 3 and js[-1] == 7    # strict sets at 2^2 and 2^3
    for j, m in prof:
        want = discrete_multiplier("averaging", IV, math.log2(j) + 1e-9, G1,
                                   [Fraction(1, 3)])
        assert m == pytest.approx(want, abs=1e-12)


# -- continuous symbols ------------------------------------------------------------


def test_symbol_at_zero_is_one():
    ev = continuous_symbol("averaging", IV, 4.0, G12, [Fraction(0), Fraction(0)])
    assert ev.value == pytest.approx(1.0, abs=1e-10)


def test_symbol_matches_sinc():
    for t, xi in [(2.0, 0.11), (4.0, 0.031), (3.0, -0.07)]:
        ev = continuous_symbol("averaging", IV, t, G1, [xi])
        x = 2 * math.pi * 2.0 ** t * xi
        assert ev.value.real == pytest.approx(math.sin(x) / x, abs=1e-9)
        assert abs(ev.value.imag) <= 1e-9


def test_symbol_modulus_bounded():
    rng = random.Random(7)
    for _ in range(10):
        xi = [rng.uniform(-0.1, 0.1), rng.uniform(-0.01, 0.01)]
        ev = continuous_symbol("averaging", IV, 3.0, G12, xi)
        assert abs(ev.value) <= 1 + 1e-9


def test_symbol_oscillation_budget(monkeypatch):
    monkeypatch.setattr(mp, "DEFAULT_OSCILLATION_BUDGET", 100.0)
    with pytest.raises(OscillationBudgetError):
        continuous_symbol("averaging", IV, 20.0, G1, [0.5])


def test_singular_symbol_zero_at_zero():
    ev = continuous_symbol("singular", IV, 4.0, G1, [Fraction(0)], cz=cz_inverse(IV))
    assert abs(ev.value) <= 1e-10


def test_singular_symbol_against_quadrature_oracle():
    # independent oracle: dense trapezoid on the paired integrand
    cz = cz_inverse(IV)
    t, xi = 3.0, 0.05
    ev = continuous_symbol("singular", IV, t, G1, [xi], cz=cz)
    R = 2.0 ** t
    n = 400000
    ys = np.linspace(1e-9, R, n)
    vals = (np.exp(2j * np.pi * xi * ys) - np.exp(-2j * np.pi * xi * ys)) / ys
    want = np.trapezoid(vals, ys)
    assert ev.value == pytest.approx(complex(want), abs=1e-6)


def test_ball2_symbol_radial_oracle():
    # radially symmetric frequency: compare against a dense 2d Riemann sum
    ball = euclidean_ball(2)
    g = full_degree_set(2, 1)
    ev = continuous_symbol("averaging", ball, 2.0, g, [0.05, -0.02])
    R = 4.0
    n = 600
    xs = np.linspace(-R, R, n)
    X, Y = np.meshgrid(xs, xs)
    mask = X ** 2 + Y ** 2 < R ** 2
    ph = 0.05 * Y - 0.02 * X   # lex order: (0,1) then (1,0)
    want = np.exp(2j * np.pi * ph)[mask].mean()
    assert ev.value == pytest.approx(complex(want), abs=2e-3)


# -- major arc reports ---------------------------------------------------------------


def test_major_arc_hand_example():
    # N=2, q=2, degree-1 set: m = -1/7 at 1/2, G(1/2) = 0
    rep = major_arc_error("averaging", IV, G1, 2, RationalPoint.make([1], 2))
    assert rep.sup_error == pytest.approx(1 / 7, abs=1e-12)
    assert rep.ratio_leading == pytest.approx((1 / 7) / (2 * 0.25), abs=1e-12)


def test_major_arc_zero_at_zero_frequency():
    rep = major_arc_error("averaging", IV, G12, 6, RationalPoint.make([0, 0], 1))
    assert rep.sup_error <= 1e-12


def test_major_arc_ratio_bounded_across_scales():
    pt = RationalPoint.make([1, 1], 3)
    ratios = []
    for N in range(4, 11):
        rep = major_arc_error("averaging", IV, G12, N, pt)
        ratios.append(rep.ratio_leading)
    assert max(ratios) <= 2.0   # frozen observed constant for this family


def test_major_arc_offset_grid_path():
    theta = (Fraction(1, 2 ** 8), Fraction(1, 2 ** 16))
    rep = major_arc_error("averaging", IV, G12, 8, RationalPoint.make([0, 0], 1),
                          theta=theta)
    assert rep.quasi_term > 0
    assert rep.sup_error <= 2.0 * (rep.scale_term + rep.quasi_term)


def test_major_arc_singular_difference_form():
    pt = RationalPoint.make([1], 2)
    rep = major_arc_error("singular", IV, G1, 4, pt, cz=cz_inverse(IV))
    assert math.isfinite(rep.sup_error)
    assert rep.holder_term > 0


# -- increment reports ------------------------------------------------------------------


def test_increment_report_zero_when_degenerate():
    # frequency 0 never changes: all multiplier values equal 1
    with pytest.raises(PreconditionError):
        multiplier_increment_report("averaging", IV, G12, 6, (2,), 0, 1,
                                    [Fraction(0), Fraction(0)])


def test_increment_report_minor_arc_sample():
    N = 10
    q = 2 ** 9 + 1
    xi = [Fraction(0), Fraction(1, q)]
    rep = multiplier_increment_report("averaging", IV, G12, N, (2,), 1, q, xi)
    assert rep.beta_max > 0
    assert rep.sup_increment <= 1.0 / N   # observed desk-scale smallness
    # alpha rows report sup * N^alpha
    assert rep.alpha_rows[0][1] == pytest.approx(
        rep.sup_increment * N ** rep.alpha_rows[0][0])


# -- box multiplier -----------------------------------------------------------------------


def test_box_multiplier_one_at_zero():
    bm = box_average_multiplier(9, 0.9, G12)
    assert bm.value((Fraction(0), Fraction(0))) == pytest.approx(1.0)


def test_box_multiplier_periodicity():
    bm = box_average_multiplier(9, 0.9, G12)
    xi = (Fraction(2, 7), Fraction(3, 11))
    shifted = (xi[0] + 1, xi[1] + 3)
    assert bm.value(xi) == pytest.approx(bm.value(shifted), abs=1e-14)


def test_box_multiplier_matches_direct_sum():
    bm = box_average_multiplier(10, 0.9, G12)
    assert bm.L > 1
    rng = random.Random(11)
    for _ in range(10):
        xi = (Fraction(rng.randrange(0, 13), 13), Fraction(rng.randrange(0, 9), 9))
        direct = 1.0 + 0j
        for v in xi:
            direct *= sum(unit_phase(float((Fraction(j) * v) % 1))
                          for j in range(bm.L)) / bm.L
        assert bm.value(xi) == pytest.approx(direct, abs=1e-12)


def test_box_neighborhood_q1_superpolynomial_closeness():
    # with the default box exponent the box side exceeds one from N = 26 on,
    # and the neighborhood radius is already well below the box resolution
    for N in (26, 36, 49, 64):
        bm = box_average_multiplier(N, 0.5, G12)
        rep = box_neighborhood_report(bm, RationalPoint.make([0, 0], 1))
        assert rep.center_error <= 1e-12
        assert rep.sup_error <= 1.0 / N ** 2


def test_box_small_n_side_collapses_to_one():
    # at desk-scale N the default box has a single integer per coordinate and
    # the multiplier is identically 1; the zero-fraction comparison is exact
    for N in (4, 8, 12):
        bm = box_average_multiplier(N, 0.5, G12)
        assert bm.L == 1
        rep = box_neighborhood_report(bm, RationalPoint.make([0, 0], 1))
        assert rep.sup_error <= 1.0 / N ** 2


def test_box_neighborhood_documents_q2_gap():
    # at the degenerate fraction (1,1)/2 the box multiplier stays near zero
    # while the arithmetic factor equals one, so the gap does not close; the
    # reports exist to record the largest q that verifies per N
    bm = box_average_multiplier(49, 0.5, G12)
    assert bm.L > 1
    rep = box_neighborhood_report(bm, RationalPoint.make([1, 1], 2))
    assert abs(rep.gauss_value - 1) <= 1e-12
    assert rep.center_error >= 0.5


# -- full-residue kernel identity --------------------------------------------------------


def test_kernel_identity_examples():
    assert dirichlet_kernel_identity(3, 1, (3,)) == 3
    assert dirichlet_kernel_identity(3, 1, (1,)) == 0
    assert dirichlet_kernel_identity(2, 2, (1, 2)) == 0


def test_kernel_identity_exhaustive_small():
    for q in range(1, 8):
        for d in (1, 2):
            from itertools import product
            for x in product(range(-6, 7), repeat=d):
                want = q ** d if all(c % q == 0 for c in x) else 0
                assert dirichlet_kernel_identity(q, d, x) == want


# -- decay scans ---------------------------------------------------------------------------


def test_decay_scan_averaging_interval():
    res = symbol_decay_scan("averaging", IV, G1, [2.0, 4.0, 6.0],
                            [[0.02], [0.004], [0.2]])
    # sinc decay: |Phi| * (2^t q*) is bounded by 1/pi modulo the first lobe
    assert res.max_decay_ratio <= 1.5
    assert res.max_smallness_ratio <= 4.0
    for row in res.rows:
        assert row.symbol_mod <= 1 + 1e-9


def test_decay_scan_smallness_linear_near_zero():
    # |Phi - 1| ~ (2 pi R xi)^2 / 6, so the smallness ratio shrinks with xi
    rows = []
    for xi in (1e-3, 1e-4, 1e-5):
        res = symbol_decay_scan("averaging", IV, G1, [3.0], [[xi]])
        rows.append(res.max_smallness_ratio)
    assert rows[0] > rows[1] > rows[2]


def test_decay_scan_singular_zero_limit():
    res = symbol_decay_scan("singular", IV, G1, [3.0], [[0.01]],
                            cz=cz_inverse(IV))
    row = res.rows[0]
    # singular limit is 0, so with d = 1 the two ratios are tied through q*
    assert row.symbol_mod == pytest.approx(row.smallness_ratio * row.quasi,
                                           rel=1e-9)


@pytest.mark.parametrize("t", [-1.0, 1024.0, float("nan")])
def test_scales_outside_the_dilation_range_are_refused(t):
    xi = [Fraction(1, 3), Fraction(1, 5)]
    calls = (lambda: discrete_multiplier("averaging", IV, t, G12, xi),
             lambda: multiplier_breakpoint_profile("averaging", IV, G12, xi, t, 2.0),
             lambda: continuous_symbol("averaging", IV, t, G12, [0.01, 0.0]),
             lambda: symbol_decay_scan("averaging", IV, G1, [t], [[0.01]]))
    for call in calls:
        with pytest.raises(PreconditionError):
            call()
