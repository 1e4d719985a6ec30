import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radonlab import (BudgetError, PreconditionError, annulus_points, cube,
                      ellipsoid, euclidean_ball, gauge_groups, lattice_points,
                      near_boundary_count)
from radonlab.lattice import dyadic_radius


def brute_points(body, t, bound):
    out = []
    from itertools import product
    for y in product(range(-bound, bound + 1), repeat=body.k):
        if body.gauge_square(y) < Fraction(t) ** 2:
            out.append(y)
    return sorted(out)


def test_ball_k2_t15():
    pts = lattice_points(euclidean_ball(2), 1.5)
    assert len(pts) == 9
    assert (1, 1) in pts and (2, 0) not in pts


def test_small_t_gives_origin():
    for body in (euclidean_ball(2), cube(2), ellipsoid([0.8, 0.5])):
        assert lattice_points(body, 0.5).points == ((0, 0),)


def test_interval_open_boundary():
    assert lattice_points(cube(1), 2.0).points == ((-1,), (0,), (1,))
    # exact boundary point excluded for the ball too: |(3,4)| = 5
    pts = lattice_points(euclidean_ball(2), 5.0)
    assert (3, 4) not in pts and (3, 3) in pts


def test_enumeration_matches_brute_force():
    rng = random.Random(3)
    for body in (euclidean_ball(2), cube(2), ellipsoid([0.9, 0.6])):
        for _ in range(5):
            t = rng.uniform(0.5, 9)
            got = lattice_points(body, t).points
            assert list(got) == brute_points(body, t, int(t) + 2)


def test_annulus_example():
    ann = annulus_points(euclidean_ball(2), 1.5, 2.5)
    assert len(ann) == 12
    assert (1, 1) not in ann and (1, 2) in ann and (2, 0) in ann


def test_annulus_degenerate_and_additive():
    body = euclidean_ball(2)
    assert len(annulus_points(body, 2.5, 2.5)) == 0
    a = set(annulus_points(body, 1.5, 2.5).points)
    b = set(annulus_points(body, 2.5, 3.5).points)
    c = set(annulus_points(body, 1.5, 3.5).points)
    assert a | b == c and not a & b


def test_doubling_ratio_dimensional():
    for body in (euclidean_ball(1), euclidean_ball(2), cube(2)):
        k = body.k
        for t in (8.0, 12.0, 17.0):
            n1 = len(lattice_points(body, t))
            n2 = len(lattice_points(body, 2 * t))
            assert 2 ** k / 2 <= n2 / n1 <= 2 ** k * 2


def test_near_boundary_monotone_in_s():
    body = euclidean_ball(2)
    counts = [near_boundary_count(body, 12.0, s) for s in (1.0, 2.0, 4.0)]
    assert counts == sorted(counts)


def test_near_boundary_saturation():
    body = euclidean_ball(2)
    t = 6.0
    total = near_boundary_count(body, t, body.diameter(t))
    pts_in = len(lattice_points(body, t))
    assert total >= pts_in


def test_near_boundary_oracle_and_frozen_constant():
    # exhaustive distance scan is the oracle; the linear-in-s bound uses a
    # constant calibrated once on this family and then frozen
    body = euclidean_ball(2)
    for R, s in [(12.0, 1.0), (20.0, 1.0), (20.0, 2.0)]:
        count = near_boundary_count(body, R, s)
        brute = 0
        b = int(R + s) + 2
        for x in range(-b, b + 1):
            for y in range(-b, b + 1):
                if abs(math.hypot(x, y) - R) < s:
                    brute += 1
        assert count == brute
        assert count <= 8.0 * s * body.diameter(R)  # frozen C for the 2-ball


def test_near_boundary_precondition():
    with pytest.raises(PreconditionError):
        near_boundary_count(euclidean_ball(2), 10.0, 0.5)


def test_ellipsoid_boundary_distance_against_parametrization():
    body = ellipsoid([1.0, 0.5])
    # a query on the major axis inside the evolute has an off-axis foot point
    assert body.boundary_distance((3, 0), 5.0) == pytest.approx(
        math.sqrt(3.25), abs=1e-9)
    assert body.boundary_distance((0, 1), 5.0) == pytest.approx(1.5, abs=1e-9)
    assert body.boundary_distance((0, 0), 4.0) == pytest.approx(2.0, abs=1e-9)
    rng = random.Random(2)
    thetas = [i * 2 * math.pi / 40000 for i in range(40000)]
    for _ in range(8):
        x = (rng.uniform(-8, 8), rng.uniform(-6, 6))
        d = body.boundary_distance(x, 5.0)
        brute = min(math.hypot(x[0] - 5 * math.cos(th), x[1] - 2.5 * math.sin(th))
                    for th in thetas)
        assert d == pytest.approx(brute, abs=1e-5)


def test_budget_error():
    with pytest.raises(BudgetError):
        lattice_points(euclidean_ball(2), 1000.0, cap=100)


def test_repeated_membership_matches_gauge_square():
    rng = random.Random(23)
    for body, t in ((euclidean_ball(2), 30.5), (cube(2, 0.5), 41.0),
                    (ellipsoid([1.0, 0.75]), 24.0)):
        pts = lattice_points(body, t)
        for _ in range(300):
            y = (rng.randrange(-45, 46), rng.randrange(-45, 46))
            assert (y in pts) == (body.gauge_square(y) < Fraction(t) ** 2)
            assert (list(y) in pts) == (y in pts)


def test_non_finite_dilation_rejected():
    for t in (math.inf, math.nan):
        with pytest.raises(PreconditionError):
            lattice_points(euclidean_ball(2), t)


def test_gauge_groups_ordering_and_membership():
    body = euclidean_ball(2)
    groups = gauge_groups(body, 3.0)
    gauges = [g for g, _ in groups]
    assert gauges == sorted(gauges)
    assert groups[0][1] == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    total = sum(len(p) for _, p in groups)
    assert total == len(lattice_points(body, 3.0)) - 1


def audit_inclusion(body, directions=64, seed=7):
    """Sample sphere directions to confirm B(0, c) <= body <= B(0, 1), with the
    float gauge of the body's axes (summed for balls and ellipsoids, maximized
    for cubes)."""
    fold = max if body.kind == "cube" else sum

    def gauge(x):
        return math.sqrt(fold((v / a) ** 2 for v, a in zip(x, body.axes)))

    rng = random.Random(seed)
    c = body.inner_radius * (1 - 1e-9)
    for _ in range(directions):
        u = [rng.gauss(0, 1) for _ in range(body.k)]
        n = math.sqrt(sum(x * x for x in u)) or 1.0
        u = [x / n for x in u]
        if gauge([c * x for x in u]) >= 1:
            return False
        outside = [(1 + 1e-9) * x for x in u]
        if gauge(outside) < 1 and math.sqrt(sum(x * x for x in outside)) > 1:
            return False
    return True


def test_inclusion_audit():
    for body in (euclidean_ball(2), cube(3), ellipsoid([0.7, 0.4])):
        assert audit_inclusion(body)


def test_cube_must_fit_unit_ball():
    with pytest.raises(ValueError):
        cube(2, halfside=1.0)


# -- the integer scan against the exact per-point gauge ------------------------

# dyadic extents keep the cleared forms in int64; non-dyadic ones (0.1 has a
# 2^55-sized denominator) push the scan onto Python integers
DYADIC = (1.0, 0.8125, 0.75, 0.5, 0.375)
NON_DYADIC = (0.9, 0.7, 0.45, 0.3, 0.1)


@st.composite
def bodies(draw):
    kind = draw(st.sampled_from(("ball", "cube", "ellipsoid")))
    k = draw(st.integers(1, 3))
    extent = st.sampled_from(DYADIC + NON_DYADIC)
    if kind == "ball":
        return euclidean_ball(k, draw(extent))
    if kind == "cube":
        return cube(k, draw(extent.filter(lambda h: h * math.sqrt(k) <= 1)))
    return ellipsoid([draw(extent) for _ in range(k)])


# quarter steps hit exact boundaries of dyadic bodies; floats hit the rest
dilations = st.one_of(st.integers(4, 40).map(lambda n: n / 4),
                      st.floats(1.0, 10.0))


def test_scan_exercises_both_integer_widths():
    assert euclidean_ball(2, 0.75)._scan(9.0, 10 ** 6)[1].dtype == np.int64
    assert euclidean_ball(2, 0.1)._scan(90.0, 10 ** 6)[1].dtype == object


@settings(max_examples=80, deadline=None)
@given(bodies(), dilations)
@example(euclidean_ball(2), 5.0)            # (3, 4) on the boundary
@example(cube(2, 0.5), 6.0)                 # the faces |y_i| = 3
@example(ellipsoid([1.0, 0.75]), 4.0)       # (0, 3) and (4, 0)
@example(ellipsoid([0.1, 0.3, 0.7]), 10.0)  # (1, 0, 0) on the boundary
def test_lattice_points_match_gauge_square_scan(body, t):
    got = lattice_points(body, t).points
    assert list(got) == brute_points(body, t, int(t) + 1)


@settings(max_examples=60, deadline=None)
@given(bodies(), dilations)
@example(euclidean_ball(2), 5.0)
def test_gauge_groups_keys_are_exact_gauges(body, t):
    groups = gauge_groups(body, t)
    # distinct exact gauges may round to one float, so order on the exact ones
    exact = [body.gauge_square(pts[0]) for _, pts in groups]
    assert all(a < b for a, b in zip(exact, exact[1:]))
    for (g, pts), e in zip(groups, exact):
        assert pts == sorted(pts)
        assert all(body.gauge_square(p) == e for p in pts)
        assert g == math.sqrt(float(e))
    flat = sorted(p for _, pts in groups for p in pts)
    assert flat == [p for p in brute_points(body, t, int(t) + 1) if any(p)]


@settings(max_examples=60, deadline=None)
@given(bodies(), st.integers(0, 40).map(lambda n: n / 4), dilations)
@example(euclidean_ball(2), 5.0, 7.0)
def test_annulus_is_difference_of_two_scans(body, t1, t2):
    t1, t2 = sorted((t1, t2))
    ann = annulus_points(body, t1, t2).points
    outer = lattice_points(body, t2).points
    inner = set(lattice_points(body, t1).points)
    assert list(ann) == [p for p in outer if p not in inner]


def test_dyadic_radius_guard():
    assert dyadic_radius(0) == 1.0 and dyadic_radius(1023.5) == 2.0 ** 1023.5
    for t in (-1e-9, -1, 1024, 1e400, float("nan"), float("-inf")):
        with pytest.raises(PreconditionError):
            dyadic_radius(t)
