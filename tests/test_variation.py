import math
import random
from itertools import combinations

import pytest

from radonlab import (PathField, SampledPath, block_variation, jump_count,
                      jump_seminorm, r_variation)


# -- independent brute-force oracles ----------------------------------------


def brute_jump_count(values, lam):
    """Max jumps over all increasing subsequences, by full enumeration."""
    n = len(values)
    best = 0
    for size in range(2, n + 1):
        for idx in combinations(range(n), size):
            ok = all(abs(values[idx[j]] - values[idx[j - 1]]) >= lam
                     for j in range(1, size))
            if ok:
                best = max(best, size - 1)
    return best


def brute_r_variation(values, r):
    n = len(values)
    if n < 2:
        return 0.0
    if math.isinf(r):
        return max(abs(values[j] - values[i])
                   for j in range(1, n) for i in range(j))
    best = 0.0
    for size in range(2, n + 1):
        for idx in combinations(range(n), size):
            s = sum(abs(values[idx[j]] - values[idx[j - 1]]) ** r
                    for j in range(1, size))
            best = max(best, s)
    return best ** (1.0 / r)


def random_path(rng, n):
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


# -- jump counting -----------------------------------------------------------


def test_jump_count_examples():
    assert jump_count([0, 1, 0, 1], 1.0) == 3
    assert jump_count([5, 5, 5], 0.5) == 0
    assert jump_count([0, 0.4, 1.0], 1.0) == 1


def test_jump_count_outlier_start():
    # a chain need not start at the first sample
    assert jump_count([1, 0, 2], 2.0) == 1


def test_jump_count_matches_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 9)
        vals = random_path(rng, n)
        lam = rng.uniform(0.05, 1.5)
        assert jump_count(vals, lam) == brute_jump_count(vals, lam)


def test_jump_count_monotone_in_lambda():
    rng = random.Random(5)
    vals = random_path(rng, 12)
    counts = [jump_count(vals, lam) for lam in (0.1, 0.3, 0.7, 1.2)]
    assert counts == sorted(counts, reverse=True)


# -- r-variation --------------------------------------------------------------


def test_r_variation_examples():
    assert r_variation([0, 1, 0, 1], 1.0) == pytest.approx(3.0)
    assert r_variation([0, 1, 0, 1], math.inf) == pytest.approx(1.0)
    assert r_variation([0, 1, 0, 1], 2.0) == pytest.approx(math.sqrt(3))


def test_r_variation_matches_brute_force():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(2, 9)
        vals = random_path(rng, n)
        for r in (1.0, 1.5, 2.0, 3.0, math.inf):
            assert r_variation(vals, r) == pytest.approx(
                brute_r_variation(vals, r), abs=1e-9)


def test_r_variation_monotone_in_r():
    rng = random.Random(17)
    vals = random_path(rng, 10)
    vs = [r_variation(vals, r) for r in (1.0, 1.5, 2.0, 3.0)]
    assert vs == sorted(vs, reverse=True)
    assert r_variation(vals, math.inf) <= vs[-1] + 1e-12


def test_lambda_jump_versus_variation_inequality():
    rng = random.Random(19)
    for _ in range(100):
        vals = random_path(rng, rng.randrange(2, 10))
        for r in (1.0, 2.0, 3.0):
            v = r_variation(vals, r)
            for lam in (0.1, 0.5, 1.0):
                n_lam = jump_count(vals, lam)
                assert lam * n_lam ** (1.0 / r) <= v + 1e-9


# -- jump seminorm ------------------------------------------------------------


def test_jump_seminorm_single_site():
    field = PathField(((0,),), (0.0, 1.0), ((0j, 1 + 0j),))
    assert jump_seminorm(field, 2.0) == pytest.approx(1.0)


def test_jump_seminorm_constant_field():
    field = PathField(((0,), (1,)), (0.0, 1.0, 2.0),
                      ((1j, 1j, 1j), (0j, 0j, 0j)))
    assert jump_seminorm(field, 2.0) == 0.0


def test_jump_seminorm_dominates_each_threshold():
    rng = random.Random(23)
    sites = tuple((i,) for i in range(4))
    times = tuple(float(i) for i in range(6))
    values = tuple(tuple(random_path(rng, 6)) for _ in sites)
    field = PathField(sites, times, values)
    p = 2.5
    j = jump_seminorm(field, p)
    for lam in (0.05, 0.2, 0.6, 1.1):
        total = sum(jump_count(row, lam) ** (p / 2) for row in values)
        assert lam * total ** (1 / p) <= j + 1e-9


def test_jump_seminorm_grid_refinement_monotone():
    # restricting to a sub-grid can only decrease the seminorm
    rng = random.Random(29)
    times = tuple(float(i) for i in range(8))
    row = tuple(random_path(rng, 8))
    field = PathField(((0,),), times, (row,))
    sub = PathField(((0,),), times[::2], (row[::2],))
    assert jump_seminorm(sub, 2.0) <= jump_seminorm(field, 2.0) + 1e-12


# -- block variation -----------------------------------------------------------


def test_block_variation_integer_grid_tau1():
    # tau = 1: blocks [n, n+1] hold at most two grid points; each block
    # contributes a single move
    times = tuple(float(i) for i in range(5))
    row = (0j, 1 + 0j, 1 + 0j, 3 + 0j, 0j)
    field = PathField(((0,),), times, (row,))
    out = block_variation(field, 1.0, 2.0)
    moves = [abs(b - a) for a, b in zip(row, row[1:])]
    assert out[0] == pytest.approx(math.sqrt(sum(m ** 2 for m in moves)))


def test_block_variation_constant_field():
    times = (0.0, 0.7, 1.3, 2.9)
    field = PathField(((0,),), times, ((1j, 1j, 1j, 1j),))
    assert block_variation(field, 0.5, 2.0) == [0.0]


def test_block_variation_r1_consecutive_sums():
    rng = random.Random(31)
    times = tuple(sorted(rng.uniform(0, 9) for _ in range(12)))
    row = tuple(random_path(rng, 12))
    field = PathField(((0,),), times, (row,))
    tau = 1.0
    out = block_variation(field, tau, 1.0)
    acc = 0.0
    n_max = int(math.ceil(max(times))) + 1
    for n in range(n_max + 1):
        idx = [i for i, t in enumerate(times) if n ** tau <= t <= (n + 1) ** tau]
        if len(idx) >= 2:
            v = sum(abs(row[idx[j]] - row[idx[j - 1]]) for j in range(1, len(idx)))
            acc += v ** 2
    assert out[0] == pytest.approx(math.sqrt(acc), abs=1e-9)


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath((0.0, 0.0), (1j, 2j))
    with pytest.raises(ValueError):
        SampledPath((0.0, 1.0), (1j,))


def test_path_field_validates_every_row_like_a_path():
    with pytest.raises(ValueError):
        PathField(((0,),), (0.0, 1.0), ((0j, complex(float("nan"), 0)),))
    with pytest.raises(ValueError):
        PathField(((0,),), (1.0, 1.0), ((0j, 1j),))
    with pytest.raises(ValueError):
        PathField(((0,),), (0.0, 1.0), ((0j,),))


def test_scaling_homogeneity():
    rng = random.Random(37)
    row = tuple(random_path(rng, 7))
    times = tuple(float(i) for i in range(7))
    field = PathField(((0,),), times, (row,))
    c = 3.7
    scaled = PathField(((0,),), times, (tuple(c * v for v in row),))
    assert jump_seminorm(scaled, 2.0) == pytest.approx(c * jump_seminorm(field, 2.0), rel=1e-9)
    assert r_variation([c * v for v in row], 2.0) == pytest.approx(
        c * r_variation(row, 2.0), rel=1e-12)
