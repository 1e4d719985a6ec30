import math
import random
from fractions import Fraction

import numpy as np
import pytest

from radonlab import (IntegerPolynomial, LatticeFunction, PreconditionError,
                      apply, apply_on_torus, averaging_kernel, cube, cz_inverse,
                      cz_product, cz_quadrupole, euclidean_ball,
                      full_degree_set, jump_profile,
                      kernel_block_variation_report, lattice_points,
                      radon_along_polynomials, singular_kernel)

IV = euclidean_ball(1)
G1 = full_degree_set(1, 1)
G12 = full_degree_set(1, 2)


# -- kernels -------------------------------------------------------------------


def test_averaging_kernel_example():
    k = averaging_kernel(IV, 1.0, G12)
    d = k.entry_dict()
    assert d[(0, 0)] == pytest.approx(1 / 3)
    assert d[(1, 1)] == pytest.approx(1 / 3)
    assert d[(-1, 1)] == pytest.approx(1 / 3)
    assert k.total_mass() == 1


def test_averaging_kernel_point_mass_at_zero_scale():
    k = averaging_kernel(IV, 0.0, G12)
    assert k.entry_dict() == {(0, 0): 1 + 0j}


def test_averaging_mass_exact_with_collisions():
    g2 = full_degree_set(1, 2)
    for t in (1.0, 2.5, 4.0):
        k = averaging_kernel(IV, t, g2)
        assert k.total_mass() == 1


def test_singular_kernel_example():
    ks = singular_kernel(IV, 1.0, G12, cz_inverse(IV))
    d = ks.entry_dict()
    assert d[(1, 1)] == pytest.approx(1.0)
    assert d[(-1, 1)] == pytest.approx(-1.0)
    assert (0, 0) not in d


def test_singular_kernel_empty_at_zero_scale():
    assert len(singular_kernel(IV, 0.0, G12, cz_inverse(IV))) == 0


def test_singular_size_condition_on_samples():
    ball = euclidean_ball(2)
    for cz in (cz_quadrupole(ball), cz_product(ball)):
        for y in [(1, 0), (2, 3), (-4, 1), (5, -5)]:
            assert abs(cz.evaluate(y)) <= 1.0 / (y[0] ** 2 + y[1] ** 2) + 1e-12


def test_singular_holder_condition_with_recorded_constant():
    rng = random.Random(3)
    cz = cz_inverse(IV)
    for _ in range(200):
        x = rng.uniform(0.5, 10) * rng.choice([-1, 1])
        y = rng.uniform(-abs(x) / 2, abs(x) / 2)
        lhs = abs(cz.evaluate((x,)) - cz.evaluate((x + y,)))
        rhs = cz.holder_constant * abs(y) ** cz.sigma * abs(x) ** (-1 - cz.sigma)
        assert lhs <= rhs + 1e-12


def test_singular_discrete_cancellation_odd_kernel():
    # the full kernel sum vanishes by oddness while the absolute sums grow
    # logarithmically in the radius
    cz = cz_inverse(IV)
    prev_abs = 0.0
    for t in (2.0, 6.0, 10.0, 14.0):
        ks = singular_kernel(IV, t, full_degree_set(1, 2), cz)
        total = sum(v for _, v in ks.entries)
        assert abs(total) <= 1e-9
        tot_abs = ks.norm_l1()
        assert tot_abs > prev_abs
        prev_abs = tot_abs
    assert prev_abs <= 2.0 * 14.0 * math.log(2) + 2.0


def test_radon_along_square_polynomial():
    P = IntegerPolynomial.make(1, {(2,): 1})
    k = radon_along_polynomials([P], IV, 2.0, "averaging")
    d = k.entry_dict()
    assert d[(0,)] == pytest.approx(1 / 7)
    for site in [(1,), (4,), (9,)]:
        assert d[site] == pytest.approx(2 / 7)
    assert k.total_mass() == 1


def test_radon_along_matches_canonical():
    ball = euclidean_ball(2)
    cases = ((IV, G12, cz_inverse(IV)), (ball, full_degree_set(2, 2), cz_quadrupole(ball)))
    for body, gammas, cz in cases:
        # the canonical map is the mapping by the monomials y^gamma
        polys = [IntegerPolynomial.make(body.k, {g: 1}) for g in gammas]
        for t in (0.0, 2.0, 3.5):
            ka = radon_along_polynomials(polys, body, t, "averaging")
            kc = averaging_kernel(body, t, gammas)
            assert ka.entries == kc.entries
            assert ka.multiplicities == kc.multiplicities
            ks = radon_along_polynomials(polys, body, t, "singular", cz=cz)
            assert ks.entries == singular_kernel(body, t, gammas, cz).entries


def test_radon_along_rejects_negative_t():
    P = IntegerPolynomial.make(1, {(2,): 1})
    for flavor in ("averaging", "singular"):
        with pytest.raises(PreconditionError):
            radon_along_polynomials([P], IV, -1.0, flavor, cz=cz_inverse(IV))


# -- application ------------------------------------------------------------------


def test_apply_identity_kernel():
    from radonlab.radon import RadonKernel
    ident = RadonKernel("averaging", 0.0, 2, (((0, 0), 1 + 0j),), (((0, 0), 1),), 1)
    f = LatticeFunction(2, {(1, 2): 3 + 1j, (0, 0): -1j})
    g = apply(ident, f)
    assert g.items() == f.items()


def test_apply_delta_recovers_kernel():
    k = averaging_kernel(IV, 2.0, G12)
    g = apply(k, LatticeFunction.delta(2))
    assert g.items() == [(x, v) for x, v in k.entries]


def test_apply_young_inequality():
    rng = random.Random(5)
    k = averaging_kernel(IV, 2.0, G12)
    f = LatticeFunction(2, {(rng.randrange(-4, 5), rng.randrange(-4, 5)):
                            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(12)})
    g = apply(k, f)
    assert g.norm_l1() <= k.norm_l1() * f.norm_l1() + 1e-9
    # equality for nonnegative data
    fpos = LatticeFunction(2, {x: abs(v) for x, v in f.items()})
    gpos = apply(k, fpos)
    assert gpos.norm_l1() == pytest.approx(k.norm_l1() * fpos.norm_l1(), rel=1e-12)


def test_torus_agrees_with_sparse():
    rng = random.Random(7)
    for trial in range(10):
        t = rng.uniform(0.5, 2.5)
        k = averaging_kernel(IV, t, G12)   # image radius up to (5, 25)
        f = LatticeFunction(2, {(rng.randrange(0, 6), rng.randrange(0, 6)):
                                complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                for _ in range(8)})
        g = apply(k, f)
        L = 64
        grid = np.zeros((L, L), complex)
        for x, v in f.items():
            grid[x] = v
        gt = apply_on_torus(k, grid)
        for x, v in g.items():
            assert abs(gt[tuple(c % L for c in x)] - v) <= 1e-9


def test_torus_constant_preserved():
    k = averaging_kernel(IV, 2.0, G12)   # image radius (3, 9)
    grid = np.full((32, 32), 2.5 + 0j)
    out = apply_on_torus(k, grid)
    assert np.allclose(out, 2.5, atol=1e-10)


def test_torus_wraparound_guard():
    k = averaging_kernel(IV, 3.0, G12)   # support radius 7 in coordinate 0
    with pytest.raises(PreconditionError):
        apply_on_torus(k, np.zeros((8, 8), complex))


# -- profiles -----------------------------------------------------------------------


def test_jump_profile_identical_kernels_zero():
    k = averaging_kernel(IV, 2.0, G12)
    fam = [(1.0, k), (2.0, k), (3.0, k)]
    prof = jump_profile(fam, LatticeFunction.delta(2), 2.0, r_values=(2.0,))
    assert prof.jump_norm == 0.0
    assert max(prof.variation(2.0)) == 0.0


def test_jump_profile_delta_finite_and_homogeneous():
    fam = [(t, averaging_kernel(IV, t, G12)) for t in range(1, 7)]
    f = LatticeFunction.delta(2)
    prof = jump_profile(fam, f, 2.0, r_values=(2.0,))
    assert math.isfinite(prof.jump_norm) and prof.jump_norm > 0
    # frozen observed constant for this configuration
    assert prof.jump_norm <= 1.5
    prof3 = jump_profile(fam, f.scaled(3.0), 2.0, r_values=(2.0,))
    assert prof3.jump_norm == pytest.approx(3 * prof.jump_norm, rel=1e-9)
    assert max(prof3.variation(2.0)) == pytest.approx(
        3 * max(prof.variation(2.0)), rel=1e-9)


# -- block variation table -------------------------------------------------------------


def brute_block_v1(body, gammas, tau, n):
    """Independent oracle: materialize the kernel at the block start and just
    above every breakpoint inside the block, then sum consecutive l^1
    differences.  A point of gauge g enters the lattice set just above
    t = log2(g), so a breakpoint with log2(g) in [n^tau, (n+1)^tau) jumps
    inside this block."""
    lo, hi = n ** tau, (n + 1) ** tau
    radii = sorted({abs(y[0]) / body.radius for y in
                    lattice_points(body, 2.0 ** hi + 1).points if y != (0,)})
    bps = [math.log2(r) for r in radii if lo <= math.log2(r) < hi]
    kerns = [averaging_kernel(body, lo, gammas)]
    for tb in bps:
        kerns.append(averaging_kernel(body, tb + 1e-9, gammas))
    total = 0.0
    for ka, kb in zip(kerns, kerns[1:]):
        da, db = ka.entry_dict(), kb.entry_dict()
        total += sum(abs(db.get(x, 0) - da.get(x, 0)) for x in set(da) | set(db))
    return total


def test_block_variation_matches_brute_force():
    rep = kernel_block_variation_report(IV, G1, "averaging", 0.5, 12)
    for row in rep.rows[:12]:
        assert row.value == pytest.approx(
            brute_block_v1(IV, G1, 0.5, row.n), abs=1e-9)


def test_block_variation_degenerate_block_is_zero():
    rep = kernel_block_variation_report(IV, G1, "averaging", 0.5, 5)
    assert rep.rows[2].n == 3 and rep.rows[2].value == 0.0


def test_block_variation_exponent_tau_half():
    rep = kernel_block_variation_report(IV, G1, "averaging", 0.5, 120)
    assert abs(rep.fitted_slope - (-0.5)) <= 0.15


def test_block_variation_singular_flavor_runs():
    rep = kernel_block_variation_report(IV, G1, "singular", 0.5, 20,
                                        cz=cz_inverse(IV))
    assert all(r.value >= 0 for r in rep.rows)
    assert any(r.value > 0 for r in rep.rows)


# -- serialization -----------------------------------------------------------------------


def test_lattice_function_text_roundtrip():
    f = LatticeFunction(2, {(3, -1): 1.5 - 2j, (0, 4): 0.25j})
    g = LatticeFunction.from_text(f.to_text())
    assert g.items() == f.items()
    assert LatticeFunction.from_json(f.to_json()).items() == f.items()


def test_lattice_function_prunes_zeros():
    f = LatticeFunction(1, {(0,): 0.0, (2,): 1.0})
    assert len(f) == 1


@pytest.mark.parametrize("site", [(1.5,), (2.0,), (Fraction(1, 2),), ("2",)])
def test_lattice_function_refuses_non_integer_sites(site):
    with pytest.raises(PreconditionError, match="coordinates must be integers"):
        LatticeFunction(1, {site: 1.0})
    f = LatticeFunction(1)
    with pytest.raises(PreconditionError, match="coordinates must be integers"):
        f[site] = 1.0
    assert len(f) == 0


def test_lattice_function_stores_python_integer_sites():
    f = LatticeFunction(2, {(np.int64(3), 1): 1.0})
    f[(np.int32(-1), 2)] = 2.0
    assert f.sites() == [(-1, 2), (3, 1)]
    assert all(type(c) is int for x in f.sites() for c in x)
