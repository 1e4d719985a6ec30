"""The array kernel path against the per-point loops it replaced.

The oracles below are the former library loops: every image comes from
``canonical_map`` or ``IntegerPolynomial.evaluate`` point by point, every
kernel entry and every output site is a dictionary update, and every block
variation step is built from ``Fraction``s.  The array path performs the same
floating-point operations in the same order, so its results must have the
same ``repr`` as theirs, down to the insertion order of a ``LatticeFunction``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radonlab import (IntegerPolynomial, LatticeFunction, MultiIndexSet,
                      PreconditionError, apply, apply_on_torus, averaging_kernel,
                      cube, cz_inverse, cz_product, cz_quadrupole, ellipsoid,
                      euclidean_ball, full_degree_set, gauge_groups,
                      kernel_block_variation_report, lattice_points,
                      radon_along_polynomials, singular_kernel)
from radonlab.multiindex import canonical_map
from radonlab.radon import CZKernelSpec, RadonKernel

# -- oracles: the former per-point loops --------------------------------------------


def image_sums_oracle(points, mapper, cz=None):
    acc = {}
    if cz is None:
        for y in points:
            x = mapper(y)
            acc[x] = acc.get(x, 0) + 1
        return acc
    for y in points:
        if any(y):
            x = mapper(y)
            acc[x] = acc.get(x, 0j) + complex(cz.evaluate(y))
    return acc


def kernel_oracle(flavor, body, t, dim, mapper, cz=None):
    pts = lattice_points(body, 2.0 ** t)
    if flavor == "averaging":
        mult = tuple(sorted(image_sums_oracle(pts, mapper).items()))
        entries = tuple((x, complex(m) / len(pts)) for x, m in mult)
        return RadonKernel("averaging", t, dim, entries, mult, len(pts))
    acc = image_sums_oracle(pts, mapper, cz)
    return RadonKernel("singular", t, dim,
                       tuple((x, v) for x, v in sorted(acc.items()) if v != 0))


def canonical_oracle(flavor, body, t, gammas, cz=None):
    return kernel_oracle(flavor, body, t, len(gammas),
                         lambda y: canonical_map(y, gammas), cz)


def polynomial_oracle(polys, body, t, flavor, cz=None):
    return kernel_oracle(flavor, body, t, len(polys),
                         lambda y: tuple(int(p.evaluate(y)) for p in polys), cz)


def apply_oracle(kernel, f):
    acc = {}
    for z, w in kernel.entries:
        for x, v in f.items():
            site = tuple(a + b for a, b in zip(x, z))
            acc[site] = acc.get(site, 0j) + w * v
    return LatticeFunction(f.dim, acc)


def block_report_oracle(body, gammas, flavor, tau, n_max, cz=None):
    """The former incremental loop; returns the per-block totals as floats."""
    groups = gauge_groups(body, 2.0 ** ((n_max + 1) ** tau))
    totals = [Fraction(0) if flavor == "averaging" else 0.0 for _ in range(n_max + 1)]

    def mapper(y):
        return canonical_map(y, gammas)

    mult = {mapper((0,) * body.k): 1}
    count = 1
    for gauge, pts in groups:
        lg = math.log2(gauge) if gauge > 0 else 0.0
        block = int(math.floor(lg ** (1.0 / tau))) if lg > 0 else 0
        while lg >= (block + 1) ** tau:
            block += 1
        while block >= 1 and lg < block ** tau:
            block -= 1
        if block > n_max:
            break
        if flavor == "averaging":
            added = image_sums_oracle(pts, mapper)
            new_count = count + len(pts)
            affected_mass = sum(mult.get(x, 0) for x in added)
            step = Fraction(count - affected_mass) * Fraction(new_count - count,
                                                              count * new_count)
            for x, a in added.items():
                m = mult.get(x, 0)
                step += abs(Fraction(m + a, new_count) - Fraction(m, count))
                mult[x] = m + a
            count = new_count
            totals[block] += step
        else:
            totals[block] += sum(abs(v) for v in image_sums_oracle(pts, mapper, cz).values())
    return [float(totals[n]) for n in range(1, n_max + 1)]


def lattice_function_state(g):
    """Everything a LatticeFunction's methods can observe, as text."""
    return repr((g.dim, list(g._data.items()), g.total(), g.norm_l1()))


# -- strategies -----------------------------------------------------------------------

EXTENTS = (1.0, 0.875, 0.75, 0.6, 0.5, 0.3)


@st.composite
def bodies(draw, k=None):
    k = draw(st.integers(1, 3)) if k is None else k
    kind = draw(st.sampled_from(("ball", "cube", "ellipsoid")))
    extent = st.sampled_from(EXTENTS)
    if kind == "ball":
        return euclidean_ball(k, draw(extent))
    if kind == "cube":
        return cube(k, draw(extent) / math.sqrt(k))
    return ellipsoid([draw(extent) for _ in range(k)])


@st.composite
def index_sets(draw, k):
    pool = [g for g in full_degree_set(k, 3).members]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    return MultiIndexSet.from_indices(k, chosen)


def scales(k):
    """Up to a few thousand lattice points, and t < 1 (the origin alone)."""
    return st.floats(0.0, {1: 8.0, 2: 4.5, 3: 2.75}[k])


def mixed_spec(body):
    """A kernel spec for any k, with signed zeros and complex values."""
    def ev(y):
        s = sum(c * c for c in y)
        return complex(0.0 if y[0] > 0 else -0.0, y[-1] / s) if y[0] % 2 else y[0] / s

    return CZKernelSpec("mixed", body.k, 1.0, 1.0, body, ev)


def kernel_specs(body):
    specs = [mixed_spec(body)]
    if body.k == 1:
        specs.append(cz_inverse(body))
    if body.k == 2:
        specs += [cz_quadrupole(body), cz_product(body)]
    return st.sampled_from(specs)


signed_floats = st.one_of(st.floats(-4, 4, allow_subnormal=True),
                          st.sampled_from((0.0, -0.0, 5e-324, -1e-310, 1e300)))
values = st.builds(complex, signed_floats, signed_floats)


def coordinates(huge: bool):
    """Small, or also on both sides of +-2^62, where sums leave int64."""
    small = st.integers(-6, 6)
    if not huge:
        return small
    return st.one_of(small, st.integers(2 ** 62 - 3, 2 ** 70),
                     st.integers(-2 ** 70, -2 ** 62 + 3))


@st.composite
def functions(draw, dim, huge=False):
    sites = draw(st.lists(st.tuples(*[coordinates(huge)] * dim), max_size=8, unique=True))
    return LatticeFunction(dim, {x: draw(values) for x in sites})


@st.composite
def kernels(draw, dim, huge=False):
    sites = draw(st.lists(st.tuples(*[coordinates(huge)] * dim), max_size=8, unique=True))
    return RadonKernel("singular", 1.0, dim, tuple((x, draw(values)) for x in sites))


# -- kernel builds ------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(bodies(k), index_sets(k), scales(k))))
@example((euclidean_ball(1), full_degree_set(1, 2), 7.0))       # collisions of (y, y^2)
@example((euclidean_ball(2), MultiIndexSet.from_indices(2, [(2, 0), (0, 2)]), 3.5))
@example((ellipsoid([0.3]), MultiIndexSet.from_indices(1, [(3,)]), 0.5))
def test_averaging_kernel_equals_oracle(case):
    body, gammas, t = case
    assert repr(averaging_kernel(body, t, gammas)) == \
        repr(canonical_oracle("averaging", body, t, gammas))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.tuples(bodies(k), index_sets(k), scales(k)).flatmap(
        lambda c: st.tuples(st.just(c), kernel_specs(c[0])))))
@example(((ellipsoid([0.3]), full_degree_set(1, 2), 0.5), cz_inverse(ellipsoid([0.3]))))
@example(((euclidean_ball(2), full_degree_set(2, 1), 3.0), cz_quadrupole(euclidean_ball(2))))
def test_singular_kernel_equals_oracle(case):
    (body, gammas, t), cz = case
    got = singular_kernel(body, t, gammas, cz)
    assert repr(got) == repr(canonical_oracle("singular", body, t, gammas, cz))
    if len(lattice_points(body, 2.0 ** t)) == 1:    # the origin alone
        assert got.entries == ()


coefficients = st.one_of(st.integers(-3, 3), st.integers(2 ** 62, 2 ** 70))


@st.composite
def polynomial_maps(draw, k):
    exps = st.tuples(*[st.integers(0, 3)] * k)
    return [IntegerPolynomial.make(k, draw(st.dictionaries(exps, coefficients, max_size=3)))
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda k: st.tuples(bodies(k), polynomial_maps(k), scales(k))),
    st.sampled_from(("averaging", "singular")))
@example((euclidean_ball(1), [IntegerPolynomial.make(1, {(2,): 1})], 2.0), "averaging")
@example((euclidean_ball(1), [IntegerPolynomial.make(1, {(3,): 2 ** 70, (0,): -1})], 4.0),
         "singular")
def test_radon_along_polynomials_equals_oracle(case, flavor):
    body, polys, t = case
    cz = mixed_spec(body)
    assert repr(radon_along_polynomials(polys, body, t, flavor, cz=cz)) == \
        repr(polynomial_oracle(polys, body, t, flavor, cz))


def test_kernel_images_beyond_int64_are_exact():
    # the dilate by 2^13 holds |y| <= 8191, and 8191^5 > 2^65
    gammas = MultiIndexSet.from_indices(1, [(1,), (5,)])
    got = averaging_kernel(euclidean_ball(1), 13.0, gammas)
    top = max(x[1] for x, _ in got.entries)
    assert top > 2 ** 62 and top == 8191 ** 5
    assert repr(got) == repr(canonical_oracle("averaging", euclidean_ball(1), 13.0, gammas))


# -- sparse apply ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(kernels(d), functions(d))))
def test_apply_equals_oracle(case):
    kernel, f = case
    assert lattice_function_state(apply(kernel, f)) == \
        lattice_function_state(apply_oracle(kernel, f))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(kernels(d, huge=True), functions(d, huge=True))))
@example((RadonKernel("singular", 1.0, 1, (((2 ** 62,), 1 + 0j), ((-3,), 0.5 - 1j))),
          LatticeFunction(1, {(2 ** 62 - 1,): 2j, (2 ** 62 + 2,): -1.0})))
def test_apply_beyond_int64_equals_oracle(case):
    kernel, f = case
    assert lattice_function_state(apply(kernel, f)) == \
        lattice_function_state(apply_oracle(kernel, f))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(lambda k: st.tuples(bodies(k), index_sets(k), scales(k))),
       functions(4))
def test_apply_of_built_kernels_equals_oracle(case, f4):
    body, gammas, t = case
    kernel = averaging_kernel(body, t, gammas)
    f = LatticeFunction(len(gammas), {x[:len(gammas)]: v for x, v in f4.items()})
    assert lattice_function_state(apply(kernel, f)) == \
        lattice_function_state(apply_oracle(kernel, f))


def test_apply_cancellation_prunes_and_keeps_first_touch_order():
    kernel = RadonKernel("singular", 1.0, 1, (((0,), 1 + 0j), ((1,), -1 + 0j)))
    f = LatticeFunction(1, {(0,): 1.0, (1,): 1.0, (5,): -0.0 + 1e-300j})
    g = apply(kernel, f)
    assert list(g._data) == [(0,), (5,), (2,), (6,)]     # (1,) cancels to 0
    assert lattice_function_state(g) == lattice_function_state(apply_oracle(kernel, f))


def test_zero_dimensional_images():
    # every image of the empty polynomial map is the point of Z^0
    body = euclidean_ball(1)
    kernel = radon_along_polynomials([], body, 2.0, "averaging")
    assert repr(kernel) == repr(polynomial_oracle([], body, 2.0, "averaging"))
    f = LatticeFunction(0, {(): 2 + 1j})
    assert lattice_function_state(apply(kernel, f)) == \
        lattice_function_state(apply_oracle(kernel, f))


def test_apply_empty_inputs():
    kernel = singular_kernel(ellipsoid([0.3]), 1.0, full_degree_set(1, 2),
                             cz_inverse(ellipsoid([0.3])))
    assert len(apply(kernel, LatticeFunction.delta(2))) == 0
    assert len(apply(averaging_kernel(euclidean_ball(1), 2.0, full_degree_set(1, 2)),
                     LatticeFunction(2))) == 0


SMALL_MAPS = {1: [[(1,)], [(2,)], [(1,), (2,)]],
              2: [[(1, 0), (0, 1)], [(1, 1)], [(0, 1), (2, 0)], [(1, 0), (0, 2)]]}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(lambda k: st.tuples(
    bodies(k), st.sampled_from(SMALL_MAPS[k]).map(lambda g: MultiIndexSet.from_indices(k, g)),
    st.floats(0.0, 3.5))),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), values), min_size=1,
             max_size=6))
def test_torus_agrees_with_sparse(case, samples):
    """Every cell that a single site of the sparse result reaches holds its
    value, up to the FFT's rounding."""
    body, gammas, t = case
    kernel = averaging_kernel(body, t, gammas)
    d = len(gammas)
    f = LatticeFunction(d, {(a, b)[:d]: v for a, b, v in samples})
    g = apply(kernel, f)
    L = 2 * max(kernel.support_radius()) + 8
    grid = np.zeros((L,) * d, complex)
    for x, v in f.items():
        grid[tuple(c % L for c in x)] += v
    torus = apply_on_torus(kernel, grid)
    cells = {}
    for x, v in g.items():
        cells.setdefault(tuple(c % L for c in x), []).append(v)
    scale = max((abs(v) for _, v in f.items()), default=0.0) * kernel.norm_l1()
    for cell, vs in cells.items():
        if len(vs) == 1 and math.isfinite(scale):
            assert abs(torus[cell] - vs[0]) <= 1e-9 * scale


# -- block variation report ------------------------------------------------------------------


def block_count(body, tau, n_max):
    """n_max cut so that the top dilate 2^((n_max + 1)^tau) stays small."""
    top = {1: 11.0, 2: 5.5}[body.k]
    return min(n_max, int(top ** (1 / tau)) - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(lambda k: st.tuples(bodies(k), index_sets(k))),
       st.sampled_from((0.5, 0.7, 1.0)), st.integers(0, 40))
@example((euclidean_ball(1), full_degree_set(1, 2)), 0.5, 40)
@example((cube(2, 0.5), full_degree_set(2, 1)), 1.0, 4)
def test_block_report_equals_oracle(case, tau, n_max):
    body, gammas = case
    n_max = block_count(body, tau, n_max)
    rep = kernel_block_variation_report(body, gammas, "averaging", tau, n_max)
    assert repr(rep.values()) == repr(block_report_oracle(body, gammas, "averaging",
                                                          tau, n_max))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda k: st.tuples(bodies(k), index_sets(k)).flatmap(
        lambda c: st.tuples(st.just(c), kernel_specs(c[0])))),
    st.integers(0, 40))
def test_singular_block_report_equals_oracle(case, n_max):
    (body, gammas), cz = case
    n_max = block_count(body, 0.5, n_max)
    rep = kernel_block_variation_report(body, gammas, "singular", 0.5, n_max, cz=cz)
    assert repr(rep.values()) == repr(block_report_oracle(body, gammas, "singular",
                                                          0.5, n_max, cz))


def test_block_report_scale_guard():
    with pytest.raises(PreconditionError):
        kernel_block_variation_report(euclidean_ball(1), full_degree_set(1, 1),
                                      "averaging", 0.5, 2 ** 20)


@pytest.mark.parametrize("n_max", [-1, -2, -5])
def test_block_report_negative_block_count(n_max):
    # (n_max + 1) ** tau is complex below -1, and n_max = -1 has no blocks
    for flavor in ("averaging", "singular"):
        with pytest.raises(PreconditionError):
            kernel_block_variation_report(euclidean_ball(1), full_degree_set(1, 2),
                                          flavor, 0.5, n_max, cz=cz_inverse(euclidean_ball(1)))
