import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radonlab import (FrequencyVector, MultiIndexSet, PreconditionError,
                      anisotropic_dilate, canonical_map, full_degree_set, quasi_norm)
from radonlab.multiindex import exact_dtype, integer_rows, monomial_images


def test_canonical_map_monomials():
    g = MultiIndexSet.from_indices(2, [(1, 0), (0, 1), (1, 1)])
    img = canonical_map((2, 3), g)
    assert img[g.index((1, 0))] == 2
    assert img[g.index((0, 1))] == 3
    assert img[g.index((1, 1))] == 6


def test_canonical_map_zero_point():
    g = full_degree_set(3, 2)
    assert canonical_map((0, 0, 0), g) == (0,) * g.d


def test_canonical_map_sign_parity():
    g = MultiIndexSet.from_indices(1, [(1,), (2,), (3,)])
    assert canonical_map((-1,), g) == (-1, 1, -1)


def test_canonical_map_huge_entries_exact():
    g = MultiIndexSet.from_indices(1, [(6,)])
    x = 10 ** 7
    assert canonical_map((x,), g) == (x ** 6,)


def test_full_degree_set_enumeration():
    assert full_degree_set(1, 2).members == ((1,), (2,))
    assert full_degree_set(2, 1).members == ((0, 1), (1, 0))
    # degree-l slice of k=2 has l+1 elements: 2 + 3
    assert full_degree_set(2, 2).d == 5


def test_full_degree_set_count_oracle():
    # brute-force count of 1 <= |gamma| <= d0 over a box
    from itertools import product
    for k, d0 in [(1, 4), (2, 3), (3, 2)]:
        expect = sum(1 for g in product(range(d0 + 1), repeat=k)
                     if 1 <= sum(g) <= d0)
        assert full_degree_set(k, d0).d == expect


def test_member_validation():
    with pytest.raises(ValueError):
        MultiIndexSet(2, (((0, 0)),))
    with pytest.raises(ValueError):
        MultiIndexSet(1, ((1,), (1,)))


def test_lex_sort_idempotent():
    g = full_degree_set(2, 3)
    assert tuple(sorted(g.members)) == g.members


def test_quasi_norm_values():
    g = MultiIndexSet.from_indices(1, [(2,)])
    xi = FrequencyVector.exact_vector(g, [Fraction(1, 4)])
    assert quasi_norm(xi) == pytest.approx(0.5, abs=1e-15)
    assert quasi_norm(FrequencyVector.zero(g)) == 0.0
    g2 = full_degree_set(1, 2)
    xi = FrequencyVector.float_vector(g2, [0.3, 0.04])
    assert quasi_norm(xi) == pytest.approx(0.3, abs=1e-15)


def test_dilate_identity_and_scaling():
    g = full_degree_set(1, 2)
    xi = FrequencyVector.exact_vector(g, [Fraction(1), Fraction(1)])
    same = anisotropic_dilate(xi, 0)
    assert same.values == xi.values
    doubled = anisotropic_dilate(FrequencyVector.exact_vector(g, [0, 1]), 1)
    assert doubled[(2,)] == 4


def test_dilate_quasi_norm_homogeneity():
    rng = random.Random(7)
    g = full_degree_set(2, 3)
    for _ in range(200):
        xi = FrequencyVector.float_vector(g, [rng.uniform(-2, 2) for _ in g.members])
        t = rng.uniform(-8, 8)
        lhs = quasi_norm(anisotropic_dilate(xi, t))
        rhs = 2.0 ** t * quasi_norm(xi)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_degree_one_linearity_and_general_nonlinearity():
    lin = full_degree_set(2, 1)
    x, y = (3, -2), (5, 7)
    s = tuple(a + b for a, b in zip(x, y))
    assert canonical_map(s, lin) == tuple(
        a + b for a, b in zip(canonical_map(x, lin), canonical_map(y, lin)))
    quad = full_degree_set(2, 2)
    assert canonical_map(s, quad) != tuple(
        a + b for a, b in zip(canonical_map(x, quad), canonical_map(y, quad)))


def test_mixed_backend_forbidden():
    g = full_degree_set(1, 1)
    with pytest.raises(ValueError):
        FrequencyVector(g, (0.5,), True)
    a = FrequencyVector.exact_vector(g, [1])
    b = FrequencyVector.float_vector(g, [1.0])
    with pytest.raises(ValueError):
        a.sub(b)


def test_torus_reduction():
    g = full_degree_set(1, 2)
    xi = FrequencyVector.exact_vector(g, [Fraction(7, 3), Fraction(-1, 4)])
    assert xi.torus().values == (Fraction(1, 3), Fraction(3, 4))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(st.sampled_from(full_degree_set(k, 4).members), min_size=1, max_size=5,
             unique=True),
    st.lists(st.tuples(*[st.one_of(st.integers(-50, 50), st.integers(-2 ** 70, 2 ** 70))] * k),
             max_size=6))))
@example(([(3,)], [(1664510,)]))        # 1664510^3 just below 2^62: int64
@example(([(3,)], [(-1664511,)]))       # |y|^3 just above 2^62: Python integers
@example(([(0, 1)], [(2 ** 63, 2)]))    # numpy alone would hold 2^63 as a float
def test_monomial_images_equal_canonical_map(case):
    members, points = case
    gammas = MultiIndexSet.from_indices(len(members[0]), members)
    got = monomial_images(points, gammas.members)
    assert got.shape == (len(points), len(gammas))
    assert [tuple(r) for r in got.tolist()] == [canonical_map(y, gammas) for y in points]
    top = max((abs(c) for y in points for c in y), default=0)
    assert (got.dtype == np.int64) == (top ** gammas.max_degree < 2 ** 62)


@pytest.mark.parametrize("point", [(1.5,), (2.0,), (Fraction(3, 2),), ("3",),
                                   (np.float64(2.7),)])
def test_non_integer_coordinates_are_refused(point):
    # no coordinate is truncated to an integer, not even an integral float
    gammas = full_degree_set(1, 2)
    with pytest.raises(PreconditionError):
        canonical_map(point, gammas)
    with pytest.raises(PreconditionError):
        monomial_images([(1,), point], gammas.members)
    with pytest.raises(PreconditionError):
        monomial_images([(2 ** 70,), point], gammas.members)   # the Python-integer path


def test_non_integer_array_is_refused():
    with pytest.raises(PreconditionError):
        monomial_images(np.array([[1.5], [2.7]]), list(full_degree_set(1, 2)))
    with pytest.raises(PreconditionError):
        integer_rows(np.array([[1.0, 2.0]]), 2)
    # numpy integers are integers, and come back as exact images
    assert monomial_images(np.array([[3], [-4]]), [(1,), (2,)]).tolist() == [[3, 9], [-4, 16]]


def test_exact_dtype_boundary():
    assert exact_dtype(0) is np.int64
    assert exact_dtype(2 ** 62 - 1) is np.int64
    assert exact_dtype(2 ** 62) is object
    # integer_rows bounds the magnitude of every coordinate
    for c in (2 ** 62 - 1, -2 ** 62 + 1):
        assert integer_rows([(c,)], 1).dtype == np.int64
    for c in (2 ** 62, -2 ** 62):
        assert integer_rows([(c,)], 1).dtype == object
