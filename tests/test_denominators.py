import math
import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest

from radonlab import (DenominatorConfig, PreconditionError,
                      build_denominator_set, enumerate_power_products,
                      fraction_family, fraction_family_count,
                      has_uniqueness_property, jordan_totient, kappa_coloring,
                      lcm_first_n, l1_lr_inequality_check,
                      partition_coprime_products, prime_window,
                      reduced_residues, surjection_family)


# -- lcm -----------------------------------------------------------------------


def test_lcm_first_n_against_gcd_chain():
    for N in (1, 2, 7, 10, 37, 100):
        assert lcm_first_n(N) == reduce(math.lcm, range(1, N + 1), 1)


def test_lcm_examples():
    assert lcm_first_n(10) == 2520
    assert lcm_first_n(1) == 1


def test_lcm_three_power_bound_sample():
    for N in (1, 5, 50, 500):
        assert lcm_first_n(N) <= 3 ** N


# -- prime window and cutoff -----------------------------------------------------


def test_prime_window_exact_boundary():
    # rho = 1: strict p^2 > N, so p = sqrt(N) is excluded at perfect squares
    assert prime_window(9, 1.0) == [5, 7]
    assert prime_window(10, 1.0) == [5, 7]
    assert prime_window(25, 1.0) == [7, 11, 13, 17, 19, 23]


def test_config_cutoffs():
    assert DenominatorConfig.for_rho(1.0).D == 2
    assert DenominatorConfig.for_rho(0.75).D == 3
    assert DenominatorConfig.for_rho(1.0).small_cutoff == 26
    assert DenominatorConfig.for_rho(0.75).small_cutoff == 202


# -- denominator sets -------------------------------------------------------------


def test_small_branch_is_initial_segment():
    ds = build_denominator_set(10, 1.0)
    assert ds.branch == "small"
    assert ds.members == tuple(range(1, 11))
    assert ds.Q0 == 72   # lcm of 1..10 with factors 5 and 7 removed


def test_product_branch_structure():
    ds = build_denominator_set(40, 1.0)
    assert ds.branch == "product"
    # every member factors as (divisor of Q0) * (window-smooth <= N)
    wset = set(ds.window)
    for m in ds.members[:200]:
        d, s = ds.witness[m]
        assert d * s == m
        assert ds.Q0 % d == 0
        assert s in ds.smooth
        left = s
        for p in ds.window:
            while left % p == 0:
                left //= p
        assert left == 1
        assert math.gcd(d, math.prod(wset)) == 1 or all(d % p for p in wset)


def test_build_memory_is_bounded():
    # the witness reads the sorted products: no dict entry or tuple per member
    # (a witness dict retained 26 MB here, with a 33 MB peak)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ds = build_denominator_set(200, 1.0)
        retained, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(ds) == 177_120
    assert retained <= 12e6 and peak <= 16e6


def test_membership_example_40():
    ds = build_denominator_set(40, 1.0)
    mset = ds.member_set()
    # 7 * 8 = 56: smooth part 7 (window prime), divisor part 8 | Q0
    assert 56 in mset
    # 49 * 16: 49 <= 40 fails as a smooth number? 49 > 40, so 49*16 requires
    # smooth 49 which is not allowed
    assert 49 * 16 not in mset or 49 in ds.smooth


def test_lcm_identity_range():
    for N in range(1, 61):
        ds = build_denominator_set(N, 1.0)
        assert ds.lcm() == lcm_first_n(N)


def test_nestedness_sample():
    prev = set()
    for N in range(20, 40):
        cur = build_denominator_set(N, 1.0).member_set()
        assert prev <= cur
        prev = cur


# -- residues and fraction families -------------------------------------------------


def test_reduced_residues_examples():
    assert reduced_residues(2, 1) == [(1,)]
    assert reduced_residues(1, 1) == [(1,)]
    assert len(reduced_residues(4, 2)) == 12


def test_jordan_totient_formula():
    for q in range(1, 40):
        for d in (1, 2):
            expect = sum(1 for a in
                         __import__("itertools").product(range(1, q + 1), repeat=d)
                         if math.gcd(q, *a) == 1)
            assert jordan_totient(q, d) == expect


def test_fraction_family_small():
    fam = fraction_family([1, 2], 1)
    vals = sorted(pt.components()[0] for pt in fam)
    assert vals == [Fraction(0), Fraction(1, 2)]


def test_fraction_family_nested_and_counted():
    f1 = fraction_family([1, 2, 3], 2)
    f2 = fraction_family([1, 2, 3, 4], 2)
    keys1 = {(p.q, p.numerators) for p in f1}
    keys2 = {(p.q, p.numerators) for p in f2}
    assert keys1 <= keys2
    assert len(f2) == fraction_family_count([1, 2, 3, 4], 2)


def test_family_size_bound():
    # card of the family over the denominator set is within e^((d+1) N^rho)
    for N in (10, 30, 60):
        ds = build_denominator_set(N, 1.0)
        for d in (1, 2):
            cnt = fraction_family_count(ds.members, d)
            assert math.log(cnt) <= (d + 1) * float(N) ** 1.0


# -- surjection families --------------------------------------------------------------


def test_surjection_family_bijection_case():
    fam = surjection_family(list(range(5)), 5)
    assert len(fam) == 1 and sorted(fam[0].values()) == [1, 2, 3, 4, 5]


def test_surjection_family_k2_cover():
    from itertools import combinations
    V = list(range(10))
    fam = surjection_family(V, 2, seed=5)
    bound = math.ceil(2 ** 3 / 2 * math.log(len(V)))
    assert len(fam) <= bound
    for E in combinations(V, 2):
        assert any(len({f[e] for e in E}) == 2 for f in fam)


def test_surjection_family_k3_cover():
    from itertools import combinations
    V = list(range(12))
    fam = surjection_family(V, 3, seed=6)
    for E in combinations(V, 3):
        assert any(len({f[e] for e in E}) == 3 for f in fam)


# -- partitions --------------------------------------------------------------------


def test_partition_is_exact_cover():
    res = partition_coprime_products(32, 1.0)
    universe = enumerate_power_products(prime_window(32, 1.0), res.D)
    seen = {}
    for part in res.parts:
        for m in part.members:
            assert m not in seen
            seen[m] = True
    assert set(seen) == set(universe)


def test_partition_memory_is_bounded():
    # products carry their prime indices and exponents in byte-sized columns
    # (a 17.6 MiB peak with one int64 factorization key per product)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        res = partition_coprime_products(150, 0.75)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.universe_size == 138_481
    assert peak <= 20e6


def test_partition_witnesses_validate():
    res = partition_coprime_products(64, 1.0)
    for part in res.parts:
        part.validate(res.D)


def test_partition_logarithmic_count():
    counts = {}
    for N in (16, 64, 256):
        res = partition_coprime_products(N, 1.0)
        counts[N] = res.part_count / math.log(N)
    assert max(counts.values()) <= 16.0


# -- uniqueness and coloring ----------------------------------------------------------


def test_uniqueness_examples():
    assert not has_uniqueness_property((1, 2, 1, 2))
    assert has_uniqueness_property((1, 2, 1, 3))
    assert not has_uniqueness_property(())


def test_coloring_requires_no_uniqueness():
    with pytest.raises(PreconditionError):
        kappa_coloring([(1, 2), (2, 3)])


def _coloring_sets(pairs, kappa):
    chosen = {p[k] for p, k in zip(pairs, kappa)}
    other = {p[1 - k] for p, k in zip(pairs, kappa)}
    full = {v for p in pairs for v in p}
    return chosen, other, full


def test_coloring_examples():
    pairs = [("a", "b"), ("b", "a")]
    kap = kappa_coloring(pairs)
    ch, ot, full = _coloring_sets(pairs, kap)
    assert ch == ot == full
    pairs = [("a", "a"), ("b", "b")]
    kap = kappa_coloring(pairs)
    ch, ot, full = _coloring_sets(pairs, kap)
    assert ch == ot == full


def test_coloring_random_against_exhaustive():
    rng = random.Random(71)
    from itertools import product as iproduct
    done = 0
    while done < 400:
        r = rng.randrange(1, 7)
        flat = [rng.randrange(0, r + 1) for _ in range(2 * r)]
        if has_uniqueness_property(flat):
            continue
        pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(r)]
        kap = kappa_coloring(pairs)
        ch, ot, full = _coloring_sets(pairs, kap)
        assert ch == ot == full
        # cross-check there is indeed some valid coloring and ours is one
        assert any(_coloring_sets(pairs, k2)[0] == _coloring_sets(pairs, k2)[1]
                   == full for k2 in iproduct((0, 1), repeat=r))
        done += 1


# -- splitting inequality ---------------------------------------------------------------


def test_l1_lr_hand_case():
    chk = l1_lr_inequality_check([1, 1], 2)
    assert chk.lhs == 4 and chk.rhs == 2 * 2 + 2 * 2 and chk.holds


def test_l1_lr_single_entry():
    chk = l1_lr_inequality_check([Fraction(3, 7)], 3)
    assert chk.holds
    assert chk.rhs == Fraction(36) * Fraction(3, 7) ** 3


def test_l1_lr_random_exact():
    rng = random.Random(73)
    for _ in range(300):
        n = rng.randrange(1, 7)
        r = rng.randrange(1, 5)
        vals = [Fraction(rng.randrange(0, 50), rng.randrange(1, 20)) for _ in range(n)]
        assert l1_lr_inequality_check(vals, r).holds


def test_partition_json_roundtrip():
    from radonlab.denominators import PartitionResult
    res = partition_coprime_products(32, 1.0)
    back = PartitionResult.from_json(res.to_json())
    assert back.part_count == res.part_count
    assert back.parts[1].members == res.parts[1].members
    for p in back.parts:
        p.validate(back.D)


def test_denominator_set_json_roundtrip():
    from radonlab.denominators import DenominatorSet
    ds = build_denominator_set(40, 1.0)
    back = DenominatorSet.from_json(ds.to_json())
    assert back.members == ds.members
    assert back.Q0 == ds.Q0 and back.branch == "product"


def test_crt_fraction_identity():
    # the reduced points at a product of coprime denominators are exactly the
    # mod-1 sums of reduced points at the factors
    for q1, q2 in [(2, 3), (3, 4), (4, 9), (5, 6), (7, 8), (9, 10), (25, 4)]:
        assert math.gcd(q1, q2) == 1
        for d in (1, 2):
            left = {tuple(f % 1 for f in pt.components())
                    for pt in fraction_family([q1 * q2], d)}
            right = set()
            for p1 in fraction_family([q1], d):
                for p2 in fraction_family([q2], d):
                    right.add(tuple((a + b) % 1 for a, b in
                              zip(p1.components(), p2.components())))
            assert left == right
