"""The array path of the denominator layer against the loops it replaced.

The oracles below are the former library loops: the small cutoff by a
linear scan, smooth numbers by trial division and members by a product loop
into a dictionary (the former ``witness``), the JSON writers by ``json.dumps``
with ``indent=1``, power products by nested loops into a set, the partition
by first-class-wins assignment into a set, the separation audit one subset at
a time, and ``validate`` by trial-division ``factorize``.  The array path builds the same integers, so
every JSON artifact, every witness (in insertion order, and as a mapping)
and every accept or reject, with its message, must be equal.
"""

import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import radonlab.denominators as dn
from radonlab import (BudgetError, DenominatorConfig, build_denominator_set,
                      enumerate_power_products, lcm_first_n,
                      partition_coprime_products, prime_window,
                      surjection_family)
from radonlab.denominators import (CoprimePowerPart, DenominatorSet,
                                   PartitionResult, _top_prime_powers)
from radonlab.expsums import factorize

# -- oracles: the former library loops -----------------------------------------------


def small_cutoff_oracle(rho, D, run=64):
    N = 1
    while True:
        if dn._product_branch_holds(N, rho, D) and all(
                dn._product_branch_holds(M, rho, D) for M in range(N, N + run)):
            return N
        N += 1


def build_oracle(N, rho):
    cfg = DenominatorConfig.for_rho(rho)
    window = tuple(prime_window(N, rho))
    fact = _top_prime_powers(N, set(window))
    Q0 = math.prod(p ** e for p, e in fact)
    if N < cfg.small_cutoff:
        return DenominatorSet(N, cfg, "small", Q0, window, (),
                              tuple(range(1, N + 1)), {})
    smooth = [1]
    for n in range(2, N + 1):
        m = n
        for p in window:
            while m % p == 0:
                m //= p
        if m == 1:
            smooth.append(n)
    divs = [1]
    for p, e in fact:
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    witness = {}
    for d in sorted(divs):
        for s in smooth:
            witness[d * s] = (d, s)
    return DenominatorSet(N, cfg, "product", Q0, window, tuple(smooth),
                          tuple(sorted(witness)), witness)


def denominator_json_oracle(ds):
    return json.dumps({
        "N": ds.N,
        "rho": ds.config.rho,
        "D": ds.config.D,
        "small_cutoff": ds.config.small_cutoff,
        "branch": ds.branch,
        "Q0": str(ds.Q0),
        "window": list(ds.window),
        "smooth": list(ds.smooth),
        "members": [str(m) for m in ds.members],
    }, indent=1)


def partition_json_oracle(res):
    return json.dumps({
        "N": res.N,
        "rho": res.rho,
        "D": res.D,
        "universe_size": res.universe_size,
        "parts": [{
            "k": p.k,
            "factor_sets": [sorted(S) for S in p.factors],
            "members": list(p.members),
        } for p in res.parts],
    }, indent=1)


def power_products_oracle(V, D):
    out = {1}
    for k in range(1, D + 1):
        for primes in combinations(sorted(V), k):
            for exps in product(range(1, D + 1), repeat=k):
                v = 1
                for p, e in zip(primes, exps):
                    v *= p ** e
                out.add(v)
    return sorted(out)


def surjection_oracle(V, k, seed=2024, max_retries=200, audit_cap=10 ** 6,
                      audit_samples=10 ** 5):
    V = sorted(V)
    n = len(V)
    if n < k:
        return []
    if k == 1:
        return [{v: 1 for v in V}]
    if n == k:
        return [{v: i + 1 for i, v in enumerate(V)}]
    rng = random.Random(seed)
    r = max(1, math.ceil(k ** (k + 1) / math.factorial(k) * math.log(n)))

    def covered(fams):
        if math.comb(n, k) <= audit_cap:
            for E in combinations(V, k):
                if not any(len({f[e] for e in E}) == k for f in fams):
                    return False
            return True
        for _ in range(audit_samples):
            E = rng.sample(V, k)
            if not any(len({f[e] for e in E}) == k for f in fams):
                return False
        return True

    for _ in range(max_retries):
        fams = [{v: rng.randrange(1, k + 1) for v in V} for _ in range(r)]
        if covered(fams):
            return [f for f in fams if set(f.values()) == set(range(1, k + 1))]
    raise RuntimeError("retry budget exhausted while building surjection family")


def partition_oracle(N, rho, seed=2024):
    cfg = DenominatorConfig.for_rho(rho)
    V = prime_window(N, rho)
    universe = power_products_oracle(V, cfg.D)
    assigned = {1}
    parts = [CoprimePowerPart(0, (), (1,))]
    for k in range(1, cfg.D + 1):
        if len(V) < k:
            break
        for f in surjection_oracle(V, k, seed=seed + k):
            slots = [sorted(p for p in V if f[p] == j + 1) for j in range(k)]
            if any(not s for s in slots):
                continue
            for exps in product(range(1, cfg.D + 1), repeat=k):
                factors = tuple(frozenset(p ** exps[j] for p in slots[j])
                                for j in range(k))
                members = []
                for combo in product(*[sorted(S) for S in factors]):
                    v = math.prod(combo)
                    if v not in assigned:
                        members.append(v)
                if not members:
                    continue
                members = tuple(sorted(set(members)))
                assigned.update(members)
                parts.append(CoprimePowerPart(k, factors, members))
    if assigned != set(universe):
        raise AssertionError("cover failed to reach a partition")
    return PartitionResult(N, rho, cfg.D, tuple(parts), len(universe))


def validate_oracle(part, max_exponent):
    union = []
    for S in part.factors:
        for s in S:
            fact = factorize(s)
            if len(fact) != 1 or fact[0][1] > max_exponent:
                raise AssertionError(f"{s} is not an admissible prime power")
        union.extend(S)
    for i in range(len(union)):
        for j in range(i + 1, len(union)):
            if math.gcd(union[i], union[j]) != 1:
                raise AssertionError("factor sets are not pairwise coprime")
    prime_to_slot = {}
    for j, S in enumerate(part.factors):
        for s in S:
            prime_to_slot[factorize(s)[0][0]] = j
    for m in part.members:
        slots = set()
        for p, e in factorize(m):
            j = prime_to_slot.get(p)
            if j is None or p ** e not in part.factors[j]:
                raise AssertionError(f"{m} does not factor through the witness")
            slots.add(j)
        if slots != set(range(part.k)):
            raise AssertionError(f"{m} misses a factor slot")


def outcome(check, *args):
    """None when ``check`` accepts, else its AssertionError message."""
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


# -- denominator sets --------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 260), st.sampled_from([0.75, 1.0]))
@example(200, 1.0)
@example(202, 0.75)
@example(260, 0.75)
def test_build_equals_oracle(N, rho):
    want, got = build_oracle(N, rho), build_denominator_set(N, rho)
    assert got.to_json() == denominator_json_oracle(want)
    assert list(got.witness.items()) == list(want.witness.items())
    assert repr(got) == repr(want)
    # the members are the witness keys themselves, in sorted order
    assert all(a is b for a, b in zip(got.members, sorted(got.witness)))


def test_build_beyond_int64_equals_oracle():
    # Q0 * max(smooth) passes 2^62 here, so the members are Python integers
    N, rho = 46, 1.95
    got = build_denominator_set(N, rho)
    assert got.Q0 * got.smooth[-1] >= 2 ** 62
    want = build_oracle(N, rho)
    assert got.to_json() == denominator_json_oracle(want)
    assert list(got.witness.items()) == list(want.witness.items())
    assert repr(got) == repr(want)


def test_product_branch_rho_three_quarters():
    # small_cutoff is 202 at rho = 0.75, so A02 (N <= 200) never builds this
    # branch; every structural property of the set is checked here instead
    assert DenominatorConfig.for_rho(0.75).small_cutoff == 202
    prev = set(build_denominator_set(201, 0.75).members)
    for N in range(202, 261):
        ds = build_denominator_set(N, 0.75)
        assert ds.branch == "product"
        mset = set(ds.members)
        assert prev <= mset                                   # nested in N
        assert all(n in mset for n in range(1, N + 1))
        assert math.log(ds.max_member()) <= max(math.log(N), N ** 0.75) + 1e-9
        assert ds.lcm() == lcm_first_n(N)
        if N % 12 == 0:
            want = build_oracle(N, 0.75)
            assert ds.to_json() == denominator_json_oracle(want)
            assert list(ds.witness.items()) == list(want.witness.items())
        prev = mset


def test_build_member_cap_unchanged(monkeypatch):
    monkeypatch.setattr(dn, "DEFAULT_MEMBER_CAP", 100_000)
    with pytest.raises(BudgetError):
        build_denominator_set(200, 1.0)


# -- the witness view ----------------------------------------------------------------


def _lookup(mapping, key):
    """mapping[key], or the type of the exception the lookup raises."""
    try:
        return mapping[key]
    except (KeyError, TypeError) as exc:
        return type(exc)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.tuples(st.integers(1, 240), st.sampled_from([0.75, 1.0])),
                 # Python-integer members from N = 46 on; above it the cap
                 st.tuples(st.integers(1, 46), st.just(1.95))),
       st.lists(st.integers(-3, 2 ** 70), max_size=20))
@example((46, 1.95), [2 ** 63, 2 ** 64 + 1])
@example((200, 1.0), [177_120, 2 ** 62])
@example((10, 1.0), [])
def test_witness_view_equals_dict(case, probes):
    N, rho = case
    got, want = build_denominator_set(N, rho).witness, build_oracle(N, rho).witness
    assert len(got) == len(want)
    assert list(got) == list(want)
    assert list(got.items()) == list(want.items())
    assert list(got.keys()) == list(want.keys())
    assert list(got.values()) == list(want.values())
    assert got == want and want == got
    assert repr(got) == repr(want)
    members = list(want)
    keys = (members[::max(1, len(members) // 40)] + members[-1:] + probes
            + [0, -1, N + 1, 2 ** 70, -2 ** 70, 1.0, 2.5, float("nan"), "1", None, True])
    keys += [np.int64(k) for k in keys
             if type(k) is int and -2 ** 63 <= k < 2 ** 63]
    keys += [np.uint64(k) for k in keys if type(k) is int and 0 <= k < 2 ** 64]
    for key in keys:
        assert _lookup(got, key) == _lookup(want, key)
        assert (key in got) == (key in want)
        assert got.get(key, "absent") == want.get(key, "absent")
    with pytest.raises(TypeError):
        got[[1]]               # unhashable, as in a dict


def test_witness_is_read_only():
    w = build_denominator_set(40, 1.0).witness
    with pytest.raises(TypeError):
        w[1] = (1, 1)
    with pytest.raises(AttributeError):
        w.update({1: (1, 1)})


# -- JSON writers ----------------------------------------------------------------------


@pytest.mark.parametrize("N, rho", [
    (1, 1.0),        # no window prime
    (10, 1.0),       # small branch: smooth is empty
    (40, 1.0),       # product branch
    (202, 0.75),
    (46, 1.95),      # product branch beyond int64
])
def test_denominator_json_equals_json_dumps(N, rho):
    ds = build_denominator_set(N, rho)
    assert ds.to_json() == denominator_json_oracle(ds)
    assert DenominatorSet.from_json(ds.to_json()).to_json() == ds.to_json()


@pytest.mark.parametrize("N, rho, branch", [
    (10, 1.0, "small"),
    (40, 1.0, "product"),
    (46, 1.95, "product"),     # Python-integer members
])
def test_denominator_set_json_round_trip_is_equal(N, rho, branch):
    ds = build_denominator_set(N, rho)
    back = DenominatorSet.from_json(ds.to_json())
    assert ds.branch == branch
    assert back == ds
    assert repr(back) == repr(ds)


def test_denominator_set_from_json_refuses_a_foreign_product_set():
    obj = json.loads(build_denominator_set(40, 1.0).to_json())
    for key, value in (("Q0", str(2 * int(obj["Q0"]))),
                       ("members", obj["members"][:-1]),
                       ("smooth", obj["smooth"][1:])):
        with pytest.raises(ValueError):
            DenominatorSet.from_json(json.dumps({**obj, key: value}))


def test_partition_json_equals_json_dumps():
    only_k0 = PartitionResult(2, 1.0, 2, (CoprimePowerPart(0, (), (1,)),), 1)
    empty = PartitionResult(2, 1.0, 2, (), 0)
    for res in (only_k0, empty, partition_coprime_products(2, 1.0),
                partition_coprime_products(64, 1.0), partition_coprime_products(150, 0.75)):
        assert res.to_json() == partition_json_oracle(res)
        assert PartitionResult.from_json(res.to_json()).to_json() == res.to_json()


# -- small cutoff ----------------------------------------------------------------------


def _D(rho):
    return math.ceil(Fraction(2) / Fraction(rho))


@pytest.mark.parametrize("rho", [1.99, 1.95, 1.9, 1.5, 1.25, 1.0, 0.9, 0.8, 0.75,
                                 0.7, 0.6, 0.55, 0.5, 0.45, 0.4])
def test_small_cutoff_equals_linear_scan(rho):
    assert dn._small_cutoff(rho, _D(rho)) == small_cutoff_oracle(rho, _D(rho))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.45, 1.99))
def test_small_cutoff_equals_linear_scan_anywhere(rho):
    assert dn._small_cutoff(rho, _D(rho)) == small_cutoff_oracle(rho, _D(rho))


@pytest.mark.parametrize("rho, cutoff", [(0.35, 3917543), (0.3, 131457181),
                                         (0.2, 47618219071015)])
def test_small_cutoff_beyond_the_linear_scan(rho, cutoff):
    # the linear scan would take hours to years here: check the run itself
    assert DenominatorConfig.for_rho(rho).small_cutoff == cutoff
    holds = [dn._product_branch_holds(M, rho, _D(rho)) for M in range(cutoff - 64, cutoff + 64)]
    assert all(holds[64:]) and not any(holds[:64])


@pytest.mark.parametrize("rho", [0.1, 0.01, 1e-9])
def test_small_cutoff_past_two_to_the_53_is_refused(rho):
    with pytest.raises(BudgetError, match="denominator small cutoff"):
        DenominatorConfig.for_rho(rho)


# -- power products -----------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 200), st.sampled_from([0.75, 1.0]))
@example(150, 0.75)
@example(200, 0.75)
@example(1024, 1.0)
def test_power_products_equal_oracle(N, rho):
    D = DenominatorConfig.for_rho(rho).D
    V = prime_window(N, rho)
    got = enumerate_power_products(V, D)
    assert got == power_products_oracle(V, D)
    assert all(type(v) is int for v in got)


def test_power_products_pass_int64():
    # rho = 0.75 at N >= 150: the largest products exceed 2^63, their keys do not
    V = prime_window(150, 0.75)
    assert math.prod(V[-3:]) ** 3 >= 2 ** 63
    values, keys = dn._power_products(V, 3)
    assert values.dtype == object and keys.dtype == np.int64
    assert len(np.unique(keys)) == len(keys)
    values, keys = dn._power_products(prime_window(149, 1.0), 2)
    assert values.dtype == np.int64 and keys.dtype == np.int64


def test_power_product_cap_unchanged():
    # more than 5,000,000 products: refused before any is formed
    with pytest.raises(BudgetError):
        enumerate_power_products(prime_window(20000, 1.0), 2)
    with pytest.raises(BudgetError):
        partition_coprime_products(20000, 1.0)


# -- partitions ---------------------------------------------------------------------


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 150), st.sampled_from([0.75, 1.0]), st.integers(0, 2 ** 20))
@example(1024, 1.0, 2024)
@example(150, 0.75, 2024)
@example(64, 1.0, 7)
def test_partition_equals_oracle(N, rho, seed):
    assert (partition_coprime_products(N, rho, seed).to_json()
            == partition_json_oracle(partition_oracle(N, rho, seed)))


# -- separation audit ---------------------------------------------------------------


def _audit_cells(n, k, chunk):
    """The _AUDIT_CELLS value that makes the audit take ``chunk`` subsets at a time."""
    r = max(1, math.ceil(k ** (k + 1) / math.factorial(k) * math.log(n)))
    return r * k * chunk


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (5, 2), (5, 3), (14, 3)])
def test_exhaustive_audit_across_chunk_boundaries(n, k, monkeypatch):
    # in small windows about one family in ten leaves a subset unseparated
    # and is drawn again; every chunk size, from one subset to more than the
    # whole audit, must find exactly those
    V = prime_window(200, 1.0)[:n]
    total = math.comb(n, k)
    for chunk in sorted({1, 2, 3, total // 2, total - 1, total, total + 1} - {0}):
        monkeypatch.setattr(dn, "_AUDIT_CELLS", _audit_cells(n, k, chunk))
        for seed in range(40):
            assert surjection_family(V, k, seed) == surjection_oracle(V, k, seed)


def test_sampled_audit_consumes_the_same_draws(monkeypatch):
    # audit_cap = 1 forces the sampled audit; in these windows about one
    # family in ten fails it, and the family drawn next must come from the
    # generator state the oracle's audit leaves
    monkeypatch.setattr(dn, "_AUDIT_CAP", 1)
    monkeypatch.setattr(dn, "_AUDIT_SAMPLES", 64)
    for V in ([2, 3, 5], [2, 3, 5, 7]):
        for seed in range(40):
            assert (surjection_family(V, 2, seed)
                    == surjection_oracle(V, 2, seed, audit_cap=1, audit_samples=64))


# -- validate ---------------------------------------------------------------------


def _corruptions(part, rng):
    """Parts that differ from ``part`` by one corruption each."""
    out = []
    if part.k == 0:
        return out
    factors = [set(S) for S in part.factors]
    m = rng.choice(part.members)
    j = rng.randrange(part.k)
    s = next(x for x in factors[j] if m % x == 0)     # the slot-j factor of m
    p = factorize(s)[0][0]
    foreign = next(q for q in (2, 3, 5, 7) if all(s2 % q for S in factors for s2 in S))

    def with_factors(new, members=part.members):
        return CoprimePowerPart(part.k, tuple(frozenset(S) for S in new), members)

    # a member with a foreign prime, or with the wrong exponent of a class prime
    out.append(CoprimePowerPart(part.k, part.factors, part.members + (m * foreign,)))
    out.append(CoprimePowerPart(part.k, part.factors, (m * p,) + part.members))
    # a member that misses a slot
    if part.k > 1:
        out.append(CoprimePowerPart(part.k, part.factors, part.members + (s,)))
    out.append(CoprimePowerPart(part.k, part.factors, (1,) + part.members))
    # factor sets: a composite, a power above the cap, a shared prime, a 1
    for bad in (s * foreign, p ** 5, p * s if s != p else p ** 2, 1):
        new = [set(S) for S in factors]
        new[rng.randrange(part.k)].add(bad)
        out.append(with_factors(new))
    # a slot without the factor m uses
    new = [set(S) for S in factors]
    new[j].discard(s)
    out.append(with_factors(new))
    return out


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(32, 1.0), (64, 1.0), (60, 0.75)]), st.integers(0, 2 ** 16))
def test_validate_equals_oracle_on_corrupted_parts(case, seed):
    N, rho = case
    res = partition_coprime_products(N, rho)
    rng = random.Random(seed)
    part = rng.choice(res.parts[1:])
    assert outcome(part.validate, res.D) is None
    for bad in _corruptions(part, rng):
        want = outcome(validate_oracle, bad, res.D)
        assert want is not None
        assert outcome(bad.validate, res.D) == want


def test_validate_edge_members_equal_oracle():
    # members below 2 have no prime factors: they only satisfy the empty class
    for k, factors in ((0, ()), (1, (frozenset({11, 13}),))):
        for members in ((0,), (-6,), (1,), (11, 143), (11 * 11,)):
            part = CoprimePowerPart(k, factors, members)
            for max_exponent in (0, 1, 2):
                assert outcome(part.validate, max_exponent) == \
                    outcome(validate_oracle, part, max_exponent)


def test_validate_accepts_every_class():
    for N, rho in ((150, 1.0), (1024, 1.0), (100, 0.75)):
        res = partition_coprime_products(N, rho)
        for part in res.parts:
            part.validate(res.D)
