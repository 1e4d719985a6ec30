"""Structured denominator sets, reduced-fraction families, coprime-product
partitions, the balanced pair coloring, and supporting combinatorics.

The denominator set for a resolution N and roughness parameter rho is built
from a prime window (N^(rho/2), N]: every member factors uniquely as a divisor
of the window-free lcm Q0 times a window-smooth number at most N.  Below an
exactly computed cutoff the set is simply {1, ..., N}.  All big-integer work
(Q0, lcm identities) is exact.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, permutations, product
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, PreconditionError
from .expsums import RationalPoint, factorize

DEFAULT_MEMBER_CAP = 2_000_000
DEFAULT_PRODUCT_CAP = 5_000_000
# function values one step of the exhaustive separation audit holds at once
_AUDIT_CELLS = 1 << 20


# ---------------------------------------------------------------------------
# primes and lcm
# ---------------------------------------------------------------------------


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i in range(2, n + 1) if sieve[i]]


def prime_window(N: int, rho: float) -> list[int]:
    """Primes p with N^(rho/2) < p <= N, with exact boundary handling.

    For rho with a small exact binary representation the strict lower bound is
    decided in integer arithmetic (p^(2 den) > N^num); otherwise in floats.
    """
    rho_f = Fraction(rho)
    out = []
    for p in primes_up_to(N):
        if rho_f.denominator <= 64:
            above = p ** (2 * rho_f.denominator) > N ** rho_f.numerator
        else:
            above = p > N ** (rho / 2.0)
        if above:
            out.append(p)
    return out


def _top_prime_powers(N: int, skip=frozenset()) -> list[tuple[int, int]]:
    """(p, e) with p^e the largest power of p at most N, for the primes
    p <= N outside ``skip``."""
    out = []
    for p in primes_up_to(N):
        if p in skip:
            continue
        e, pe = 1, p
        while pe * p <= N:
            e, pe = e + 1, pe * p
        out.append((p, e))
    return out


def lcm_first_n(N: int) -> int:
    """lcm(1, ..., N) as the exact product of maximal prime powers <= N."""
    if N < 1:
        raise PreconditionError("N must be >= 1")
    return math.prod(p ** e for p, e in _top_prime_powers(N))


def jordan_totient(q: int, d: int) -> int:
    """Count of a in {1..q}^d with gcd(q, a_1, ..., a_d) = 1."""
    out = q ** d
    for p, _ in factorize(q):
        out = out // p ** d * (p ** d - 1)
    return out if q > 1 else 1


# ---------------------------------------------------------------------------
# denominator sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenominatorConfig:
    rho: float
    D: int
    small_cutoff: int

    @classmethod
    def for_rho(cls, rho: float) -> "DenominatorConfig":
        if not 0 < rho < 2:
            raise PreconditionError("rho must lie in (0, 2)")
        D = int(math.ceil(Fraction(2) / Fraction(rho)))
        return cls(rho, D, _small_cutoff(rho, D))


def _product_branch_holds(N: int, rho: float, D: int) -> bool:
    # 3^(2 D N^(rho/2)) * N <= e^(N^rho), compared in logs
    return 2 * D * N ** (rho / 2.0) * math.log(3.0) + math.log(N) <= N ** rho


def _small_cutoff(rho: float, D: int, run: int = 64) -> int:
    """Least N such that the product-branch inequality holds from N onward.

    The defining comparison mixes irrational powers, so it is evaluated in
    floating point; a run of consecutive successes guards the boundary.  The
    inequality fails at N = 1 and changes sign once above, so its crossing is
    found by doubling and bisection, and the run is sought from just below it.
    """
    hi = 1
    while not _product_branch_holds(hi, rho, D):
        hi *= 2
        if hi > 2 ** 53:
            raise BudgetError("denominator small cutoff", hi, 2 ** 53)
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _product_branch_holds(mid, rho, D) else (mid, hi)
    N = max(1, hi - run)
    while not all(_product_branch_holds(M, rho, D) for M in range(N, N + run)):
        N += 1
    return N


class _Witness(Mapping):
    """Read-only map from each member to its (divisor, smooth) factorization:
    ``order`` sorts the divisor-major products into ``sorted_products``, and
    iteration runs in divisor-major order over the members' own integers."""

    __slots__ = ("_sorted", "_order", "_divisors", "_smooth", "_members")

    def __init__(self, sorted_products, order, divisors, smooth, members):
        self._sorted, self._order = sorted_products, order
        self._divisors, self._smooth, self._members = divisors, smooth, members

    def __getitem__(self, m):
        hash(m)                  # an unhashable key is a TypeError, as in a dict
        try:
            j = int(np.searchsorted(self._sorted, m))
        except TypeError:        # not comparable with the integers
            raise KeyError(m) from None
        if j == len(self._members) or self._members[j] != m:
            raise KeyError(m)
        i, S = int(self._order[j]), len(self._smooth)
        return self._divisors[i // S], self._smooth[i % S]

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        at = np.empty_like(self._order)
        at[self._order] = np.arange(len(at))
        return map(self._members.__getitem__, at.tolist())

    def items(self):
        return _WitnessItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _WitnessItems(ItemsView):
    """The witness's items in one pass, without a search per member."""

    def __iter__(self):
        w = self._mapping
        return zip(w, product(w._divisors, w._smooth))


@dataclass(frozen=True)
class DenominatorSet:
    """The structured denominator set at resolution N.

    ``branch`` is "small" (members are 1..N) or "product" (divisors of Q0
    times window-smooth numbers <= N); ``witness`` is a read-only mapping
    from each member to its unique (divisor, smooth) factorization in the
    product branch, and empty in the small branch.
    """

    N: int
    config: DenominatorConfig
    branch: str
    Q0: int
    window: tuple[int, ...]
    smooth: tuple[int, ...]
    members: tuple[int, ...]
    witness: Mapping

    def __len__(self) -> int:
        return len(self.members)

    def member_set(self) -> set[int]:
        return set(self.members)

    def lcm(self) -> int:
        if self.branch == "small":
            return lcm_first_n(self.N)
        out = self.Q0
        for s in self.smooth:
            out = math.lcm(out, s)
        return out

    def max_member(self) -> int:
        return self.members[-1]

    def to_json(self) -> str:
        head = {"N": self.N, "rho": self.config.rho, "D": self.config.D,
                "small_cutoff": self.config.small_cutoff, "branch": self.branch,
                "Q0": str(self.Q0)}
        lists = {"window": map(str, self.window), "smooth": map(str, self.smooth),
                 "members": [f'"{m}"' for m in self.members]}
        return _json_block([f'"{k}": {json.dumps(v)}' for k, v in head.items()]
                           + [f'"{k}": {_json_block(v, 1)}' for k, v in lists.items()],
                           0, "{}")

    @classmethod
    def from_json(cls, text: str) -> "DenominatorSet":
        obj = json.loads(text)
        cfg = DenominatorConfig(obj["rho"], obj["D"], obj["small_cutoff"])
        return cls(obj["N"], cfg, obj["branch"], int(obj["Q0"]),
                   tuple(obj["window"]), tuple(obj["smooth"]),
                   tuple(int(m) for m in obj["members"]), {})


def _json_block(items, depth: int, brackets: str = "[]") -> str:
    """What ``json.dumps(..., indent=1)`` writes for an array (with
    ``brackets="{}"``, an object) nested ``depth`` deep, from the JSON text of
    each element (of each ``"key": value`` member)."""
    items = list(items)
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


def _divisors_from_factorization(fact: list[tuple[int, int]]) -> list[int]:
    divs = [1]
    for p, e in fact:
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _exact_array(values, top: int) -> np.ndarray:
    """``values`` as int64 while ``top`` bounds every product formed from
    them below 2^62, and as Python integers (object dtype) otherwise."""
    return np.array(values, np.int64 if top < 2 ** 62 else object)


def build_denominator_set(N: int, rho: float,
                          member_cap: int = DEFAULT_MEMBER_CAP) -> DenominatorSet:
    """Construct the denominator set at resolution N.

    The window-smooth numbers come from a sieve, and the members are the
    products of every divisor of Q0 with every smooth number, formed as one
    array.  The three structural properties (contains 1..N, bounded above by
    max(N, e^(N^rho)), lcm equal to lcm(1..N)) are checked at build time.
    """
    if N < 1:
        raise PreconditionError("N must be >= 1")
    cfg = DenominatorConfig.for_rho(rho)
    window = tuple(prime_window(N, rho))
    # Q0 = lcm of the numbers <= N with no prime factor in the window
    fact = _top_prime_powers(N, set(window))
    Q0 = math.prod(p ** e for p, e in fact)

    if N < cfg.small_cutoff:
        members = tuple(range(1, N + 1))
        ds = DenominatorSet(N, cfg, "small", Q0, window, (), members, {})
    else:
        n_divisors = math.prod(e + 1 for _, e in fact)
        # every divisor of Q0 is a member, so refuse before collecting smooth numbers
        if n_divisors > member_cap:
            raise BudgetError("denominator member cap", n_divisors, member_cap)
        # smooth numbers: 1..N with no prime factor outside the window
        sieve = np.ones(N + 1, bool)
        for p, _ in fact:
            sieve[p::p] = False
        smooth = (np.flatnonzero(sieve[1:]) + 1).tolist()
        if n_divisors * len(smooth) > member_cap:
            raise BudgetError("denominator member cap",
                              n_divisors * len(smooth), member_cap)
        divisors, smooth = tuple(_divisors_from_factorization(fact)), tuple(smooth)
        top = Q0 * smooth[-1]
        prods = np.multiply.outer(_exact_array(divisors, top),
                                  _exact_array(smooth, top)).ravel()
        order = np.argsort(prods)
        prods = prods[order]
        # distinct products are the unique (divisor, smooth) factorizations
        if not (prods[1:] > prods[:-1]).all():
            raise AssertionError("a member factors in two ways")
        members = tuple(prods.tolist())
        ds = DenominatorSet(N, cfg, "product", Q0, window, smooth, members,
                            _Witness(prods, order, divisors, smooth, members))

    # structural checks; the members are sorted and distinct
    if ds.members[:N] != tuple(range(1, N + 1)):
        raise AssertionError("1..N not contained")
    bound_log = max(math.log(N), float(N) ** rho)
    if not math.log(ds.max_member()) <= bound_log + 1e-9:
        raise AssertionError("member exceeds bound")
    if ds.lcm() != lcm_first_n(N):
        raise AssertionError("lcm identity violated")
    return ds


# ---------------------------------------------------------------------------
# reduced fraction families
# ---------------------------------------------------------------------------


def reduced_residues(q: int, d: int, cap: int = 10 ** 7) -> list[tuple[int, ...]]:
    """All a in {1..q}^d with gcd(q, a_1, ..., a_d) = 1, lexicographically."""
    if q < 1 or d < 1:
        raise PreconditionError("need q >= 1 and d >= 1")
    if q ** d > cap:
        raise BudgetError("residue enumeration cap", q ** d, cap)
    out = [a for a in product(range(1, q + 1), repeat=d) if math.gcd(q, *a) == 1]
    if len(out) != jordan_totient(q, d):
        raise AssertionError("residue count differs from the Jordan totient")
    return out


def fraction_family(denominators: Iterable[int], d: int,
                    cap: int = 10 ** 7) -> list[RationalPoint]:
    """Union over q of the reduced points a/q, canonical in [0,1)^d, deduplicated."""
    seen = set()
    out = []
    for q in sorted(set(denominators)):
        for a in reduced_residues(q, d, cap):
            pt = RationalPoint.make(a, q)
            key = (pt.q, pt.numerators)
            if key not in seen:
                seen.add(key)
                out.append(pt)
        if len(out) > cap:
            raise BudgetError("fraction family cap", len(out), cap)
    return out


def fraction_family_count(denominators: Iterable[int], d: int) -> int:
    """Cardinality of the family without materializing it (distinct q stay distinct)."""
    return sum(jordan_totient(q, d) for q in set(denominators))


# ---------------------------------------------------------------------------
# surjection families and coprime-product partitions
# ---------------------------------------------------------------------------


def surjection_family(V: Sequence, k: int, seed: int = 2024,
                      max_retries: int = 200,
                      audit_cap: int = 10 ** 6,
                      audit_samples: int = 10 ** 5) -> list[dict]:
    """Functions V -> {1..k} such that every k-subset is separated by some member.

    Randomized construction with at most ceil(k^(k+1)/k! * ln|V|) functions,
    resampled until the separation property holds; the property is audited
    exhaustively when the number of k-subsets is small, by random sampling
    otherwise.  Non-surjective functions are dropped afterwards (they can
    never witness separation, so dropping preserves the property).
    """
    V = sorted(V)
    n = len(V)
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if n < k:
        return []     # no k-subsets: the property is vacuous
    if k == 1:
        return [{v: 1 for v in V}]
    if n == k:
        return [{v: i + 1 for i, v in enumerate(V)}]

    rng = random.Random(seed)
    r = max(1, math.ceil(k ** (k + 1) / math.factorial(k) * math.log(n)))
    chunk = max(1, _AUDIT_CELLS // (r * k))
    full = (1 << k) - 1

    def separated(bits: np.ndarray, subsets: list) -> np.ndarray:
        # a function separates a k-subset iff its k values are all distinct,
        # i.e. the values' bits 1 << (f - 1) fill all k bits
        idx = np.array(subsets, np.intp).reshape(-1, k)
        return (np.bitwise_or.reduce(bits[:, idx], axis=2) == full).any(axis=0)

    def covered(bits: np.ndarray) -> bool:
        if math.comb(n, k) <= audit_cap:
            subsets = combinations(range(n), k)
            while block := list(islice(subsets, chunk)):
                if not separated(bits, block).all():
                    return False
            return True
        for _ in range(audit_samples):
            if not separated(bits, [rng.sample(range(n), k)])[0]:
                return False
        return True

    for _ in range(max_retries):
        fams = [[rng.randrange(1, k + 1) for _ in V] for _ in range(r)]
        if covered(1 << (np.array(fams, np.int64) - 1)):
            return [dict(zip(V, f)) for f in fams if len(set(f)) == k]
    raise RuntimeError("retry budget exhausted while building surjection family")


def _prime_power(s: int, max_exponent: int) -> tuple[int, int] | None:
    """(p, e) with s = p^e for a prime p and 1 <= e <= max_exponent, or None."""
    for e in range(max_exponent, 0, -1):
        p = _iroot(s, e)
        if p ** e == s and factorize(p) == [(p, 1)]:
            return p, e
    return None


def _iroot(s: int, e: int) -> int:
    """floor(s^(1/e)) for e >= 1, exactly (Newton's method in integers)."""
    if s < 2:
        return max(s, 0)
    x = 1 << -(-s.bit_length() // e)
    while True:
        y = ((e - 1) * x + s // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


@dataclass(frozen=True)
class CoprimePowerPart:
    """A class of the partition together with its product-structure witness.

    ``factors[j]`` is a set of prime powers; the witness promises the members
    all factor as a product of exactly one element from each factor set, and
    the union of the factor sets is pairwise coprime.
    """

    k: int
    factors: tuple[frozenset, ...]
    members: tuple[int, ...]

    def validate(self, max_exponent: int) -> None:
        # the prime of every factor, and the slot and the power it comes with
        slot_of, power_of = {}, {}
        primes = []
        for j, S in enumerate(self.factors):
            for s in S:
                pe = _prime_power(s, max_exponent)
                if pe is None:
                    raise AssertionError(f"{s} is not an admissible prime power")
                primes.append(pe[0])
                slot_of[pe[0]], power_of[pe[0]] = j, s
        # prime powers are coprime iff their primes differ
        if len(set(primes)) != len(primes):
            raise AssertionError("factor sets are not pairwise coprime")
        primes.sort()
        every_slot = set(range(self.k))
        for m in self.members:
            # divide m by the class's own primes; anything left over is a
            # prime from outside the class
            rest, slots, through = m, set(), True
            for p in primes:
                if rest < 2:
                    break
                if rest % p:
                    continue
                pe = p
                rest //= p
                while rest % p == 0:
                    pe *= p
                    rest //= p
                through = through and pe == power_of[p]
                slots.add(slot_of[p])
            if not through or rest > 1:
                raise AssertionError(f"{m} does not factor through the witness")
            if slots != every_slot:
                raise AssertionError(f"{m} misses a factor slot")


def _factor_keys(codes: np.ndarray, base: int) -> np.ndarray:
    """The key of each row of prime-power codes: its codes in increasing order,
    as the digits of a number in base ``base``."""
    codes = np.sort(codes, axis=1)
    place = np.array([base ** j for j in range(codes.shape[1])], codes.dtype)
    return (codes * place).sum(axis=1)


def _power_products(V: Sequence[int], D: int,
                    cap: int = DEFAULT_PRODUCT_CAP) -> tuple[np.ndarray, np.ndarray]:
    """1 and every product of 1..D distinct primes of V at exponents 1..D, in
    increasing order, with the factorization key of each.

    The products are int64 while the largest is below 2^62 and Python integers
    (object dtype) above.  The prime power V[i]^e has the code D*i + e, and a
    product the ``_factor_keys`` key of its codes, in base D*len(V) + 1:
    distinct products have distinct keys, which stay small integers however
    large the products grow.
    """
    est = sum(math.comb(len(V), k) * D ** k for k in range(1, D + 1)) + 1
    if est > cap:
        raise BudgetError("power product enumeration cap", est, cap)
    V = sorted(V)
    n, k_max = len(V), min(D, len(V))
    base = D * n + 1
    powers = _exact_array([[p ** e for e in range(1, D + 1)] for p in V],
                          math.prod(V[-D:]) ** D if V else 1).reshape(n, D)
    codes = _exact_array(range(1, D * n + 1), base ** k_max).reshape(n, D)
    values, keys = [np.ones(1, powers.dtype)], [np.zeros(1, codes.dtype)]
    for k in range(1, k_max + 1):
        combos = np.fromiter(chain.from_iterable(combinations(range(n), k)),
                             np.intp).reshape(-1, k)
        for exps in product(range(D), repeat=k):
            values.append(np.multiply.reduce(powers[combos, exps], axis=1))
            keys.append(_factor_keys(codes[combos, exps], base))
    values, keys = np.concatenate(values), np.concatenate(keys)
    order = np.argsort(values)
    return values[order], keys[order]


def enumerate_power_products(V: Sequence[int], D: int,
                             cap: int = DEFAULT_PRODUCT_CAP) -> list[int]:
    """All products of 1..D distinct primes of V at exponents 1..D, plus 1."""
    return _power_products(V, D, cap)[0].tolist()


@dataclass(frozen=True)
class PartitionResult:
    N: int
    rho: float
    D: int
    parts: tuple[CoprimePowerPart, ...]
    universe_size: int

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def to_json(self) -> str:
        head = {"N": self.N, "rho": self.rho, "D": self.D,
                "universe_size": self.universe_size}
        parts = [_json_block([
            f'"k": {json.dumps(p.k)}',
            f'"factor_sets": {_json_block([_json_block(map(str, sorted(S)), 4) for S in p.factors], 3)}',
            f'"members": {_json_block(map(str, p.members), 3)}'], 2, "{}")
            for p in self.parts]
        return _json_block([f'"{k}": {json.dumps(v)}' for k, v in head.items()]
                           + [f'"parts": {_json_block(parts, 1)}'], 0, "{}")

    @classmethod
    def from_json(cls, text: str) -> "PartitionResult":
        obj = json.loads(text)
        parts = tuple(
            CoprimePowerPart(p["k"],
                             tuple(frozenset(S) for S in p["factor_sets"]),
                             tuple(p["members"]))
            for p in obj["parts"])
        return cls(obj["N"], obj["rho"], obj["D"], parts, obj["universe_size"])


def partition_coprime_products(N: int, rho: float, seed: int = 2024) -> PartitionResult:
    """Partition the admissible products over the prime window into classes
    whose members live in a product of pairwise coprime prime-power sets.

    Construction: for every factor count k <= D, a separating family of
    functions V -> {1..k} splits the primes into slots; each slot pattern of
    exponents gives one class.  The resulting cover is canonicalized into a
    partition by first-class-wins assignment (subsets keep the witness): a
    bitmap over the sorted universe of admissible products marks what earlier
    classes took, and a class finds its products there by their
    factorization keys.  The class count is O(log N) for fixed rho.
    """
    if N < 2:
        raise PreconditionError("N must be >= 2")
    cfg = DenominatorConfig.for_rho(rho)
    V = prime_window(N, rho)
    universe, keys = _power_products(V, cfg.D)
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    base = cfg.D * len(V) + 1
    code = {p: cfg.D * i for i, p in enumerate(V)}    # p^e has the code code[p] + e
    taken = np.zeros(len(universe), bool)
    outside = False       # a class product missing from the universe
    parts: list[CoprimePowerPart] = []

    # the k = 0 class: just {1}, the least product
    parts.append(CoprimePowerPart(0, (), (1,)))
    taken[0] = True

    for k in range(1, cfg.D + 1):
        if len(V) < k:
            break
        fams = surjection_family(V, k, seed=seed + k)
        for f in fams:
            slots = [sorted(p for p in V if f[p] == j + 1) for j in range(k)]
            if any(not s for s in slots):
                continue
            for exps in product(range(1, cfg.D + 1), repeat=k):
                factors = tuple(frozenset(p ** exps[j] for p in slots[j])
                                for j in range(k))
                # the keys of the products of one prime power from each slot
                grid = np.meshgrid(*[np.array([code[p] + e for p in slot], keys.dtype)
                                     for slot, e in zip(slots, exps)], indexing="ij")
                wanted = _factor_keys(np.stack(grid, -1).reshape(-1, k), base)
                at = np.minimum(np.searchsorted(sorted_keys, wanted), len(keys) - 1)
                found = sorted_keys[at] == wanted
                outside = outside or not found.all()
                at = by_key[at[found]]
                at = np.unique(at[~taken[at]])
                if not len(at):
                    continue
                taken[at] = True
                parts.append(CoprimePowerPart(k, factors, tuple(universe[at].tolist())))

    if outside or not taken.all():
        missing = universe[~taken][:5].tolist()
        raise AssertionError(f"cover failed to reach a partition; missing {missing}")
    return PartitionResult(N, rho, cfg.D, tuple(parts), len(universe))


# ---------------------------------------------------------------------------
# uniqueness property and the balanced pair coloring
# ---------------------------------------------------------------------------


def has_uniqueness_property(seq: Sequence) -> bool:
    """True iff some element of the sequence occurs exactly once."""
    return 1 in Counter(seq).values()


def kappa_coloring(pairs: Sequence[tuple]) -> list[int]:
    """Pick one side of every pair so both chosen and rejected sides cover the
    full value set.

    Requires the flattened sequence to lack the uniqueness property.  The pair
    multigraph (indices vs. values) is regularized so every value has
    multiplicity exactly two, decomposed into even cycles, and 2-colored
    alternately along each cycle.
    """
    r = len(pairs)
    flat = [v for pr in pairs for v in pr]
    if has_uniqueness_property(flat):
        raise PreconditionError("input has the uniqueness property")

    # regularize multiplicities to exactly 2 by splitting off fresh symbols
    work = [list(pr) for pr in pairs]
    fresh = 0
    while True:
        counts = Counter(v for pr in work for v in pr)
        heavy = [v for v, c in counts.items() if c >= 3]
        if not heavy:
            break
        occurrences = [(i, l) for i in range(r) for l in (0, 1)
                       if work[i][l] == heavy[0]]
        if counts[heavy[0]] >= 4:
            (i1, l1), (i2, l2) = occurrences[0], occurrences[1]
        else:
            # exactly two heavy values exist in this case (parity of 2r)
            other = heavy[1]
            (i1, l1) = occurrences[0]
            (i2, l2) = next((i, l) for i in range(r) for l in (0, 1)
                            if work[i][l] == other)
        sym = ("_fresh_", fresh)
        fresh += 1
        work[i1][l1] = sym
        work[i2][l2] = sym

    # every value now has multiplicity exactly 2: walk the even cycles
    edge_value = {(i, l): work[i][l] for i in range(r) for l in (0, 1)}
    by_value: dict = {}
    for e, v in edge_value.items():
        by_value.setdefault(v, []).append(e)
    color: dict = {}
    for start in edge_value:
        if start in color:
            continue
        e = start
        while e not in color:
            color[e] = 0
            v = edge_value[e]
            e1, e2 = by_value[v]
            partner = e2 if e == e1 else e1       # cross the value vertex
            color[partner] = 1
            i, l = partner
            e = (i, 1 - l)                        # cross the index vertex
    return [0 if color[(i, 0)] == 0 else 1 for i in range(r)]


# ---------------------------------------------------------------------------
# the l^1 vs l^r splitting inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplittingCheck:
    lhs: Fraction
    rhs: Fraction
    holds: bool


def l1_lr_inequality_check(a: Sequence, r: int, cap: int = 10 ** 6) -> SplittingCheck:
    """Exact check of (sum a)^r <= (r(r-1))^(r-1) sum a_i^r + 2 sum over
    pairwise-distinct index tuples of a_{i1} ... a_{ir}."""
    vals = [Fraction(x) for x in a]
    if any(v < 0 for v in vals):
        raise PreconditionError("entries must be non-negative")
    if r < 1:
        raise PreconditionError("r must be >= 1")
    n = len(vals)
    if n ** r > cap:
        raise BudgetError("splitting inequality term cap", n ** r, cap)
    lhs = sum(vals, Fraction(0)) ** r
    diag = Fraction((r * (r - 1)) ** (r - 1)) * sum((v ** r for v in vals), Fraction(0))
    off = sum((math.prod(vals[i] for i in idx) for idx in permutations(range(n), r)),
              Fraction(0))
    rhs = diag + 2 * off
    return SplittingCheck(lhs, rhs, lhs <= rhs)
