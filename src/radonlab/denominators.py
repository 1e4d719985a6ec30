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
from .multiindex import exact_dtype

DEFAULT_MEMBER_CAP = 2_000_000
DEFAULT_PRODUCT_CAP = 5_000_000
RESIDUE_CAP = 10 ** 7
PARTITION_PATTERN_CAP = 10 ** 5
SPLITTING_TERM_CAP = 10 ** 6
# function values one step of the exhaustive separation audit holds at once
_AUDIT_CELLS = 1 << 20
# the separation audit checks every k-subset up to this many, else samples
_AUDIT_CAP, _AUDIT_SAMPLES = 10 ** 6, 10 ** 5
# families surjection_family draws before it gives up
_SURJECTION_RETRIES = 200
# consecutive N at which the product-branch inequality must hold
_CUTOFF_RUN = 64


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


def _small_cutoff(rho: float, D: int) -> int:
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
    N = max(1, hi - _CUTOFF_RUN)
    while not all(_product_branch_holds(M, rho, D) for M in range(N, N + _CUTOFF_RUN)):
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
        """The set ``to_json`` wrote.  A product-branch witness is rebuilt as
        ``build_denominator_set`` builds it; ``ValueError`` if Q0 or the
        members then differ from the text."""
        obj = json.loads(text)
        ds = cls(obj["N"], DenominatorConfig(obj["rho"], obj["D"], obj["small_cutoff"]),
                 obj["branch"], int(obj["Q0"]), tuple(obj["window"]),
                 tuple(obj["smooth"]), tuple(int(m) for m in obj["members"]), {})
        if ds.branch == "small":
            return ds
        fact = _top_prime_powers(ds.N, set(ds.window))
        smooth, members, witness = _product_members(ds.N, fact)
        Q0 = math.prod(p ** e for p, e in fact)
        if (Q0, smooth, members) != (ds.Q0, ds.smooth, ds.members):
            raise ValueError("Q0 or the members are not those of the prime window")
        return cls(ds.N, ds.config, ds.branch, ds.Q0, ds.window, smooth, members, witness)


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


def _product_members(N: int, fact: list[tuple[int, int]]) -> tuple:
    """The smooth numbers, members and witness of the product branch at N, for
    Q0 factored as ``fact``: the members are the products of every divisor of
    Q0 with every window-smooth number (from a sieve), formed as one array."""
    n_divisors = math.prod(e + 1 for _, e in fact)
    # every divisor of Q0 is a member, so refuse before collecting smooth numbers
    if n_divisors > DEFAULT_MEMBER_CAP:
        raise BudgetError("denominator member cap", n_divisors, DEFAULT_MEMBER_CAP)
    # smooth numbers: 1..N with no prime factor outside the window
    sieve = np.ones(N + 1, bool)
    for p, _ in fact:
        sieve[p::p] = False
    smooth = (np.flatnonzero(sieve[1:]) + 1).tolist()
    if n_divisors * len(smooth) > DEFAULT_MEMBER_CAP:
        raise BudgetError("denominator member cap",
                          n_divisors * len(smooth), DEFAULT_MEMBER_CAP)
    divisors, smooth = tuple(_divisors_from_factorization(fact)), tuple(smooth)
    dtype = exact_dtype(divisors[-1] * smooth[-1])
    prods = np.multiply.outer(np.array(divisors, dtype), np.array(smooth, dtype)).ravel()
    order = np.argsort(prods)
    prods = prods[order]
    # distinct products are the unique (divisor, smooth) factorizations
    if not (prods[1:] > prods[:-1]).all():
        raise AssertionError("a member factors in two ways")
    members = tuple(prods.tolist())
    return smooth, members, _Witness(prods, order, divisors, smooth, members)


def build_denominator_set(N: int, rho: float) -> DenominatorSet:
    """Construct the denominator set at resolution N.

    The three structural properties (contains 1..N, bounded above by
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
        ds = DenominatorSet(N, cfg, "small", Q0, window, (), tuple(range(1, N + 1)), {})
    else:
        ds = DenominatorSet(N, cfg, "product", Q0, window, *_product_members(N, fact))

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


def reduced_residues(q: int, d: int) -> list[tuple[int, ...]]:
    """All a in {1..q}^d with gcd(q, a_1, ..., a_d) = 1, lexicographically."""
    if q < 1 or d < 1:
        raise PreconditionError("need q >= 1 and d >= 1")
    if q ** d > RESIDUE_CAP:
        raise BudgetError("residue enumeration cap", q ** d, RESIDUE_CAP)
    out = [a for a in product(range(1, q + 1), repeat=d) if math.gcd(q, *a) == 1]
    if len(out) != jordan_totient(q, d):
        raise AssertionError("residue count differs from the Jordan totient")
    return out


def fraction_family(denominators: Iterable[int], d: int) -> list[RationalPoint]:
    """Union over q of the reduced points a/q, canonical in [0,1)^d, deduplicated."""
    seen = set()
    out = []
    for q in sorted(set(denominators)):
        for a in reduced_residues(q, d):
            pt = RationalPoint.make(a, q)
            key = (pt.q, pt.numerators)
            if key not in seen:
                seen.add(key)
                out.append(pt)
        if len(out) > RESIDUE_CAP:
            raise BudgetError("fraction family cap", len(out), RESIDUE_CAP)
    return out


def fraction_family_count(denominators: Iterable[int], d: int) -> int:
    """Cardinality of the family without materializing it (distinct q stay distinct)."""
    return sum(jordan_totient(q, d) for q in set(denominators))


# ---------------------------------------------------------------------------
# surjection families and coprime-product partitions
# ---------------------------------------------------------------------------


def _family_size(n: int, k: int) -> int:
    """How many functions ``surjection_family`` draws per attempt for n >= k
    points and k values."""
    if k == 1 or n == k:
        return 1
    return max(1, math.ceil(k ** (k + 1) / math.factorial(k) * math.log(n)))


def surjection_family(V: Sequence, k: int, seed: int = 2024) -> list[dict]:
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
    r = _family_size(n, k)
    chunk = max(1, _AUDIT_CELLS // (r * k))
    full = (1 << k) - 1

    def separated(bits: np.ndarray, subsets: list) -> np.ndarray:
        # a function separates a k-subset iff its k values are all distinct,
        # i.e. the values' bits 1 << (f - 1) fill all k bits
        idx = np.array(subsets, np.intp).reshape(-1, k)
        return (np.bitwise_or.reduce(bits[:, idx], axis=2) == full).any(axis=0)

    def covered(bits: np.ndarray) -> bool:
        if math.comb(n, k) <= _AUDIT_CAP:
            subsets = combinations(range(n), k)
            while block := list(islice(subsets, chunk)):
                if not separated(bits, block).all():
                    return False
            return True
        for _ in range(_AUDIT_SAMPLES):
            if not separated(bits, [rng.sample(range(n), k)])[0]:
                return False
        return True

    for _ in range(_SURJECTION_RETRIES):
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


def _power_products(V: Sequence[int], D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1 and every product of 1..D distinct primes of V at exponents 1..D, in
    increasing order, with the factorization of each.

    The products are int64 while the largest is below 2^62 and Python integers
    (object dtype) above.  Row i of the other two arrays factors product i as
    the product of V[primes[i, c]] ** exponents[i, c] over the columns c: its
    primes in increasing order in the leading columns, exponent 0 after them,
    both in the least unsigned dtype that holds them.
    """
    est = sum(math.comb(len(V), k) * D ** k for k in range(1, D + 1)) + 1
    if est > DEFAULT_PRODUCT_CAP:
        raise BudgetError("power product enumeration cap", est, DEFAULT_PRODUCT_CAP)
    V = sorted(V)
    n, k_max = len(V), min(D, len(V))
    powers = np.array([[p ** e for e in range(1, D + 1)] for p in V],
                      exact_dtype(math.prod(V[-D:]) ** D if V else 1)).reshape(n, D)
    values = [np.ones(1, powers.dtype)]
    primes = [np.zeros((1, k_max), np.min_scalar_type(n))]
    exponents = [np.zeros((1, k_max), np.min_scalar_type(D))]
    for k in range(1, k_max + 1):
        combos = np.fromiter(chain.from_iterable(combinations(range(n), k)),
                             np.intp).reshape(-1, k)
        padded = np.pad(combos, ((0, 0), (0, k_max - k))).astype(primes[0].dtype)
        for exps in product(range(D), repeat=k):
            values.append(np.multiply.reduce(powers[combos, exps], axis=1))
            primes.append(padded)
            row = np.array([e + 1 for e in exps] + [0] * (k_max - k), exponents[0].dtype)
            exponents.append(np.broadcast_to(row, padded.shape))
    values = np.concatenate(values)
    order = np.argsort(values)
    return values[order], np.concatenate(primes)[order], np.concatenate(exponents)[order]


def enumerate_power_products(V: Sequence[int], D: int) -> list[int]:
    """All products of 1..D distinct primes of V at exponents 1..D, plus 1."""
    return _power_products(V, D)[0].tolist()


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
    product of k distinct primes goes to the first function that puts them in
    distinct slots, under the pattern of their exponents, so each function
    only looks at the k-prime products no earlier one claimed.  The class
    count is O(log N) for fixed rho; the (function, exponent pattern) pairs,
    which bound it, are counted before any product.
    """
    if N < 2:
        raise PreconditionError("N must be >= 2")
    cfg = DenominatorConfig.for_rho(rho)
    V = prime_window(N, rho)
    ks = range(1, min(cfg.D, len(V)) + 1)
    needed = sum(_family_size(len(V), k) * cfg.D ** k for k in ks)
    if needed > PARTITION_PATTERN_CAP:
        raise BudgetError("partition class patterns", needed, PARTITION_PATTERN_CAP)
    universe, primes, exps = _power_products(V, cfg.D)
    count = np.count_nonzero(exps, axis=1)          # distinct primes per product
    # the k = 0 class: just {1}, the least product
    parts, missing = [CoprimePowerPart(0, (), (1,))], []

    for k in ks:
        left = np.flatnonzero(count == k)           # k-prime products, unclaimed
        for f in surjection_family(V, k, seed=seed + k):
            bit = np.array([1 << (f[p] - 1) for p in V], np.min_scalar_type(1 << k))
            mine = np.bitwise_or.reduce(bit[primes[left, :k]], axis=1) == (1 << k) - 1
            at, left = left[mine], left[~mine]
            # the exponent in slot j is the base-D digit of weight D^(k-1-j)
            weight = np.array([cfg.D ** (k - f[p]) for p in V])
            code = ((exps[at, :k] - 1) * weight[primes[at, :k]]).sum(axis=1)
            order = np.argsort(code, kind="stable")
            pats, starts = np.unique(code[order], return_index=True)
            slots = [[p for p in V if f[p] == j + 1] for j in range(k)]
            for pat, members in zip(pats, np.split(at[order], starts[1:])):
                factors = tuple(frozenset(p ** int(e + 1) for p in s)
                                for s, e in zip(slots, np.unravel_index(pat, (cfg.D,) * k)))
                parts.append(CoprimePowerPart(k, factors, tuple(universe[members].tolist())))
        missing += universe[left].tolist()

    if missing:
        raise AssertionError(f"cover failed to reach a partition; missing {sorted(missing)[:5]}")
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


def l1_lr_inequality_check(a: Sequence, r: int) -> SplittingCheck:
    """Exact check of (sum a)^r <= (r(r-1))^(r-1) sum a_i^r + 2 sum over
    pairwise-distinct index tuples of a_{i1} ... a_{ir}."""
    vals = [Fraction(x) for x in a]
    if any(v < 0 for v in vals):
        raise PreconditionError("entries must be non-negative")
    if r < 1:
        raise PreconditionError("r must be >= 1")
    n = len(vals)
    if n ** r > SPLITTING_TERM_CAP:
        raise BudgetError("splitting inequality term cap", n ** r, SPLITTING_TERM_CAP)
    lhs = sum(vals, Fraction(0)) ** r
    diag = Fraction((r * (r - 1)) ** (r - 1)) * sum((v ** r for v in vals), Fraction(0))
    off = sum((math.prod(vals[i] for i in idx) for idx in permutations(range(n), r)),
              Fraction(0))
    rhs = diag + 2 * off
    return SplittingCheck(lhs, rhs, lhs <= rhs)
