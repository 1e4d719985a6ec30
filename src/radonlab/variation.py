"""Jump counting, r-variation, and jump seminorms of finitely sampled paths.

Everything here is exact on finite data (up to float rounding in the final
powers): the jump count is a longest-chain dynamic program over the pair
graph, the r-variation is a maximum-weight path in the same graph, and the
jump seminorm maximizes over the finite set of thresholds where the per-site
jump counts can change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SampledPath:
    """Complex samples of one path on a strictly increasing time grid."""

    times: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        for v in self.values:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("path values must be finite")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PathField:
    """One path per lattice site, all sharing the same time grid."""

    sites: tuple[tuple[int, ...], ...]
    times: tuple[float, ...]
    values: tuple[tuple[complex, ...], ...]   # values[i] is the path at sites[i]

    def __post_init__(self) -> None:
        # each row must pass the checks of a single path on the shared grid
        for row in self.values:
            SampledPath(self.times, row)

    def path(self, i: int) -> SampledPath:
        return SampledPath(self.times, self.values[i])

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def _values_of(path) -> tuple[complex, ...]:
    if isinstance(path, SampledPath):
        return path.values
    return tuple(complex(v) for v in path)


def jump_count(path, lam: float) -> int:
    """Largest J admitting an increasing chain with all consecutive moves >= lam.

    Longest-chain dynamic program on the pair graph.  A first-point greedy is
    not optimal here (start values can be outliers), so the O(n^2) chain DP is
    used; it matches brute-force enumeration exactly.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    v = _values_of(path)
    n = len(v)
    best = [0] * n   # jumps of the best chain ending at index i
    out = 0
    for j in range(n):
        bj = 0
        for i in range(j):
            if abs(v[j] - v[i]) >= lam and best[i] + 1 > bj:
                bj = best[i] + 1
        best[j] = bj
        if bj > out:
            out = bj
    return out


def r_variation(path, r: float) -> float:
    """Supremum over increasing subsequences of the l^r norm of the moves.

    r = inf gives the largest single move.  For finite r the optimum is a
    maximum-weight path in the pair DAG with edge weights |f(t_j)-f(t_i)|^r.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    v = _values_of(path)
    n = len(v)
    if n < 2:
        return 0.0
    if math.isinf(r):
        out = 0.0
        for j in range(1, n):
            for i in range(j):
                d = abs(v[j] - v[i])
                if d > out:
                    out = d
        return out
    best = [0.0] * n
    out = 0.0
    for j in range(1, n):
        bj = 0.0
        for i in range(j):
            w = best[i] + abs(v[j] - v[i]) ** r
            if w > bj:
                bj = w
        best[j] = bj
        if bj > out:
            out = bj
    return out ** (1.0 / r)


def _candidate_thresholds(field: PathField) -> list[float]:
    cands = set()
    for row in field.values:
        n = len(row)
        for j in range(1, n):
            for i in range(j):
                d = abs(row[j] - row[i])
                if d > 0:
                    cands.add(d)
    return sorted(cands)


def jump_seminorm(field: PathField, p: float) -> float:
    """sup over lambda of lambda * (sum_x N_lambda(x)^(p/2))^(1/p), counting measure.

    The per-site map lambda -> N_lambda is a right-closed step function, so
    the supremum over lambda > 0 is attained on the finite set of pairwise
    move sizes; that set is scanned exhaustively.
    """
    if not 1 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    cands = _candidate_thresholds(field)
    if not cands:
        return 0.0
    best = 0.0
    for lam in cands:
        total = 0.0
        for row in field.values:
            n_lam = jump_count(row, lam)
            if n_lam:
                total += n_lam ** (p / 2.0)
        if total > 0:
            best = max(best, lam * total ** (1.0 / p))
    return best


def block_variation(field: PathField, tau: float, r: float) -> list[float]:
    """Per-site l^2 aggregate of r-variations over the blocks [n^tau, (n+1)^tau].

    Consecutive blocks share their endpoint, matching the convention used for
    short-variation splittings along subexponential sequences.
    """
    if not 0 < tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    times = field.times
    if not times:
        return [0.0] * field.n_sites
    t_max = max(times)
    n_max = int(math.ceil(t_max ** (1.0 / tau))) + 1
    blocks: list[list[int]] = []
    for n in range(n_max + 1):
        lo, hi = n ** tau, (n + 1) ** tau
        idx = [i for i, t in enumerate(times) if lo <= t <= hi]
        if len(idx) >= 2:
            blocks.append(idx)
    out = []
    for row in field.values:
        acc = 0.0
        for idx in blocks:
            sub = [row[i] for i in idx]
            acc += r_variation(sub, r) ** 2
        out.append(math.sqrt(acc))
    return out
