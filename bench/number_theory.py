"""number_theory: exponential sums, major-arc multipliers and denominator sets.

Complete sums over residues (FFT Gauss scans, direct k = 2 Gauss sums),
incomplete sums over lattice points (Weyl reports, discrete multipliers,
major-arc errors at theta = 0 by the breakpoint profile and at theta != 0 by
sampled scales plus the Gauss-Legendre symbol), and the denominator layer
(both branches of the denominator set, coprime-product partitions, fraction
family counts, the pair coloring).  Middle-sized sums set the median; the
theta != 0 major arcs, the N = 14 profile, the N = 200 product set and the
N = 1024 partition set the tail.  Three CLI jobs ride along.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

from radonlab import (IntegerPolynomial, MultiIndexSet, RationalPoint,
                      build_denominator_set, euclidean_ball, full_degree_set,
                      gauss_sum)

import calls
from jobs import Job, cli_job, csv_rows
from oracles import (close, common_denominator, gauss_oracle, interval_averages,
                     interval_symbol, phase_numerators, require, strict_floor,
                     unit_phases)

IV = euclidean_ball(1)
G12 = full_degree_set(1, 2)
G22 = full_degree_set(2, 2)
SQUARE = MultiIndexSet.from_indices(1, [(2,)])
MIN_PASSES = 4


def _primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _reduced_point(rng, q: int, d: int) -> RationalPoint:
    while True:
        a = [rng.randrange(q) for _ in range(d)]
        if math.gcd(q, *a) == 1:
            return RationalPoint.make(a, q)


# -- exponential sums ---------------------------------------------------------


def _gauss_scan_job(rng, deg: int, q_max: int) -> Job:
    gammas = full_degree_set(1, deg)
    mons = list(gammas.members)

    def run(tr):
        return calls.gauss_decay_scan(tr, gammas, q_max)

    def check(res) -> None:
        require([r.q for r in res.rows] == list(range(2, q_max + 1)), "one row per q")
        for row in res.rows[:11]:                  # q <= 12
            direct = abs(gauss_sum(RationalPoint.make(row.argmax, row.q), gammas, 1))
            close(row.max_abs, direct, 1e-9, f"scan max at q={row.q} vs gauss_sum at argmax")
        for row in res.rows[:5]:                   # q <= 6: exhaustive oracle
            best = max(abs(gauss_oracle(a, row.q, mons, 1))
                       for a in np.ndindex(*(row.q,) * len(mons)) if math.gcd(row.q, *a) == 1)
            close(row.max_abs, best, 1e-9, f"scan max at q={row.q} vs exhaustive sums")

    return Job("gauss_scan", (deg, q_max), run, check,
               exact=lambda res: (res.rows, res.fitted_exponent))


def _gauss_odd_job(rng, n: int) -> Job:
    """|G(a/q)| = q^(-1/2) for odd q at Gamma = {2}."""
    points = [_reduced_point(rng, q, 1) for q in rng.sample(range(101, 200, 2), n)]

    def run(tr):
        return [calls.gauss_sum(tr, pt, SQUARE, 1) for pt in points]

    def check(out) -> None:
        for pt, g in zip(points, out):
            close(abs(g), pt.q ** -0.5, 1e-9, f"|G({pt.numerators}/{pt.q})|")

    return Job("gauss_odd", points, run, check)


def _gauss_k2_job(rng, qs) -> Job:
    points = [_reduced_point(rng, q, len(G22)) for q in qs]
    mons = list(G22.members)

    def run(tr):
        return [calls.gauss_sum(tr, pt, G22, 2) for pt in points]

    def check(out) -> None:
        for pt, g in zip(points, out):
            close(g, gauss_oracle(pt.numerators, pt.q, mons, 2), 1e-9,
                  f"k=2 Gauss sum at q={pt.q}")

    return Job("gauss_k2", points, run, check)


def _weyl_job(rng, N: int) -> Job:
    """One report per degree d in {2, 3}, built as ``radonlab weyl-verify`` does."""
    specs = []
    for d in (2, 3):
        qlo = max(2, int(N ** (d / 2.0) / 4))
        qhi = max(qlo + 1, int(N ** (d / 2.0) * 4))
        while True:
            q = rng.randrange(qlo, qhi + 1)
            a = rng.randrange(1, q)
            if math.gcd(a, q) == 1:
                break
        coeffs = {(d,): Fraction(a, q) + Fraction(rng.randrange(-q, q + 1), 4 * q ** 3)}
        for m in range(1, d):
            coeffs[(m,)] = Fraction(rng.randrange(0, 64), 64)
        eps = 1.0 / (2 * d * d - 2 * d + 1)
        specs.append((IntegerPolynomial.make(1, coeffs), d, a, q, eps))

    def run(tr):
        return [calls.weyl_bound_report(tr, poly, IV, float(N), (d,), a, q, eps)
                for poly, d, a, q, eps in specs]

    def check(out) -> None:
        j = strict_floor(Fraction(N))
        pts = [(y,) for y in range(-j, j + 1)]
        for rep, (poly, *_rest) in zip(out, specs):
            Q, nums = common_denominator([c for _, c in poly.coeffs])
            S = np.sum(unit_phases(phase_numerators(pts, [g for g, _ in poly.coeffs], nums, Q), Q))
            close(rep.sum_modulus, abs(S), 1e-9 * len(pts), f"Weyl sum modulus at N={N}")

    return Job("weyl", (N, specs), run, check)


# -- multipliers --------------------------------------------------------------


def _j_at(t: float) -> int:
    return max(0, strict_floor(Fraction(2.0 ** t)))


def _offset(rng, N: int) -> tuple[Fraction, Fraction]:
    return (Fraction(rng.choice((-2, -1, 1, 2)), 2 ** N),
            Fraction(rng.choice((-2, -1, 1, 2)), 4 ** N))


def _major_arc_job(rng, N: int, with_offset: bool) -> Job:
    point = _reduced_point(rng, rng.choice((1, 2, 3, 5)), 2)
    theta = _offset(rng, N) if with_offset else ()
    xi = [Fraction(a, point.q) + (theta[i] if theta else 0)
          for i, a in enumerate(point.numerators)]

    def run(tr):
        return calls.major_arc_error(tr, IV, G12, N, point, theta)

    def check(rep) -> None:
        G = gauss_oracle(point.numerators, point.q, [(1,), (2,)], 1)
        close(rep.gauss_value, G, 1e-9, "Gauss factor")
        if theta:
            ts = [N + i / 8 for i in range(9)]
            ms = interval_averages(xi, (1, 2), [_j_at(t) for t in ts])
            sup = max(abs(m - G * interval_symbol(theta, (1, 2), 2.0 ** t))
                      for m, t in zip(ms, ts))
            tol = 1e-6
        else:
            ms = interval_averages(xi, (1, 2), range(_j_at(N), _j_at(N + 1) + 1))
            sup, tol = max(abs(m - G) for m in ms), 1e-9
        close(rep.sup_error, sup, tol, f"major-arc sup error at N={N}")

    return Job("major_arc_offset" if theta else "major_arc", (N, point, theta), run, check,
               exact=lambda rep: (rep.gauss_value, rep.sup_error, rep.ratio_full))


def _multiplier_job(rng, t: int) -> Job:
    """Discrete multiplier and continuous symbol at two major-arc frequencies."""
    freqs = []
    for _ in range(2):
        point = _reduced_point(rng, rng.choice((2, 3, 5, 7)), 2)
        theta = _offset(rng, t)
        freqs.append(([Fraction(a, point.q) + th for a, th in zip(point.numerators, theta)],
                      theta))

    def run(tr):
        return [(calls.discrete_multiplier(tr, IV, t, G12, xi),
                 calls.continuous_symbol(tr, IV, t, G12, theta)) for xi, theta in freqs]

    def check(out) -> None:
        for (m, ev), (xi, theta) in zip(out, freqs):
            close(m, interval_averages(xi, (1, 2), [_j_at(t)])[0], 1e-9, "discrete multiplier")
            close(ev.value, interval_symbol(theta, (1, 2), 2.0 ** t), 1e-6, "continuous symbol")

    return Job("multiplier", freqs, run, check,
               exact=lambda out: [(m, ev.value, ev.levels) for m, ev in out])


# -- denominators -------------------------------------------------------------


def _check_denominator_set(ds, N: int, rho: float) -> None:
    members = ds.member_set()
    require(all(n in members for n in range(1, N + 1)), f"N={N}: 1..N not all members")
    L = math.lcm(*range(1, N + 1))
    require(all(L % m == 0 for m in ds.members), f"N={N}: lcm exceeds lcm(1..N)")
    if N > 1:
        prev = build_denominator_set(N - 1, rho).member_set()
        require(prev <= members, f"N={N}: set at N-1 is not nested")


def _denominators_job(specs) -> Job:
    def run(tr):
        return [calls.build_denominator_set(tr, N, rho) for N, rho in specs]

    def check(out) -> None:
        for ds, (N, rho) in zip(out, specs):
            _check_denominator_set(ds, N, rho)

    return Job("denominators", specs, run, check,
               exact=lambda out: [(ds.branch, ds.members) for ds in out])


def _universe(N: int, rho: float, D: int) -> set[int]:
    """Products of at most D distinct window primes at exponents 1..D."""
    window = [p for p in _primes(N) if Fraction(p) ** 2 > Fraction(N) ** Fraction(rho)]
    out = {1}

    def extend(v: int, start: int, left: int) -> None:
        for i in range(start, len(window)):
            for e in range(1, D + 1):
                w = v * window[i] ** e
                out.add(w)
                if left > 1:
                    extend(w, i + 1, left - 1)

    extend(1, 0, D)
    return out


def _partition_job(rng, N: int) -> Job:
    seed = rng.randrange(1 << 20)

    def run(tr):
        return calls.partition_coprime_products(tr, N, 1.0, seed)

    def check(res) -> None:
        seen: set[int] = set()
        for part in res.parts:
            part.validate(res.D)
            require(seen.isdisjoint(part.members), "partition classes overlap")
            seen.update(part.members)
        universe = _universe(N, 1.0, res.D)
        require(seen == universe and res.universe_size == len(universe),
                f"N={N}: classes do not cover the power products")

    return Job("partition", (N, seed), run, check, exact=lambda res: res.to_json())


def _fractions_job(rng, n_values: int) -> Job:
    """Fraction-family counts over 60 seeded denominators, and the pair
    coloring of a sequence where every value occurs two or three times."""
    dens = sorted(rng.sample(range(1, 201), 60))
    mult = [rng.choice((2, 3)) for _ in range(n_values)]
    if sum(mult) % 2:
        mult[0] = 5 - mult[0]
    values = [v for v, m in enumerate(mult) for _ in range(m)]
    rng.shuffle(values)
    pairs = [(values[i], values[i + 1]) for i in range(0, len(values), 2)]

    def run(tr):
        return ([calls.fraction_family_count(tr, dens, d) for d in (1, 2)],
                calls.kappa_coloring(tr, pairs))

    def check(out) -> None:
        (n1, n2), colors = out
        a = np.arange(1, 201)
        want1 = sum(int(np.count_nonzero(np.gcd(a[:q], q) == 1)) for q in dens)
        want2 = sum(int(np.count_nonzero(np.gcd(np.gcd.outer(a[:q], a[:q]), q) == 1))
                    for q in dens)
        require((n1, n2) == (want1, want2), f"fraction counts {(n1, n2)} != {(want1, want2)}")
        chosen = {p[c] for p, c in zip(pairs, colors)}
        rejected = {p[1 - c] for p, c in zip(pairs, colors)}
        require(chosen == rejected == set(range(n_values)),
                "coloring does not cover the values on both sides")

    return Job("fractions", (dens, pairs), run, check)


# -- workload -----------------------------------------------------------------


def build(rng, work: str, tiny: bool) -> list[Job]:
    s = (lambda full, small: small if tiny else full)
    jobs = [
        _gauss_odd_job(rng, s(20, 3)),
        _denominators_job([(s(201, 25), 0.75), (s(240, 30), 0.75), (s(120, 30), 1.0)]),
        _fractions_job(rng, s(400, 20)),
        _weyl_job(rng, s(1024, 64)),
        _gauss_k2_job(rng, s((41, 43, 47), (5, 7))),
        _gauss_scan_job(rng, 2, s(128, 12)),
        _gauss_scan_job(rng, 3, s(41, 8)),
        _weyl_job(rng, s(4096, 128)),
        _major_arc_job(rng, s(12, 5), False),
        _partition_job(rng, s(512, 32)),
        _multiplier_job(rng, s(12, 5)),
        _major_arc_job(rng, s(11, 5), True),
        _major_arc_job(rng, s(11, 5), True),
        _major_arc_job(rng, s(11, 6), True),
        _major_arc_job(rng, s(14, 6), False),
        _denominators_job([(s(200, 40), 1.0)]),
        _partition_job(rng, s(1024, 64)),
    ]

    point = _reduced_point(rng, rng.choice((2, 3, 5)), 2)
    cli_seed = rng.randrange(1 << 30)
    q_max = s(64, 8)

    def check_scan(files) -> None:
        rows = csv_rows(files["gauss-scan.csv"].decode())
        require(len(rows) == q_max - 1, "one gauss-scan row per q")
        for qs, m, arg in rows[:11]:
            a = [int(x) for x in arg.split(";")]
            close(float(m), abs(gauss_oracle(a, int(qs), [(1,), (2,)], 1)), 1e-9,
                  f"gauss-scan row q={qs}")

    N_list = [str(n) for n in s((8, 10), (4, 5))]

    def check_arc(files) -> None:
        rows = csv_rows(files["major-arc.csv"].decode())
        require([r[0] for r in rows] == N_list, "one major-arc row per N")

    N_iw = s(150, 30)

    def check_iw(files) -> None:
        members = [int(m) for m in json.loads(files["denominator-set.json"])["members"]]
        require(set(range(1, N_iw + 1)) <= set(members), "iw-build set lacks 1..N")
        require(json.loads(files["denominator-audit.json"])["parts"] >= 1, "no partition")

    cli_dir = os.path.join(work, "cli")
    jobs += [
        cli_job("gauss-scan", ["--k", "1", "--deg", "2", "--qmax", str(q_max)],
                os.path.join(cli_dir, "gauss-scan"), cli_seed, check_scan),
        cli_job("major-arc", ["--q", str(point.q), "--a", *map(str, point.numerators),
                              "--N", *N_list],
                os.path.join(cli_dir, "major-arc"), cli_seed, check_arc),
        cli_job("iw-build", ["--N", str(N_iw), "--rho", "1.0", "--partition"],
                os.path.join(cli_dir, "iw-build"), cli_seed, check_iw),
    ]
    return jobs
