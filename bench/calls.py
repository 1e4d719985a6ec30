"""Every call the workloads make into radonlab, each under its span name.

One wrapper per public function: it names the span and says how the call's
work is counted.  Counts come from the call's inputs and outputs only, so they
repeat exactly between runs of the same seed.  ``SPANS`` lists each span name
with the unit of its work and the extra statistics reported for it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import radonlab as rl

from oracles import box_cells, distinct_moves, strict_floor

# span name -> (unit of "units", extra statistics)
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "lattice.lattice_points.ball": ("points", ("yield",)),
    "lattice.lattice_points.cube": ("points", ("yield",)),
    "lattice.lattice_points.ellipsoid": ("points", ("yield",)),
    "lattice.near_boundary_count": ("cells", ()),
    "radon.averaging_kernel": ("points", ("collisions",)),
    "radon.singular_kernel": ("points", ("collisions",)),
    "radon.apply": ("entry-sites", ()),
    "radon.apply_on_torus": ("cells", ("bytes_computed",)),
    "radon.kernel_block_variation_report": ("breakpoints", ()),
    "variation.jump_seminorm": ("threshold-cells", ("thresholds",)),
    "variation.r_variation": ("dp-cells", ()),
    "variation.block_variation": ("dp-cells", ()),
    "expsums.gauss_decay_scan": ("table-cells", ()),
    "expsums.gauss_sum": ("summands", ()),
    "expsums.weyl_bound_report": ("summands", ()),
    "multipliers.major_arc_error.theta0": ("points", ()),
    "multipliers.major_arc_error.offset": ("points", ()),
    "multipliers.discrete_multiplier": ("points", ()),
    "multipliers.continuous_symbol": ("levels", ()),
    "denominators.build_denominator_set.small": ("members", ()),
    "denominators.build_denominator_set.product": ("members", ()),
    "denominators.partition_coprime_products": ("elements", ("parts",)),
    "denominators.fraction_family_count": ("denominators", ()),
    "denominators.kappa_coloring": ("pairs", ()),
}
CLI_COMMANDS = ("gauss-scan", "iw-build", "jumps", "major-arc", "radon-apply")

_BODY_KIND = {"euclidean-ball": "ball", "cube": "cube", "ellipsoid": "ellipsoid"}


def body_axes(body) -> list[float]:
    """Per-axis extent: the radius, the half-side or the semi-axes."""
    if body.kind == "euclidean-ball":
        return [body.radius] * body.k
    if body.kind == "cube":
        return [body.halfside] * body.k
    return list(body.semiaxes)


# -- lattice ------------------------------------------------------------------


def lattice_points(tr, body, T: float):
    return tr.call(f"lattice.lattice_points.{_BODY_KIND[body.kind]}",
                   lambda pts: {"units": len(pts), "cells": box_cells(body_axes(body), T)},
                   rl.lattice_points, body, T)


def near_boundary_count(tr, body, t: float, s: float) -> int:
    b = int(math.ceil(t * body.outer_radius + s)) + 1
    return tr.call("lattice.near_boundary_count",
                   lambda _n: {"units": (2 * b + 1) ** body.k},
                   rl.near_boundary_count, body, t, s)


# -- radon --------------------------------------------------------------------


def averaging_kernel(tr, body, t: float, gammas):
    return tr.call("radon.averaging_kernel",
                   lambda k: {"units": k.normalizer, "entries": len(k)},
                   rl.averaging_kernel, body, t, gammas)


def singular_kernel(tr, body, t: float, gammas, cz, n_points: int):
    """``n_points`` is the number of nonzero lattice points the kernel consumes."""
    return tr.call("radon.singular_kernel",
                   lambda k: {"units": n_points, "entries": len(k)},
                   rl.singular_kernel, body, t, gammas, cz)


def apply(tr, kern, f):
    return tr.call("radon.apply", lambda _g: {"units": len(kern) * len(f)},
                   rl.apply, kern, f)


def apply_on_torus(tr, kern, grid):
    return tr.call("radon.apply_on_torus",
                   lambda _g: {"units": grid.size, "bytes_computed": 3 * 16 * grid.size},
                   rl.apply_on_torus, kern, grid)


def kernel_block_variation_report(tr, body, gammas, tau: float, n_max: int):
    """Averaging flavor on a one-dimensional body: the breakpoints are the
    integers j >= 1 below the top gauge times the half-width."""
    top = Fraction(2.0 ** ((n_max + 1) ** tau)) * Fraction(body_axes(body)[0])
    return tr.call("radon.kernel_block_variation_report",
                   lambda _r: {"units": strict_floor(top)},
                   rl.kernel_block_variation_report, body, gammas, "averaging",
                   tau, n_max)


# -- variation ----------------------------------------------------------------


def jump_seminorm(tr, field, p: float) -> float:
    def counts(_v):
        thresholds = distinct_moves(field.values)
        return {"units": thresholds * field.n_sites * len(field.times) ** 2,
                "thresholds": thresholds}

    return tr.call("variation.jump_seminorm", counts, rl.jump_seminorm, field, p)


def r_variation(tr, row, r: float) -> float:
    return tr.call("variation.r_variation", lambda _v: {"units": len(row) ** 2},
                   rl.r_variation, row, r)


def block_variation(tr, field, tau: float, r: float, blocks) -> list[float]:
    """``blocks`` are the sample index sets of the blocks, for the count."""
    cells = field.n_sites * sum(len(b) ** 2 for b in blocks)
    return tr.call("variation.block_variation", lambda _v: {"units": cells},
                   rl.block_variation, field, tau, r)


# -- expsums ------------------------------------------------------------------


def gauss_decay_scan(tr, gammas, q_max: int):
    d = len(gammas)
    return tr.call("expsums.gauss_decay_scan",
                   lambda _r: {"units": sum(q ** d for q in range(2, q_max + 1))},
                   rl.gauss_decay_scan, gammas, 1, q_max)


def gauss_sum(tr, point, gammas, k: int) -> complex:
    return tr.call("expsums.gauss_sum", lambda _g: {"units": point.q ** k},
                   rl.gauss_sum, point, gammas, k)


def weyl_bound_report(tr, poly, body, N: float, gamma0, a: int, q: int, eps: float):
    n = 2 * strict_floor(Fraction(N) * Fraction(body.radius)) + 1
    return tr.call("expsums.weyl_bound_report", lambda _r: {"units": n},
                   rl.weyl_bound_report, poly, body, N, gamma0, a, q, eps)


# -- multipliers --------------------------------------------------------------


def interval_points(body, t: float) -> int:
    """Lattice points of the open dilate of a one-dimensional body by 2**t."""
    return 2 * max(0, strict_floor(Fraction(2.0 ** t) * Fraction(body_axes(body)[0]))) + 1


def major_arc_error(tr, body, gammas, N: int, point, theta=(), t_samples: int = 9):
    """Averaging flavor.  At theta = 0 the breakpoint profile walks the
    points of the dilate by 2**(N+1); otherwise each sampled scale sums over
    its own dilate."""
    if any(theta):
        name = "multipliers.major_arc_error.offset"
        n = sum(interval_points(body, N + i / (t_samples - 1)) for i in range(t_samples))
    else:
        name = "multipliers.major_arc_error.theta0"
        n = interval_points(body, N + 1)
    return tr.call(name, lambda _r: {"units": n}, rl.major_arc_error, "averaging",
                   body, gammas, N, point, theta)


def discrete_multiplier(tr, body, t: float, gammas, xi) -> complex:
    return tr.call("multipliers.discrete_multiplier",
                   lambda _m: {"units": interval_points(body, t)},
                   rl.discrete_multiplier, "averaging", body, t, gammas, xi)


def continuous_symbol(tr, body, t: float, gammas, theta):
    return tr.call("multipliers.continuous_symbol", lambda ev: {"units": ev.levels},
                   rl.continuous_symbol, "averaging", body, t, gammas, theta)


# -- denominators -------------------------------------------------------------


def build_denominator_set(tr, N: int, rho: float):
    return tr.call("denominators.build_denominator_set",
                   lambda ds: {"units": len(ds), "variant": ds.branch},
                   rl.build_denominator_set, N, rho)


def partition_coprime_products(tr, N: int, rho: float, seed: int):
    return tr.call("denominators.partition_coprime_products",
                   lambda res: {"units": res.universe_size, "parts": res.part_count},
                   rl.partition_coprime_products, N, rho, seed)


def fraction_family_count(tr, denominators, d: int) -> int:
    return tr.call("denominators.fraction_family_count",
                   lambda _n: {"units": len(set(denominators))},
                   rl.fraction_family_count, denominators, d)


def kappa_coloring(tr, pairs) -> list[int]:
    return tr.call("denominators.kappa_coloring", lambda _c: {"units": len(pairs)},
                   rl.kappa_coloring, pairs)
