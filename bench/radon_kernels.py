"""radon_kernels: kernel building, sparse and torus application.

Averaging and singular kernels at scales 2^5.5 to 2^7 over balls, cubes and
diagonal ellipsoids in k = 1 and 2, each enumerated, built and applied to a
seeded function on three sites.  Ball, cube and singular kernel jobs (numpy
ball scan, ~0.1-0.2 s) set the median; ellipsoid jobs (per-point exact scan,
~0.5 s) and the A12-size block variation table set the tail.  Torus apply,
near-boundary counts and one ``radon-apply`` CLI job are the cheap end.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from radonlab import (LatticeFunction, cube, cz_inverse, cz_product, cz_quadrupole,
                      ellipsoid, euclidean_ball, full_degree_set)

import calls
from jobs import Job, cli_job
from oracles import (close, lattice_oracle, near_boundary_oracle, require,
                     strict_floor)

G12 = full_degree_set(1, 2)
G1 = full_degree_set(1, 1)
ID2 = full_degree_set(2, 1)
MIN_PASSES = 3


def _axes_kind(body) -> str:
    return "cube" if body.kind == "cube" else "quadric"


def _function(rng) -> LatticeFunction:
    """Seeded values on three sites of [0, 5)^2 (every image lattice is 2-D)."""
    sources = rng.sample([divmod(i, 5) for i in range(25)], 3)
    return LatticeFunction(2, {s: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                               for s in sources})


def _check_points(body, T: float, pts) -> None:
    want = lattice_oracle(_axes_kind(body), calls.body_axes(body), T)
    require(list(pts.points) == want,
            f"{body.kind} dilate {T}: {len(pts)} points, box scan finds {len(want)}")


def _averaging_job(rng, body, gammas, t: float, state: dict | None = None) -> Job:
    f = _function(rng)

    def run(tr):
        pts = calls.lattice_points(tr, body, 2.0 ** t)
        kern = calls.averaging_kernel(tr, body, t, gammas)
        g = calls.apply(tr, kern, f)
        if state is not None:
            state.update(kernel=kern, f=f, g=g)
        return pts, kern, g

    def check(out) -> None:
        pts, kern, g = out
        _check_points(body, 2.0 ** t, pts)
        require(kern.total_mass() == 1, f"averaging mass {kern.total_mass()}")
        require(kern.normalizer == len(pts), "kernel normalizer != lattice count")
        close(g.total(), f.total(), 1e-9 * f.norm_l1(), "apply does not preserve mass")

    return Job("ellipsoid" if body.kind == "ellipsoid" else "kernel",
               (body, gammas, t, f.items()), run, check,
               exact=lambda out: (out[0].points, out[1].entries, out[2].items()))


def _singular_job(rng, body, gammas, t: float, cz, reflect) -> Job:
    """``reflect`` maps each image point to the image of a lattice point where
    the kernel takes the opposite value."""
    f = _function(rng)

    def run(tr):
        pts = calls.lattice_points(tr, body, 2.0 ** t)
        kern = calls.singular_kernel(tr, body, t, gammas, cz, len(pts) - 1)
        return pts, kern, calls.apply(tr, kern, f)

    def check(out) -> None:
        pts, kern, g = out
        _check_points(body, 2.0 ** t, pts)
        entries = kern.entry_dict()
        for x, v in entries.items():
            require(entries.get(reflect(x)) == -v, f"kernel is not odd at {x}")
        close(g.total(), 0, 1e-9 * kern.norm_l1() * f.norm_l1(),
              "odd kernel applied to f has nonzero total")

    return Job("singular", (body, gammas, t, cz.name, f.items()), run, check,
               exact=lambda out: (out[0].points, out[1].entries, out[2].items()))


def _kernels_1d_job(rng) -> Job:
    """Cheap one-dimensional kernels: interval, cube and ellipsoid averages and
    the 1/y kernel, all along y -> (y, y^2) at scale 2^7."""
    bodies = (euclidean_ball(1), cube(1), ellipsoid([0.875]))
    f = _function(rng)
    iv = bodies[0]
    cz = cz_inverse(iv)

    def run(tr):
        out = []
        for body in bodies:
            pts = calls.lattice_points(tr, body, 2.0 ** 7)
            kern = calls.averaging_kernel(tr, body, 7, G12)
            out.append((pts, kern, calls.apply(tr, kern, f)))
        pts = calls.lattice_points(tr, iv, 2.0 ** 7)
        kern = calls.singular_kernel(tr, iv, 7, G12, cz, len(pts) - 1)
        out.append((pts, kern, calls.apply(tr, kern, f)))
        return out

    def check(out) -> None:
        for body, (pts, kern, g) in zip(bodies, out):
            _check_points(body, 2.0 ** 7, pts)
            require(kern.total_mass() == 1, f"{body.kind} averaging mass {kern.total_mass()}")
            close(g.total(), f.total(), 1e-9 * f.norm_l1(), "apply does not preserve mass")
        entries = out[-1][1].entry_dict()
        for (x1, x2), v in entries.items():
            require(entries.get((-x1, x2)) == -v, "1/y kernel is not odd")

    return Job("kernels_1d", f.items(), run, check,
               exact=lambda out: [(p.points, k.entries, g.items()) for p, k, g in out])


def _torus_job(state: dict) -> Job:
    """Torus FFT apply of the kernel and function of an earlier kernel job, on
    a grid two cells wider than twice the kernel's support radius."""

    def run(tr):
        kern, f = state["kernel"], state["f"]
        L = 2 * max(kern.support_radius()) + 2
        grid = np.zeros((L,) * kern.dim, dtype=complex)
        for x, v in f.items():
            grid[tuple(c % L for c in x)] += v
        return calls.apply_on_torus(tr, kern, grid)

    def check(out) -> None:
        g = state["g"]
        L = out.shape[0]
        by_cell: dict = {}
        for x, v in g.items():
            by_cell.setdefault(tuple(c % L for c in x), []).append(v)
        scale = max(abs(v) for _, v in g.items())
        compared = 0
        for cell, vals in by_cell.items():
            if len(vals) == 1:            # no wraparound onto this cell
                close(complex(out[cell]), vals[0], 1e-9 * scale, f"torus vs sparse at {cell}")
                compared += 1
        require(compared > len(by_cell) // 2, "torus grid too narrow to compare")

    return Job("torus", (), run, check, exact=lambda out: out.tobytes())


def _near_boundary_job(rng) -> Job:
    t = rng.choice((30.3, 31.1, 31.7, 32.9))
    specs = ((euclidean_ball(2), "ball", 1.0), (cube(2), "cube", cube(2).halfside))

    def run(tr):
        return [calls.near_boundary_count(tr, body, t, 2.0) for body, _, _ in specs]

    def check(out) -> None:
        for n, (body, kind, size) in zip(out, specs):
            want = near_boundary_oracle(kind, 2, size, t, 2.0, body.outer_radius)
            require(n == want, f"{kind} near-boundary count {n}, oracle {want}")

    return Job("near_boundary", t, run, check)


def _block_table_job(rng, tiny: bool) -> Job:
    """kernel_block_variation_report at A12 size (tau = 1/2, n_max = 200).

    For a 1-D average the kernel gains the points +-j at breakpoint j and
    ||K_j - K_(j-1)||_1 = 4 / (2j + 1), so the table's total over blocks
    1..n_max is the sum of 4 / (2j + 1) over 2r <= j < r 2^sqrt(n_max + 1).
    """
    r = rng.choice((0.9375, 0.96875, 1.0))
    gammas = rng.choice((G1, G12))
    n_max = 30 if tiny else 200
    body = euclidean_ball(1, r)

    def run(tr):
        return calls.kernel_block_variation_report(tr, body, gammas, 0.5, n_max)

    def check(rep) -> None:
        require(all(row.value >= 0 for row in rep.rows), "negative block variation")
        top = strict_floor(Fraction(2.0 ** ((n_max + 1) ** 0.5)) * Fraction(r))
        lo = math.ceil(2 * Fraction(r))
        want = sum(4.0 / (2 * j + 1) for j in range(lo, top + 1))
        close(sum(rep.values()), want, 1e-9 * want, "block table total vs closed form")

    return Job("block_table", (r, gammas, n_max), run, check,
               exact=lambda rep: (rep.values(), rep.fitted_slope))


def build(rng, work: str, tiny: bool) -> list[Job]:
    t2 = 3.5 if tiny else 6.0
    te = 3.0 if tiny else 5.5
    b2, c2 = euclidean_ball(2), cube(2)
    states = [{}, {}]
    jobs = [_kernels_1d_job(rng), _near_boundary_job(rng)]
    jobs += [_averaging_job(rng, b2, ID2, t2, state) for state in states]
    jobs += [_torus_job(state) for state in states]
    jobs += [_averaging_job(rng, b2, ID2, t2), _averaging_job(rng, c2, ID2, t2),
             _averaging_job(rng, c2, ID2, t2)]
    jobs += [_singular_job(rng, b2, ID2, t2, cz_quadrupole(b2), lambda x: (x[1], x[0]))]
    jobs += [_singular_job(rng, b2, ID2, t2, cz_product(b2), lambda x: (x[0], -x[1]))
             for _ in range(2)]
    # five equal ellipsoids: the tail percentile falls inside one kind of work
    jobs += [_averaging_job(rng, ellipsoid([1.0, 0.8125]), ID2, te) for _ in range(5)]
    jobs.append(_block_table_job(rng, tiny))

    f = _function(rng)
    f_path = os.path.join(work, "inputs", "radon-f.txt")
    with open(f_path, "w") as fh:
        fh.write(f.to_text())
    t_cli = 3 if tiny else 7

    def check_cli(files) -> None:
        text = files["radon-apply.txt"].decode()
        g = LatticeFunction.from_text(text)
        close(g.total(), f.total(), 1e-9 * f.norm_l1(), "radon-apply output mass")

    jobs.append(cli_job("radon-apply", ["--flavor", "avg", "--t", str(t_cli),
                                        "--input", f_path, "--k", "1", "--deg", "2"],
                        os.path.join(work, "cli", "radon-apply"), rng.randrange(1 << 30),
                        check_cli))
    return jobs
