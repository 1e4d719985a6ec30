"""operator_jumps: jump and variation seminorms of averaging-operator families.

Each family is 12 averaging kernels at increasing scales, built on the 1-D
interval with Gamma = {1, 2} or on the 2-D ball with the identity map, and
applied to a seeded lattice function on three sites.  The outputs form a
path field of about 100 sites x 12 scales.  Per family the pass runs three
jobs:

- ``jumps``: kernels, sparse apply and the jump seminorm (the tail);
- ``rvar``: r-variation of every site's path for r in {1.5, 2, inf} (the median);
- ``block``: the short-variation block splitting.

One ``jumps`` CLI job on a seeded path-field file closes the pass.
"""

from __future__ import annotations

import math
import os

from radonlab import (LatticeFunction, PathField, euclidean_ball, full_degree_set,
                      jump_profile)

import calls
from jobs import Job, cli_job, csv_rows
from oracles import (blocks_of, brute_r_variation, close, lattice_oracle, require)

P = 2.0
R_VALUES = (1.5, 2.0, math.inf)
TAU = 0.5
N_SCALES = 12
# (body, gammas, largest scale t); the top scales give each family ~100 sites
SHAPES = ((euclidean_ball(1), full_degree_set(1, 2), 4.1),
          (euclidean_ball(2), full_degree_set(2, 1), 2.0))
MIN_PASSES = 4


def _path_field(ts, outputs) -> PathField:
    sites = sorted({x for g in outputs for x in g.sites()})
    values = tuple(tuple(g[x] for g in outputs) for x in sites)
    return PathField(tuple(sites), tuple(ts), values)


def _family_jobs(rng, body, gammas, t_max: float, tiny: bool) -> list[Job]:
    n_scales = 4 if tiny else N_SCALES
    ts = [t_max * i / (n_scales - 1) for i in range(n_scales)]
    if tiny:
        ts = [t / 2 for t in ts]
    # sources 60 apart: their images never meet, so the field's shape (and
    # the work on it) is the same for every seed
    f = LatticeFunction(2, {(60 * i + rng.randrange(8), rng.randrange(8)):
                            complex(rng.gauss(0, 1), rng.gauss(0, 1)) for i in range(3)})
    state: dict = {}
    inputs = (body, gammas, ts, f.items())

    def run_jumps(tr):
        family = [(t, calls.averaging_kernel(tr, body, t, gammas)) for t in ts]
        outputs = [calls.apply(tr, kern, f) for _, kern in family]
        field = _path_field(ts, outputs)
        state["family"], state["field"] = family, field
        return family, field, calls.jump_seminorm(tr, field, P)

    def profile():
        if "profile" not in state:
            state["profile"] = jump_profile(state["family"], f, P, R_VALUES)
        return state["profile"]

    def check_jumps(out) -> None:
        family, field, jn = out
        for t, kern in family:
            require(kern.total_mass() == 1, f"kernel at t={t} has mass {kern.total_mass()}")
            pts = lattice_oracle("quadric", calls.body_axes(body), 2.0 ** t)
            require(kern.normalizer == len(pts),
                    f"kernel at t={t} averages {kern.normalizer} points, box scan finds {len(pts)}")
        require(field.n_sites > 0, "empty path field")
        require(jn == profile().jump_norm,
                f"jump seminorm {jn!r} != jump_profile {profile().jump_norm!r}")

    def run_rvar(tr):
        rows = state["field"].values
        return {r: [calls.r_variation(tr, row, r) for row in rows] for r in R_VALUES}

    def check_rvar(out) -> None:
        want = profile().variations
        rows = state["field"].values
        for r in R_VALUES:
            require(out[r] == want[r], f"r={r} variations differ from jump_profile")
            for i in range(min(2, len(rows))):
                close(out[r][i], brute_r_variation(rows[i], r), 1e-9,
                      f"r={r} variation of site {i} vs subsequence enumeration")

    blocks = blocks_of(ts, TAU)

    def run_block(tr):
        return calls.block_variation(tr, state["field"], TAU, 2.0, blocks)

    def check_block(out) -> None:
        rows = state["field"].values
        require(len(out) == len(rows), "one block variation per site")
        for v, row in zip(out, rows):
            want = math.sqrt(sum(brute_r_variation([row[i] for i in b], 2.0) ** 2
                                 for b in blocks))
            close(v, want, 1e-9 * (1 + want), "block variation vs subsequence enumeration")

    return [Job("jumps", inputs, run_jumps, check_jumps,
                exact=lambda out: (out[1].sites, out[1].values, out[2])),
            Job("rvar", inputs, run_rvar, check_rvar),
            Job("block", inputs, run_block, check_block)]


def _write_field_file(rng, path: str, n_sites: int, n_times: int) -> None:
    """Seeded path field in the CLI's text format; values on a 1/16 grid so
    that move sizes repeat, as they do for operator outputs."""
    lines = ["times " + " ".join(str(0.25 * (i + 1)) for i in range(n_times))]
    for s in range(n_sites):
        vals = " ".join(f"{rng.randrange(-32, 33) / 16} {rng.randrange(-32, 33) / 16}"
                        for _ in range(n_times))
        lines.append(f"{s} {s % 3} {vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def build(rng, work: str, tiny: bool) -> list[Job]:
    jobs = []
    n_families = 2 if tiny else 4
    for i in range(n_families):
        body, gammas, t_max = SHAPES[i % 2]
        jobs += _family_jobs(rng, body, gammas, t_max, tiny)
    field_path = os.path.join(work, "inputs", "field.txt")
    _write_field_file(rng, field_path, 4 if tiny else 20, 6 if tiny else 12)

    def check_cli(files) -> None:
        text = files["jumps.csv"].decode()
        require("# jump_seminorm_p2.0=" in text, "jumps.csv lacks the seminorm line")
        require(len(csv_rows(text)) == (4 if tiny else 20), "one v_r row per site")

    jobs.append(cli_job("jumps", ["--input", field_path, "--p", "2", "--r", "2"],
                        os.path.join(work, "cli", "jumps"), rng.randrange(1 << 30),
                        check_cli))
    return jobs
