"""End-to-end and per-layer benchmark of radonlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with a single caller: the seeded job list
is run in whole passes, one job at a time.  The first pass is a warm-up that
checks every job's output against an oracle or exact invariant; timed passes
follow until their job time reaches ``--seconds`` and at least the workload's
minimum number of passes is done, and each must reproduce the first pass's
output digests.  A job that raises, hits a budget or fails its check counts
as failed.  numpy's BLAS is kept to one thread.  Before every job the garbage
collector and a fixed reference task run, untimed; the end-to-end metrics
scale each job's and each set-up probe's wall time to the reference task's
speed around it (see ``reference.py``), and the wall-time readings go in the
details.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every other timed pass
is traced and the metrics are the per-layer ones taken from the spans.  The line
before it holds the run's details and provenance.  Job artifacts, the result
and the spans go under ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("operator_jumps", "radon_kernels", "number_theory")
SETUP_PROBES = 5
TAIL_SAMPLES = 10

# one caller and no thread pools, also inside numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit; used to time set-up in a fresh process")
    return ap.parse_args(argv)


def set_up(workload: str, seed: int, work: str, tiny: bool):
    """Import numpy and radonlab, generate the seeded jobs, write their input
    files.  Returns the workload module and its job list."""
    src = ROOT / "src"
    if not (src / "radonlab" / "__init__.py").is_file():
        raise ImportError(f"no radonlab package under {src}")
    sys.path.insert(0, str(src))
    module = importlib.import_module(workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "inputs"))
    jobs = module.build(random.Random(f"{workload}/{seed}"), work, tiny)
    return module, jobs


def probe_setup(args) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that only set up, from spawn to exit, and
    the same times scaled to the reference task's speed around each."""
    from reference import REF_S, reference

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    walls, scaled = [], []
    ref_before = reference()
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t
        ref_after = reference()
        walls.append(dt)
        scaled.append(dt * REF_S / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return walls, scaled


@dataclass
class Loop:
    """What the closed loop measured.  Latencies and pass times are in
    seconds, per traced/untraced pass; ``scaled`` holds the latencies scaled
    to the reference task's speed."""

    latencies: dict = field(default_factory=lambda: {False: [], True: []})
    scaled: dict = field(default_factory=lambda: {False: [], True: []})
    pass_times: dict = field(default_factory=lambda: {False: [], True: []})
    scaled_pass_times: dict = field(default_factory=lambda: {False: [], True: []})
    ref_times: list = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    passes: int = 0
    first: list = field(default_factory=list)


def run_passes(jobs, seconds: float, min_passes: int, recorder) -> Loop:
    """The closed loop.

    Pass 0 is the warm-up: it checks every job's output and records its
    digest, and its latencies are not used.  Timed passes follow until their
    job time reaches ``seconds`` and at least ``min_passes`` are done; each
    must repeat pass 0's digests.  With a recorder, odd timed passes are
    traced.  Before every job the garbage collector and the reference task
    run; neither is timed, nor is digesting outputs.
    """
    from jobs import digest
    from oracles import CheckFailed
    from reference import REF_S, reference
    from tracing import NULL

    loop = Loop(first=[None] * len(jobs))
    timed = 0.0
    p = 0
    gc.collect()
    ref_before = reference()
    while p <= min_passes or timed < seconds:
        traced = recorder is not None and p % 2 == 1
        tr = recorder if traced else NULL
        busy, scaled_busy, clean = 0.0, 0.0, True
        for i, job in enumerate(jobs):
            loop.attempted += 1
            t = time.perf_counter()
            try:
                with tr.job(job.kind, f"{p}:{i}"):
                    out = job.run(tr)
                dt = time.perf_counter() - t
                d = digest(job.exact(out))
                if loop.first[i] is None:
                    job.check(out)
                    loop.first[i] = d
                elif d != loop.first[i]:
                    raise CheckFailed("output differs from the first pass")
            except Exception as exc:   # a failed job is counted, never fatal
                loop.failures.append(describe_failure(exc, p, i, job.kind))
                clean = False
                continue
            finally:
                gc.collect()
                ref_after = reference()
                ref = (ref_before + ref_after) / 2
                ref_before = ref_after
            if p:
                sdt = dt * REF_S / ref
                busy += dt
                scaled_busy += sdt
                loop.latencies[traced].append(dt)
                loop.scaled[traced].append(sdt)
                loop.ref_times.append(ref)
                loop.by_kind.setdefault(job.kind, []).append(dt)
        if p:
            timed += busy
            if clean:
                loop.pass_times[traced].append(busy)
                loop.scaled_pass_times[traced].append(scaled_busy)
        p += 1
    loop.passes = p - 1
    return loop


def describe_failure(exc: Exception, p: int, i: int, kind: str) -> dict:
    rec = {"pass": p, "job": i, "kind": kind, "error": type(exc).__name__,
           "message": str(exc)[:500],
           "where": traceback.format_tb(exc.__traceback__)[-1].strip()[:500]}
    for field in ("what", "needed", "cap"):           # BudgetError
        if hasattr(exc, field):
            rec[field] = repr(getattr(exc, field))
    return rec


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = p / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n_min: int) -> int:
    """Highest whole percentile with >= TAIL_SAMPLES samples beyond it in a
    run of ``n_min`` samples, the fewest a run can have."""
    return math.floor(100 * (1 - TAIL_SAMPLES / n_min))


def end_to_end(loop: Loop, n_jobs: int, p_tail: int, setup: list[float]) -> dict:
    """The end-to-end metrics.  Job and set-up times are scaled to the
    reference task's speed (see ``reference.py``); the wall-time readings go
    in the details."""
    lat, passes = loop.scaled[False], loop.scaled_pass_times[False]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_ref_s": (n_jobs * len(passes) / sum(passes), "1/s"),
        "job_p50_ref_ms": (1e3 * statistics.median(lat), "ms"),
        "job_tail_ref_ms": (1e3 * percentile(lat, p_tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_readings(loop: Loop, n_jobs: int, p_tail: int) -> dict:
    """The same job metrics from unscaled wall times, and the reference task's
    median time, for the details."""
    lat, passes = loop.latencies[False], loop.pass_times[False]
    return {
        "jobs_per_s": n_jobs * len(passes) / sum(passes),
        "job_p50_ms": 1e3 * statistics.median(lat),
        "job_tail_ms": 1e3 * percentile(lat, p_tail),
        "ref_p50_ms": 1e3 * statistics.median(loop.ref_times),
    }


def per_layer(recorder, pass_times) -> tuple[dict, bool]:
    """Per-layer metrics: call and unit counts of the first traced pass, self
    time as the median over traced passes.  Also says whether the counts
    repeated exactly in every traced pass."""
    from calls import CLI_COMMANDS, SPANS
    from tracing import self_times

    passes: dict[int, dict[str, dict]] = {}
    for sp, own in zip(recorder.spans, self_times(recorder.spans)):
        if sp.name.startswith("job."):
            continue
        acc = passes.setdefault(int(sp.job.split(":")[0]), {}).setdefault(
            sp.name, {"calls": 0, "self_s": 0.0})
        acc["calls"] += 1
        acc["self_s"] += own
        for k, v in sp.stats.items():
            acc[k] = acc.get(k, 0) + v
    counts = [{n: {k: v for k, v in a.items() if k != "self_s"} for n, a in per.items()}
              for per in passes.values()]
    repeat = all(c == counts[0] for c in counts)
    first = passes[min(passes)] if passes else {}

    def self_s(name: str) -> float:
        return statistics.median(per.get(name, {}).get("self_s", 0.0)
                                 for per in passes.values()) if passes else 0.0

    out = {}
    for name, (unit, extras) in SPANS.items():
        c = first.get(name, {})
        units, s = c.get("units", 0), self_s(name)
        out[f"{name}.calls"] = (c.get("calls", 0), "count")
        out[f"{name}.self_s"] = (s, "s")
        out[f"{name}.units"] = (units, unit)
        out[f"{name}.ns_per_unit"] = (1e9 * s / units if units else 0.0, "ns/unit")
        for extra in extras:
            if extra == "yield":
                out[f"{name}.yield"] = (units / c["cells"] if c else 0.0, "points/cell")
            elif extra == "collisions":
                out[f"{name}.collisions"] = (1 - c["entries"] / units if units else 0.0, "frac")
            else:
                out[f"{name}.{extra}"] = (c.get(extra, 0),
                                          "B" if extra == "bytes_computed" else "count")
    for cmd in CLI_COMMANDS:
        name = "cli." + cmd
        c = first.get(name, {})
        out[f"{name}.calls"] = (c.get("calls", 0), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
        out[f"{name}.artifact_bytes"] = (c.get("artifact_bytes", 0), "B")
    # 1 - (traced jobs/s) / (untraced jobs/s), from median scaled pass times
    med = {tr: statistics.median(v) for tr, v in pass_times.items() if v}
    overhead = 1 - med[False] / med[True] if len(med) == 2 else 0.0
    out["trace_overhead_frac"] = (overhead, "frac")
    return out, repeat


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, jobs, work: str) -> dict:
    import numpy

    from jobs import digest
    inputs = Path(work, "inputs").resolve()
    return {
        "git_sha": git_sha(),
        "src_sha256": tree_digest((ROOT / "src" / "radonlab").glob("*.py")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "inputs_sha256": hashlib.sha256(
            (digest([job.inputs for job in jobs]) + tree_digest(inputs.glob("*"))).encode()
        ).hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    work = os.path.join(".bench_out", args.workload)
    if args.setup_only:
        work = os.path.join(".bench_out", "setup-probe", args.workload)
    try:
        module, jobs = set_up(args.workload, args.seed, work, args.size == "tiny")
    except ImportError as exc:
        print(f"bench: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    setup_in_process = time.perf_counter() - T0
    if args.setup_only:
        return 0

    from tracing import Recorder

    setup, scaled_setup = ([], []) if args.trace else probe_setup(args)
    recorder = Recorder() if args.trace else None
    min_passes = max(module.MIN_PASSES, 3 if args.trace else 1)
    p_tail = tail_percentile(module.MIN_PASSES * len(jobs))
    t_loop = time.perf_counter()
    loop = run_passes(jobs, args.seconds, min_passes, recorder)
    loop_s = time.perf_counter() - t_loop
    failures = loop.failures

    details = {
        "provenance": provenance(args, jobs, work),
        "jobs_per_pass": len(jobs),
        "job_kinds": sorted({job.kind for job in jobs}),
        "passes": loop.passes,
        "loop_s": loop_s,
        "latency_samples": len(loop.latencies[False]) + len(loop.latencies[True]),
        "tail_percentile": p_tail,
        "kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(loop.by_kind.items())},
        "failed_frac": len(failures) / loop.attempted,
        "failures": failures[:20],
        "outputs_sha256": hashlib.sha256("".join(d or "-" for d in loop.first).encode()).hexdigest(),
        "setup_in_process_s": setup_in_process,
        "setup_probe_s": setup,
    }
    if args.trace:
        metrics, details["unit_counts_repeat"] = per_layer(recorder, loop.scaled_pass_times)
        spans_path = os.path.join(work, f"spans-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump([sp.as_dict() for sp in recorder.spans], fh)
        details["spans_file"] = spans_path
    else:
        if not loop.scaled_pass_times[False]:
            print("bench: no pass completed without a failure", file=sys.stderr)
            return 1
        metrics = end_to_end(loop, len(jobs), p_tail, scaled_setup)
        details["wall"] = wall_readings(loop, len(jobs), p_tail)
    result = {"correct": not failures, "attempted": loop.attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(work, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"details": details, **result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
