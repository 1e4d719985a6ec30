"""Command-line front end: deterministic report emission for the main scans.

Exit codes: 0 on success, 2 on usage errors, 3 when a budget cap is hit,
4 on numeric non-convergence.  Every artifact embeds the seed and a hash of
the effective configuration; identical configuration (and seed) produces
byte-identical files.  The default output directory comes from the
RADONLAB_OUT environment variable, falling back to the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .errors import BudgetError, NonconvergenceError, PreconditionError
from .lattice import euclidean_ball
from .multiindex import full_degree_set
from .expsums import (IntegerPolynomial, RationalPoint, gauss_decay_scan,
                      weyl_bound_report)
from .denominators import build_denominator_set, partition_coprime_products
from .radon import (LatticeFunction, averaging_kernel, singular_kernel, apply,
                    cz_inverse)
from .variation import PathField, jump_seminorm, r_variation
from .multipliers import major_arc_error

EXIT_OK, EXIT_USAGE, EXIT_BUDGET, EXIT_NUMERIC = 0, 2, 3, 4


def _config_hash(ns: argparse.Namespace) -> str:
    # output placement is environment, not analysis configuration
    payload = json.dumps({k: repr(v) for k, v in sorted(vars(ns).items())
                          if k not in ("func", "out_dir")}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _out_path(ns: argparse.Namespace, name: str) -> str:
    base = ns.out_dir or os.environ.get("RADONLAB_OUT", ".")
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _write_manifest(ns: argparse.Namespace, command: str, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": ns.seed,
        "config_hash": _config_hash(ns),
        "arguments": {k: repr(v) for k, v in sorted(vars(ns).items()) if k != "func"},
        "outputs": outputs,
    }
    with open(_out_path(ns, f"{command}-manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def cmd_gauss_scan(ns: argparse.Namespace) -> int:
    if ns.qmax < 2 or ns.k < 1 or ns.deg < 1:
        print("gauss-scan: need --qmax >= 2, --k >= 1, --deg >= 1", file=sys.stderr)
        return EXIT_USAGE
    gammas = full_degree_set(ns.k, ns.deg)
    res = gauss_decay_scan(gammas, ns.k, ns.qmax)
    path = _out_path(ns, "gauss-scan.csv")
    with open(path, "w") as fh:
        fh.write(f"# config_hash={_config_hash(ns)} seed={ns.seed}\n")
        fh.write("q,max_abs_gauss,argmax_numerators\n")
        for row in res.rows:
            arg = ";".join(str(a) for a in row.argmax)
            fh.write(f"{row.q},{_fmt(row.max_abs)},{arg}\n")
        fh.write(f"# fitted_exponent={_fmt(res.fitted_exponent)} "
                 f"window={res.fit_window[0]}..{res.fit_window[1]}\n")
    _write_manifest(ns, "gauss-scan", [path])
    return EXIT_OK


def cmd_iw_build(ns: argparse.Namespace) -> int:
    ds = build_denominator_set(ns.N, ns.rho)
    path = _out_path(ns, "denominator-set.json")
    with open(path, "w") as fh:
        fh.write(ds.to_json())
        fh.write("\n")
    audit = {"N": ns.N, "rho": ns.rho, "members": len(ds), "branch": ds.branch,
             "config_hash": _config_hash(ns)}
    outputs = [path]
    if ns.partition:
        part = partition_coprime_products(ns.N, ns.rho, seed=ns.seed)
        for p in part.parts:
            p.validate(part.D)
        audit["parts"] = part.part_count
        audit["universe"] = part.universe_size
        audit["parts_over_log_n"] = part.part_count / math.log(ns.N)
        ppath = _out_path(ns, "denominator-partition.json")
        with open(ppath, "w") as fh:
            fh.write(part.to_json())
            fh.write("\n")
        outputs.append(ppath)
    apath = _out_path(ns, "denominator-audit.json")
    with open(apath, "w") as fh:
        json.dump(audit, fh, indent=1, sort_keys=True)
        fh.write("\n")
    outputs.append(apath)
    _write_manifest(ns, "iw-build", outputs)
    return EXIT_OK


def cmd_weyl_verify(ns: argparse.Namespace) -> int:
    if ns.samples < 1:
        raise PreconditionError("weyl-verify: need --samples >= 1")
    rng = random.Random(ns.seed)
    d = ns.deg
    eps = 1.0 / (2 * d * d - 2 * d + 1)
    body = euclidean_ball(1)
    rows = []
    for N in ns.N:
        for _ in range(ns.samples):
            qlo = max(2, int(N ** (d / 2.0) / 4))
            qhi = max(qlo + 1, int(N ** (d / 2.0) * 4))
            while True:
                q = rng.randrange(qlo, qhi + 1)
                a = rng.randrange(1, q)
                if math.gcd(a, q) == 1:
                    break
            delta = Fraction(rng.randrange(-q, q + 1), 4 * q ** 3)
            coeffs = {(d,): Fraction(a, q) + delta}
            for m in range(1, d):
                coeffs[(m,)] = Fraction(rng.randrange(0, 64), 64)
            poly = IntegerPolynomial.make(1, coeffs)
            rep = weyl_bound_report(poly, body, N, (d,), a, q, eps)
            rows.append((N, q, a, rep.sum_modulus, rep.kappa, rep.bound, rep.ratio))
    path = _out_path(ns, "weyl-verify.csv")
    with open(path, "w") as fh:
        fh.write(f"# config_hash={_config_hash(ns)} seed={ns.seed} epsilon={_fmt(eps)}\n")
        fh.write("N,q,a,sum_modulus,kappa,bound,ratio\n")
        for N, q, a, s, k_, b, r in rows:
            fh.write(f"{N},{q},{a},{_fmt(s)},{_fmt(k_)},{_fmt(b)},{_fmt(r)}\n")
        fh.write(f"# max_ratio={_fmt(max(r[-1] for r in rows))}\n")
    _write_manifest(ns, "weyl-verify", [path])
    return EXIT_OK


def _read_path_field(path: str) -> PathField:
    """Text format: first line 'times t1 t2 ...'; then per site
    'x1 ... xm re1 im1 re2 im2 ...' with one (re, im) pair per time."""
    with open(path) as fh:
        lines = [l.strip() for l in fh if l.strip() and not l.startswith("#")]
    if not lines or not lines[0].startswith("times"):
        raise ValueError("first line must be 'times t1 t2 ...'")
    times = tuple(float(x) for x in lines[0].split()[1:])
    n = len(times)
    sites, values = [], []
    for line in lines[1:]:
        parts = line.split()
        m = len(parts) - 2 * n
        if m < 1:
            raise ValueError("site line too short")
        sites.append(tuple(int(c) for c in parts[:m]))
        vals = [complex(float(parts[m + 2 * i]), float(parts[m + 2 * i + 1]))
                for i in range(n)]
        values.append(tuple(vals))
    return PathField(tuple(sites), times, tuple(values))


def cmd_jumps(ns: argparse.Namespace) -> int:
    field = _read_path_field(ns.input)
    jn = jump_seminorm(field, ns.p)
    v_r = [r_variation(row, ns.r) for row in field.values]
    path = _out_path(ns, "jumps.csv")
    with open(path, "w") as fh:
        fh.write(f"# config_hash={_config_hash(ns)} seed={ns.seed}\n")
        fh.write("site,v_r\n")
        for site, v in zip(field.sites, v_r):
            fh.write(f"{' '.join(str(c) for c in site)},{_fmt(v)}\n")
        fh.write(f"# jump_seminorm_p{ns.p}={_fmt(jn)}\n")
    _write_manifest(ns, "jumps", [path])
    return EXIT_OK


def cmd_radon_apply(ns: argparse.Namespace) -> int:
    with open(ns.input) as fh:
        f = LatticeFunction.from_text(fh.read())
    gammas = full_degree_set(ns.k, ns.deg)
    body = euclidean_ball(ns.k)
    if ns.flavor == "avg":
        kern = averaging_kernel(body, ns.t, gammas)
    else:
        if ns.k != 1:
            print("radon-apply: shipped singular kernel is one-dimensional",
                  file=sys.stderr)
            return EXIT_USAGE
        kern = singular_kernel(body, ns.t, gammas, cz_inverse(body))
    g = apply(kern, f)
    path = _out_path(ns, "radon-apply.txt")
    with open(path, "w") as fh:
        fh.write(f"# config_hash={_config_hash(ns)} seed={ns.seed}\n")
        fh.write(g.to_text())
    _write_manifest(ns, "radon-apply", [path])
    return EXIT_OK


def cmd_major_arc(ns: argparse.Namespace) -> int:
    gammas = full_degree_set(1, ns.deg)
    body = euclidean_ball(1)
    point = RationalPoint.make(ns.a, ns.q)
    try:
        theta = tuple(Fraction(th) for th in ns.theta)
    except ZeroDivisionError:
        raise ValueError(f"--theta has a zero denominator: {ns.theta}") from None
    rows = []
    for N in ns.N:
        rep = major_arc_error("averaging", body, gammas, N, point, theta)
        rows.append(rep)
    path = _out_path(ns, "major-arc.csv")
    with open(path, "w") as fh:
        fh.write(f"# config_hash={_config_hash(ns)} seed={ns.seed}\n")
        fh.write("N,q,sup_error,scale_term,ratio_leading,ratio_full\n")
        for rep in rows:
            fh.write(f"{rep.N},{rep.point.q},{_fmt(rep.sup_error)},"
                     f"{_fmt(rep.scale_term)},{_fmt(rep.ratio_leading)},"
                     f"{_fmt(rep.ratio_full)}\n")
    _write_manifest(ns, "major-arc", [path])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="radonlab",
                                 description="Deterministic scans and reports "
                                             "for the discrete Radon laboratory.")
    ap.add_argument("--out-dir", default=None, help="output directory "
                    "(default: $RADONLAB_OUT or the working directory)")
    ap.add_argument("--seed", type=int, default=2024)
    # the common flags are accepted before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gauss-scan", parents=[common],
                       help="max Gauss sum modulus per denominator")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--deg", type=int, required=True)
    g.add_argument("--qmax", type=int, required=True)
    g.set_defaults(func=cmd_gauss_scan)

    b = sub.add_parser("iw-build", parents=[common], help="build a structured denominator set")
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--rho", type=float, required=True)
    b.add_argument("--partition", action="store_true",
                   help="also build and audit the coprime-product partition")
    b.set_defaults(func=cmd_iw_build)

    w = sub.add_parser("weyl-verify", parents=[common], help="Weyl sum ratio scan")
    w.add_argument("--deg", type=int, default=2)
    w.add_argument("--N", type=int, nargs="+", default=[64, 128, 256])
    w.add_argument("--samples", type=int, default=20)
    w.set_defaults(func=cmd_weyl_verify)

    j = sub.add_parser("jumps", parents=[common], help="variation and jump seminorms of a path field")
    j.add_argument("--input", required=True)
    j.add_argument("--p", type=float, default=2.0)
    j.add_argument("--r", type=float, default=2.0)
    j.set_defaults(func=cmd_jumps)

    r = sub.add_parser("radon-apply", parents=[common], help="apply an averaging or singular kernel")
    r.add_argument("--flavor", choices=("avg", "singular"), required=True)
    r.add_argument("--t", type=float, required=True)
    r.add_argument("--input", required=True)
    r.add_argument("--k", type=int, default=1)
    r.add_argument("--deg", type=int, default=2)
    r.set_defaults(func=cmd_radon_apply)

    m = sub.add_parser("major-arc", parents=[common], help="major-arc approximation error report")
    m.add_argument("--deg", type=int, default=2)
    m.add_argument("--N", type=int, nargs="+", default=[4, 6, 8, 10])
    m.add_argument("--q", type=int, required=True)
    m.add_argument("--a", type=int, nargs="+", required=True)
    m.add_argument("--theta", nargs="*", default=[])
    m.set_defaults(func=cmd_major_arc)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return ns.func(ns)
    except NonconvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
