"""Golden outputs: the six demos' stdout, the data artifacts of five
``iw-build`` and two ``major-arc`` runs, and the values of seeded multiplier,
major-arc, increment-report and Weyl-sum calls must stay byte for byte what
``tests/golden`` records.  The call values are kept as the sha256 of their
``repr``, grouped per function, beside the Python and numpy versions that
recorded them.

The CLI runs in-process from a temporary working directory with a relative
``--out-dir``, so the artifacts do not depend on where the checkout lives.
Run this file as a script to record the golden outputs afresh:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from radonlab import (IntegerPolynomial, RationalPoint, cube, cz_inverse,
                      cz_product, cz_quadrupole, discrete_multiplier, ellipsoid,
                      euclidean_ball, full_degree_set, major_arc_error,
                      multiplier_increment_report, weyl_sum)
from radonlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
IW_BUILDS = {
    "N150-rho0.75-partition": ["--N", "150", "--rho", "0.75", "--partition"],
    "N150-rho1-partition": ["--N", "150", "--rho", "1.0", "--partition"],
    "N20-rho0.6-partition": ["--N", "20", "--rho", "0.6", "--partition"],
    "N240-rho0.75": ["--N", "240", "--rho", "0.75"],
    "N64-rho1-partition": ["--N", "64", "--rho", "1.0", "--partition"],
}
MAJOR_ARCS = {
    "q3-deg2": ["--q", "3", "--a", "1", "2", "--N", "4", "6", "8", "10"],
    "q5-theta": ["--q", "5", "--a", "1", "2", "--N", "4", "6", "8",
                 "--theta", "1/64", "5/4096"],
}


def demo_stdout(path: Path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


def artifact_digests(command: str, args: list[str], workdir: Path) -> dict[str, str]:
    """sha256 of each data artifact (the manifest aside) of one CLI run."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(["--out-dir", "out", command, *args]) == 0
    finally:
        os.chdir(cwd)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((workdir / "out").iterdir())
            if not p.name.endswith("-manifest.json")}


def test_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_golden(demo):
    assert demo_stdout(demo) == (GOLDEN / f"{demo.stem}.out").read_text()


@pytest.mark.parametrize("name", sorted(IW_BUILDS))
def test_iw_build_artifacts_are_golden(name, tmp_path):
    want = json.loads((GOLDEN / "iw-build.json").read_text())[name]
    assert artifact_digests("iw-build", IW_BUILDS[name], tmp_path) == want


@pytest.mark.parametrize("name", sorted(MAJOR_ARCS))
def test_major_arc_artifacts_are_golden(name, tmp_path):
    want = json.loads((GOLDEN / "major-arc.json").read_text())[name]
    assert artifact_digests("major-arc", MAJOR_ARCS[name], tmp_path) == want


# -- seeded library calls -------------------------------------------------------


def _fractions(rng, n: int, q: int) -> list[Fraction]:
    return [Fraction(rng.randrange(-q, q), q) for _ in range(n)]


def _floats(rng, n: int) -> list[float]:
    return [rng.uniform(-1, 1) for _ in range(n)]


def multiplier_calls() -> dict[str, list[tuple[str, object]]]:
    """Seeded calls per function, as (label, thunk) pairs."""
    rng = random.Random(2718)
    calls = {"discrete_multiplier": [], "major_arc_error": [],
             "multiplier_increment_report": [], "weyl_sum": []}
    bodies = {1: [euclidean_ball(1), cube(1, 0.75), ellipsoid([0.8125])],
              2: [euclidean_ball(2), cube(2), ellipsoid([1.0, 0.8125])]}
    kernels = {1: [cz_inverse], 2: [cz_quadrupole, cz_product]}
    for k, t_hi in ((1, 9.0), (2, 4.5)):
        gammas = full_degree_set(k, 2)
        for body in bodies[k]:
            for flavor, cz in [("averaging", None)] + [("singular", f(body)) for f in kernels[k]]:
                for kind in ("exact", "float"):
                    for _ in range(2):
                        t = round(rng.uniform(0, t_hi), 3)
                        xi = (_fractions(rng, len(gammas), rng.randrange(1, 60))
                              if kind == "exact" else _floats(rng, len(gammas)))
                        calls["discrete_multiplier"].append((
                            f"{flavor}-{cz.name if cz else 'avg'}-{body.kind}-k{k}-{kind}-t{t}",
                            lambda a=(flavor, body, t, gammas, xi, cz):
                                discrete_multiplier(*a[:5], cz=a[5])))
    G12, G22 = full_degree_set(1, 2), full_degree_set(2, 2)
    for body in bodies[1][:2]:
        for flavor, cz in (("averaging", None), ("singular", cz_inverse(body))):
            for offset in (False, True):
                N = rng.randrange(3, 10)
                q = rng.choice((1, 2, 3, 5, 7))
                point = RationalPoint.make([rng.randrange(q) for _ in range(2)], q)
                theta = (Fraction(rng.choice((-2, -1, 1, 2)), 2 ** N),
                         Fraction(rng.choice((-2, -1, 1, 2)), 4 ** N)) if offset else ()
                calls["major_arc_error"].append((
                    f"{flavor}-{body.kind}-k1-N{N}-q{q}-{'offset' if offset else 'theta0'}",
                    lambda a=(flavor, body, G12, N, point, theta, cz):
                        major_arc_error(*a[:6], cz=a[6])))
    B2 = bodies[2][0]
    for flavor, cz in (("averaging", None), ("singular", cz_quadrupole(B2))):
        for offset in (False, True):
            N = 3
            point = RationalPoint.make([rng.randrange(3) for _ in range(len(G22))], 3)
            theta = tuple(Fraction(rng.choice((-1, 1)), 2 ** (2 * N + 2)) for _ in G22.members) \
                if offset else ()
            calls["major_arc_error"].append((
                f"{flavor}-ball-k2-N{N}-{'offset' if offset else 'theta0'}",
                lambda a=(flavor, B2, G22, N, point, theta, cz):
                    major_arc_error(*a[:6], cz=a[6])))
    for k, body, gammas, gamma0, q in ((1, bodies[1][0], G12, (2,), 37),
                                       (1, bodies[1][1], G12, (2,), 11),
                                       (2, B2, G22, (2, 0), 37), (2, bodies[2][2], G22, (1, 1), 7)):
        for flavor, cz in [("averaging", None)] + [("singular", f(body)) for f in kernels[k][:1]]:
            N = 6 if k == 1 else 4
            a = rng.randrange(1, q)
            xi = _fractions(rng, len(gammas), rng.randrange(1, 30))
            xi[gammas.index(gamma0)] = Fraction(a, q) + Fraction(rng.randrange(-4, 5), 8 * q * q)
            calls["multiplier_increment_report"].append((
                f"{flavor}-{body.kind}-k{k}-N{N}-q{q}",
                lambda a=(flavor, body, gammas, N, gamma0, a, q, xi, cz):
                    multiplier_increment_report(*a[:8], cz=a[8])))
    phis = {"none": None, "affine": lambda n: complex(1 + 0.25 * n[0], -0.5),
            "norm": lambda n: 0.125 * sum(c * c for c in n)}
    for k, body, N in ((1, bodies[1][0], 300.5), (1, bodies[1][2], 77.0),
                       (2, bodies[2][0], 20.0), (2, bodies[2][1], 12.5), (2, bodies[2][2], 15.0)):
        for Q in (rng.randrange(2, 5000), 2 ** 31 + 11, 2 ** 70 + 1):
            coeffs = {g: Fraction(rng.randrange(Q), Q) for g in full_degree_set(k, 3).members
                      if rng.random() < 0.6}
            poly = IntegerPolynomial.make(k, coeffs)
            for name, phi in phis.items():
                calls["weyl_sum"].append((
                    f"{body.kind}-k{k}-N{N}-Q{Q}-phi-{name}",
                    lambda a=(poly, body, N, phi): weyl_sum(*a[:3], phi=a[3])))
    return calls


def call_digests(name: str) -> dict[str, str]:
    """sha256 of the ``repr`` of each seeded call of one function."""
    return {label: hashlib.sha256(repr(thunk()).encode()).hexdigest()
            for label, thunk in multiplier_calls()[name]}


@pytest.mark.parametrize("name", ["discrete_multiplier", "major_arc_error",
                                  "multiplier_increment_report", "weyl_sum"])
def test_multiplier_values_are_golden(name):
    golden = json.loads((GOLDEN / "multipliers.json").read_text())
    recorded = f"recorded on Python {golden['python']}, numpy {golden['numpy']}"
    assert call_digests(name) == golden["digests"][name], recorded


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.out").write_text(demo_stdout(demo))
    for command, runs in (("iw-build", IW_BUILDS), ("major-arc", MAJOR_ARCS)):
        digests = {}
        for name, args in sorted(runs.items()):
            with tempfile.TemporaryDirectory() as tmp:
                digests[name] = artifact_digests(command, args, Path(tmp))
        (GOLDEN / f"{command}.json").write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n")
    values = {"python": platform.python_version(), "numpy": np.__version__,
              "digests": {name: call_digests(name) for name in multiplier_calls()}}
    (GOLDEN / "multipliers.json").write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
