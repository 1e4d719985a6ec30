"""Golden outputs: the six demos' stdout and the data artifacts of five
``iw-build`` runs must stay byte for byte what ``tests/golden`` records.

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
import runpy
from pathlib import Path

import pytest

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


def demo_stdout(path: Path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


def iw_build_digests(args: list[str], workdir: Path) -> dict[str, str]:
    """sha256 of each data artifact (the manifest aside) of one ``iw-build``."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(["--out-dir", "out", "iw-build", *args]) == 0
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
    assert iw_build_digests(IW_BUILDS[name], tmp_path) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.out").write_text(demo_stdout(demo))
    digests = {}
    for name, args in sorted(IW_BUILDS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = iw_build_digests(args, Path(tmp))
    (GOLDEN / "iw-build.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
