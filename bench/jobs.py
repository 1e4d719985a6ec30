"""The job record shared by the workloads, and the helper for CLI jobs."""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable

from radonlab import cli

from oracles import require


@dataclass
class Job:
    """One unit of user traffic.

    ``run(tracer)`` does the timed work and returns its output; it makes every
    call into radonlab through ``tracer.call``.  ``check(output)`` raises
    ``CheckFailed`` when the output is wrong and ``exact(output)`` gives the
    plain data that is digested to compare passes and runs.  Neither is timed.
    """

    kind: str
    inputs: Any
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    exact: Callable[[Any], Any] = field(default=lambda out: out)


def digest(data: Any) -> str:
    """sha256 of the pickled data: exact for ints, floats and complex."""
    return hashlib.sha256(pickle.dumps(data, protocol=5)).hexdigest()


def artifacts(out_dir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def cli_job(command: str, args: list[str], out_dir: str, cli_seed: int,
            check_artifacts: Callable[[dict[str, bytes]], None]) -> Job:
    """A ``radonlab`` command run in-process with relative paths, so its
    artifacts are byte-stable across checkouts.

    The check wants exit code 0, a second run with the same flags that writes
    byte-identical artifacts, and ``check_artifacts`` to pass on them.
    """
    argv = ["--out-dir", out_dir, "--seed", str(cli_seed), command, *args]

    def artifact_bytes(_rc) -> dict:
        return {"artifact_bytes": sum(len(b) for b in artifacts(out_dir).values())}

    def run(tr):
        return tr.call("cli." + command, artifact_bytes, cli.main, argv)

    def check(rc) -> None:
        require(rc == 0, f"radonlab {command} exited {rc}")
        first = artifacts(out_dir)
        rc2 = cli.main(argv)
        require(rc2 == 0, f"radonlab {command} rerun exited {rc2}")
        require(artifacts(out_dir) == first,
                f"radonlab {command}: rerun with the same flags changed its artifacts")
        check_artifacts(first)

    return Job("cli_" + command.replace("-", "_"), argv, run, check,
               exact=lambda rc: (rc, artifacts(out_dir)))


def csv_rows(text: str) -> list[list[str]]:
    """Data rows of a CLI csv artifact (comment and header lines dropped)."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]
