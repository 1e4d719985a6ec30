"""Spans around the benchmark's calls into radonlab's layers.

A traced pass hands jobs a ``Recorder``; an untraced pass hands them
``NULL``, whose ``call`` is a plain function call and whose ``job`` is a
shared no-op context, so the untraced run does no span bookkeeping at all.

A span is ``{name, start, end, parent, job}`` plus the work counts of the
call, kept in memory and written out when the run ends.  A span's self time
is its duration minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import time
from typing import Any, Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "stats")

    def __init__(self, name: str, start: float, parent: int, job: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.stats: dict = {}

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "stats": self.stats}


class _JobScope:
    __slots__ = ("rec", "name", "job_id")

    def __init__(self, rec: "Recorder", name: str, job_id: str) -> None:
        self.rec, self.name, self.job_id = rec, name, job_id

    def __enter__(self):
        self.rec.job_id = self.job_id
        self.rec._open(self.name)
        return self

    def __exit__(self, *exc) -> bool:
        self.rec._close()
        self.rec.job_id = ""
        return False


class Recorder:
    """Keeps every span of the traced passes in memory."""

    on = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job_id = ""

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else -1
        sp = Span(name, time.perf_counter(), parent, self.job_id)
        self.stack.append(len(self.spans))
        self.spans.append(sp)
        return sp

    def _close(self) -> Span:
        sp = self.spans[self.stack.pop()]
        sp.end = time.perf_counter()
        return sp

    def job(self, kind: str, job_id: str) -> _JobScope:
        return _JobScope(self, "job." + kind, job_id)

    def call(self, name: str, stats: Callable[[Any], dict] | None,
             fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``stats(result)`` gives the call's work counts; it runs after the
        span is closed, so counting never adds to the span's time.  A key
        ``variant`` in the counts is appended to the span name.
        """
        self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            sp = self._close()
        if stats is not None:
            counts = dict(stats(out))
            variant = counts.pop("variant", None)
            if variant:
                sp.name = f"{name}.{variant}"
            sp.stats = counts
        return out


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


class _Null:
    on = False
    _scope = _NullScope()

    def job(self, kind: str, job_id: str) -> _NullScope:
        return self._scope

    @staticmethod
    def call(name, stats, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = _Null()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((sp.end - sp.start) - covered)
    return out
