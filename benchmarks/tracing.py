"""Traced runs: spans at layer boundaries, and module self time from cProfile.

Spans are recorded by wrapping the program's public layer functions from
outside for the length of a traced pass, then restoring them; no program
file is changed. A span holds its name, start, end, parent span and the
operation it belongs to. A layer's self time is its spans' duration minus
the part covered by their child spans. Everything is kept in memory and
written out when the run ends.

cProfile (a separate pass, since it slows pure-Python code unevenly) gives
the self time of the modules that have no wrapped boundary: ``cli``,
``theories``, ``groups`` and ``higher_order``. It is only run inside
``suite.run_all`` and ``cli.main`` operations.
"""

from __future__ import annotations

import cProfile
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PROFILED_MODULES = ("cli", "theories", "groups", "higher_order")


class Recorder:
    """In-memory span log. ``spans[i]`` is a dict with id ``i``."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self._stack = []
        self.pass_index = 0

    @contextmanager
    def span(self, name, **fields):
        """Record one span around the block, as a child of the innermost open span."""
        span = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                "pass": self.pass_index, "failed": False, **fields}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span
        except BaseException:
            span["failed"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, measure=None):
        """``fn`` with a span around every call; ``measure(args, result)`` adds fields."""

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span.update(measure(args, result))
            return result

        return traced

    def layer_totals(self, pass_index):
        """Per span name over one pass: calls, failed, total and self seconds, summed extras."""
        spans = [s for s in self.spans if s["pass"] == pass_index]
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals = defaultdict(lambda: defaultdict(float))
        for s in spans:
            t = totals[s["name"]]
            dur = s["end"] - s["start"]
            t["calls"] += 1
            t["failed"] += s["failed"]
            t["total_s"] += dur
            t["self_s"] += dur - child_time[s["id"]]
            for key in ("bytes", "steps"):
                t[key] += s.get(key, 0)
            t["max_open_dim"] = max(t["max_open_dim"], s.get("max_open_dim", 0))
        return totals

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = dict(s, start=s["start"] - self.t0, end=s["end"] - self.t0)
                fh.write(json.dumps(rec) + "\n")


def _einsum_bytes(args, result):
    operands = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    return {"bytes": operands + np.asarray(result).nbytes}


def _parse_bytes(args, _result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _plan_shape(_args, plan):
    return {"steps": len(plan.steps), "max_open_dim": max((s[2] for s in plan.steps), default=0)}


@contextmanager
def instrument(rec):
    """Route the program's layer boundaries through ``rec`` while the block runs."""
    import numpy.linalg

    from proctheory import diagram, processes, suite

    saved = []

    def patch(owner, attr, name, measure=None):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, rec.wrap(name, orig, measure))

    patch(np, "einsum", "kernel.einsum", _einsum_bytes)
    patch(numpy.linalg, "eigvalsh", "numerics.eig")
    patch(numpy.linalg, "eigh", "numerics.eig")
    patch(processes.ProcessTensor, "__post_init__", "processes.validate")
    patch(diagram, "parse", "diagram.parse", _parse_bytes)
    for fn in ("build_env", "typecheck", "evaluate"):
        patch(diagram, fn, f"diagram.{fn}")
    patch(diagram, "plan", "diagram.plan", _plan_shape)
    # run_all reads its private check table on every call; without one, the
    # per-check metrics stay 0 and the rest of the trace is unaffected
    checks = getattr(suite, "_CHECKS", None)
    if checks is not None:
        suite._CHECKS = [(n, a, rec.wrap(f"suite.check.{n}", f)) for n, a, f in checks]
    try:
        yield
    finally:
        if checks is not None:
            suite._CHECKS = checks
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


@contextmanager
def profiled(totals):
    """cProfile the block; add each profiled module's self seconds into ``totals``."""
    import proctheory

    src = Path(proctheory.__file__).resolve().parent
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield
    finally:
        prof.disable()
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        path = Path(code.co_filename)
        if path.parent == src and path.stem in PROFILED_MODULES:
            totals[path.stem] += entry.inlinetime
