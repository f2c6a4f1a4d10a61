#!/usr/bin/env python3
"""Benchmark of proctheory: end-to-end metrics per workload, per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {theorems,pd,large} --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same passes with layer spans (and, for ``theorems``
and ``pd``, a cProfile pass) and reports the per-layer metrics instead. Every
output is checked against an oracle that does not come from the program.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the machine, the
sample counts and the known failures. The exit code is 0 when every output
matched its oracle, 1 when one did not, and 2 when the program's sources are
not in the checkout.

See README.md in this directory for why each workload exists and which
metric each layer should move.
"""

import os

# One BLAS thread: the workloads are single-caller closed loops, and BLAS
# threads would compete with the caller for the two cores of the reference
# machine. Set before numpy is imported, here and in every set-up process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150

EXIT_WRONG = 1
EXIT_NO_PROGRAM = 2

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms.p50": "ms",
    "op_ms.p95": "ms",
    "ops_per_s": "1/s",
}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import proctheory from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "proctheory" / "__init__.py").is_file():
        raise ProgramMissing(f"no proctheory sources under {src}")
    if not (ROOT / "tests" / "data" / "pd").is_dir():
        raise ProgramMissing(f"no .pd corpus under {ROOT / 'tests' / 'data' / 'pd'}")
    sys.path.insert(0, str(src))
    import proctheory

    if Path(proctheory.__file__).resolve().parent != (src / "proctheory").resolve():
        raise ProgramMissing(f"imported proctheory from {proctheory.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Running passes


class Tally:
    """Outcomes of the operations run so far."""

    def __init__(self):
        self.latencies_s = []  # one per timed operation; inf when it failed
        self.pass_ends = []  # len(latencies_s) after each pass
        self.attempted = 0
        self.failed = 0
        self.probes = 0  # standalone known-failure probes
        self.known_failures = Counter()  # (label, exception type) -> count
        self.wrong = []  # reasons for wrong answers

    def op(self, label, latency_s, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.wrong.append(f"{label}: {reason}")
            latency_s = math.inf
        self.latencies_s.append(latency_s)

    def probe(self, label, call, check, known=True):
        """An untimed call; raising is a known failure unless ``known`` is false."""
        try:
            out = call()
        except Exception as exc:
            if not known:
                self.wrong.append(f"{label}: raised {exc!r}")
                return
            self.known_failures[(label, type(exc).__name__)] += 1
            return
        reason = checked(check, out)
        if reason is not None:
            self.wrong.append(f"{label}: {reason}")

    @property
    def fail_ratio(self):
        known = sum(self.known_failures.values())
        return (self.failed + known) / max(1, self.attempted + self.probes)


def checked(check, out):
    try:
        return check(out)
    except Exception as exc:
        return f"output could not be checked: {exc!r}"


def run_pass(ops, tally, rec=None):
    """Run each operation once; with a recorder, inside an ``op`` span."""
    for op in ops:
        call = op.call if rec is None else partial(_in_op_span, rec, op)
        if op.known_failure:
            tally.probes += 1
            tally.probe(op.label, call, op.check)
            continue
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:
            tally.op(op.label, math.inf, f"raised {exc!r}")
            continue
        latency = time.perf_counter() - start
        tally.op(op.label, latency, checked(op.check, out))
        if op.follow is not None:
            tally.probe(op.label + " (evaluate)", lambda: op.follow(out), lambda reason: reason)
    tally.pass_ends.append(len(tally.latencies_s))


def _in_op_span(rec, op):
    with rec.span("op", label=op.label):
        return op.call()


# ---------------------------------------------------------------------------
# Metrics


def quantile(values, q):
    """Inclusive-method quantile ``q`` in (0, 1); not finite when it falls on a failed operation."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def measure_setup(workload, seed):
    """Seconds from starting a fresh interpreter to a warmed-up workload, several times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return samples


def pass_throughputs(tally):
    """Operations per second of operation time, one value per pass (0 when an operation failed)."""
    out, start = [], 0
    for end in tally.pass_ends:
        busy = sum(tally.latencies_s[start:end])
        out.append((end - start) / busy if 0 < busy < math.inf else 0.0)
        start = end
    return out


def end_to_end_metrics(tally, setup_samples):
    lat_ms = [x * 1000.0 for x in tally.latencies_s]
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms.p50": quantile(lat_ms, 0.50),
        "op_ms.p95": quantile(lat_ms, 0.95),
        # a median over passes, so that a pass run in a slow spell of a shared
        # host moves it less than a mean over the run would
        "ops_per_s": statistics.median(pass_throughputs(tally)),
    }


def machine_info(args, nproc, cpu):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "pinned_cpu": cpu,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def emit(info, tally, metrics, units):
    """Print the info line, then the result line; return the exit code."""
    info.update(
        samples=len(tally.latencies_s),
        fail_ratio=tally.fail_ratio,
        known_failures=[
            {"op": label, "error": err, "count": n} for (label, err), n in sorted(tally.known_failures.items())
        ],
        wrong=tally.wrong[:20],
    )
    print(json.dumps(info, sort_keys=True))
    correct = not tally.wrong
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else EXIT_WRONG


# ---------------------------------------------------------------------------
# Per-layer metrics


def per_layer_names():
    """(metric, unit) of every per-layer metric, in report order."""
    from proctheory import suite

    from tracing import PROFILED_MODULES

    names = [
        ("processes.validate.calls", "count"), ("processes.validate.self_s", "s"),
        ("numerics.eig.calls", "count"), ("numerics.eig.self_s", "s"),
        ("kernel.einsum.calls", "count"), ("kernel.einsum.self_s", "s"), ("kernel.einsum.bytes", "B"),
        ("diagram.parse.self_s", "s"), ("diagram.parse.bytes_per_s", "B/s"),
        ("diagram.build_env.self_s", "s"), ("diagram.typecheck.self_s", "s"),
        ("diagram.plan.self_s", "s"), ("diagram.plan.steps", "count"),
        ("diagram.plan.max_open_dim", "dim"),
        ("diagram.evaluate.self_s", "s"), ("diagram.evaluate.failed", "count"),
    ]
    names += [(f"{m}.self_s", "s") for m in PROFILED_MODULES]
    names += [(f"suite.check.{c}_s", "s") for c in suite.CHECK_NAMES]
    names += [("fail_ratio", "ratio"), ("trace.span_overhead", "ratio"), ("trace.profile_overhead", "ratio")]
    return names


def layer_values(totals, modules):
    """Per-layer metrics of one traced pass from its span totals and module self times."""
    def get(span, key):
        return totals[span][key] if span in totals else 0.0

    parse_s = get("diagram.parse", "total_s")
    values = {
        "processes.validate.calls": get("processes.validate", "calls"),
        "processes.validate.self_s": get("processes.validate", "self_s"),
        "numerics.eig.calls": get("numerics.eig", "calls"),
        "numerics.eig.self_s": get("numerics.eig", "self_s"),
        "kernel.einsum.calls": get("kernel.einsum", "calls"),
        "kernel.einsum.self_s": get("kernel.einsum", "self_s"),
        "kernel.einsum.bytes": get("kernel.einsum", "bytes"),
        "diagram.parse.self_s": get("diagram.parse", "self_s"),
        "diagram.parse.bytes_per_s": get("diagram.parse", "bytes") / parse_s if parse_s else 0.0,
        "diagram.plan.steps": get("diagram.plan", "steps"),
        "diagram.plan.max_open_dim": get("diagram.plan", "max_open_dim"),
        "diagram.evaluate.failed": get("diagram.evaluate", "failed"),
    }
    for layer in ("build_env", "typecheck", "plan", "evaluate"):
        values[f"diagram.{layer}.self_s"] = get(f"diagram.{layer}", "self_s")
    for name, total in totals.items():
        if name.startswith("suite.check."):
            values[f"{name}_s"] = total["total_s"]
    for module, seconds in modules.items():
        values[f"{module}.self_s"] = seconds
    return values


# spans whose self time the traced run also reports as a share of operation time
SHARE_SPANS = ("kernel.einsum", "numerics.eig", "processes.validate", "diagram.parse", "diagram.plan")

COUNT_METRICS = {
    "processes.validate.calls", "numerics.eig.calls", "kernel.einsum.calls", "kernel.einsum.bytes",
    "diagram.plan.steps", "diagram.plan.max_open_dim", "diagram.evaluate.failed",
}


def traced_run(wl, args, tally, deadline):
    """Cycles of (plain pass, span pass, cProfile pass) until the deadline; per-layer medians."""
    from tracing import Recorder, instrument, profiled

    rec = Recorder()
    per_pass, shares, span_overhead, profile_overhead = [], [], [], []
    while not per_pass or time.perf_counter() < deadline:
        start = time.perf_counter()
        run_pass(wl.ops, tally)
        plain_s = time.perf_counter() - start

        rec.pass_index = len(per_pass)
        start = time.perf_counter()
        with instrument(rec):
            run_pass(wl.ops, tally, rec)
        span_overhead.append((time.perf_counter() - start) / plain_s - 1.0)

        modules = defaultdict(float)
        if wl.profiled:
            start = time.perf_counter()
            with profiled(modules):
                run_pass(wl.ops, tally)
            profile_overhead.append((time.perf_counter() - start) / plain_s - 1.0)
        totals = rec.layer_totals(rec.pass_index)
        per_pass.append(layer_values(totals, modules))
        op_s = totals["op"]["total_s"]
        shares.append({span: totals[span]["self_s"] / op_s if span in totals else 0.0 for span in SHARE_SPANS})

    names = per_layer_names()
    metrics = {}
    for name, _unit in names:
        series = [p.get(name, 0.0) for p in per_pass]
        if name in COUNT_METRICS:
            if len(set(series)) != 1:
                print(f"warning: {name} differs between passes: {series}", file=sys.stderr)
            metrics[name] = int(series[0])
        else:
            metrics[name] = statistics.median(series)
    metrics["fail_ratio"] = tally.fail_ratio
    metrics["trace.span_overhead"] = statistics.median(span_overhead)
    metrics["trace.profile_overhead"] = statistics.median(profile_overhead) if profile_overhead else 0.0

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}"
    rec.write_jsonl(out_dir / f"spans-{stem}.jsonl")
    share = {span: statistics.median(p[span] for p in shares) for span in SHARE_SPANS}
    table = {name: {"value": metrics[name], "unit": unit} for name, unit in names}
    table["share_of_op_time"] = share
    (out_dir / f"layers-{stem}.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"per-layer metrics, workload {wl.name}, seed {args.seed}, {len(per_pass)} traced passes")
    for name, unit in names:
        print(f"  {name:48s} {metrics[name]:>14.6g} {unit}")
    print("self time as a share of operation time: "
          + ", ".join(f"{span} {100 * v:.1f}%" for span, v in share.items()))
    return metrics, dict(names)


# ---------------------------------------------------------------------------


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="generate inputs and warm up, then exit (set-up time probe)")
    return p.parse_args(argv)


def pin_to_one_cpu():
    """Run on the last CPU this process may use; return (usable CPUs, the one chosen).

    The loop has one caller, so one CPU is all it uses. Left unpinned, the
    scheduler moves it between CPUs whose speed differs on a shared host,
    and a run's medians then depend on where it happened to run. Set-up
    processes inherit the pinning.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return len(cpus), cpus[-1]


def main(argv=None):
    sys.path.insert(0, str(HERE))
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    from workloads import WORKLOADS

    args = parse_args(argv)
    nproc, cpu = pin_to_one_cpu()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, ROOT, workdir)
        if args.setup_only:
            wl.warm_up()
            return 0
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
        wl.warm_up()
        tally = Tally()
        for op in wl.once:
            tally.probe(op.label, op.call, op.check, known=False)
        info = machine_info(args, nproc, cpu)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics, units = traced_run(wl, args, tally, deadline)
        else:
            passes = 0
            while not passes or time.perf_counter() < deadline:
                run_pass(wl.ops, tally)
                passes += 1
            info.update(passes=passes, setup_samples_s=setup_samples)
            metrics, units = end_to_end_metrics(tally, setup_samples), END_TO_END
        return emit(info, tally, metrics, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
