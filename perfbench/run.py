"""spinstat benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 20 --trace 0

Workloads are named in ``BENCHMARK.json``; perfbench/README.md says why
each exists.  Every workload is a closed loop with one client: the next
operation starts when the previous one returns.  A run is made of whole
passes over the workload's input set, and lasts at least ``--seconds`` and
at least ``MIN_OPS`` operations.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it first runs untraced passes for half the time, then the
same number of passes with spinstat's public functions wrapped, and
reports the per-layer metrics of the traced passes.  Either way every
output is checked, and the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field

from spans import Tracer
from workloads import WORKLOADS, Context

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

# Enough operations that op_ms_p90 has at least ten samples beyond it.
MIN_OPS = 100
# Set-up runs this many times; setup_s is the median.
SETUP_REPEATS = 5
# Timings are normalized to a reference: each pass runs `python -c pass`
# REFS_PER_PASS times between its operations, and its latencies are scaled
# by REFERENCE_MS over the median of those runs.  On a shared host the speed
# of a core drifts (by up to 1.8x over tens of seconds on the 2-core machine
# the benchmark was written on); the program cannot change how fast the
# interpreter starts, so the ratio cancels the drift and keeps the program's
# own changes.  REFERENCE_MS is a typical `python -c pass` time there.
REFERENCE_MS = 50.0
REFS_PER_PASS = 5
# Failures echoed to standard error; all of them are counted.
SHOWN_FAILURES = 5


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)  # normalized
    raw: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)  # one per pass
    failed: int = 0

    @property
    def passes(self) -> int:
        return len(self.factors)

    def extend(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.raw += other.raw
        self.refs += other.refs
        self.factors += other.factors
        self.failed += other.failed


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # children read the bytecode that set-up compiled, as after an install
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def import_fresh() -> types.SimpleNamespace:
    """Import spinstat from source with its bytecode compiled anew."""
    shutil.rmtree(SRC / "spinstat" / "__pycache__", ignore_errors=True)
    for name in [n for n in sys.modules
                 if n == "spinstat" or n.startswith("spinstat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("spinstat.cli")
    return types.SimpleNamespace(**{
        name: sys.modules[f"spinstat.{name}"]
        for name in ("model", "report", "fock", "su2")})


def setup(workload: str, seed: int, workdir: pathlib.Path):
    """Import, input generation and warm-up; returns them with the time."""
    start = time.perf_counter()
    lib = import_fresh()
    imported = time.perf_counter()
    ops = WORKLOADS[workload](lib, random.Random(seed), workdir)
    return lib, ops, time.perf_counter() - start, imported - start


def reference_seconds(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


def run_passes(ops, ctx: Context, seconds: float, min_ops: int,
               passes: int | None = None, after_pass=None) -> Phase:
    phase = Phase()
    ref_at = {len(ops) * k // REFS_PER_PASS for k in range(REFS_PER_PASS)}
    start = time.perf_counter()
    while True:
        raw, refs = [], []
        for index, op in enumerate(ops):
            if index in ref_at:
                refs.append(reference_seconds(ctx.env))
            if ctx.tracer is not None:
                ctx.tracer.op += 1
            t0 = time.perf_counter()
            try:
                output = op.run(ctx)
            except Exception as exc:  # an unexpected exception is a failure
                output, problem = None, f"{type(exc).__name__}: {exc}"
            else:
                problem = None
            raw.append(time.perf_counter() - t0)
            if problem is None:
                try:
                    problem = op.check(ctx, output)
                except (KeyError, TypeError, ValueError, AttributeError,
                        OSError) as exc:
                    problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem is not None:
                phase.failed += 1
                if phase.failed <= SHOWN_FAILURES:
                    print(f"FAIL {op.label}: {problem}", file=sys.stderr)
        factor = REFERENCE_MS / 1000 / statistics.median(refs)
        phase.factors.append(factor)
        phase.refs += refs
        phase.raw += raw
        phase.latencies += [t * factor for t in raw]
        if after_pass is not None:
            after_pass()
        if passes is not None:
            if phase.passes >= passes:
                return phase
        elif (time.perf_counter() - start >= seconds
              and len(phase.latencies) >= min_ops):
            return phase


def _peak_rss_mb(workload: str) -> float:
    who = (resource.RUSAGE_CHILDREN if workload == "corpus-cli"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB


def end_to_end(phase: Phase, setup_s: float, workload: str) -> dict:
    lat = phase.latencies
    n = len(lat)
    return {
        "setup_s": (setup_s * statistics.median(phase.factors), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_ms_p50": (1000 * statistics.median(lat), "ms"),
        "op_ms_p90": (1000 * statistics.quantiles(lat, n=10)[8], "ms"),
        "ok_share": ((n - phase.failed) / n, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(workload), "MB"),
    }


def per_layer(ops, ctx: Context, seconds: float, import_s: float,
              workload: str) -> tuple[dict, Phase]:
    base = run_passes(ops, ctx, seconds / 2, 0)
    tracer = Tracer()
    ctx.tracer = tracer
    tracer.install()
    try:
        traced = run_passes(ops, ctx, 0, 0, passes=base.passes)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    tracer.dump(BUILD / f"trace-{workload}.json")
    if tracer.absent:
        print("trace: absent, reported as 0: " + ", ".join(sorted(tracer.absent)),
              file=sys.stderr)

    metrics = tracer.layer_metrics(len(traced.latencies))
    child_imports = [end - start for name, start, end, _, _ in tracer.spans
                     if name == "cli.import"]
    metrics["cli.import_ms"] = (
        1000 * (statistics.median(child_imports) if child_imports else import_s),
        "ms")
    metrics["cli.interpreter_ms"] = (
        1000 * statistics.median(base.refs + traced.refs), "ms")
    metrics["trace.overhead_share"] = (
        sum(traced.latencies) / sum(base.latencies) - 1, "ratio")
    base.extend(traced)
    return metrics, base


def run(workload: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS) -> dict:
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD))
    try:
        lib, ops, setup_s, import_s = setup(workload, seed, workdir)
        ctx = Context(lib, workdir, _child_env())
        if trace:
            metrics, phase = per_layer(ops, ctx, seconds, import_s, workload)
        else:
            # Further set-ups run between passes spread over the run, so
            # that their median samples a shared machine's load over the
            # run, not at one moment.
            setups = [setup_s]
            start = time.perf_counter()

            def set_up_again():
                due = len(setups) * seconds / SETUP_REPEATS
                if (len(setups) < SETUP_REPEATS
                        and time.perf_counter() - start >= due):
                    setups.append(setup(workload, seed, workdir)[2])

            phase = run_passes(ops, ctx, seconds, min_ops, after_pass=set_up_again)
            while len(setups) < SETUP_REPEATS:
                setups.append(setup(workload, seed, workdir)[2])
            metrics = end_to_end(phase, statistics.median(setups), workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# workload={workload} seed={seed} trace={int(trace)} "
          f"passes={phase.passes} ops={len(phase.latencies)} "
          f"ops_per_pass={len(ops)} raw_op_ms_p50="
          f"{1000 * statistics.median(phase.raw):.3f} raw_ops_per_s="
          f"{len(phase.raw) / sum(phase.raw):.4f} interpreter_ms="
          f"{1000 * statistics.median(phase.refs):.3f}")
    return {
        "correct": phase.failed == 0,
        "attempted": len(phase.latencies),
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "spinstat" / "__init__.py").is_file():
        print(f"error: no spinstat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
