"""Benchmark for nestedprune: three workloads, end-to-end metrics or per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` beside this directory. Whole rounds run
one after another, in this process and thread, until ``--seconds`` have
passed; a round is a set-up (a fresh import of the package and the workload's
inputs) and then one operation on those inputs, each timed apart and scaled
by the host's speed as ``hostspeed`` measures it. Afterwards
every output is compared with the first, and the first is checked against
the reference replay. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` imports once,
spends half the time on untraced rounds and half on rounds with every layer
wrapped, and reports the per-layer metrics plus the tracing overhead.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("trace", "engine", "pruners", "metrics", "bench", "cli")


def load_package():
    """Import nestedprune afresh from the checkout, so its modules run again.

    The package object is handed to the workloads as it is: its submodules are
    attributes of it, and names the tracer wraps are looked up at each call.
    """
    for name in [n for n in sys.modules if n.split(".")[0] == "nestedprune"]:
        del sys.modules[name]
    package = importlib.import_module("nestedprune")
    if Path(package.__file__).resolve().parent != SRC / "nestedprune":
        raise ImportError(f"nestedprune came from {package.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module(f"nestedprune.{name}")
    return package


def attach_decide_probe(pkg, samples: array) -> None:
    """Time each combined_decide call the engine makes, as live-long times its own."""
    original = pkg.engine.combined_decide
    clock = time.perf_counter_ns

    def probe(*args, **kwargs):
        start = clock()
        decision = original(*args, **kwargs)
        samples.append(clock() - start)
        return decision

    pkg.engine.combined_decide = probe


def percentiles(samples: array, qs) -> list[int]:
    """Exact nearest-rank percentiles, without a sorted copy of every sample.

    A first pass counts samples per 100 ns bucket; only the bucket holding a
    wanted rank is sorted. Sorting all of them would build a list of int
    objects ten times the array's size and raise the peak memory measured.
    """
    buckets = Counter(v // 100 for v in samples)
    found = []
    for q in qs:
        rank = max(0, math.ceil(q * len(samples)) - 1)
        for bucket in sorted(buckets):
            if rank < buckets[bucket]:
                found.append(sorted(v for v in samples if v // 100 == bucket)[rank])
                break
            rank -= buckets[bucket]
    return found


class Session:
    """Rounds of one run: each a timed set-up, then a timed operation on its inputs.

    Times are kept scaled to the host's nominal speed (``hostspeed``). Every
    output is compared with the first; the first is checked at the end.
    """

    def __init__(self, workload, setup) -> None:
        self.workload, self.setup = workload, setup
        self.samples = array("q")
        self.attempted = self.failed = self.diverged = 0
        self.first = self.first_repr = self.pkg = self.inputs = None
        self.scales: list[float] = []
        self.raw: list[tuple[float, float]] = []  # unscaled (set-up, operation) seconds
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.p50s: list[float] = []
        self.p99s: list[float] = []

    def round(self) -> None:
        """Set-up and operation, with the host's speed sampled around and during them."""
        self.attempted += 1
        del self.samples[:]
        gc.collect()
        before = hostspeed.kernel_seconds()
        try:
            with hostspeed.Sampler() as sampler:
                start = time.perf_counter()
                self.pkg, self.inputs = self.setup(self.samples)
                ready = time.perf_counter()
                output = self.workload.run(self.pkg, self.inputs, self.samples)
                done = time.perf_counter()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        after = hostspeed.kernel_seconds()
        setup_kernels, _ = sampler.between(start, ready)
        op_kernels, kernel_times = sampler.between(ready, done)
        setup, wall = ready - start - setup_kernels, done - ready - op_kernels
        round_scale = hostspeed.scale_for([before, after])
        scales = {
            name: hostspeed.scale_for(times) if times else round_scale
            for name, times in kernel_times.items()
        }
        self.scales.append(scales["sort"])
        self.raw.append((setup, wall))
        self.setups.append(setup * round_scale)
        self.walls.append(wall * scales["sort"])
        if self.samples:
            p50, p99 = percentiles(self.samples, (0.50, 0.99))
            self.p50s.append(p50 / 1e3 * scales[self.workload.median_call_kernel])
            self.p99s.append(p99 / 1e3 * scales["sort"])
        # compared by repr: after a fresh import the same report is an instance
        # of a new class, which dataclass equality would call unequal
        if self.first is None:
            self.first, self.first_repr = output, repr(output)
        elif repr(output) != self.first_repr:
            self.diverged += 1

    def run_for(self, seconds: float) -> None:
        """Whole rounds, until ``seconds`` have passed."""
        start = time.perf_counter()
        while True:
            self.round()
            if time.perf_counter() - start >= seconds:
                return

    def problems(self) -> list[str]:
        if self.first is None:
            raise RuntimeError("no operation succeeded")
        found = self.workload.check(self.pkg, self.inputs, self.first)
        if self.diverged:
            found.append(f"{self.diverged} operations gave other outputs than the first")
        return found


def measure(workload, seed: int, seconds: float, workdir: Path):
    def setup(samples):
        pkg = load_package()
        inputs = workload.prepare(pkg, seed, workdir)
        if workload.probe_engine:
            attach_decide_probe(pkg, samples)
        return pkg, inputs

    session = Session(workload, setup)
    hostspeed.kernel_seconds()  # the first window of a process runs slow; discard it
    session.run_for(seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = session.problems()
    print(f"{workload.name}: {len(session.walls)} rounds; unscaled set-up and operation "
          "seconds: " + " ".join(f"{s:.3f}+{w:.3f}" for s, w in session.raw))
    print(f"{workload.name}: host speed scale of each operation: "
          + " ".join(f"{scale:.3f}" for scale in session.scales))
    print(f"{workload.name}: {len(session.samples)} combined_decide calls timed per operation; "
          "scaled p50/p99 us: "
          + " ".join(f"{a:.2f}/{b:.1f}" for a, b in zip(session.p50s, session.p99s)))
    metrics = {
        "wall_s": (statistics.median(session.walls), "s"),
        "setup_s": (statistics.median(session.setups), "s"),
        "models_trained": (workload.models_trained(session.first), "count"),
        "peak_rss_mb": (peak_mb, "MB"),
        "decide_us_p50": (statistics.median(session.p50s), "us"),
        "decide_us_p99": (statistics.median(session.p99s), "us"),
    }
    return session, problems, metrics


def trace(workload, seed: int, seconds: float, workdir: Path):
    import tracer

    pkg = load_package()
    session = Session(workload, lambda samples: (pkg, workload.prepare(pkg, seed, workdir)))
    hostspeed.kernel_seconds()
    session.run_for(seconds / 2)
    untraced = [s + w for s, w in zip(session.setups, session.walls)]
    spans = tracer.Tracer()
    spans.install()
    session.run_for(seconds / 2)
    traced = [s + w for s, w in zip(session.setups, session.walls)][len(untraced):]
    scale = statistics.median(session.scales[len(untraced):])
    metrics = spans.metrics(len(traced), scale)  # before the checks, which call traced code
    problems = session.problems()
    for name in spans.missing:
        print(f"warning: {name} not found; its metrics read 0", file=sys.stderr)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["tracing.overhead_s"] = (overhead, "s")
    metrics["tracing.overhead_pct"] = (100 * overhead / statistics.median(untraced), "%")
    print(f"{workload.name}: {len(untraced)} untraced and {len(traced)} traced rounds "
          "of set-up and operation")
    return session, problems, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if not (SRC / "nestedprune" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]()
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        run = trace if args.trace else measure
        session, problems, metrics = run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"{workload.name}: attempted {session.attempted} operations, {session.failed} failed, "
          f"checks {'passed' if not problems else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
