"""Benchmark of collgraph's CLI pipelines, end to end and per layer.

    python3 perfbench/run.py --workload collective-n64 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; collgraph is imported from its `src`. One
process runs one workload, single-threaded. Set-up is importing collgraph
and writing the seeded inputs; it runs three times before every iteration
and its median is reported. Iterations run until the next one would end
after `--seconds` (at least three run); `iter_s` is their mean. Both are
scaled to a fixed reference speed of the machine, measured just before and
after every set-up and every step (see speed.py); the wall times are in the
record. Every output is checked; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced. With `--trace 1` iterations alternate untraced and
traced, and the metrics are the per-layer ones: medians over the traced
iterations, plus the traced-minus-untraced mean iteration time. Either way
the whole record, with per-command times, spans, work counts and the
environment, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from speed import Timed
from tracer import LAYER_METRICS, Tracer, install, layer_metrics
from workloads import WORKLOADS, Iteration

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUPS_PER_ITERATION = 3
MIN_ITERATIONS = 3
END_TO_END = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MB"}
MODULES = ("cli", "expander", "generators", "msccl", "simulator", "trace", "validator")


class SetupError(Exception):
    """The checkout does not hold the program under test."""


def import_collgraph() -> dict:
    """Import collgraph afresh from the checkout's src, dropping any copy
    imported before; returns its modules by short name."""
    src = ROOT / "src"
    if not (src / "collgraph" / "__init__.py").is_file():
        raise SetupError(f"no collgraph package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "collgraph" or m.startswith("collgraph.")]:
        del sys.modules[name]
    package = importlib.import_module("collgraph")
    if Path(package.__file__).resolve().parent != (src / "collgraph").resolve():
        raise SetupError(f"collgraph was imported from {package.__file__}, not {src}")
    return {name: importlib.import_module(f"collgraph.{name}") for name in MODULES}


def commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read without git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "seed": seed,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            ranks: int = 64) -> dict:
    """Run one workload with its trace files in a temporary directory under
    `workdir`; returns the full record (see module docstring)."""
    cls = WORKLOADS[workload]
    setup_s, setup_wall_s = [], []

    def set_up(tmp: str):
        gc.collect()  # the modules dropped by the previous import are cyclic garbage
        with Timed() as timed:
            cg = SimpleNamespace(**import_collgraph())
            instance = cls(seed, Path(tmp), ranks)
        setup_s.append(timed.scaled_s)
        setup_wall_s.append(timed.wall_s)
        return cg, instance

    with tempfile.TemporaryDirectory(dir=workdir, prefix="work-") as tmp:
        tracer = Tracer() if trace else None
        digests: dict[str, str] = {}
        iterations = []
        pass_s = []  # wall time of each set-ups-and-iteration pass
        begin = perf_counter()
        while True:
            pass_start = perf_counter()
            # Set-up runs before every iteration, so that its samples, like
            # the iterations', span the whole run.
            for _ in range(SETUPS_PER_ITERATION):
                cg, instance = set_up(tmp)
            traced = trace and len(iterations) % 2 == 1
            gc.collect()  # start every iteration from the same heap state
            it = Iteration(cg, digests, tracer if traced else None)
            first = len(tracer.spans) if traced else 0
            uninstall = install(tracer, cg.__dict__) if traced else None
            try:
                instance.iterate(it)
            finally:
                if uninstall:
                    uninstall()
            iterations.append({
                "traced": traced,
                "iter_s": it.total_s,
                "step_s": it.step_s,
                "wall_s": it.wall_s,
                "kernel_s": it.kernel_s,
                "attempted": it.attempted,
                "failures": it.failures,
                "work": it.work,
                "layers": layer_metrics(tracer.spans, first, len(tracer.spans))
                if traced else None,
            })
            pass_s.append(perf_counter() - pass_start)
            elapsed = perf_counter() - begin
            done = len(iterations) >= MIN_ITERATIONS + (1 if trace else 0)
            if done and elapsed + median(pass_s) > seconds:
                break

    untraced = [i for i in iterations if not i["traced"]]
    traced_its = [i for i in iterations if i["traced"]]
    steps = sorted({name for i in untraced for name in i["step_s"]})
    attempted = sum(i["attempted"] for i in iterations)
    failed = sum(len(i["failures"]) for i in iterations)
    record = {
        "workload": workload,
        "why": cls.why,
        "environment": environment(seed),
        "ranks": ranks,
        "seconds": seconds,
        "trace": trace,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "iterations": iterations,
        "samples": {"setup": len(setup_s), "untraced": len(untraced),
                    "traced": len(traced_its)},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "command_s": {f"{name}_s": median([i["step_s"][name] for i in untraced])
                      for name in steps},
        "layer_moves": {name: moves for name, _, moves in LAYER_METRICS},
    }
    values = {"setup_s": median(setup_s),
              "iter_s": statistics.mean([i["iter_s"] for i in untraced]),
              "peak_rss_mb": record["peak_rss_mb"]}
    record["end_to_end"] = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    if trace:
        layers = {}
        for name, unit, _ in LAYER_METRICS:
            if name == "bench.trace_overhead_s":
                value = (statistics.mean([i["iter_s"] for i in traced_its])
                         - record["end_to_end"]["iter_s"][0])
            else:
                value = median([i["layers"][name] for i in traced_its])
            layers[name] = (value, unit)
        record["per_layer"] = layers
        record["spans"] = [span.to_json() for span in tracer.spans]
    return record


def result_line(record: dict) -> dict:
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in (f for i in record["iterations"] for f in i["failures"]):
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
