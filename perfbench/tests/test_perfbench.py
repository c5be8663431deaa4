"""Tests of the benchmark itself, at tiny scale (4 ranks, minimum iterations)."""

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402


def tiny(workload, trace, workdir):
    """run.measure at 4 ranks. It re-imports collgraph, so the modules the
    other tests imported are put back afterwards."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "collgraph"}
    try:
        return run.measure(workload, 3, 0, trace, workdir, ranks=4)
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] == "collgraph"]:
            del sys.modules[name]
        sys.modules.update(saved)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced tiny run per workload; its untraced iterations are checked too."""
    workdir = tmp_path_factory.mktemp("bench")
    return {name: tiny(name, True, workdir) for name in sorted(workloads.WORKLOADS)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_at_tiny_scale(traced, workload):
    record = traced[workload]
    assert record["samples"]["untraced"] >= 2 and record["samples"]["traced"] >= 2
    assert record["fail_ratio"] == 0, [i["failures"] for i in record["iterations"]]
    assert all(value > 0 for value, _ in record["end_to_end"].values())
    line = run.result_line(record)
    assert line["correct"] is True and line["attempted"] == record["attempted"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_spans_nest_and_self_times_are_non_negative(traced, workload):
    record = traced[workload]
    spans = record["spans"]
    assert spans
    for name, start, end, parent in spans:
        assert start <= end, name
        if parent is not None:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])
    per_iteration = [i["layers"] for i in record["iterations"] if i["traced"]]
    for layers in per_iteration + [{k: v for k, (v, _) in record["per_layer"].items()}]:
        for name, value in layers.items():
            if name.endswith("self_s"):
                assert value >= 0, name


def test_traced_run_reports_every_per_layer_metric(traced):
    metrics = run.result_line(traced["collective-n64"])["metrics"]
    assert list(metrics) == [name for name, _, _ in LAYER_METRICS]
    assert metrics["validator.check_semantics.nodes"]["value"] == 4 * 15
    assert metrics["simulator.simulate.messages"]["value"] == 4 * 6
    assert metrics["trace.check_trace.calls"]["value"] > 0
    assert metrics["expander.expand.self_s"]["value"] == 0
    untraced = traced["collective-n64"]["iterations"][0]
    assert untraced["work"]["report.nodes"] == 4 * 15
    assert untraced["work"]["report.link_hops"] == 4 * 6


def test_sweep_counts_generate_calls_per_size(traced):
    metrics = run.result_line(traced["sweep-topo"])["metrics"]
    assert metrics["simulator.sweep.generate_per_size"]["value"] == 5
    assert metrics["generators.generate.calls"]["value"] == 20
    assert run.result_line(traced["expand-train64"])["metrics"][
        "expander.generate.calls"]["value"] == 4


def test_planted_wrong_expected_value_is_caught(tmp_path, monkeypatch):
    exact = workloads.ring_allreduce_time
    monkeypatch.setattr(workloads, "ring_allreduce_time",
                        lambda *args: exact(*args) * (1 + 1e-9))
    record = tiny("collective-n64", False, tmp_path)
    assert record["fail_ratio"] > 0
    failures = [f for i in record["iterations"] for f in i["failures"]]
    assert failures and all(f.startswith("simulate: total") for f in failures)
    assert run.result_line(record)["correct"] is False


def test_msccl_writer_reproduces_the_fixture():
    fixture = ROOT / "tests" / "fixtures" / "ring_allreduce_n4.xml"
    assert workloads.ring_allreduce_xml(4) == fixture.read_text(encoding="utf-8")


def test_train_workload_sizes_are_distinct_and_seeded():
    comms, comps = workloads.train_sizes(random.Random(7))
    assert len(set(comms)) == 4 and all(c % 64 == 0 for c in comms)
    assert workloads.train_sizes(random.Random(7)) == (comms, comps)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in LAYER_METRICS]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-topo", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_timed_scales_by_the_kernel_around_the_body(monkeypatch):
    kernel_times = iter([0.01, 0.03])  # before and after: twice as slow as the reference
    monkeypatch.setattr(speed, "time_kernel", lambda: next(kernel_times))
    with speed.Timed() as timed:
        pass
    assert timed.kernel_s == [0.01, 0.03]
    assert timed.scaled_s == pytest.approx(timed.wall_s * speed.REFERENCE_S / 0.02)
    assert speed.kernel() == speed.kernel()


def test_timed_samples_during_the_body_and_leaves_out_the_sampling():
    start = perf_counter()
    with speed.Timed() as timed:
        while perf_counter() - start < 5 * speed.PERIOD_S:
            pass
    elapsed = perf_counter() - start
    assert len(timed.kernel_s) >= 4
    assert 0 < timed.wall_s < elapsed  # the periodic samples are not counted
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
