"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime bound is asserted, not just reported.
"""

import json
import time

import pytest
from helpers import delete_node

from collgraph.cli import main
from collgraph.errors import DeadlockError, StuckError
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.msccl import convert_to_trace, parse_msccl_xml
from collgraph.simulator import CostModel, Topology, simulate, sweep
from collgraph.trace import CollKind, TraceBuilder, load_trace, save_trace
from collgraph.validator import PASS, check_semantics, isomorphic

MIB = 1024 * 1024
ALPHA, BW = 1e-6, 1e9
COST = CostModel(ALPHA, BW)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_closed_form_latency():
    started = time.monotonic()
    checked = 0
    for n in (2, 4, 8, 64):
        for s in (64 * 1024, MIB, 64 * MIB):
            assert s % n == 0
            ar = simulate(generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, n, s)),
                          Topology.ring(n), COST).total_duration
            expected_ar = 2 * (n - 1) * (ALPHA + (s / n) / BW)
            assert abs(ar - expected_ar) <= 1e-12 * expected_ar, (n, s)
            ag = simulate(generate(AlgoSpec(Algorithm.RING_ALL_GATHER, n, s)),
                          Topology.ring(n), COST).total_duration
            expected_ag = (n - 1) * (ALPHA + s / BW)
            assert abs(ag - expected_ag) <= 1e-12 * expected_ag, (n, s)
            checked += 2
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"runtime bound exceeded: {elapsed:.1f}s"
    report(1, f"{checked} ring closed-form durations exact to 1e-12 "
              f"in {elapsed:.2f}s")


def test_criterion_2_topology_slowdowns_at_64_npus():
    started = time.monotonic()
    sizes = [64 * 1024 * 4 ** k for k in range(6)]  # 64 KiB .. 64 MiB
    topologies = [Topology.fully_connected(64), Topology.mesh2d(8, 8),
                  Topology.switch(64)]
    rows = sweep(Algorithm.RING_ALL_REDUCE, 64, sizes, topologies, COST)
    by_topo = {}
    for topology, size, _, slowdown in rows:
        by_topo.setdefault(topology, []).append((size, slowdown))
    assert all(slowdown == 1.0 for _, slowdown in by_topo["fc"])
    assert all(slowdown > 1.0 for _, slowdown in by_topo["mesh2d:8x8"])
    slowdowns = [slowdown for _, slowdown in sorted(by_topo["switch"])]
    assert all(slowdown > 1.0 for slowdown in slowdowns)
    assert all(slowdown <= 2.0 for slowdown in slowdowns)
    assert slowdowns == sorted(slowdowns) and len(set(slowdowns)) == len(slowdowns)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"runtime bound exceeded: {elapsed:.1f}s"
    report(2, f"fc==1.0, mesh2d>1, switch monotone {slowdowns[0]:.3f}->"
              f"{slowdowns[-1]:.3f}<=2.0 over {len(sizes)} sizes in {elapsed:.1f}s")


def test_criterion_3_semantic_validation_and_deletion_sweep():
    started = time.monotonic()
    passes = 0
    for algo in Algorithm:
        ranks = [1, 2, 4, 8, 16] if algo is Algorithm.RECURSIVE_DOUBLING_ALL_GATHER \
            else list(range(1, 17))
        for n in ranks:
            trace = generate(AlgoSpec(algo, n, n * 1024))
            assert check_semantics(trace).status == PASS, (algo, n)
            passes += 1
    deletions = 0
    for algo in Algorithm:
        ranks = [2, 4] if algo is Algorithm.RECURSIVE_DOUBLING_ALL_GATHER \
            else list(range(2, 6))
        for n in ranks:
            trace = generate(AlgoSpec(algo, n, n * 1024))
            for rank in range(n):
                for node in trace.per_rank_nodes[rank]:
                    mutated = delete_node(trace, rank, node.id)
                    try:
                        verdict = check_semantics(mutated)
                        assert verdict.status != PASS, (algo, n, rank, node.id)
                    except StuckError:
                        pass
                    deletions += 1
    elapsed = time.monotonic() - started
    assert elapsed < 3.0, f"runtime bound exceeded: {elapsed:.1f}s"
    report(3, f"{passes} generator traces PASS; {deletions} single-node "
              f"deletions all non-PASS in {elapsed:.1f}s")


def test_criterion_4_converter_equivalence(fixtures_dir):
    started = time.monotonic()
    program = parse_msccl_xml(fixtures_dir / "ring_allreduce_n4.xml")
    converted = convert_to_trace(program, 4 * MIB)
    assert check_semantics(converted).status == PASS
    reference = generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, 4, 4 * MIB))
    assert isomorphic(converted, reference)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"runtime bound exceeded: {elapsed:.2f}s"
    report(4, f"MSCCL fixture converts to a validated trace isomorphic to "
              f"the generator's in {elapsed:.2f}s")


def _chain_workload(n, size):
    builder = TraceBuilder(n)
    for rank in range(n):
        c1 = builder.add_comp(rank, "fwd_gemm", 8 * MIB, name="fwd")
        ar = builder.add_coll(rank, CollKind.ALL_REDUCE, size, deps=[c1], name="sync")
        c2 = builder.add_comp(rank, "opt_step", 2 * MIB, deps=[ar], name="opt")
        builder.add_coll(rank, CollKind.ALL_GATHER, size, deps=[c2], name="gather")
    return builder.build_workload()


def test_criterion_5_end_to_end_workflow():
    started = time.monotonic()
    n, size = 4, 4 * MIB
    from collgraph.expander import expand

    unified = expand(_chain_workload(n, size), {
        CollKind.ALL_REDUCE: Algorithm.RING_ALL_REDUCE,
        CollKind.ALL_GATHER: Algorithm.RING_ALL_GATHER,
    })
    ar = 2 * (n - 1) * (ALPHA + (size / n) / BW)
    ag = (n - 1) * (ALPHA + size / BW)

    # free compute: the chain is exactly the two collectives
    total = simulate(unified, Topology.ring(n), COST).total_duration
    assert abs(total - (ar + ag)) <= 1e-12 * (ar + ag)

    # finite compute bandwidth: both compute durations plus the reduce
    # steps on the all-reduce critical path, still exact
    red_bw = 1e10
    total2 = simulate(unified, Topology.ring(n),
                      CostModel(ALPHA, BW, red_bw)).total_duration
    comp1, comp2 = 8 * MIB / red_bw, 2 * MIB / red_bw
    expected2 = comp1 + (ar + (n - 1) * (size / n) / red_bw) + comp2 + ag
    assert abs(total2 - expected2) <= 1e-12 * expected2
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"runtime bound exceeded: {elapsed:.2f}s"
    report(5, f"expanded chain equals comp1 + allreduce + comp2 + allgather "
              f"to 1e-12 in {elapsed:.2f}s")


def test_criterion_6_byte_determinism(tmp_path, fixtures_dir, capsys):
    def produce(tag: str) -> dict[str, bytes]:
        out = tmp_path / tag
        out.mkdir()
        net = out / "net.json"
        net.write_text('{"topology": {"kind": "ring", "n": 4}, "alpha_s": 1e-06, '
                       '"bandwidth_Bps": 1e9, "reduce_bandwidth_Bps": null}\n')
        trace = out / "ar.json"
        assert run_cli("gen", "--algo", "ring-allreduce", "--ranks", 4,
                       "--size", "4MiB", "-o", trace) == 0
        assert run_cli("simulate", trace, "--net", net, "-o", out / "report.json") == 0
        assert run_cli("sweep", "--algo", "ring-allreduce", "--ranks", 64,
                       "--sizes", "64KiB:1MiB:x4", "--topologies",
                       "ring,fc,mesh2d:8x8,switch", "--net", net,
                       "-o", out / "sweep.csv") == 0
        assert run_cli("validate", trace) == 0
        verdict = capsys.readouterr().out.encode()
        assert run_cli("convert", "--msccl-xml",
                       fixtures_dir / "ring_allreduce_n4.xml",
                       "--size", "4MiB", "-o", out / "converted.json") == 0
        workload = out / "workload.json"
        save_trace(_chain_workload(4, 4 * MIB), workload)
        assert run_cli("expand", workload,
                       "--bind", "ALL_REDUCE=ring-allreduce",
                       "--bind", "ALL_GATHER=ring-allgather",
                       "-o", out / "unified.json") == 0
        assert run_cli("simulate", out / "unified.json", "--net", net,
                       "-o", out / "unified_report.json") == 0
        artifacts = {"verdict": verdict}
        for name in ("ar.json", "report.json", "sweep.csv", "converted.json",
                     "unified.json", "unified_report.json"):
            artifacts[name] = (out / name).read_bytes()
        return artifacts

    first = produce("run1")
    second = produce("run2")
    assert first == second
    report(6, f"{len(first)} pipeline artifacts byte-identical across two runs")


def test_criterion_7_deadlock_detection(fixtures_dir, tmp_path, capsys):
    fixture = fixtures_dir / "circular_wait.json"
    with pytest.raises(StuckError) as stuck:
        check_semantics(load_trace(fixture))
    assert stuck.value.frontier == [(0, 0), (1, 0)]
    with pytest.raises(DeadlockError) as dead:
        simulate(load_trace(fixture), Topology.ring(2), COST)
    assert dead.value.frontier == [(0, 0), (1, 0)]

    assert run_cli("validate", fixture) == 4
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["stuck_nodes"] == [[0, 0], [1, 0]]
    net = tmp_path / "net.json"
    net.write_text('{"topology": {"kind": "ring", "n": 2}, "alpha_s": 1e-06, '
                   '"bandwidth_Bps": 1e9, "reduce_bandwidth_Bps": null}\n')
    assert run_cli("simulate", fixture, "--net", net) == 4
    report(7, "circular wait raises StuckError (exit 4) and DeadlockError, "
              "each naming both pending receives")
