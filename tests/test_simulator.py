"""Simulator: routing, closed-form latencies, contention, determinism,
monotonicity and sweeps."""

import random

import pytest
from helpers import report_json_oracle, simulate_oracle, timing

from collgraph.errors import (
    DeadlockError,
    InvariantError,
    SpecError,
    UnexpandedCollectiveError,
    UnreachableError,
)
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.simulator import (
    CostModel,
    SimReport,
    Topology,
    TopologyKind,
    route,
    simulate,
    sweep,
)
from collgraph.trace import (
    CollKind,
    CollectiveTrace,
    CompAttrs,
    NodeKind,
    SendAttrs,
    TraceBuilder,
    TraceNode,
    load_trace,
)
from collgraph.validator import PASS

MIB = 1024 * 1024
COST = CostModel(alpha=1e-6, bandwidth=1e9)


def ring_ar(n, s):
    return generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, n, s))


def ring_ag(n, s):
    return generate(AlgoSpec(Algorithm.RING_ALL_GATHER, n, s))


def ar_closed_form(n, s, alpha=1e-6, bw=1e9):
    return 2 * (n - 1) * (alpha + (s / n) / bw)


def ag_closed_form(n, s, alpha=1e-6, bw=1e9):
    return (n - 1) * (alpha + s / bw)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def test_ring_adjacent_is_one_link():
    assert route(Topology.ring(8), 0, 1) == [(0, 1)]


def test_ring_half_way_ties_clockwise():
    assert route(Topology.ring(8), 0, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_ring_shorter_arc_goes_backward():
    assert route(Topology.ring(8), 0, 6) == [(0, 7), (7, 6)]


def test_fully_connected_is_direct():
    assert route(Topology.fully_connected(16), 3, 11) == [(3, 11)]


def test_switch_relays_through_hub():
    assert route(Topology.switch(4), 1, 3) == [(1, 4), (4, 3)]


def test_mesh_dimension_order_7_to_8():
    # (0,7) -> (1,0): 7 hops along -X, then 1 hop along +Y
    path = route(Topology.mesh2d(8, 8), 7, 8)
    assert len(path) == 8
    assert path[:7] == [(7, 6), (6, 5), (5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]
    assert path[7] == (0, 8)


def test_torus_wraps_along_shorter_direction():
    # (0,0) -> (0,3) on 4 columns: distance 1 backward with wrap... forward
    # delta 3, backward 1, so wrap through column 3 directly.
    assert route(Topology.torus2d(4, 4), 0, 3) == [(0, 3)]
    # tie at delta 2 goes toward increasing index
    assert route(Topology.torus2d(4, 4), 0, 2) == [(0, 1), (1, 2)]


GRIDS = [(rows, cols) for rows in range(1, 5) for cols in range(1, 5) if rows * cols > 1]


@pytest.mark.parametrize(
    "topology",
    [Topology.ring(n) for n in range(2, 9)]
    + [Topology.mesh2d(rows, cols) for rows, cols in GRIDS]
    + [Topology.torus2d(rows, cols) for rows, cols in GRIDS],
    ids=lambda topo: f"{topo.label()}-{topo.n}")
def test_route_chains_neighbour_links_along_shortest_axes(topology):
    """Every path, checked against the routing rule rather than against
    `route` itself (the oracle simulator calls it): neighbour links chained
    from src to dst, columns before rows, the shortest hop count on each
    axis, and a tie broken toward increasing index. A ring is one row."""
    ring = topology.kind is TopologyKind.RING
    rows, cols = (1, topology.n) if ring else (topology.rows, topology.cols)
    wrap = topology.kind is not TopologyKind.MESH2D

    def hop(a, b):
        """(axis, +1 or -1) of a neighbour link a -> b: axis 0 moves along
        a row (columns), axis 1 along a column (rows)."""
        (ra, ca), (rb, cb) = divmod(a, cols), divmod(b, cols)
        for axis, size, x, y, same in ((0, cols, ca, cb, ra == rb), (1, rows, ra, rb, ca == cb)):
            if same and (y == (x + 1) % size if wrap else y == x + 1):
                return axis, 1
            if same and (y == (x - 1) % size if wrap else y == x - 1):
                return axis, -1
        raise AssertionError(f"{a} -> {b} is not a link of {topology.label()}")

    def shortest(x, y, size):
        forward = (y - x) % size
        if not wrap:
            return abs(y - x), 1 if y >= x else -1
        return min(forward, size - forward), 1 if forward <= size - forward else -1

    for src in range(topology.n):
        for dst in range(topology.n):
            if src == dst:
                continue
            path = route(topology, src, dst)
            assert [a for a, _ in path] == [src] + [b for _, b in path[:-1]]
            assert path[-1][1] == dst
            hops = [hop(a, b) for a, b in path]
            assert [axis for axis, _ in hops] == sorted(axis for axis, _ in hops)
            for axis, (x, y, size) in enumerate(((src % cols, dst % cols, cols),
                                                  (src // cols, dst // cols, rows))):
                count, step = shortest(x, y, size)
                assert [s for a, s in hops if a == axis] == [step] * count


def test_route_rejects_self_and_unknown_nodes():
    with pytest.raises(UnreachableError):
        route(Topology.ring(4), 2, 2)
    with pytest.raises(UnreachableError):
        route(Topology.ring(4), 0, 9)


def test_placement_permutes_physical_nodes():
    topo = Topology(TopologyKind.RING, 4, placement=(3, 2, 1, 0))
    assert topo.place(0) == 3
    with pytest.raises(SpecError):
        Topology(TopologyKind.RING, 4, placement=(0, 0, 1, 2))


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
def test_ring_all_reduce_on_ring_matches_closed_form(n):
    s = n * 16384
    report = simulate(ring_ar(n, s), Topology.ring(n), COST)
    expected = ar_closed_form(n, s)
    assert report.total_duration == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_ring_all_gather_on_ring_matches_closed_form(n):
    s = MIB
    report = simulate(ring_ag(n, s), Topology.ring(n), COST)
    assert report.total_duration == pytest.approx(ag_closed_form(n, s), rel=1e-12)


def test_spec_reference_value_n4_4mib():
    report = simulate(ring_ar(4, 4 * MIB), Topology.ring(4), COST)
    assert report.total_duration == pytest.approx(6.297456e-3, rel=1e-12)


def test_fully_connected_equals_ring_exactly():
    trace = ring_ar(4, 4 * MIB)
    ring_d = simulate(trace, Topology.ring(4), COST).total_duration
    fc_d = simulate(trace, Topology.fully_connected(4), COST).total_duration
    assert fc_d == ring_d


def test_switch_pays_bandwidth_twice_and_latency_once():
    trace = ring_ar(4, 4 * MIB)
    report = simulate(trace, Topology.switch(4), COST)
    expected = 6 * (1e-6 + 2 * MIB / 1e9)
    assert report.total_duration == pytest.approx(expected, rel=1e-12)


def test_mesh_embedding_regression_values():
    # Frozen from this simulator: the 8x8 row-major ring embedding is
    # bottlenecked by the 14-hop 63->0 wrap path.
    cost = CostModel(1e-6, 1e9)
    for size, expected in ((65536, 0.000382), (1048576, 0.004222)):
        report = simulate(ring_ar(64, size), Topology.mesh2d(8, 8), cost)
        assert report.total_duration == pytest.approx(expected, rel=1e-12)


def test_empty_trace_simulates_to_zero():
    trace = CollectiveTrace(1, None, [[]])
    report = simulate(trace, Topology.ring(1), COST)
    assert report.total_duration == 0.0
    assert report.event_count == 0


def _send(nid, dst, size=64):
    return TraceNode(nid, "s", NodeKind.COMM_SEND, (), SendAttrs(dst, size, 0))


def _comp(nid, deps):
    return TraceNode(nid, "c", NodeKind.COMP, deps, CompAttrs("NOP", 0))


@pytest.mark.parametrize("ranks, match", [
    ([[_comp(0, (7,))], []], "does not exist"),
    ([[_send(0, 5)], []], "out of range"),
    ([[_send(0, 1, size=-64)], []], "comm_size"),
    ([[_comp(0, (1,)), _comp(1, (0,))], []], "cycle"),
], ids=["dangling-dep", "peer-out-of-range", "negative-size", "cycle"])
def test_malformed_trace_is_rejected_when_built(ranks, match):
    with pytest.raises(InvariantError, match=match):
        CollectiveTrace(2, None, ranks)


def test_simulate_rejects_unmatched_send():
    trace = CollectiveTrace(2, None, [[_send(0, 1)], []])
    with pytest.raises(InvariantError, match="unmatched send"):
        simulate(trace, Topology.ring(2), COST)


def test_compute_costs_follow_reduce_bandwidth():
    b = TraceBuilder(1)
    b.add_comp(0, "REDUCE", 1000, name="red")
    b.add_comp(0, "NOP", 0, deps=[0], name="anchor")
    trace = b.build_collective(None)
    cost = CostModel(0.0, 1e9, reduce_bandwidth=1e6, fixed_comp_overhead=0.5)
    report = simulate(trace, Topology.ring(1), cost)
    # REDUCE: overhead + 1000/1e6; the NOP anchor stays free
    _, _, reduce_finish = timing(report, 0, 0)
    assert reduce_finish == pytest.approx(0.5 + 1e-3, rel=1e-12)
    assert timing(report, 0, 1)[2] == reduce_finish


# ---------------------------------------------------------------------------
# Report invariants and determinism
# ---------------------------------------------------------------------------

def test_timestamps_are_ordered_and_total_is_max():
    report = simulate(ring_ar(4, 4096), Topology.mesh2d(2, 2), COST)
    finishes = []
    for rank_times in report.node_times:
        for _, issue, start, finish in rank_times:
            assert finish >= start >= issue >= 0.0
            finishes.append(finish)
    assert report.total_duration == max(finishes)


def test_identical_runs_produce_identical_reports():
    trace = ring_ar(8, 8 * 4096)
    a = simulate(trace, Topology.mesh2d(2, 4), COST)
    b = simulate(trace, Topology.mesh2d(2, 4), COST)
    assert a == b


def test_monotone_in_alpha_and_bandwidth():
    trace = ring_ar(4, 4 * 4096)
    rng = random.Random(7)
    topo = Topology.switch(4)
    for _ in range(20):
        alpha = rng.uniform(0, 1e-4)
        bw = rng.uniform(1e8, 1e10)
        base = simulate(trace, topo, CostModel(alpha, bw)).total_duration
        slower_alpha = simulate(trace, topo, CostModel(alpha * 2 + 1e-9, bw)).total_duration
        slower_bw = simulate(trace, topo, CostModel(alpha, bw / 2)).total_duration
        assert slower_alpha >= base
        assert slower_bw >= base


def test_zero_alpha_duration_scales_linearly_with_size():
    cost = CostModel(0.0, 1e9)
    small = simulate(ring_ar(4, 4 * MIB), Topology.ring(4), cost).total_duration
    big = simulate(ring_ar(4, 8 * MIB), Topology.ring(4), cost).total_duration
    assert big == pytest.approx(2 * small, rel=1e-12)


def test_conservation_every_message_arrives_once():
    trace = ring_ar(4, 4 * 4096)
    report = simulate(trace, Topology.ring(4), COST)
    total_messages = sum(messages for _, _, messages, _ in report.link_stats)
    sends = sum(1 for nodes in trace.per_rank_nodes for n in nodes
                if n.kind.value == "COMM_SEND")
    assert total_messages == sends  # adjacent ring: one link per message


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

def test_workload_trace_is_rejected():
    b = TraceBuilder(2)
    for r in range(2):
        b.add_coll(r, CollKind.ALL_REDUCE, 1024)
    with pytest.raises(UnexpandedCollectiveError):
        simulate(b.build_workload(), Topology.ring(2), COST)


@pytest.mark.parametrize("kind", [TopologyKind.MESH2D, TopologyKind.TORUS2D])
def test_grid_dimensions_must_cover_every_node(kind):
    with pytest.raises(SpecError, match="rows\\*cols == n"):
        Topology(kind, 5, 2, 2)


def test_too_small_topology_rejected():
    with pytest.raises(SpecError, match="ranks"):
        simulate(ring_ar(4, 4096), Topology.ring(2), COST)


def test_circular_wait_deadlocks_with_both_recvs(fixtures_dir):
    trace = load_trace(fixtures_dir / "circular_wait.json")
    with pytest.raises(DeadlockError) as exc:
        simulate(trace, Topology.ring(2), COST)
    assert exc.value.frontier == [(0, 0), (1, 0)]
    assert str(exc.value).endswith(
        "pending: (0, 0) 'recv_first', (1, 0) 'recv_first'")


def test_deadlock_message_names_the_first_8_pending_nodes():
    b = TraceBuilder(2)
    for rank in (0, 1):
        recvs = [b.add_recv(rank, 1 - rank, 64, name=f"wait{rank}.{i}") for i in range(10)]
        for _ in range(10):
            b.add_send(rank, 1 - rank, 64, deps=recvs)
    with pytest.raises(DeadlockError) as exc:
        simulate(b.build_collective(None), Topology.ring(2), COST)
    assert exc.value.frontier == [(r, i) for r in (0, 1) for i in range(10)]
    named = ", ".join(f"(0, {i}) 'wait0.{i}'" for i in range(8))
    assert str(exc.value).endswith(f"pending: {named}, and 12 more")


def test_invalid_cost_model_rejected():
    with pytest.raises(SpecError):
        CostModel(-1.0, 1e9)
    with pytest.raises(SpecError):
        CostModel(0.0, 0.0)


@pytest.mark.parametrize("fields", [
    {"alpha": float("nan")},
    {"alpha": float("inf")},
    {"bandwidth": float("inf")},
    {"bandwidth": float("nan")},
    {"reduce_bandwidth": float("inf")},
    {"fixed_comp_overhead": float("nan")},
], ids=["nan-alpha", "inf-alpha", "inf-bandwidth", "nan-bandwidth", "inf-reduce",
        "nan-overhead"])
def test_non_finite_cost_model_rejected(fields):
    with pytest.raises(SpecError, match="finite"):
        CostModel(**{"alpha": 1e-6, "bandwidth": 1e9, **fields})


def test_time_overflowing_to_inf_is_rejected():
    with pytest.raises(SpecError, match="overflow"):
        simulate(ring_ag(4, 4096), Topology.ring(4), CostModel(1e308, 1e9))


# ---------------------------------------------------------------------------
# Report text
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topology", [Topology.ring(8), Topology.switch(8)],
                         ids=["ring", "switch"])
@pytest.mark.parametrize("trace", [ring_ar(8, 3 * MIB), ring_ag(8, 1000)],
                         ids=["allreduce", "allgather"])
def test_report_dumps_equals_the_json_dumps_oracle(trace, topology):
    cost = CostModel(1e-6, 1e9, reduce_bandwidth=3e9, fixed_comp_overhead=1e-7)
    report = simulate(trace, topology, cost)
    assert report.dumps() == report_json_oracle(report)


def test_zero_duration_reports_equal_the_oracle():
    empty = simulate(CollectiveTrace(2, None, [[], []]), Topology.ring(2), COST)
    assert empty.dumps() == report_json_oracle(empty)
    # a link with no busy time in a zero-length run has utilization 0.0
    idle = SimReport(2, (((0, 0.0, 0.0, 0.0),), ()), 0.0, 1, ((0, 1, 1, 0.0),))
    assert '"utilization": 0.0' in idle.dumps()
    assert idle.dumps() == report_json_oracle(idle)


# ---------------------------------------------------------------------------
# Dict-keyed oracle
# ---------------------------------------------------------------------------

def all_topologies(n):
    rows = max(r for r in range(1, int(n ** 0.5) + 1) if n % r == 0)
    return [Topology.ring(n), Topology.fully_connected(n), Topology.mesh2d(rows, n // rows),
            Topology.torus2d(rows, n // rows), Topology.switch(n)]


def assert_matches_oracle(trace, topology, cost):
    report, oracle = simulate(trace, topology, cost), simulate_oracle(trace, topology, cost)
    assert report == oracle
    assert report.dumps() == oracle.dumps()


GENERATED = [(algo, n) for algo in Algorithm for n in range(1, 9)
             if algo is not Algorithm.RECURSIVE_DOUBLING_ALL_GATHER or n & (n - 1) == 0]


@pytest.mark.parametrize("algo,n", GENERATED, ids=[f"{a.value}-{n}" for a, n in GENERATED])
def test_simulate_equals_the_dict_keyed_oracle(algo, n):
    trace = generate(AlgoSpec(algo, n, 840 * 64))
    for topology in all_topologies(n):
        assert_matches_oracle(trace, topology, COST)


def test_simulate_equals_the_oracle_with_placement_and_compute_costs():
    placed = Topology(TopologyKind.TORUS2D, 8, 2, 4, placement=(3, 0, 7, 5, 1, 6, 2, 4))
    assert_matches_oracle(ring_ar(8, 3 * MIB), placed, COST)
    compute = CostModel(1e-6, 1e9, reduce_bandwidth=3e9, fixed_comp_overhead=1e-7)
    for topology in all_topologies(6):
        assert_matches_oracle(ring_ar(6, 6 * MIB), topology, compute)


def test_simulate_equals_the_oracle_when_ids_are_not_in_list_order():
    """Positions follow ids, not the order nodes are listed in."""
    def scramble(node):  # a permutation of the 15 ids, kept in list order
        return TraceNode(7 * node.id % 16, node.name, node.kind,
                         tuple(7 * d % 16 for d in node.deps), node.attrs)
    trace = ring_ar(4, 4 * MIB)
    scrambled = CollectiveTrace(4, trace.claimed_collective,
                                [[scramble(node) for node in nodes]
                                 for nodes in trace.per_rank_nodes])
    for topology in all_topologies(4):
        assert_matches_oracle(scrambled, topology, COST)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_slowdowns_and_row_order():
    sizes = [65536, 16384]
    topologies = [Topology.ring(8), Topology.fully_connected(8), Topology.switch(8)]
    rows = sweep(Algorithm.RING_ALL_REDUCE, 8, sizes, topologies, COST)
    assert [(topology, size) for topology, size, _, _ in rows] == [
        ("ring", 16384), ("ring", 65536),
        ("fc", 16384), ("fc", 65536),
        ("switch", 16384), ("switch", 65536),
    ]
    by_topo = {}
    for topology, _, _, slowdown in rows:
        by_topo.setdefault(topology, []).append(slowdown)
    assert by_topo["ring"] == by_topo["fc"] == [1.0, 1.0]
    sw = by_topo["switch"]
    assert all(1.0 < slowdown <= 2.0 for slowdown in sw)
    assert sw[0] < sw[1]  # grows with size


def test_sweep_keys_cells_by_topology_not_label():
    # a larger ring and a placed ring share the baseline's "ring" label, but
    # each is simulated on its own network
    cost = CostModel(1e-6, 1e9)
    trace = ring_ag(4, 4096)
    wide, placed = Topology.ring(8), Topology(TopologyKind.RING, 4, placement=[0, 2, 1, 3])
    rows = sweep(Algorithm.RING_ALL_GATHER, 4, [4096], [wide, placed, Topology.ring(4)], cost)
    base = simulate(trace, Topology.ring(4), cost).total_duration
    expected = [simulate(trace, topo, cost).total_duration for topo in (wide, placed)] + [base]
    assert expected[:2] == [pytest.approx(2.348e-05), pytest.approx(2.5576e-05)]
    assert rows == [("ring", 4096, d, d / base) for d in expected]
    # a placement given as a list is stored as a tuple, so the topology hashes
    assert placed == Topology(TopologyKind.RING, 4, placement=(0, 2, 1, 3))
    assert hash(placed) == hash(Topology(TopologyKind.RING, 4, placement=(0, 2, 1, 3)))


def test_sweep_parallel_jobs_match_sequential():
    sizes = [16384, 65536]
    topologies = [Topology.ring(4), Topology.switch(4)]
    sequential = sweep(Algorithm.RING_ALL_GATHER, 4, sizes, topologies, COST, jobs=1)
    parallel = sweep(Algorithm.RING_ALL_GATHER, 4, sizes, topologies, COST, jobs=2)
    assert sequential == parallel


@pytest.mark.parametrize("jobs, cpus, topologies, expected", [
    (64, 8, 1, [2]),   # capped by the 2 cells
    (3, 2, 2, [2]),    # capped by the CPUs
    (4, 8, 2, [4]),    # as asked
    (64, 1, 2, []),    # one CPU: sequential, no pool
    (1, 8, 2, []),     # one job: sequential, no pool
])
def test_sweep_caps_workers_at_cells_and_cpus(monkeypatch, jobs, cpus, topologies, expected):
    import collgraph.simulator as simulator

    pools = []

    class RecordingPool:
        """In-process stand-in for ProcessPoolExecutor; starts no process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: cpus)
    topos = [Topology.ring(4), Topology.switch(4)][:topologies]
    rows = sweep(Algorithm.RING_ALL_GATHER, 4, [16384, 65536], topos, COST, jobs=jobs)
    assert pools == expected
    assert rows == sweep(Algorithm.RING_ALL_GATHER, 4, [16384, 65536], topos, COST)
