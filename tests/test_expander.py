"""Expander: splicing collective subgraphs into workloads."""

import gc

import pytest

from collgraph import expander
from collgraph import trace as trace_module
from collgraph.errors import BindingError, InvariantError
from collgraph.expander import TAG_STRIDE, expand
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.simulator import CostModel, Topology, simulate
from collgraph.trace import (
    CollDescriptor,
    CollKind,
    CollectiveTrace,
    NodeKind,
    RecvAttrs,
    SendAttrs,
    TraceBuilder,
    TraceNode,
    check_trace,
    toposort_rank,
)
from collgraph.validator import SKIPPED, check_semantics

MIB = 1024 * 1024
BINDINGS = {
    CollKind.ALL_REDUCE: Algorithm.RING_ALL_REDUCE,
    CollKind.ALL_GATHER: Algorithm.RING_ALL_GATHER,
}


def chain_workload(n=4, size=4 * MIB, comp1=8 * MIB, comp2=2 * MIB):
    """Per rank: COMP -> ALL_REDUCE -> COMP -> ALL_GATHER."""
    b = TraceBuilder(n)
    for r in range(n):
        c1 = b.add_comp(r, "fwd_gemm", comp1, name="fwd")
        ar = b.add_coll(r, CollKind.ALL_REDUCE, size, deps=[c1], name="grad_sync")
        c2 = b.add_comp(r, "opt_step", comp2, deps=[ar], name="opt")
        b.add_coll(r, CollKind.ALL_GATHER, size, deps=[c2], name="param_gather")
    return b.build_workload()


def test_expansion_produces_a_valid_unified_trace():
    unified = expand(chain_workload(), BINDINGS)
    check_trace(unified)
    assert unified.claimed_collective is None
    kinds = {n.kind for nodes in unified.per_rank_nodes for n in nodes}
    assert NodeKind.COMM_COLL not in kinds
    for rank in range(4):
        toposort_rank(unified, rank)  # acyclicity re-established


def test_node_count_is_workload_plus_bindings():
    unified = expand(chain_workload(), BINDINGS)
    # 2 workload comps + 15 (ring AR, N=4) + 6 (ring AG, N=4)
    assert [len(nodes) for nodes in unified.per_rank_nodes] == [23] * 4


def test_chain_serializes_to_the_sum_of_closed_forms():
    n, size = 4, 4 * MIB
    unified = expand(chain_workload(n, size), BINDINGS)
    alpha, bw = 1e-6, 1e9
    ar = 2 * (n - 1) * (alpha + (size / n) / bw)
    ag = (n - 1) * (alpha + size / bw)

    # free compute: total is exactly the two collectives back to back
    report = simulate(unified, Topology.ring(n), CostModel(alpha, bw))
    assert report.total_duration == pytest.approx(ar + ag, rel=1e-12)

    # finite compute bandwidth: workload comps cost size/R and each of the
    # N-1 pipelined reduce steps adds chunk/R to the all-reduce critical path
    red_bw = 1e10
    report2 = simulate(unified, Topology.ring(n), CostModel(alpha, bw, red_bw))
    comp1, comp2 = 8 * MIB / red_bw, 2 * MIB / red_bw
    ar_with_reduce = ar + (n - 1) * (size / n) / red_bw
    expected = comp1 + ar_with_reduce + comp2 + ag
    assert report2.total_duration == pytest.approx(expected, rel=1e-12)


def test_expansion_of_coll_free_workload_is_identity_on_the_graph():
    b = TraceBuilder(2)
    for r in range(2):
        first = b.add_comp(r, "a", 64, name="first")
        b.add_comp(r, "b", 32, deps=[first], name="second")
    workload = b.build_workload()
    unified = expand(workload, {})
    assert unified.per_rank_nodes == workload.per_rank_nodes


def test_empty_binding_becomes_anchor_preserving_edges():
    b = TraceBuilder(1)
    before = b.add_comp(0, "x", 10, name="before")
    coll = b.add_coll(0, CollKind.ALL_REDUCE, 64, deps=[before])
    b.add_comp(0, "y", 10, deps=[coll], name="after")
    unified = expand(b.build_workload(), {CollKind.ALL_REDUCE: Algorithm.RING_ALL_REDUCE})
    nodes = sorted(unified.per_rank_nodes[0], key=lambda n: n.id)
    assert [n.kind for n in nodes] == [NodeKind.COMP] * 3
    anchor = nodes[1]
    assert anchor.attrs.op == "NOP" and anchor.attrs.comp_size == 0
    assert anchor.deps == (nodes[0].id,)
    assert nodes[2].deps == (anchor.id,)


def test_repeated_collectives_get_disjoint_tag_ranges():
    b = TraceBuilder(2)
    for r in range(2):
        first = b.add_coll(r, CollKind.ALL_GATHER, MIB, name="ag1")
        b.add_coll(r, CollKind.ALL_GATHER, MIB, deps=[first], name="ag2")
    unified = expand(b.build_workload(), {CollKind.ALL_GATHER: Algorithm.RING_ALL_GATHER})
    check_trace(unified)  # matching across instances must still be exact
    tags = sorted(n.attrs.tag for n in unified.per_rank_nodes[0]
                  if n.kind is NodeKind.COMM_SEND)
    assert tags == [0, TAG_STRIDE]


def test_edges_into_and_out_of_the_splice_touch_all_roots_and_sinks():
    n = 3
    b = TraceBuilder(n)
    for r in range(n):
        c = b.add_comp(r, "pre", 1, name="pre")
        coll = b.add_coll(r, CollKind.ALL_GATHER, 3 * 64, deps=[c])
        b.add_comp(r, "post", 1, deps=[coll], name="post")
    unified = expand(b.build_workload(), {CollKind.ALL_GATHER: Algorithm.RING_ALL_GATHER})
    nodes = {node.id: node for node in unified.per_rank_nodes[0]}
    pre = next(v for v in nodes.values() if v.name == "pre")
    post = next(v for v in nodes.values() if v.name == "post")
    spliced = [v for v in nodes.values() if v.name.startswith("coll0_")]
    roots = [v.id for v in spliced if v.deps == (pre.id,)]
    depended = {d for v in spliced for d in v.deps}
    sinks = [v.id for v in spliced if v.id not in depended]
    # ring all-gather per rank: first send and first recv are the two roots,
    # the last send and last recv the two sinks
    assert len(roots) == 2
    assert sorted(post.deps) == sorted(sinks)


def test_binding_may_be_a_fixed_trace_of_matching_size():
    trace = generate(AlgoSpec(Algorithm.RING_ALL_GATHER, 2, MIB))
    b = TraceBuilder(2)
    for r in range(2):
        b.add_coll(r, CollKind.ALL_GATHER, MIB)
    unified = expand(b.build_workload(), {CollKind.ALL_GATHER: trace})
    assert check_semantics(unified).status == SKIPPED  # unified traces carry no claim
    check_trace(unified)


@pytest.mark.parametrize(
    "binding, message",
    [
        ({}, "no binding"),
        ({CollKind.ALL_GATHER: Algorithm.RING_ALL_REDUCE}, "implements"),
        ({CollKind.ALL_GATHER: AlgoSpec(Algorithm.RING_ALL_GATHER, 2, MIB)},
         "must be a CollectiveTrace or an Algorithm, got AlgoSpec"),
        ({CollKind.ALL_GATHER: generate(AlgoSpec(Algorithm.RING_ALL_GATHER, 2, 2 * MIB))},
         "sized"),
        ({CollKind.ALL_GATHER: generate(AlgoSpec(Algorithm.RING_ALL_GATHER, 4, MIB))},
         "ranks"),
        ({CollKind.ALL_GATHER: CollectiveTrace(2, None, [[], []])}, "does not claim"),
        ({CollKind.ALL_GATHER: generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, 2, MIB))},
         "claims ALL_REDUCE"),
        ({CollKind.ALL_GATHER: Algorithm.RING_ALL_REDUCE}, "implements"),
    ],
)
def test_binding_errors(binding, message):
    with pytest.raises(BindingError, match=message):
        expand(all_gathers([MIB]), binding)


def all_gathers(sizes, n=2):
    """A workload of all-gathers of `sizes`, one after another, on n ranks."""
    b = TraceBuilder(n)
    for r in range(n):
        prev = []
        for size in sizes:
            prev = [b.add_coll(r, CollKind.ALL_GATHER, size, deps=prev)]
    return b.build_workload()


def huge_tags(size=64):
    return CollectiveTrace(
        2,
        CollDescriptor(CollKind.ALL_GATHER, size),
        [
            [TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(1, size, TAG_STRIDE))],
            [TraceNode(0, "r", NodeKind.COMM_RECV, (), RecvAttrs(0, size, TAG_STRIDE))],
        ],
    )


def test_tags_at_or_above_the_stride_overflow():
    with pytest.raises(BindingError, match=f"binding tag {TAG_STRIDE} exceeds"):
        expand(all_gathers([64]), {CollKind.ALL_GATHER: huge_tags()})


def test_generated_bindings_are_held_to_the_tag_stride_too(monkeypatch):
    monkeypatch.setattr(expander, "generate", lambda spec: huge_tags(spec.comm_size))
    with pytest.raises(BindingError, match="namespace"):
        expand(all_gathers([64]), {CollKind.ALL_GATHER: Algorithm.RING_ALL_GATHER})


def test_an_unmatched_binding_raises_its_own_mismatch():
    unmatched = CollectiveTrace(2, CollDescriptor(CollKind.ALL_GATHER, 64), [
        [TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(1, 64, 7))], []])
    with pytest.raises(InvariantError) as raised:
        expand(all_gathers([64, 64]), {CollKind.ALL_GATHER: unmatched})
    assert str(raised.value) == "unmatched send 0->1 tag 7 (rank 0, node 0)"


def test_each_distinct_size_is_generated_once(monkeypatch):
    specs = []

    def recording(spec):
        specs.append(spec)
        return generate(spec)

    monkeypatch.setattr(expander, "generate", recording)
    unified = expand(all_gathers([MIB, 2 * MIB, MIB, 2 * MIB, MIB], n=4),
                     {CollKind.ALL_GATHER: Algorithm.RING_ALL_GATHER})
    assert [spec.comm_size for spec in specs] == [MIB, 2 * MIB]
    assert [len(nodes) for nodes in unified.per_rank_nodes] == [5 * 6] * 4


def test_resolved_traces_are_released_before_the_unified_check(monkeypatch):
    check = trace_module.check_trace
    alive = []

    def checking(trace, **kwargs):
        if isinstance(trace, CollectiveTrace) and trace.claimed_collective is None:
            gc.collect()  # counts only what references keep alive
            alive.append(sum(type(o) is TraceNode and not o.name.startswith("coll")
                             and getattr(o.attrs, "comm_size", 0) in sizes
                             for o in gc.get_objects()))
        check(trace, **kwargs)

    sizes = [1234, 5678]  # no other test's trace holds these
    monkeypatch.setattr(trace_module, "check_trace", checking)
    expand(all_gathers(sizes, n=4), {CollKind.ALL_GATHER: Algorithm.RING_ALL_GATHER})
    assert alive == [0]
