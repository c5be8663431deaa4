"""Trace model: serialization round-trips, canonical bytes, invariants,
topological ordering."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from helpers import loads_trace_oracle, trace_json_oracle

from collgraph import trace as trace_module
from collgraph.errors import CycleError, InvariantError, ParseError, SchemaError
from collgraph.expander import expand
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.msccl import convert_to_trace, parse_msccl_xml
from collgraph.simulator import CostModel, Topology, simulate
from collgraph.trace import (
    CollAttrs,
    CollDescriptor,
    CollKind,
    MAX_SIZE,
    CollectiveTrace,
    CompAttrs,
    NodeKind,
    RecvAttrs,
    SendAttrs,
    TraceBuilder,
    TraceNode,
    WorkloadTrace,
    check_trace,
    dumps_trace,
    load_trace,
    loads_trace,
    require_matched,
    save_trace,
    toposort_rank,
)
from collgraph.validator import canonical_form, check_semantics

MIB = 1024 * 1024
FIXTURES = Path(__file__).parent / "fixtures"


def ring_ar(n=4, size=4 * MIB):
    return generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, n, size))


def comp(nid, deps, size=0, op="NOP"):
    return TraceNode(nid, f"c{nid}", NodeKind.COMP, deps, CompAttrs(op, size))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_empty_single_rank_trace_round_trips(tmp_path):
    trace = CollectiveTrace(1, CollDescriptor(CollKind.ALL_REDUCE, 1024), [[]])
    path = tmp_path / "empty.json"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace
    assert loaded.num_ranks == 1
    assert loaded.per_rank_nodes == ((),)
    doc = json.loads(path.read_text())
    assert doc["num_ranks"] == 1
    assert doc["ranks"] == [[]]
    assert doc["format_version"] == "1"


def test_generated_trace_round_trip_identity(tmp_path):
    trace = ring_ar()
    path = tmp_path / "ar.json"
    save_trace(trace, path)
    assert load_trace(path) == trace


def test_save_load_save_is_byte_idempotent(tmp_path):
    trace = ring_ar()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_trace(trace, first)
    save_trace(load_trace(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_node_insertion_order_does_not_change_bytes():
    trace = ring_ar()
    shuffled = CollectiveTrace(
        trace.num_ranks,
        trace.claimed_collective,
        [tuple(reversed(nodes)) for nodes in trace.per_rank_nodes],
    )
    assert dumps_trace(shuffled) == dumps_trace(trace)


def test_canonical_output_uses_lf_and_trailing_newline(tmp_path):
    path = tmp_path / "t.json"
    save_trace(ring_ar(), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_workload_round_trip(tmp_path):
    b = TraceBuilder(2)
    for r in range(2):
        c = b.add_comp(r, "gemm", 256, name="fwd")
        b.add_coll(r, CollKind.ALL_REDUCE, 1024, deps=[c], name="sync")
    workload = b.build_workload()
    path = tmp_path / "w.json"
    save_trace(workload, path)
    loaded = load_trace(path)
    assert isinstance(loaded, WorkloadTrace)
    assert loaded == workload


def _chain_workload(n=4):
    b = TraceBuilder(n)
    for r in range(n):
        c1 = b.add_comp(r, "fwd_gemm", 8 * MIB, name="fwd")
        ar = b.add_coll(r, CollKind.ALL_REDUCE, 4 * MIB, deps=[c1], name="sync")
        c2 = b.add_comp(r, "opt_step", 2 * MIB, deps=[ar], name="opt")
        b.add_coll(r, CollKind.ALL_GATHER, 4 * MIB, deps=[c2], name="gather")
    return b.build_workload()


def _odd_names():
    names = ["é ü 中文 😀", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", ""]
    return CollectiveTrace(2, CollDescriptor(CollKind.BROADCAST, 64), [
        [TraceNode(0, names[0], NodeKind.COMM_SEND, (1,), SendAttrs(1, 64, 0, (3, 1))),
         TraceNode(1, names[1], NodeKind.COMP, (), CompAttrs(names[2], 8, (), (0,)))],
        [TraceNode(2, names[3], NodeKind.COMM_RECV, (), RecvAttrs(0, 64, 0)),
         TraceNode(0, names[4], NodeKind.COMP, (2,), CompAttrs("NOP", 0, None, ()))],
    ])


def _msccl_back_edge():
    """A step that depends on a step of a lower-numbered threadblock, so the
    converter sees its deps in descending order."""
    xml = """<algo name="back-edge" ngpus="1" nchunks="2" coll="allreduce">
  <gpu id="0">
    <tb id="0" chan="0">
      <step s="0" type="cpy" srcbuf="input" srcoff="0" dstbuf="output" dstoff="1" cnt="1"/>
    </tb>
    <tb id="1" chan="0">
      <step s="0" type="nop"/>
      <step s="1" type="cpy" srcbuf="input" srcoff="1" dstbuf="output" dstoff="0" cnt="1"
            depid="0" deps="0"/>
    </tb>
  </gpu>
</algo>
"""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "back_edge.xml"
        path.write_text(xml)
        return convert_to_trace(parse_msccl_xml(path), 2048)


ORACLE_CASES = {
    **{f"{algo.value}-n{n}": (lambda a=algo, n=n: generate(AlgoSpec(a, n, 840 * 1024)))
       for algo in Algorithm for n in range(1, 9)
       if algo is not Algorithm.RECURSIVE_DOUBLING_ALL_GATHER or n & (n - 1) == 0},
    "msccl-fixture": lambda: convert_to_trace(
        parse_msccl_xml(FIXTURES / "ring_allreduce_n4.xml"), 4 * MIB),
    "msccl-back-edge": _msccl_back_edge,
    "chain-workload": _chain_workload,
    "expanded-chain": lambda: expand(_chain_workload(), {
        CollKind.ALL_REDUCE: Algorithm.RING_ALL_REDUCE,
        CollKind.ALL_GATHER: Algorithm.RING_ALL_GATHER}),
    "empty-rank-workload": lambda: WorkloadTrace(3, [[comp(0, ())], [], [comp(4, ())]]),
    "empty-rank-collective": lambda: CollectiveTrace(2, None, [[], [comp(1, ()), comp(0, (1,))]]),
    "names-and-chunks": _odd_names,
}


@pytest.mark.parametrize("build", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_dumps_trace_equals_the_json_dumps_oracle(build):
    trace = build()
    text = dumps_trace(trace)
    assert text == trace_json_oracle(trace)
    assert dumps_trace(loads_trace(text)) == text


@pytest.mark.parametrize("build", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_private_constructors_build_what_the_public_ones_do(build):
    """Rebuilding every node and attrs through the public, normalizing
    constructors changes nothing: producers pass normal values."""
    trace = build()
    ranks = [[TraceNode(n.id, n.name, n.kind, n.deps, replace(n.attrs)) for n in nodes]
             for nodes in trace.per_rank_nodes]
    rebuilt = (WorkloadTrace(trace.num_ranks, ranks) if isinstance(trace, WorkloadTrace)
               else CollectiveTrace(trace.num_ranks, trace.claimed_collective, ranks))
    assert rebuilt == trace


@pytest.mark.parametrize("build", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_loads_trace_builds_what_the_oracle_loader_builds(build):
    text = dumps_trace(build())
    assert loads_trace(text) == loads_trace_oracle(text)


def test_messages_are_paired_only_at_construction(monkeypatch):
    """`loads_trace`, `dumps_trace`, `build_collective` and `expand` read the
    pairing that `check_trace` recorded, and `simulate`, both runs of
    `check_semantics` and `canonical_form` read its `messages` table; only
    building a collective trace pairs its messages."""
    calls = {"pair": 0, "built": 0}
    pair, check = trace_module._pair_messages, trace_module.check_trace

    def counting_pair(*args, **kwargs):
        calls["pair"] += 1
        return pair(*args, **kwargs)

    def counting_check(trace, **kwargs):
        calls["built"] += isinstance(trace, CollectiveTrace)
        return check(trace, **kwargs)

    def counted(action):
        calls.update(pair=0, built=0)
        action()
        return calls["pair"], calls["built"]

    monkeypatch.setattr(trace_module, "_pair_messages", counting_pair)
    monkeypatch.setattr(trace_module, "check_trace", counting_check)
    trace = ring_ar()
    text = dumps_trace(trace)
    builder = TraceBuilder(2)
    builder.add_send(0, 1, 64)
    builder.add_recv(1, 0, 64)
    bindings = {CollKind.ALL_REDUCE: Algorithm.RING_ALL_REDUCE,
                CollKind.ALL_GATHER: Algorithm.RING_ALL_GATHER}
    assert counted(lambda: dumps_trace(trace)) == (0, 0)
    assert counted(lambda: loads_trace(text)) == (1, 1)
    assert counted(lambda: builder.build_collective(None)) == (1, 1)
    assert counted(lambda: expand(_chain_workload(), bindings)) == (3, 3)  # 2 bindings
    cost = CostModel(alpha=1e-6, bandwidth=1e9)
    assert counted(lambda: simulate(trace, Topology.torus2d(2, 2), cost)) == (0, 0)
    assert counted(lambda: check_semantics(trace)) == (0, 0)  # eager and rendezvous runs
    assert counted(lambda: canonical_form(trace)) == (0, 0)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": "1",,}\n')
    with pytest.raises(ParseError, match=r"line 1, column"):
        load_trace(path)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda d: d["ranks"][0][0].__setitem__("kind", "COMM_FOO"), "unknown node kind"),
        (lambda d: d["ranks"][0][0]["attrs"].pop("tag"), "missing attribute"),
        (lambda d: d["ranks"][0][0]["attrs"].__setitem__("bogus", 1), "unknown attribute"),
        (lambda d: d.__setitem__("extra", 1), "unknown top-level key"),
        (lambda d: d.__setitem__("format_version", "99"), "unsupported format_version"),
        (lambda d: d.__setitem__("trace_class", "other"), "unknown trace_class"),
        (lambda d: d.__setitem__("claimed_collective", {"kind": "FOO", "comm_size": 1}),
         "unknown collective kind"),
        (lambda d: d["ranks"][0][0].update(kind="COMM_COLL",
                                           attrs={"coll_kind": "FOO", "comm_size": 1}),
         "unknown coll_kind 'FOO'"),
        (lambda d: d.pop("claimed_collective"), "missing key 'claimed_collective'"),
        (lambda d: d.__setitem__("trace_class", "workload"), "claimed_collective: null"),
    ],
)
def test_schema_errors(tmp_path, mangle, message):
    doc = json.loads(dumps_trace(ring_ar(2, 2 * MIB)))
    mangle(doc)
    with pytest.raises(SchemaError, match=message):
        loads_trace(json.dumps(doc))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def test_unmatched_send_rejected():
    nodes = [
        [TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(1, 64, 7))],
        [],
    ]
    trace = CollectiveTrace(2, None, nodes)
    with pytest.raises(InvariantError, match="unmatched send"):
        check_trace(trace)


def test_unmatched_recv_rejected():
    nodes = [
        [],
        [TraceNode(0, "r", NodeKind.COMM_RECV, (), RecvAttrs(0, 64, 7))],
    ]
    with pytest.raises(InvariantError, match="unmatched recv"):
        check_trace(CollectiveTrace(2, None, nodes))


@pytest.mark.parametrize("ranks", [
    [[TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(1, 64, 7))], []],
    [[], [TraceNode(0, "r", NodeKind.COMM_RECV, (), RecvAttrs(0, 64, 7))]],
    [[TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(1, 64, 0))],
     [TraceNode(0, "r", NodeKind.COMM_RECV, (), RecvAttrs(0, 128, 0))]],
], ids=["unmatched-send", "unmatched-recv", "size-mismatch"])
def test_the_mismatch_recorded_at_construction_is_what_readers_raise(ranks):
    trace = CollectiveTrace(2, None, ranks)
    text = trace_json_oracle(trace)
    with pytest.raises(InvariantError) as checked:
        check_trace(trace)
    loaded = loads_trace(text)
    assert loaded == trace and loaded.mismatch == trace.mismatch
    cost = CostModel(alpha=1e-6, bandwidth=1e9)
    for read in (lambda: dumps_trace(trace), lambda: require_matched(loaded),
                 lambda: simulate(loaded, Topology.ring(2), cost)):
        with pytest.raises(InvariantError) as raised:
            read()
        assert str(raised.value) == str(checked.value)


def test_duplicate_tag_rejected():
    nodes = [
        [
            TraceNode(0, "s0", NodeKind.COMM_SEND, (), SendAttrs(1, 64, 3)),
            TraceNode(1, "s1", NodeKind.COMM_SEND, (), SendAttrs(1, 64, 3)),
        ],
        [
            TraceNode(0, "r0", NodeKind.COMM_RECV, (), RecvAttrs(0, 64, 3)),
            TraceNode(1, "r1", NodeKind.COMM_RECV, (), RecvAttrs(0, 64, 4)),
        ],
    ]
    with pytest.raises(InvariantError, match="duplicate tag"):
        check_trace(CollectiveTrace(2, None, nodes))


def test_size_mismatch_rejected():
    nodes = [
        [TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(1, 64, 0))],
        [TraceNode(0, "r", NodeKind.COMM_RECV, (), RecvAttrs(0, 128, 0))],
    ]
    with pytest.raises(InvariantError, match="size"):
        check_trace(CollectiveTrace(2, None, nodes))


def test_deleting_any_message_node_breaks_the_load_invariant():
    trace = ring_ar(4, 4 * MIB)
    from helpers import delete_node

    for rank, nodes in enumerate(trace.per_rank_nodes):
        for node in nodes:
            if node.kind not in (NodeKind.COMM_SEND, NodeKind.COMM_RECV):
                continue
            broken = delete_node(trace, rank, node.id)
            with pytest.raises(InvariantError):
                check_trace(broken)


def test_self_and_out_of_range_peers_rejected():
    with pytest.raises(InvariantError, match="differ from the owning rank"):
        CollectiveTrace(2, None, [
            [TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(0, 64, 0))], []])
    with pytest.raises(InvariantError, match="out of range"):
        CollectiveTrace(2, None, [
            [TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(5, 64, 0))], []])


def test_negative_tag_rejected():
    with pytest.raises(InvariantError, match="tag must be non-negative"):
        CollectiveTrace(2, None, _send_pair(SendAttrs(1, 64, -1), RecvAttrs(0, 64, -1)))


def test_nonpositive_sizes_rejected():
    with pytest.raises(InvariantError, match="comm_size"):
        CollectiveTrace(2, None, [
            [TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(1, 0, 0))],
            [TraceNode(0, "r", NodeKind.COMM_RECV, (), RecvAttrs(0, 0, 0))]])
    with pytest.raises(InvariantError, match="comp_size"):
        CollectiveTrace(1, None, [[comp(0, (), size=-1)]])


@pytest.mark.parametrize("attrs", [
    lambda c: SendAttrs(1, 64, 0, chunks=c),
    lambda c: RecvAttrs(0, 64, 0, chunks=c),
    lambda c: CompAttrs("COPY", 64, chunks=c),
    lambda c: CompAttrs("COPY", 64, chunks=(0,), src_chunks=c),
], ids=["send-chunks", "recv-chunks", "comp-chunks", "comp-src-chunks"])
def test_negative_chunk_indices_rejected(attrs):
    assert attrs([0, 3]) is not None
    for chunks in ((-1,), (2, -5, 0)):
        with pytest.raises(InvariantError, match="chunk indices must be non-negative"):
            attrs(chunks)


NOP = CompAttrs("NOP", 0)


@pytest.mark.parametrize("build, message", [
    (lambda: CompAttrs("COPY", 8, chunks=[0.9, "1"]), "chunks must be a list of ints"),
    (lambda: CompAttrs("COPY", 8, chunks=[0], src_chunks=[True, 1.5]),
     "chunks must be a list of ints"),
    (lambda: SendAttrs(1, 64, 0, chunks=5), "chunks must be a list of ints"),
    (lambda: TraceNode(0, "n", NodeKind.COMP, ("0",), NOP), "deps must be a list of ints"),
    (lambda: TraceNode(0, "n", NodeKind.COMP, [None], NOP), "deps must be a list of ints"),
    (lambda: CollectiveTrace(1, None, [[TraceNode(0, "n", "COMP", (), NOP)]]),
     "kind 'COMP' inconsistent"),
    (lambda: CollectiveTrace(1, None, [[(0, "n", NodeKind.COMP, (), NOP)]]),
     "rank lists must hold TraceNodes"),
], ids=["float-and-str-chunks", "bool-and-float-src-chunks", "int-chunks", "str-dep",
        "none-dep", "str-kind", "tuple-node"])
def test_public_constructors_take_exact_ints_and_raise_invariant_errors(build, message):
    with pytest.raises(InvariantError, match=message):
        build()


def test_sizes_beyond_int64_rejected():
    big = MAX_SIZE + 1
    assert MAX_SIZE == 2**63 - 1
    CollectiveTrace(2, CollDescriptor(CollKind.ALL_GATHER, MAX_SIZE), _send_pair(
        SendAttrs(1, MAX_SIZE, 0), RecvAttrs(0, MAX_SIZE, 0)))
    with pytest.raises(InvariantError, match="comm_size"):
        CollectiveTrace(2, None, _send_pair(SendAttrs(1, big, 0), RecvAttrs(0, big, 0)))
    with pytest.raises(InvariantError, match="comp_size"):
        CollectiveTrace(1, None, [[comp(0, (), size=big)]])
    with pytest.raises(InvariantError, match="claimed_collective"):
        CollectiveTrace(1, CollDescriptor(CollKind.ALL_GATHER, big), [[]])
    with pytest.raises(InvariantError, match="comm_size"):
        WorkloadTrace(1, [[TraceNode(0, "c", NodeKind.COMM_COLL, (),
                                     CollAttrs(CollKind.ALL_REDUCE, big))]])


def _send_pair(send=SendAttrs(1, 64, 0), recv=RecvAttrs(0, 64, 0), name="s", nid=0):
    return [[TraceNode(nid, name, NodeKind.COMM_SEND, (), send)],
            [TraceNode(0, "r", NodeKind.COMM_RECV, (), recv)]]


@pytest.mark.parametrize("build, match", [
    (lambda: _send_pair(SendAttrs(1, 4.0, 0), RecvAttrs(0, 4, 0)), "must be ints"),
    (lambda: _send_pair(SendAttrs(1, 64, True)), "must be ints"),
    (lambda: _send_pair(SendAttrs(1, 64, 0.0)), "must be ints"),
    (lambda: _send_pair(SendAttrs(True, 64, 0)), "must be ints"),
    (lambda: _send_pair(recv=RecvAttrs(False, 64, 0)), "must be ints"),
    (lambda: _send_pair(nid=True), "node id"),
    (lambda: _send_pair(nid=0.0), "node id"),
    (lambda: _send_pair(name=b"s"), "name"),
    (lambda: _send_pair(name=None), "name"),
    (lambda: [[TraceNode(0, "c", NodeKind.COMP, (), CompAttrs("NOP", True))]], "comp_size"),
    (lambda: [[TraceNode(0, "c", NodeKind.COMP, (), CompAttrs("NOP", 1.5))]], "comp_size"),
    (lambda: [[TraceNode(0, "c", NodeKind.COMP, (), CompAttrs(3, 0))]], "op"),
], ids=["float-size", "bool-tag", "float-tag", "bool-peer", "bool-src", "bool-id",
        "float-id", "bytes-name", "none-name", "bool-comp-size", "float-comp-size",
        "int-op"])
def test_fields_that_would_not_load_back_are_rejected(build, match):
    ranks = build()
    with pytest.raises(InvariantError, match=match):
        CollectiveTrace(len(ranks), None, ranks)


@pytest.mark.parametrize("claimed", [
    CollDescriptor("ALL_REDUCE", 64),
    CollDescriptor(CollKind.ALL_REDUCE, 0),
    CollDescriptor(CollKind.ALL_REDUCE, True),
    CollDescriptor(CollKind.ALL_REDUCE, 64.0),
    (CollKind.ALL_REDUCE, 64),
], ids=["str-kind", "zero-size", "bool-size", "float-size", "tuple"])
def test_bad_claimed_collective_rejected(claimed):
    with pytest.raises(InvariantError, match="claimed_collective"):
        CollectiveTrace(1, claimed, [[]])


def test_bad_workload_fields_rejected():
    def coll(attrs):
        return WorkloadTrace(1, [[TraceNode(0, "c", NodeKind.COMM_COLL, (), attrs)]])
    with pytest.raises(InvariantError, match="coll_kind"):
        coll(CollAttrs("ALL_REDUCE", 64))
    with pytest.raises(InvariantError, match="comm_size"):
        coll(CollAttrs(CollKind.ALL_REDUCE, 64.0))
    with pytest.raises(InvariantError, match="num_ranks"):
        WorkloadTrace(True, [[]])


@pytest.mark.parametrize("field", ["name", "op"])
def test_lone_surrogates_rejected(field):
    name, op = ("\ud800x", "NOP") if field == "name" else ("c", "RE\udfffDUCE")
    with pytest.raises(InvariantError, match=field):
        CollectiveTrace(1, None, [[TraceNode(0, name, NodeKind.COMP, (), CompAttrs(op, 0))]])


def test_coll_node_forbidden_in_collective_trace():
    node = TraceNode(0, "c", NodeKind.COMM_COLL, (),
                     __import__("collgraph.trace", fromlist=["CollAttrs"])
                     .CollAttrs(CollKind.ALL_REDUCE, 64))
    with pytest.raises(InvariantError, match="COMM_COLL"):
        check_trace(CollectiveTrace(1, None, [[node]]))


def test_workload_rejects_message_nodes():
    node = TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(1, 64, 0))
    with pytest.raises(InvariantError, match="only COMP and COMM_COLL"):
        check_trace(WorkloadTrace(2, [[node], []]))


def test_workload_spmd_mismatch_rejected():
    b = TraceBuilder(2)
    b.add_coll(0, CollKind.ALL_REDUCE, 1024)
    b.add_coll(1, CollKind.ALL_GATHER, 1024)
    with pytest.raises(InvariantError, match="collective sequence"):
        b.build_workload()


def test_dangling_dep_rejected():
    with pytest.raises(InvariantError, match="does not exist"):
        check_trace(CollectiveTrace(1, None, [[comp(0, (99,))]]))


def test_cycle_rejected_at_save(tmp_path):
    path = tmp_path / "never.json"
    with pytest.raises(InvariantError, match="cycle"):
        save_trace(CollectiveTrace(1, None, [[comp(0, (1,)), comp(1, (0,))]]), path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# Topological sort
# ---------------------------------------------------------------------------

def test_toposort_chain():
    trace = CollectiveTrace(1, None, [[comp(0, ()), comp(1, (0,)), comp(2, (1,))]])
    assert toposort_rank(trace, 0) == [0, 1, 2]


def test_toposort_ties_break_by_ascending_id():
    trace = CollectiveTrace(1, None, [[comp(5, ()), comp(2, ())]])
    assert toposort_rank(trace, 0) == [2, 5]


def test_toposort_cycle_reports_members():
    # a cyclic trace cannot be built; its construction reports the cycle
    with pytest.raises(InvariantError) as exc:
        CollectiveTrace(1, None, [[comp(0, (1,)), comp(1, (0,)), comp(2, ())]])
    assert isinstance(exc.value.__cause__, CycleError)
    assert sorted(exc.value.__cause__.cycle) == [0, 1]


def test_toposort_never_fails_on_generator_output():
    for algo in Algorithm:
        for n in (1, 2, 4, 8):
            trace = generate(AlgoSpec(algo, n, n * 1024))
            for rank in range(n):
                order = toposort_rank(trace, rank)
                assert len(order) == len(trace.per_rank_nodes[rank])


def test_builder_assigns_fifo_tags():
    b = TraceBuilder(2)
    first = b.add_send(0, 1, 64)
    second = b.add_send(0, 1, 64)
    b.add_recv(1, 0, 64)
    b.add_recv(1, 0, 64)
    trace = b.build_collective(None)
    sends = {n.id: n.attrs.tag for n in trace.per_rank_nodes[0]}
    assert sends == {first: 0, second: 1}
