"""Property tests: every hand-built trace is rejected when it is built, or
by `simulate` as unmatched, or deadlocks, or replays with well-ordered
timestamps, each exactly as the dict-keyed oracle simulator does; random
traces replay as the oracle's on every topology kind, also with costs
that make most events tie; on every topology, each recv finishes no
earlier than its send's start plus alpha plus the message's time on one
link; every valid trace is written as `json.dumps` would write it and
loads back to the same bytes, and is labelled by `canonical_form` as the
rescanning oracle labels it (so are the generator traces and the
converted MSCCL fixture); the trace loader raises only collgraph
errors on corrupted input, and builds the trace, or raises the error,
the per-node checking oracle loader does; the net config and MSCCL XML
readers raise only collgraph errors on mutated or arbitrary bytes; the
message table a trace stores pairs its sends and recvs as the oracle in
`tests/helpers.py` does; `check_trace` raises or records on faulty
traces what the multi-pass oracle there does; and on random chunk-
annotated traces the validator's verdict, final chunk state and
rendezvous warning agree with the oracles there; and random SPMD
workloads expand, under Algorithm and trace bindings, to the trace the
oracle splicer builds.

Runs are derandomized and keep no example database, so the suite stays
deterministic; Hypothesis' own cache goes to a temporary directory removed
at exit, not into the working tree.
"""

import json
import pickle
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from helpers import (
    canonical_form_oracle,
    check_trace_oracle,
    concrete_execute,
    delete_node,
    expand_oracle,
    loads_trace_oracle,
    message_table,
    rendezvous_completes,
    report_json_oracle,
    simulate_oracle,
    msccl_xml,
    trace_json_oracle,
    validator_state,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from collgraph import trace as trace_module
from collgraph.cli import load_net_config
from collgraph.errors import CollGraphError, DeadlockError, InvariantError, StuckError
from collgraph.expander import TAG_STRIDE, expand
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.msccl import (
    MscclGpu,
    MscclProgram,
    MscclStep,
    MscclThreadblock,
    convert_to_trace,
    parse_msccl_xml,
)
from collgraph.simulator import CostModel, Topology, TopologyKind, simulate
from collgraph.trace import (
    CollAttrs,
    CollDescriptor,
    CollKind,
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
    loads_trace,
)
from collgraph.validator import canonical_form, check_semantics

# set on import: the Hypothesis plugin writes its cache while collecting
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

DETERMINISTIC = settings(database=None, derandomize=True, deadline=None)
COST = CostModel(alpha=1e-6, bandwidth=1e9, reduce_bandwidth=1e9, fixed_comp_overhead=1e-7)


@st.composite
def valid_ranks(draw, chained=False):
    """1-4 ranks of matched messages and compute, each rank's deps acyclic
    (following a random order of its nodes, so ranks may deadlock). When
    `chained`, each rank runs its nodes one after another in that order,
    which makes circular waits between ranks common."""
    n = draw(st.integers(1, 4))
    ranks = [[] for _ in range(n)]
    next_tag = {}
    for _ in range(draw(st.integers(0, 8))):
        src = draw(st.integers(0, n - 1))
        if n > 1 and draw(st.booleans()):
            dst = (src + draw(st.integers(1, n - 1))) % n
            size = draw(st.sampled_from([64, 4096]))
            tag = next_tag[src, dst] = next_tag.get((src, dst), -1) + 1
            ranks[src].append((NodeKind.COMM_SEND, SendAttrs(dst, size, tag)))
            ranks[dst].append((NodeKind.COMM_RECV, RecvAttrs(src, size, tag)))
        else:
            ranks[src].append((NodeKind.COMP, CompAttrs(
                draw(st.sampled_from(["NOP", "REDUCE"])), draw(st.sampled_from([0, 100])))))
    out = []
    for specs in ranks:
        order = draw(st.permutations(range(len(specs))))
        if chained:
            deps = {nid: [order[pos - 1]] if pos else [] for pos, nid in enumerate(order)}
        else:
            deps = {nid: [order[j] for j in draw(st.lists(st.integers(0, pos - 1),
                                                          max_size=2))]
                    if pos else [] for pos, nid in enumerate(order)}
        out.append([TraceNode(nid, f"n{nid}", kind, tuple(deps[nid]), a)
                    for nid, (kind, a) in enumerate(specs)])
    return out


def _fault(draw, ranks, what):
    """Break one node of `ranks` in place in the way named by `what`."""
    rank = draw(st.integers(0, len(ranks) - 1))
    if not ranks[rank] or any(type(m.id) is not int for m in ranks[rank]):
        return  # (an id that is not an int takes no further fault)
    i = draw(st.integers(0, len(ranks[rank]) - 1))
    node, a = ranks[rank][i], ranks[rank][i].attrs
    messaging = isinstance(a, (SendAttrs, RecvAttrs))
    if what == "drop":
        ranks[rank] = [replace(m, deps=tuple(d for d in m.deps if d != node.id))
                       for m in ranks[rank] if m is not node]
        return
    if what == "shuffle":  # the same ids, out of order
        ranks[rank] = draw(st.permutations(ranks[rank]))
        return
    if what == "offset":  # ids no longer 0..k-1
        shift = draw(st.integers(1, 3))
        ranks[rank] = [replace(m, id=m.id + shift, deps=tuple(d + shift for d in m.deps))
                       for m in ranks[rank]]
        return
    if what == "dup-tag" and messaging:  # a second message on the same (src, dst, tag)
        ranks[rank].append(replace(node, id=len(ranks[rank]), deps=()))
        return
    if what == "entry":
        ranks[rank][i] = draw(st.sampled_from([None, 3, a, (node.id,)]))
        return
    if what == "dep":  # dangling, self or back edge (a cycle)
        node = replace(node, deps=node.deps + (draw(st.integers(-1, 9)),))
    elif what == "peer" and messaging:
        peer = draw(st.sampled_from([rank, len(ranks), -1, 5]))
        node = replace(node, attrs=replace(a, **{
            "dst_rank" if isinstance(a, SendAttrs) else "src_rank": peer}))
    elif what == "size":
        size = draw(st.sampled_from([0, -1, -64, 128]))
        node = replace(node, attrs=replace(a, **{
            "comp_size" if isinstance(a, CompAttrs) else "comm_size": size}))
    elif what == "tag" and messaging:
        node = replace(node, attrs=replace(a, tag=draw(st.integers(-1, 2))))
    elif what == "kind":
        node = replace(node, kind=draw(st.sampled_from(list(NodeKind))))
    elif what == "id":
        node = replace(node, id=draw(st.integers(-1, len(ranks[rank]))))
    elif what == "coll":
        node = replace(node, kind=NodeKind.COMM_COLL,
                       attrs=CollAttrs(draw(st.sampled_from(list(CollKind))), 64))
    elif what == "coll-kind":  # a collective whose kind is not a CollKind
        node = replace(node, kind=NodeKind.COMM_COLL,
                       attrs=CollAttrs(draw(st.sampled_from(["ALL_REDUCE", None])), 64))
    elif what == "name":
        node = replace(node, name=draw(st.sampled_from([5, None, "\ud800", "n\u00e9"])))
    elif what == "op" and isinstance(a, CompAttrs):
        node = replace(node, attrs=replace(a, op=draw(st.sampled_from([7, "\udfff", "\u00e9"]))))
    elif what == "type":  # an int field that is not an exact int
        value = draw(st.sampled_from([True, 64.0, "64", 2**63]))
        field = draw(st.sampled_from(["id", "comp_size" if isinstance(a, CompAttrs)
                                      else "comm_size", "tag" if messaging else "id"]))
        node = replace(node, id=value) if field == "id" else \
            replace(node, attrs=replace(a, **{field: value}))
    elif what == "dup-id":
        node = replace(node, id=draw(st.sampled_from([m.id for m in ranks[rank]])))
    elif what == "self":
        node = replace(node, deps=node.deps + (node.id,))
    elif what == "missing":  # just past either end of the ids
        node = replace(node, deps=node.deps + (draw(st.sampled_from([-1, len(ranks[rank])])),))
    elif what == "cycle":  # a dep of the node comes to depend on it
        for j, m in enumerate(ranks[rank]):
            if node.deps and m.id == node.deps[0]:
                ranks[rank][j] = replace(m, deps=m.deps + (node.id,))
    ranks[rank][i] = node


FAULTS = ["drop", "dep", "peer", "size", "tag", "kind", "id", "coll"]
# faults of single fields, and of ids, deps, order and entries, for check_trace
FIELD_FAULTS = ["peer", "size", "tag", "kind", "coll", "name", "op", "type", "coll-kind"]
CHECK_FAULTS = FAULTS + FIELD_FAULTS[5:] + [
    "dup-id", "self", "missing", "cycle", "shuffle", "offset", "dup-tag"]


@st.composite
def node_lists(draw):
    """Valid rank node lists with none, one or two faults."""
    ranks = draw(valid_ranks())
    for what in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        _fault(draw, ranks, what)
    return ranks


def simulate_as_the_oracle_does(trace, topology, cost=COST):
    """`simulate`'s report, after checking that the oracle gives the same
    report, or raises the same error with the same message and frontier;
    None if both raised."""
    try:
        expected = simulate_oracle(trace, topology, cost)
    except (InvariantError, DeadlockError) as exc:
        with pytest.raises(type(exc)) as raised:
            simulate(trace, topology, cost)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        assert getattr(raised.value, "frontier", None) == getattr(exc, "frontier", None)
        return None
    report = simulate(trace, topology, cost)
    assert report == expected and report.dumps() == expected.dumps()
    assert report.dumps() == report_json_oracle(report)
    return report


@settings(DETERMINISTIC, max_examples=200)
@given(node_lists())
def test_built_trace_replays_with_ordered_times_or_is_rejected(ranks):
    try:
        trace = CollectiveTrace(len(ranks), None, ranks)
    except InvariantError:
        return
    report = simulate_as_the_oracle_does(trace, Topology.fully_connected(trace.num_ranks))
    if report is None:
        return
    finishes = []
    for rank_times in report.node_times:
        for _, issue, start, finish in rank_times:
            assert issue <= start <= finish
            finishes.append(finish)
    assert report.total_duration == max(finishes, default=0.0)


@settings(DETERMINISTIC, max_examples=200)
@given(valid_ranks(chained=True), st.sampled_from(["ring", "switch"]))
def test_serialized_ranks_deadlock_or_replay_as_the_oracle_does(ranks, kind):
    topology = getattr(Topology, kind)(len(ranks))
    simulate_as_the_oracle_does(CollectiveTrace(len(ranks), None, ranks), topology)


utf8_text = st.text(st.characters(blacklist_categories=["Cs"]), max_size=6)  # no lone surrogates
chunk_lists = st.none() | st.lists(st.integers(0, 2**40), max_size=3).map(tuple)


@st.composite
def valid_traces(draw):
    """Valid collective traces with arbitrary names, ops and chunk lists."""
    ranks = draw(valid_ranks())
    for nodes in ranks:
        for i, node in enumerate(nodes):
            attrs = replace(node.attrs, chunks=draw(chunk_lists))
            if isinstance(attrs, CompAttrs):
                attrs = replace(attrs, op=draw(utf8_text), src_chunks=draw(chunk_lists))
            nodes[i] = replace(node, name=draw(utf8_text), attrs=attrs)
    claimed = draw(st.none() | st.builds(CollDescriptor, st.sampled_from(list(CollKind)),
                                         st.integers(1, 2**40)))
    return CollectiveTrace(len(ranks), claimed, ranks)


@settings(DETERMINISTIC, max_examples=200)
@given(valid_traces())
def test_dumps_trace_equals_the_oracle_and_round_trips(trace):
    written = dumps_trace(trace)
    assert written == trace_json_oracle(trace)
    assert dumps_trace(loads_trace(written)) == written


def _retagged(trace):
    """`trace` with each tag t made 3t + 1, so that no raw tag is its ordinal."""
    return CollectiveTrace(trace.num_ranks, trace.claimed_collective, [
        [node if node.kind is NodeKind.COMP else
         replace(node, attrs=replace(node.attrs, tag=3 * node.attrs.tag + 1)) for node in nodes]
        for nodes in trace.per_rank_nodes])


@settings(DETERMINISTIC, max_examples=200)
@given(valid_traces())
def test_canonical_form_labels_as_the_rescanning_oracle_does(trace):
    form = canonical_form_oracle(trace)
    assert canonical_form(trace) == form
    assert canonical_form(_retagged(trace)) == canonical_form_oracle(_retagged(trace)) == form


def test_canonical_form_labels_producer_traces_as_the_oracle_does(fixtures_dir):
    """Every generator trace with n <= 8 and the converted MSCCL fixture."""
    traces = [generate(AlgoSpec(algo, n, n * 1024)) for algo in Algorithm for n in range(1, 9)
              if algo is not Algorithm.RECURSIVE_DOUBLING_ALL_GATHER or not n & (n - 1)]
    traces.append(convert_to_trace(parse_msccl_xml(fixtures_dir / "ring_allreduce_n4.xml"),
                                   4 * 2**20))
    for trace in traces:
        assert canonical_form(trace) == canonical_form_oracle(trace)


@settings(DETERMINISTIC, max_examples=200)
@given(st.data())
def test_messages_table_pairs_as_the_oracle_does(data):
    """The pairing `check_trace` stores, on valid traces and on those
    traces with one send or recv removed (so one message is unmatched)."""
    trace = data.draw(valid_traces())
    assert trace.messages == message_table(trace)
    ends = [(rank, node.id) for rank, nodes in enumerate(trace.per_rank_nodes)
            for node in nodes if node.kind in (NodeKind.COMM_SEND, NodeKind.COMM_RECV)]
    if ends:
        broken = delete_node(trace, *data.draw(st.sampled_from(ends)))
        assert broken.mismatch is not None
        assert broken.messages == message_table(broken)


def _unchecked(cls, ranks):
    """A trace of `cls` holding `ranks` as they are, before any check."""
    trace = object.__new__(cls)
    object.__setattr__(trace, "num_ranks", len(ranks))
    object.__setattr__(trace, "per_rank_nodes", tuple(map(tuple, ranks)))
    if cls is CollectiveTrace:
        object.__setattr__(trace, "claimed_collective", None)
    return trace


@st.composite
def faulty_traces(draw):
    """Collective traces, or workloads (most with their messages made
    collectives, half with a fault of a collective's fields), with up to
    three faults of `CHECK_FAULTS` and maybe an entry that is not a node;
    half of them first get a duplicate tag on one rank and a field fault,
    often on another."""
    ranks = draw(valid_ranks())
    if draw(st.booleans()):
        _fault(draw, ranks, "dup-tag")
        _fault(draw, ranks, draw(st.sampled_from(FIELD_FAULTS)))
    for what in draw(st.lists(st.sampled_from(CHECK_FAULTS), max_size=3)):
        _fault(draw, ranks, what)
    workload = draw(st.sampled_from([False] * 4 + [True]))
    if workload and draw(st.booleans()):  # else keep the messages, which a workload refuses
        ranks = [[replace(m, kind=NodeKind.COMM_COLL, attrs=CollAttrs(CollKind.ALL_REDUCE, 64))
                  if m.kind in (NodeKind.COMM_SEND, NodeKind.COMM_RECV) else m for m in nodes]
                 for nodes in ranks]
    if workload and draw(st.booleans()):
        _fault(draw, ranks, draw(st.sampled_from(["coll-kind", "size", "type"])))
    if draw(st.sampled_from([False] * 5 + [True])):  # last: faults above need nodes
        _fault(draw, ranks, "entry")
    return _unchecked(WorkloadTrace if workload else CollectiveTrace, ranks)


@settings(DETERMINISTIC, max_examples=600)
@given(faulty_traces())
def test_check_trace_raises_or_records_as_the_multi_pass_oracle_does(trace):
    """The one-pass `check_trace` raises the InvariantError (message, rank,
    node id) the multi-pass oracle raises, or records the same messages and
    mismatch."""
    def outcome(check):
        try:
            return check(trace)
        except InvariantError as exc:
            return str(exc), exc.rank, exc.node_id

    def one_pass(trace):
        check_trace(trace)
        return trace.messages, trace.mismatch

    assert outcome(one_pass) == outcome(check_trace_oracle)


@st.composite
def tangled_ranks(draw):
    """One rank of 1-8 NOP nodes, each depending on up to three other ids in
    any order, so that several cycles, and nodes waiting on them, are common."""
    k = draw(st.integers(1, 8))
    return [[TraceNode(nid, f"n{nid}", NodeKind.COMP, tuple(draw(st.lists(
        st.integers(0, k - 1).filter(lambda d, nid=nid: d != nid), max_size=3))),
        CompAttrs("NOP", 0)) for nid in range(k)]]


@settings(DETERMINISTIC, max_examples=300)
@given(tangled_ranks())
def test_check_trace_names_the_cycle_the_oracle_names(ranks):
    """`check_trace` and the oracle's own count-down name the same cycle."""
    def outcome(check):
        try:
            return check(_unchecked(CollectiveTrace, ranks))
        except InvariantError as exc:
            return str(exc), exc.rank, exc.node_id, exc.__cause__.cycle

    expected = outcome(check_trace_oracle)
    assert outcome(lambda trace: check_trace(trace) or ((), None)) == expected


@st.composite
def topologies(draw, n):
    """A topology of every kind for `n` ranks, any grid shape, any placement."""
    kind = draw(st.sampled_from(list(TopologyKind)))
    rows = cols = 0
    if kind in (TopologyKind.MESH2D, TopologyKind.TORUS2D):
        rows = draw(st.sampled_from([r for r in range(1, n + 1) if n % r == 0]))
        cols = n // rows
    placement = draw(st.none() | st.permutations(range(n)).map(tuple))
    return Topology(kind, n, rows, cols, placement)


@settings(DETERMINISTIC, max_examples=200)
@given(st.data())
def test_every_recv_finishes_no_earlier_than_its_send_allows(data):
    trace = data.draw(valid_traces())
    topology = data.draw(topologies(trace.num_ranks))
    try:
        report = simulate(trace, topology, COST)
    except DeadlockError:
        return
    times = [{nid: (start, finish) for nid, _, start, finish in rank_times}
             for rank_times in report.node_times]
    send_start = {(rank, node.attrs.dst_rank, node.attrs.tag): times[rank][node.id][0]
                  for rank, nodes in enumerate(trace.per_rank_nodes) for node in nodes
                  if node.kind is NodeKind.COMM_SEND}
    for rank, nodes in enumerate(trace.per_rank_nodes):
        for node in nodes:
            if node.kind is NodeKind.COMM_RECV:
                a = node.attrs
                # summed in the order the link model charges them, so exact in floats
                bound = send_start[a.src_rank, rank, a.tag] + a.comm_size / COST.bandwidth
                assert times[rank][node.id][1] >= bound + COST.alpha


# free compute and alpha 0: most events of a replay tie, on every topology
TIE_COSTS = [COST, CostModel(0.0, 1e9)]


@settings(DETERMINISTIC, max_examples=200)
@given(st.data())
def test_replay_on_every_topology_with_tied_times_is_the_oracles(data):
    ranks = data.draw(valid_ranks())
    trace = CollectiveTrace(len(ranks), None, ranks)
    topology = data.draw(topologies(trace.num_ranks))
    simulate_as_the_oracle_does(trace, topology, data.draw(st.sampled_from(TIE_COSTS)))


VALID = dumps_trace(generate(AlgoSpec(Algorithm.RING_ALL_GATHER, 3, 96)))


def _comp_and_coll_texts():
    """A collective with chunked COMP nodes, and a workload."""
    b = TraceBuilder(2)
    copy = b.add_comp(0, "COPY", 64, chunks=[0], src_chunks=[1])
    b.add_send(0, 1, 64, deps=[copy], chunks=[0])
    recv = b.add_recv(1, 0, 64, chunks=[0])
    b.add_comp(1, "REDUCE", 64, deps=[recv], chunks=[0])
    collective = dumps_trace(b.build_collective(CollDescriptor(CollKind.ALL_GATHER, 64)))
    b = TraceBuilder(2)
    for rank in range(2):
        b.add_coll(rank, CollKind.ALL_REDUCE, 64, deps=[b.add_comp(rank, "gemm", 8)])
    return [collective, dumps_trace(b.build_workload())]


BASES = [VALID, *_comp_and_coll_texts()]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _replace_at(doc, path, value):
    """Replace the value reached by following `path` (indices taken modulo
    each container's size) inside a copy of `doc`."""
    if not path or not isinstance(doc, (dict, list)) or not doc:
        return value
    keys = sorted(doc) if isinstance(doc, dict) else range(len(doc))
    key = list(keys)[path[0] % len(keys)]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[key] = _replace_at(doc[key], path[1:], value)
    return out


@st.composite
def spliced(draw, base, fragments):
    """`base` with a span of up to 40 elements replaced by a drawn fragment."""
    start = draw(st.integers(0, len(base)))
    end = draw(st.integers(start, min(len(base), start + 40)))
    return base[:start] + draw(fragments) + base[end:]


@st.composite
def corrupted(draw):
    base = draw(st.sampled_from(BASES))
    if draw(st.booleans()):  # splice random text into the bytes
        return draw(spliced(base, st.text(max_size=20)))
    path = draw(st.lists(st.integers(0, 50), max_size=6))
    return json.dumps(_replace_at(json.loads(base), path, draw(json_values)))


@settings(DETERMINISTIC, max_examples=200)
@given(corrupted())
@example('{"format_version": ' + "1" * 5000 + "}")
@example("[" * 100_000)
def test_loads_trace_raises_only_collgraph_errors(text):
    try:
        loads_trace(text)
    except CollGraphError:
        pass


def loads_as_the_oracle_does(text):
    """`loads_trace`'s trace, after checking that the oracle loader builds an
    equal one with the same mismatch, or raises the same error with the same
    message; None if both raised."""
    try:
        expected = loads_trace_oracle(text)
    except CollGraphError as exc:
        with pytest.raises(type(exc)) as raised:
            loads_trace(text)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return None
    trace = loads_trace(text)
    assert type(trace) is type(expected) and trace == expected
    assert trace.mismatch == expected.mismatch
    return trace


@settings(DETERMINISTIC, max_examples=200)
@given(valid_traces())
def test_loads_trace_builds_valid_traces_as_the_oracle_does(trace):
    assert loads_as_the_oracle_does(dumps_trace(trace)) == trace


field_values = json_values | st.lists(st.integers(-2, 5), max_size=3) | st.sampled_from(
    [kind.value for kind in NodeKind] + [kind.value for kind in CollKind])


@st.composite
def corrupted_nodes(draw):
    """A base text with one field of one node, or of its attrs, deleted,
    added or set to a drawn value."""
    doc = json.loads(draw(st.sampled_from(BASES)))
    node = draw(st.sampled_from([node for nodes in doc["ranks"] for node in nodes]))
    target = node["attrs"] if draw(st.booleans()) else node
    key = draw(st.sampled_from(sorted(target) + ["chunks", "src_chunks", "kind", "bogus"]))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(field_values)
    return json.dumps(doc)


NODE = json.loads(VALID)["ranks"][0][0]


def _set(*path, value):
    """VALID with the value at `path` (keys and list indices) set to `value`."""
    doc = json.loads(VALID)
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return json.dumps(doc)


@settings(DETERMINISTIC, max_examples=500)
@given(corrupted() | corrupted_nodes())
# values equal to ints the loader shares before them: (1,) == (1.0,) == (True,)
@example(_set("ranks", 1, 0, "attrs", "chunks", value=[1.0]))
@example(_set("ranks", 1, 0, "attrs", "chunks", value=[True]))
@example(_set("ranks", 1, 1, "deps", value=[True]))
@example(_set("ranks", 1, 1, "id", value=True))
@example(_set("ranks", 1, 1, "attrs", "comm_size", value=1.0))
# a node-shaped object outside the rank lists, which the loader parses again for
@example(_set("ranks", 0, 1, "attrs", "x", value=NODE))
@example(_set("claimed_collective", value=NODE))
@example(_set("ranks", 1, value=NODE))
@example(json.dumps(NODE))
@example(VALID.replace('"ranks": [', f'"ranks": [[{json.dumps(NODE)}]], "ranks": [', 1))
def test_loads_trace_rejects_corrupted_text_as_the_oracle_does(text):
    loads_as_the_oracle_does(text)


def test_loads_a_node_nested_near_the_recursion_limit_as_the_oracle_does():
    # the object hook's frames count toward the limit that plain JSON nesting meets
    limit = sys.getrecursionlimit()
    for depth in range(limit - 200, limit):
        loads_as_the_oracle_does("[" * depth + json.dumps(NODE) + "]" * depth)


NET = json.dumps({"alpha_s": 1e-06, "bandwidth_Bps": 1e9, "reduce_bandwidth_Bps": 1e10,
                  "fixed_comp_overhead_s": 1e-7,
                  "topology": {"kind": "mesh2d", "rows": 2, "cols": 2}}).encode()
XML = (Path(__file__).parent / "fixtures" / "ring_allreduce_n4.xml").read_bytes()
numbers = st.integers() | st.floats() | st.sampled_from([10**400, 2**1100, -1, 0])


@st.composite
def net_configs(draw):
    """Net configs with a spliced span, a value swapped for a number or any
    JSON value, or arbitrary bytes."""
    how = draw(st.sampled_from(["splice", "value", "bytes"]))
    if how == "splice":
        return draw(spliced(NET, st.binary(max_size=20)))
    if how == "bytes":
        return draw(st.binary(max_size=80))
    path = draw(st.lists(st.integers(0, 10), min_size=1, max_size=3))
    value = draw(numbers | json_values)
    return json.dumps(_replace_at(json.loads(NET), path, value)).encode()


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _raises_only_collgraph_errors(read, path, data: bytes):
    path.write_bytes(data)
    try:
        read(path)
    except CollGraphError:
        pass


@settings(DETERMINISTIC, max_examples=300)
@given(net_configs())
@example(b'{"alpha_s": 1' + b"0" * 400 + b', "bandwidth_Bps": 1e9}')
@example(b'{"alpha_s": 1e-06, "bandwidth_Bps": 1e9, "topology": {"kind": "ring", "n": 1e400}}')
def test_load_net_config_raises_only_collgraph_errors(input_path, data):
    _raises_only_collgraph_errors(load_net_config, input_path, data)


@settings(DETERMINISTIC, max_examples=300)
@given(spliced(XML, st.binary(max_size=20)) | st.binary(max_size=200))
def test_parse_msccl_xml_raises_only_collgraph_errors(input_path, data):
    _raises_only_collgraph_errors(parse_msccl_xml, input_path, data)


# What each MSCCL step type needs: a send peer, a recv peer, srcoff, dstoff.
STEP_NEEDS = {"s": (1, 0, 1, 0), "r": (0, 1, 0, 1), "rrc": (0, 1, 0, 1), "rcs": (1, 1, 0, 1),
              "re": (0, 0, 1, 1), "cpy": (0, 0, 1, 1), "nop": (0, 0, 0, 0)}


@st.composite
def msccl_programs(draw):
    """Valid MSCCL programs: 1-4 gpus of 1-3 threadblocks of 0-6 steps of
    every type their peers allow, with optional buffers, offsets and
    dependencies on any step of the same gpu, gpus in id order. The steps'
    fields come from a seeded `random.Random`, so an example is few draws."""
    ngpus, nchunks = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gpus = []
    for g in range(ngpus):
        peers = st.none() | st.sampled_from([p for p in range(ngpus) if p != g] or [None])
        heads = [(tb, draw(peers), draw(peers), draw(st.integers(0, 2)), draw(st.integers(0, 6)))
                 for tb in draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))]
        targets = [None] + [(tb, s) for tb, *_, count in heads for s in range(count)]
        tbs = []
        for tb, send, recv, chan, count in heads:
            types = [t for t, (s, r, _, _) in STEP_NEEDS.items()
                     if not (s and send is None or r and recv is None)]
            steps = []
            for index in range(count):
                step_type = rng.choice(types)
                _, _, src, dst = STEP_NEEDS[step_type]
                cnt = rng.randint(0 if step_type == "nop" else 1, nchunks)

                def offset(needed):
                    return rng.randint(0, nchunks - cnt) if needed or rng.random() < 0.5 else None
                steps.append(MscclStep(index, step_type, rng.choice([None, "input", "output"]),
                                       offset(src), rng.choice([None, "output", "scratch"]),
                                       offset(dst), cnt, rng.choice(targets)))
            tbs.append(MscclThreadblock(tb, send, recv, chan, tuple(steps)))
        gpus.append(MscclGpu(g, tuple(tbs)))
    return MscclProgram(draw(st.text("abc_<&\"'", max_size=5)), ngpus, nchunks,
                        draw(st.sampled_from(["allreduce", "allgather", "broadcast"])),
                        tuple(gpus))


@settings(DETERMINISTIC, max_examples=200)
@given(msccl_programs(), st.integers(0, 2**32).map(random.Random))
def test_valid_msccl_programs_parse_back_equal(input_path, program, rng):
    input_path.write_text(msccl_xml(program, rng), encoding="utf-8")
    assert parse_msccl_xml(input_path) == program


# ---------------------------------------------------------------------------
# The validator against the independent oracles
# ---------------------------------------------------------------------------

CHUNKS = 4  # chunk ids are drawn from range(CHUNKS)


@st.composite
def chunked_traces(draw):
    """ALL_REDUCE traces over `valid_ranks(chained=True)` with chunk metadata.
    Each send and its recv name chunk lists of one length; each compute node
    becomes a REDUCE, a COPY or a NOP. Extra deps on earlier nodes give a
    recv several dependents, and each rank still runs in one order, so the
    final state does not depend on the schedule. A COPY's sources may
    overlap its targets: both the validator and the oracle read every
    source before they write."""
    ids = st.integers(0, CHUNKS - 1)
    length = {}  # (src, dst, tag) -> number of chunks of the message
    ranks = []
    for rank, nodes in enumerate(draw(valid_ranks(chained=True))):
        after = {node.deps[0]: node for node in nodes if node.deps}
        node = next((node for node in nodes if not node.deps), None)
        chain = []
        while node is not None:
            chain.append(node)
            node = after.get(node.id)
        out = []
        for i, node in enumerate(chain):
            extra = draw(st.lists(st.sampled_from(chain[:i]), max_size=2)) if i else []
            deps = tuple(sorted(set(node.deps) | {m.id for m in extra}))
            a = node.attrs
            if node.kind is NodeKind.COMP:
                op = draw(st.sampled_from(["REDUCE", "COPY", "NOP"]))
                chunks = src = None
                if op != "NOP":
                    chunks = draw(st.lists(ids, min_size=1, max_size=3))
                    if op == "COPY" or draw(st.booleans()):
                        src = [draw(ids) for _ in chunks]
                a = CompAttrs(op, a.comp_size, chunks, src)
            else:
                key = (rank, a.dst_rank, a.tag) if node.kind is NodeKind.COMM_SEND \
                    else (a.src_rank, rank, a.tag)
                if key not in length:
                    length[key] = draw(st.integers(1, 3))
                a = replace(a, chunks=draw(st.lists(ids, min_size=length[key],
                                                    max_size=length[key])))
            out.append(TraceNode(node.id, node.name, node.kind, deps, a))
        ranks.append(out)
    return CollectiveTrace(len(ranks), CollDescriptor(CollKind.ALL_REDUCE, 4096), ranks)


RENDEZVOUS_WARNING = "trace deadlocks under rendezvous send semantics"


def _verdict(trace, seed):
    try:
        return check_semantics(trace, order_seed=seed).to_json()
    except StuckError as exc:
        return ("STUCK", exc.frontier, str(exc))


@settings(DETERMINISTIC, max_examples=300)
@given(chunked_traces(), st.integers(0, 2**16))
def test_validator_agrees_with_the_oracles_on_random_traces(trace, seed):
    verdict = _verdict(trace, None)
    assert _verdict(trace, seed) == verdict
    if isinstance(verdict, tuple):  # stuck even with eager sends
        return
    assert (RENDEZVOUS_WARNING in verdict["warnings"]) != rendezvous_completes(trace)
    masks = [{j: sum(1 << (r * CHUNKS + c) for r, c in held) for j, held in state.items()}
             for state in validator_state(trace, CHUNKS)]
    assert masks == concrete_execute(trace, CHUNKS)


# the algorithms that implement each collective kind
IMPLEMENTERS = {CollKind.ALL_REDUCE: [Algorithm.RING_ALL_REDUCE],
                CollKind.ALL_GATHER: [Algorithm.RING_ALL_GATHER,
                                      Algorithm.RECURSIVE_DOUBLING_ALL_GATHER]}


def _renumbered(trace):
    """`trace` with every rank's ids reversed (id -> 100 - id), so its nodes
    are listed by descending id and a splice must sort them."""
    return CollectiveTrace(trace.num_ranks, trace.claimed_collective, [
        [replace(node, id=100 - node.id, deps=tuple(100 - d for d in node.deps))
         for node in nodes]
        for nodes in trace.per_rank_nodes])


@st.composite
def spmd_expansions(draw):
    """A workload whose ranks share one graph of 0-4 collectives of both
    kinds (sizes repeat) and 0-4 computes under sparse ids, each rank
    listing its nodes in its own order; and a binding per kind, an
    Algorithm or, when every collective of the kind has one size, a
    generated trace of that size with its ids renumbered."""
    n = draw(st.integers(1, 4))
    colls = draw(st.lists(st.tuples(st.sampled_from(list(IMPLEMENTERS)),
                                    st.sampled_from([n * 64, n * 128])), max_size=4))
    specs = [(NodeKind.COMM_COLL, CollAttrs(kind, size)) for kind, size in colls]
    specs += [(NodeKind.COMP, CompAttrs("GEMM", draw(st.sampled_from([0, 512]))))
              for _ in range(draw(st.integers(0, 4)))]
    specs = draw(st.permutations(specs))  # their topological order
    ids = draw(st.lists(st.integers(0, 999), min_size=len(specs), max_size=len(specs),
                        unique=True))
    deps = [[ids[j] for j in draw(st.sets(st.integers(0, pos - 1), max_size=2))]
            if pos else [] for pos in range(len(specs))]
    nodes = [TraceNode(nid, f"w{nid}", kind, tuple(d), a)
             for nid, (kind, a), d in zip(ids, specs, deps)]
    workload = WorkloadTrace(n, [draw(st.permutations(nodes)) for _ in range(n)])
    bindings = {}
    for kind, algorithms in IMPLEMENTERS.items():
        usable = [a for a in algorithms
                  if a is not Algorithm.RECURSIVE_DOUBLING_ALL_GATHER or not n & (n - 1)]
        algorithm = draw(st.sampled_from(usable))
        sizes = {size for k, size in colls if k is kind}
        if len(sizes) == 1 and draw(st.booleans()):
            bindings[kind] = _renumbered(generate(AlgoSpec(algorithm, n, sizes.pop())))
        else:
            bindings[kind] = algorithm
    return workload, bindings


@settings(DETERMINISTIC, max_examples=150)
@given(spmd_expansions())
def test_expand_splices_as_the_oracle_does(case):
    workload, bindings = case

    def subtrace(kind, size):
        binding = bindings[kind]
        if isinstance(binding, CollectiveTrace):
            return binding
        return generate(AlgoSpec(binding, workload.num_ranks, size))

    unified = expand(workload, bindings)
    assert unified == expand_oracle(workload, subtrace, TAG_STRIDE)
    assert unified.mismatch is None


# ---------------------------------------------------------------------------
# The private node builders against the public constructors
# ---------------------------------------------------------------------------

_chunk_lists = st.none() | st.lists(st.integers(0, 2**40), max_size=4).map(tuple)


@settings(DETERMINISTIC, max_examples=300)
@given(st.sampled_from(["send", "recv", "comp"]), st.integers(0, 2**63),
       st.text(max_size=8), st.lists(st.integers(0, 2**63), max_size=4),
       st.integers(-2**64, 2**64) | st.text(max_size=4), st.integers(0, 2**64),
       st.integers(0, 2**64), _chunk_lists, _chunk_lists)
def test_node_builders_build_what_the_public_constructors_build(
        which, nid, name, deps, first, size, tag, chunks, src_chunks):
    """A builder stores its values as given; given the normal form (deps a
    sorted tuple, chunks a tuple or None) the node equals the public one."""
    deps = tuple(sorted(deps))
    if which == "comp":
        built = trace_module._comp_node(nid, name, deps, first, size, chunks, src_chunks)
        public = TraceNode(nid, name, NodeKind.COMP, list(reversed(deps)),
                           CompAttrs(first, size, chunks, src_chunks))
    else:
        build, attrs, kind = (
            (trace_module._send_node, SendAttrs, NodeKind.COMM_SEND) if which == "send"
            else (trace_module._recv_node, RecvAttrs, NodeKind.COMM_RECV))
        built = build(nid, name, deps, first, size, tag, chunks)
        public = TraceNode(nid, name, kind, list(reversed(deps)), attrs(first, size, tag, chunks))
    assert type(built) is TraceNode and type(built.attrs) is type(public.attrs)
    assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
    assert pickle.loads(pickle.dumps(built)) == public
