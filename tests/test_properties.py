"""Property tests: every hand-built trace is rejected when it is built, or
by `simulate` as unmatched, or deadlocks, or replays with well-ordered
timestamps, each exactly as the dict-keyed oracle simulator does; on every
topology, each recv finishes no earlier than its send's start plus alpha
plus the message's time on one link; every valid trace is written as
`json.dumps` would write it and loads back to the same bytes; the trace
loader raises only collgraph errors on corrupted input, and builds the
trace, or raises the error, the per-node checking oracle loader does; the
net config and MSCCL XML readers raise only collgraph errors on mutated or
arbitrary bytes; the message table a trace stores pairs its sends and
recvs as the oracle in `tests/helpers.py` does; and on random
chunk-annotated traces the validator's verdict, final chunk state and
rendezvous warning agree with the oracles there; and random SPMD workloads
expand, under Algorithm and trace bindings, to the trace the oracle
splicer builds.

Runs are derandomized and keep no example database, so the suite stays
deterministic; Hypothesis' own cache goes to a temporary directory removed
at exit, not into the working tree.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from helpers import (
    concrete_execute,
    delete_node,
    expand_oracle,
    loads_trace_oracle,
    message_table,
    rendezvous_completes,
    report_json_oracle,
    simulate_oracle,
    trace_json_oracle,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from collgraph.cli import load_net_config
from collgraph.errors import CollGraphError, DeadlockError, InvariantError, StuckError
from collgraph.expander import TAG_STRIDE, expand
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.msccl import parse_msccl_xml
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
    dumps_trace,
    loads_trace,
)
from collgraph.validator import _Exec, check_semantics

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
    if not ranks[rank]:
        return
    i = draw(st.integers(0, len(ranks[rank]) - 1))
    node, a = ranks[rank][i], ranks[rank][i].attrs
    messaging = isinstance(a, (SendAttrs, RecvAttrs))
    if what == "drop":
        ranks[rank] = [replace(m, deps=tuple(d for d in m.deps if d != node.id))
                       for m in ranks[rank] if m is not node]
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
    ranks[rank][i] = node


FAULTS = ["drop", "dep", "peer", "size", "tag", "kind", "id", "coll"]


@st.composite
def node_lists(draw):
    """Valid rank node lists with none, one or two faults."""
    ranks = draw(valid_ranks())
    for what in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        _fault(draw, ranks, what)
    return ranks


def simulate_as_the_oracle_does(trace, topology):
    """`simulate`'s report, after checking that the oracle gives the same
    report, or raises the same error with the same message and frontier;
    None if both raised."""
    try:
        expected = simulate_oracle(trace, topology, COST)
    except (InvariantError, DeadlockError) as exc:
        with pytest.raises(type(exc)) as raised:
            simulate(trace, topology, COST)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        assert getattr(raised.value, "frontier", None) == getattr(exc, "frontier", None)
        return None
    report = simulate(trace, topology, COST)
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


@settings(DETERMINISTIC, max_examples=500)
@given(corrupted() | corrupted_nodes())
def test_loads_trace_rejects_corrupted_text_as_the_oracle_does(text):
    loads_as_the_oracle_does(text)


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
    final state does not depend on the schedule. A COPY reads no chunk it
    writes: the validator reads all sources before it writes, the oracle
    copies chunk by chunk."""
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
                    free = sorted(set(range(CHUNKS)) - set(chunks)) if op == "COPY" else None
                    if op == "COPY" or draw(st.booleans()):
                        src = [draw(st.sampled_from(free) if free else ids) for _ in chunks]
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
    ex = _Exec(trace, True, None)
    ex.seed_initial_state(trace.claimed_collective, CHUNKS)
    ex.run()
    masks = [{j: sum(1 << (r * CHUNKS + c) for r, c in held) for j, held in state.items()}
             for state in ex.state]
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
