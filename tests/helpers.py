"""Shared test utilities: an independent concrete executor and rendezvous
reachability check used as oracles for the symbolic validator, `json.dumps`
oracles for the trace and report writers, a per-node checking loader as the
oracle for `loads_trace`, a dict-keyed simulator as the oracle for
`simulate`, a per-node lookup into its reports, the message table the
trace should store, a multi-pass checker as the oracle for `check_trace`, a
node-by-node splicer as the oracle for `expand`, a closed-form builder as
the oracle for `generate`, the validator's own final chunk state, a
rescanning walk as the oracle for `canonical_form`, structural mutation
helpers, and MSCCL-IR XML writers."""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import replace
from types import SimpleNamespace
from xml.sax.saxutils import quoteattr

from collgraph import trace as trace_module
from collgraph.errors import (
    CycleError,
    DeadlockError,
    ParseError,
    SchemaError,
    InvariantError,
    SpecError,
    UnexpandedCollectiveError,
)
from collgraph.generators import AlgoSpec, Algorithm
from collgraph.simulator import SimReport, route
from collgraph.trace import (
    FORMAT_VERSION,
    MAX_SIZE,
    OP_COPY,
    OP_NOP,
    OP_REDUCE,
    CollAttrs,
    CollDescriptor,
    CollKind,
    CollectiveTrace,
    CompAttrs,
    NodeKind,
    Readiness,
    RecvAttrs,
    SendAttrs,
    TraceNode,
    WorkloadTrace,
    check_trace,
    require_matched,
)
from collgraph.validator import _origins, _peers, _schedule, _track


def _indented_json(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _attrs_doc(attrs) -> dict:
    if isinstance(attrs, SendAttrs):
        out = {"dst_rank": attrs.dst_rank, "comm_size": attrs.comm_size, "tag": attrs.tag}
        if attrs.chunks is not None:
            out["chunks"] = list(attrs.chunks)
    elif isinstance(attrs, RecvAttrs):
        out = {"src_rank": attrs.src_rank, "comm_size": attrs.comm_size, "tag": attrs.tag}
        if attrs.chunks is not None:
            out["chunks"] = list(attrs.chunks)
    elif isinstance(attrs, CompAttrs):
        out = {"op": attrs.op, "comp_size": attrs.comp_size}
        if attrs.chunks is not None:
            out["chunks"] = list(attrs.chunks)
        if attrs.src_chunks is not None:
            out["src_chunks"] = list(attrs.src_chunks)
    else:
        out = {"coll_kind": attrs.coll_kind.value, "comm_size": attrs.comm_size}
    return out


def trace_json_oracle(trace) -> str:
    """The canonical trace text through `json.dumps`: nodes in ascending id
    order, fixed key order. Reference for `dumps_trace`."""
    if isinstance(trace, WorkloadTrace):
        trace_class, claimed = "workload", None
    else:
        trace_class, c = "collective", trace.claimed_collective
        claimed = None if c is None else {"kind": c.kind.value, "comm_size": c.comm_size}
    ranks = [
        [{"id": n.id, "name": n.name, "kind": n.kind.value, "deps": list(n.deps),
          "attrs": _attrs_doc(n.attrs)}
         for n in sorted(nodes, key=lambda n: n.id)]
        for nodes in trace.per_rank_nodes
    ]
    return _indented_json({
        "format_version": "1",
        "trace_class": trace_class,
        "num_ranks": trace.num_ranks,
        "claimed_collective": claimed,
        "ranks": ranks,
    })


def _expect(obj: dict, key: str, types, where: str):
    if key not in obj:
        raise SchemaError(f"missing key '{key}' in {where}")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"key '{key}' in {where} has wrong type {type(value).__name__}")
    return value


_TOP_KEYS = {"format_version", "trace_class", "num_ranks", "claimed_collective", "ranks"}
_NODE_KEYS = {"id", "name", "kind", "deps", "attrs"}
_ATTR_KEYS = {
    NodeKind.COMM_SEND: ({"dst_rank", "comm_size", "tag"}, {"chunks"}),
    NodeKind.COMM_RECV: ({"src_rank", "comm_size", "tag"}, {"chunks"}),
    NodeKind.COMP: ({"op", "comp_size"}, {"chunks", "src_chunks"}),
    NodeKind.COMM_COLL: ({"coll_kind", "comm_size"}, set()),
}


def _chunks_from_json(attrs: dict, key: str, where: str):
    if key not in attrs:
        return None
    value = attrs[key]
    if not isinstance(value, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in value
    ):
        raise SchemaError(f"'{key}' in {where} must be a list of non-negative ints")
    return tuple(value)


def _node_from_json(obj: dict, where: str) -> TraceNode:
    if not isinstance(obj, dict):
        raise SchemaError(f"node in {where} must be an object")
    unknown = set(obj) - _NODE_KEYS
    if unknown:
        raise SchemaError(f"unknown node key(s) {sorted(unknown)} in {where}")
    nid = _expect(obj, "id", int, where)
    name = _expect(obj, "name", str, where)
    kind_name = _expect(obj, "kind", str, where)
    try:
        kind = NodeKind(kind_name)
    except ValueError:
        raise SchemaError(f"unknown node kind '{kind_name}' in {where}") from None
    deps = _expect(obj, "deps", list, where)
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in deps):
        raise SchemaError(f"deps in {where} must be integers")
    attrs_obj = _expect(obj, "attrs", dict, where)
    required, optional = _ATTR_KEYS[kind]
    missing = required - set(attrs_obj)
    if missing:
        raise SchemaError(f"missing attribute(s) {sorted(missing)} for {kind.value} in {where}")
    unknown = set(attrs_obj) - required - optional
    if unknown:
        raise SchemaError(f"unknown attribute(s) {sorted(unknown)} for {kind.value} in {where}")
    if kind is NodeKind.COMM_SEND:
        attrs = SendAttrs(
            _expect(attrs_obj, "dst_rank", int, where),
            _expect(attrs_obj, "comm_size", int, where),
            _expect(attrs_obj, "tag", int, where),
            _chunks_from_json(attrs_obj, "chunks", where),
        )
    elif kind is NodeKind.COMM_RECV:
        attrs = RecvAttrs(
            _expect(attrs_obj, "src_rank", int, where),
            _expect(attrs_obj, "comm_size", int, where),
            _expect(attrs_obj, "tag", int, where),
            _chunks_from_json(attrs_obj, "chunks", where),
        )
    elif kind is NodeKind.COMP:
        attrs = CompAttrs(
            _expect(attrs_obj, "op", str, where),
            _expect(attrs_obj, "comp_size", int, where),
            _chunks_from_json(attrs_obj, "chunks", where),
            _chunks_from_json(attrs_obj, "src_chunks", where),
        )
    else:
        coll_name = _expect(attrs_obj, "coll_kind", str, where)
        try:
            coll_kind = CollKind(coll_name)
        except ValueError:
            raise SchemaError(f"unknown coll_kind '{coll_name}' in {where}") from None
        attrs = CollAttrs(coll_kind, _expect(attrs_obj, "comm_size", int, where))
    return TraceNode(nid, name, kind, tuple(deps), attrs)


def loads_trace_oracle(text: str):
    """The trace loader as it was written before the one-pass loader: every
    node checked key by key and built through the public constructors.
    Reference for `loads_trace`: an equal trace, or the same exception class
    and message."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}") from exc
    except (RecursionError, ValueError) as exc:  # nesting or integer-length limits
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level key(s) {sorted(unknown)}")
    version = _expect(doc, "format_version", str, "top level")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version '{version}'")
    trace_class = _expect(doc, "trace_class", str, "top level")
    if trace_class not in ("collective", "workload"):
        raise SchemaError(f"unknown trace_class '{trace_class}'")
    num_ranks = _expect(doc, "num_ranks", int, "top level")
    ranks_obj = _expect(doc, "ranks", list, "top level")
    if "claimed_collective" not in doc:
        raise SchemaError("missing key 'claimed_collective' in top level")
    claimed_obj = doc["claimed_collective"]
    claimed = None
    if claimed_obj is not None:
        if not isinstance(claimed_obj, dict) or set(claimed_obj) != {"kind", "comm_size"}:
            raise SchemaError("claimed_collective must be null or {kind, comm_size}")
        try:
            claimed_kind = CollKind(claimed_obj["kind"])
        except (ValueError, TypeError):
            raise SchemaError(f"unknown collective kind '{claimed_obj['kind']}'") from None
        claimed = CollDescriptor(claimed_kind, _expect(claimed_obj, "comm_size", int,
                                                       "claimed_collective"))
    per_rank = []
    for rank, nodes_obj in enumerate(ranks_obj):
        if not isinstance(nodes_obj, list):
            raise SchemaError(f"rank {rank} entry must be a list of nodes")
        per_rank.append(
            [_node_from_json(obj, f"rank {rank}, node index {i}")
             for i, obj in enumerate(nodes_obj)]
        )
    if trace_class == "workload":
        if claimed is not None:
            raise SchemaError("workload traces must have claimed_collective: null")
        trace = WorkloadTrace(num_ranks, per_rank)
    else:
        trace = CollectiveTrace(num_ranks, claimed, per_rank)
    return trace


def report_json_oracle(report) -> str:
    """The simulation report through `json.dumps`. Reference for
    `SimReport.dumps`."""
    total = report.total_duration
    return _indented_json({
        "total_duration_s": total,
        "event_count": report.event_count,
        "num_ranks": report.num_ranks,
        "ranks": [
            [{"id": nid, "issue_s": issue, "start_s": start, "finish_s": finish}
             for nid, issue, start, finish in rank_times]
            for rank_times in report.node_times
        ],
        "links": [
            {"src": src, "dst": dst, "messages": messages, "busy_s": busy,
             "utilization": busy / total if total > 0 else 0.0}
            for src, dst, messages, busy in report.link_stats
        ],
    })


def simulate_oracle(trace, topology, cost) -> SimReport:
    """The simulator as it was written with dicts keyed by (rank, id) and
    (src, dst, tag), with its own dependency counting. Reference for
    `simulate`: equal reports, or the same exception and frontier."""
    for rank, nodes in enumerate(trace.per_rank_nodes):
        for node in nodes:
            if node.kind is NodeKind.COMM_COLL:
                raise UnexpandedCollectiveError(
                    f"COMM_COLL node {node.id} on rank {rank} must be expanded "
                    f"before simulation")
    if trace.num_ranks > topology.n:
        raise SpecError(
            f"trace has {trace.num_ranks} ranks but topology only {topology.n} endpoints")
    check_trace(trace)
    require_matched(trace)

    nodes = [{node.id: node for node in rank_nodes} for rank_nodes in trace.per_rank_nodes]
    pending = [{nid: len(node.deps) for nid, node in by_id.items()} for by_id in nodes]
    dependents = [{nid: [] for nid in by_id} for by_id in nodes]
    for rank, by_id in enumerate(nodes):
        for nid, node in by_id.items():
            for dep in node.deps:
                dependents[rank][dep].append(nid)
    total_nodes = sum(len(r) for r in nodes)

    issue_t, start_t, finish_t = {}, {}, {}
    msg_info, arrival, recv_wait = {}, {}, {}
    link_free, link_busy, link_msgs = {}, {}, {}
    events = []
    event_count = 0

    def issue(rank, nid, t):
        node = nodes[rank][nid]
        issue_t[(rank, nid)] = t
        if node.kind is NodeKind.COMP:
            dur = cost.comp_duration(node.attrs.op, node.attrs.comp_size)
            start_t[(rank, nid)] = t
            heapq.heappush(events, (t + dur, 0, rank, nid))
        elif node.kind is NodeKind.COMM_SEND:
            key = (rank, node.attrs.dst_rank, node.attrs.tag)
            path = route(topology, topology.place(rank), topology.place(key[1]))
            msg_info[key] = (nid, node.attrs.comm_size, path)
            heapq.heappush(events, (t, 1, key[0], key[1], key[2], 0))
        else:
            key = (node.attrs.src_rank, rank, node.attrs.tag)
            start_t[(rank, nid)] = t
            if key in arrival:
                heapq.heappush(events, (max(t, arrival[key]), 0, rank, nid))
            else:
                recv_wait[key] = (rank, nid)

    for rank in range(trace.num_ranks):
        for nid in sorted(nid for nid, count in pending[rank].items() if count == 0):
            issue(rank, nid, 0.0)

    while events:
        event = heapq.heappop(events)
        event_count += 1
        t = event[0]
        if event[1] == 0:
            _, _, rank, nid = event
            finish_t[(rank, nid)] = t
            for succ in dependents[rank][nid]:
                pending[rank][succ] -= 1
                if not pending[rank][succ]:
                    issue(rank, succ, t)
        else:
            _, _, src, dst, tag, hop = event
            key = (src, dst, tag)
            send_nid, size, path = msg_info[key]
            link = path[hop]
            begin = max(link_free.get(link, 0.0), t)
            hold = cost.link_occupancy(size)
            link_free[link] = begin + hold
            link_busy[link] = link_busy.get(link, 0.0) + hold
            link_msgs[link] = link_msgs.get(link, 0) + 1
            departed = begin + hold
            if hop == 0:
                start_t[(src, send_nid)] = begin
                heapq.heappush(events, (departed, 0, src, send_nid))
            if hop + 1 < len(path):
                heapq.heappush(events, (departed, 1, src, dst, tag, hop + 1))
            else:
                delivered = departed + cost.alpha
                arrival[key] = delivered
                waiter = recv_wait.pop(key, None)
                if waiter is not None:
                    r, nid = waiter
                    heapq.heappush(events, (max(issue_t[(r, nid)], delivered), 0, r, nid))

    if len(finish_t) < total_nodes:
        raise DeadlockError(
            f"simulation stalled with {total_nodes - len(finish_t)} node(s) unfinished",
            [(r, nid, nodes[r][nid].name) for r, nid in sorted(recv_wait.values())])

    node_times = tuple(
        tuple((nid, issue_t[(rank, nid)], start_t[(rank, nid)], finish_t[(rank, nid)])
              for nid in sorted(nodes[rank]))
        for rank in range(trace.num_ranks))
    total = max(finish_t.values(), default=0.0)
    if not math.isfinite(total):
        raise SpecError("simulated time overflows a float; scale the costs down")
    stats = tuple((link[0], link[1], link_msgs[link], link_busy[link])
                  for link in sorted(link_busy))
    return SimReport(trace.num_ranks, node_times, total, event_count, stats)


def timing(report: SimReport, rank: int, node_id: int) -> tuple[float, float, float]:
    """The (issue, start, finish) times `report` gives node `node_id` of `rank`."""
    for nid, *times in report.node_times[rank]:
        if nid == node_id:
            return tuple(times)
    raise KeyError(f"no node {node_id} on rank {rank}")


def concrete_execute(trace: CollectiveTrace, num_chunks: int) -> list[dict[int, int]]:
    """Run the trace with integer bitmask payloads and return the final
    per-rank chunk states.

    Bit (rank * num_chunks + chunk) stands for that rank's original value of
    that chunk; OR-ing bitmasks models reduction exactly (set union is
    bitwise or). Deliberately written as a dumb rescanning fixpoint loop so
    it shares no machinery with the validator.
    """
    n = trace.num_ranks
    state: list[dict[int, int]] = [
        {j: 1 << (r * num_chunks + j) for j in range(num_chunks)} for r in range(n)
    ]
    done: list[set[int]] = [set() for _ in range(n)]
    mailbox: dict[tuple[int, int, int], list[int]] = {}
    nodes = [sorted(rank_nodes, key=lambda nd: nd.id) for rank_nodes in trace.per_rank_nodes]
    by_id = [{nd.id: nd for nd in rank_nodes} for rank_nodes in nodes]

    def reduce_consumers(rank: int, recv: TraceNode) -> set[int]:
        eaten: set[int] = set()
        for nd in nodes[rank]:
            if nd.kind is NodeKind.COMP and nd.attrs.op == OP_REDUCE \
                    and recv.id in nd.deps and nd.attrs.chunks:
                eaten |= set(nd.attrs.chunks) & set(recv.attrs.chunks or ())
        return eaten

    progress = True
    while progress:
        progress = False
        for rank in range(n):
            for node in nodes[rank]:
                if node.id in done[rank]:
                    continue
                if any(d not in done[rank] for d in node.deps):
                    continue
                if node.kind is NodeKind.COMM_SEND:
                    key = (rank, node.attrs.dst_rank, node.attrs.tag)
                    mailbox[key] = [state[rank][c] for c in node.attrs.chunks]
                elif node.kind is NodeKind.COMM_RECV:
                    key = (node.attrs.src_rank, rank, node.attrs.tag)
                    if key not in mailbox:
                        continue
                    payload = mailbox[key]
                    eaten = reduce_consumers(rank, node)
                    for chunk, value in zip(node.attrs.chunks, payload):
                        if chunk in eaten:
                            state[rank][(node.id, chunk)] = value  # park for the reduce
                        else:
                            state[rank][chunk] = value
                elif node.attrs.op == OP_REDUCE and node.attrs.chunks:
                    for i, chunk in enumerate(node.attrs.chunks):
                        acc = state[rank].get(chunk, 0)
                        for dep in node.deps:
                            acc |= state[rank].get((dep, chunk), 0)
                        if node.attrs.src_chunks:
                            acc |= state[rank][node.attrs.src_chunks[i]]
                        state[rank][chunk] = acc
                elif node.attrs.op == OP_COPY and node.attrs.chunks and node.attrs.src_chunks:
                    values = [state[rank][src] for src in node.attrs.src_chunks]  # all first
                    for chunk, value in zip(node.attrs.chunks, values):
                        state[rank][chunk] = value
                done[rank].add(node.id)
                progress = True
    assert all(len(done[r]) == len(nodes[r]) for r in range(n)), "oracle run stuck"
    return [{j: s[j] for j in range(num_chunks) if j in s} for s in state]


def rendezvous_completes(trace: CollectiveTrace) -> bool:
    """True if every node runs when a send also waits for its recv to be
    posted (every dep of the recv done), and a recv for its send to be done.

    Reference for the validator's rendezvous-deadlock warning; like
    `concrete_execute`, a dumb rescanning fixpoint that shares no machinery
    with the validator.
    """
    nodes = [{nd.id: nd for nd in rank_nodes} for rank_nodes in trace.per_rank_nodes]
    done: list[set[int]] = [set() for _ in nodes]

    def find(rank: int, kind: NodeKind, peer_field: str, peer: int, tag: int):
        for nd in nodes[rank].values():
            if nd.kind is kind and getattr(nd.attrs, peer_field) == peer \
                    and nd.attrs.tag == tag:
                return nd
        return None

    progress = True
    while progress:
        progress = False
        for rank, rank_nodes in enumerate(nodes):
            for node in rank_nodes.values():
                if node.id in done[rank] or any(d not in done[rank] for d in node.deps):
                    continue
                if node.kind is NodeKind.COMM_SEND:
                    dst = node.attrs.dst_rank
                    recv = find(dst, NodeKind.COMM_RECV, "src_rank", rank, node.attrs.tag)
                    if recv is None or any(d not in done[dst] for d in recv.deps):
                        continue
                elif node.kind is NodeKind.COMM_RECV:
                    src = node.attrs.src_rank
                    send = find(src, NodeKind.COMM_SEND, "dst_rank", rank, node.attrs.tag)
                    if send is None or send.id not in done[src]:
                        continue
                done[rank].add(node.id)
                progress = True
    return all(len(d) == len(r) for d, r in zip(done, nodes))


def validator_state(trace: CollectiveTrace, num_chunks: int, order=None) -> list[dict]:
    """The validator's final chunk state: its eager schedule of `trace`, in
    the random `order` or by (rank, position) if None, then its state pass
    along that run, seeded as `check_semantics` seeds it. Fails on a stall."""
    readiness = [Readiness(nodes) for nodes in trace.per_rank_nodes]
    peer = _peers(trace, readiness)
    run, frontier = _schedule(readiness, peer, order)
    assert not frontier, f"validator run stuck at {frontier}"
    state: list[dict] = [{} for _ in range(trace.num_ranks)]
    origins = _origins(trace.claimed_collective.kind, trace.num_ranks, num_chunks)
    for j, ranks in enumerate(origins):
        for rank in ranks:
            state[rank][j] = frozenset({(rank, j)})
    _track(readiness, peer, run, state)
    return state


def message_table(trace: CollectiveTrace) -> tuple:
    """The `messages` table built straight from the nodes: for each (src,
    dst, tag) of a send or a recv, ascending, (src, dst, send id, recv id,
    send comm_size), None for a missing side. Reference for `check_trace`."""
    sends, recvs = {}, {}
    for rank, nodes in enumerate(trace.per_rank_nodes):
        for node in nodes:
            if node.kind is NodeKind.COMM_SEND:
                sends[(rank, node.attrs.dst_rank, node.attrs.tag)] = node
            elif node.kind is NodeKind.COMM_RECV:
                recvs[(node.attrs.src_rank, rank, node.attrs.tag)] = node
    table = []
    for src, dst, tag in sorted(set(sends) | set(recvs)):
        send, recv = sends.get((src, dst, tag)), recvs.get((src, dst, tag))
        table.append((src, dst, None if send is None else send.id,
                      None if recv is None else recv.id,
                      None if send is None else send.attrs.comm_size))
    return tuple(table)


def canonical_form_oracle(trace) -> tuple:
    """`canonical_form(trace)` as a rescanning walk: per rank, label next the
    ready node (every dep labelled) of smallest (structural key, id). The key
    is (kind: send 0, recv 1, compute 2; peer; size; tag ordinal; op; the
    sorted labels of its deps), where a send's or recv's ordinal counts the
    earlier messages of its direction in `message_table`, and compute keys
    peer and ordinal -1 and messages op "". Reference for `canonical_form`;
    it shares no code with `ordered`, `Readiness` or the validator's key."""
    ordinal, count = {}, {}  # (rank, send or recv id) -> ordinal; direction -> count
    for src, dst, send_id, recv_id, _ in message_table(trace):
        k = count[src, dst] = count.get((src, dst), -1) + 1
        ordinal[src, send_id] = ordinal[dst, recv_id] = k
    form = []
    for rank, nodes in enumerate(trace.per_rank_nodes):
        label, records = {}, []
        while len(records) < len(nodes):
            best = None
            for node in nodes:
                if node.id in label or any(d not in label for d in node.deps):
                    continue
                a = node.attrs
                if node.kind is NodeKind.COMM_SEND:
                    head = (0, a.dst_rank, a.comm_size, ordinal[rank, node.id], "")
                elif node.kind is NodeKind.COMM_RECV:
                    head = (1, a.src_rank, a.comm_size, ordinal[rank, node.id], "")
                else:
                    head = (2, -1, a.comp_size, -1, a.op)
                key = (*head, tuple(sorted(label[d] for d in node.deps)))
                if best is None or (key, node.id) < best:
                    best = (key, node.id)
            assert best is not None, f"no ready node on rank {rank}: a cycle"
            label[best[1]] = len(records)
            records.append(best[0])
        form.append(tuple(records))
    return tuple(form)


def _utf8(value) -> bool:
    """A str that encodes to UTF-8, i.e. one without lone surrogates."""
    if type(value) is not str:
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _ints(*values) -> bool:
    return all(type(value) is int for value in values)


_MESSAGE_RULES = [  # a send's or a recv's, where `role` names its peer field
    (lambda f: not f.workload, "workload traces may contain only COMP and COMM_COLL nodes"),
    (lambda f: _ints(f.peer, f.size, f.tag),
     "{role}, comm_size and tag must be ints, got {peer!r}, {size!r}, {tag!r}"),
    (lambda f: f.peer in range(f.num_ranks), "{role} {peer} out of range"),
    (lambda f: f.peer != f.rank, "{role} must differ from the owning rank"),
    (lambda f: f.size in range(1, MAX_SIZE + 1), "comm_size must be in 1..{max}, got {size}"),
    (lambda f: f.tag >= 0, "tag must be non-negative, got {tag}"),
]
# Per attrs type: the node kind it goes with, and the rules of its fields in
# the order a fault is reported, each a (test, message template) pair over
# the fields that `_check_node_fields` names.
NODE_FIELD_RULES = {
    SendAttrs: (NodeKind.COMM_SEND, _MESSAGE_RULES),
    RecvAttrs: (NodeKind.COMM_RECV, _MESSAGE_RULES),
    CompAttrs: (NodeKind.COMP, [
        (lambda f: _utf8(f.op), "op must be UTF-8 text, got {op!r}"),
        (lambda f: _ints(f.size) and f.size in range(MAX_SIZE + 1),
         "comp_size must be an int in 0..{max}, got {size!r}"),
    ]),
    CollAttrs: (NodeKind.COMM_COLL, [
        (lambda f: f.workload, "COMM_COLL may appear only in workload traces"),
        (lambda f: any(f.coll_kind is kind for kind in CollKind),
         "coll_kind must be a CollKind, got {coll_kind!r}"),
        (lambda f: _ints(f.size) and f.size in range(1, MAX_SIZE + 1),
         "comm_size must be an int in 1..{max}, got {size!r}"),
    ]),
}


def _check_node_fields(trace, rank: int, node, is_workload: bool) -> None:
    """Raise the InvariantError for the first fault of a rank list entry:
    not a TraceNode, then its id, its name, its kind against its attrs'
    type, then `NODE_FIELD_RULES` in turn."""
    if type(node) is not TraceNode:
        raise InvariantError(f"rank lists must hold TraceNodes, got {type(node).__name__}",
                             rank)
    if type(node.id) is not int or node.id < 0:
        raise InvariantError(f"node id must be a non-negative int, got {node.id!r}", rank)
    if not _utf8(node.name):
        raise InvariantError(f"name must be UTF-8 text, got {node.name!r}", rank, node.id)
    a = node.attrs
    kind, rules = NODE_FIELD_RULES.get(type(a), (None, []))
    if kind is None or node.kind is not kind:
        shown = node.kind.value if isinstance(node.kind, NodeKind) else repr(node.kind)
        raise InvariantError(f"kind {shown} inconsistent with attrs {type(a).__name__}",
                             rank, node.id)
    role = "dst_rank" if kind is NodeKind.COMM_SEND else "src_rank"
    fields = SimpleNamespace(
        rank=rank, num_ranks=trace.num_ranks, workload=is_workload, max=MAX_SIZE, role=role,
        peer=getattr(a, role, None), tag=getattr(a, "tag", None), op=getattr(a, "op", None),
        size=a.comp_size if kind is NodeKind.COMP else a.comm_size,
        coll_kind=getattr(a, "coll_kind", None))
    for test, message in rules:
        if not test(fields):
            raise InvariantError(message.format_map(vars(fields)), rank, node.id)


def check_trace_oracle(trace) -> tuple:
    """`check_trace(trace)` as a multi-pass check: every
    node's fields and id, then every dep, then cycles, rank by rank, then
    the send/recv tags over all ranks. Returns the (messages, mismatch) the
    trace should record, or raises the InvariantError it should raise.
    Reference for `check_trace`; node fields are judged by its own rules,
    `_check_node_fields` and `NODE_FIELD_RULES`, which share no code with
    `check_trace`. Cycles are found by counting down deps over ids and named
    by the rule `_find_cycle` documents: from the smallest unfinished id,
    follow the smallest unfinished dep until an id repeats."""
    if type(trace.num_ranks) is not int or trace.num_ranks < 1:
        raise InvariantError(f"num_ranks must be a positive int, got {trace.num_ranks!r}")
    if len(trace.per_rank_nodes) != trace.num_ranks:
        raise InvariantError(
            f"expected {trace.num_ranks} rank node lists, got {len(trace.per_rank_nodes)}")
    is_workload = isinstance(trace, WorkloadTrace)
    claimed = None if is_workload else trace.claimed_collective
    if claimed is not None and not (
            isinstance(claimed, CollDescriptor) and type(claimed.kind) is CollKind
            and type(claimed.comm_size) is int
            and 0 < claimed.comm_size <= MAX_SIZE):
        raise InvariantError(
            f"claimed_collective must be a CollKind and a size in 1..{MAX_SIZE}, "
            f"got {claimed!r}")
    for rank, nodes in enumerate(trace.per_rank_nodes):
        ids = set()
        for node in nodes:
            _check_node_fields(trace, rank, node, is_workload)
            if node.id in ids:
                raise InvariantError("duplicate node id", rank, node.id)
            ids.add(node.id)
        for node in nodes:
            for dep in node.deps:
                if dep not in ids:
                    raise InvariantError(f"dep {dep} does not exist on this rank", rank, node.id)
                if dep == node.id:
                    raise InvariantError("node depends on itself", rank, node.id)
        deps = {node.id: node.deps for node in nodes}
        waiting = {nid: len(ds) for nid, ds in deps.items()}  # unfinished deps per id
        users = {nid: [] for nid in deps}
        for nid, ds in deps.items():
            for dep in ds:
                users[dep].append(nid)
        stack = [nid for nid, count in waiting.items() if not count]
        while stack:
            for user in users[stack.pop()]:
                waiting[user] -= 1
                if not waiting[user]:
                    stack.append(user)
        unfinished = {nid for nid, count in waiting.items() if count}
        if unfinished:
            path, nid = [], min(unfinished)
            while nid not in path:
                path.append(nid)
                nid = min(d for d in deps[nid] if d in unfinished)
            exc = CycleError(f"dependency cycle on rank {rank}", path[path.index(nid):])
            raise InvariantError(f"dependency cycle {exc.cycle}", rank, exc.cycle[0]) from exc
    if is_workload:
        trace_module._check_spmd(trace)
        return (), None
    sends, recvs = {}, {}
    for rank, nodes in enumerate(trace.per_rank_nodes):
        for node in nodes:
            if node.kind is NodeKind.COMM_SEND:
                key = (rank, node.attrs.dst_rank, node.attrs.tag)
                if key in sends:
                    raise InvariantError(
                        f"duplicate tag {node.attrs.tag} for sends {rank}->{key[1]}",
                        rank, node.id)
                sends[key] = node
            elif node.kind is NodeKind.COMM_RECV:
                key = (node.attrs.src_rank, rank, node.attrs.tag)
                if key in recvs:
                    raise InvariantError(
                        f"duplicate tag {node.attrs.tag} for recvs {key[0]}->{rank}",
                        rank, node.id)
                recvs[key] = node
    return message_table(trace), _first_mismatch(sends, recvs)


def _first_mismatch(sends: dict, recvs: dict):
    """The first send, in node order, without a recv of its size, else the
    first recv without a send, as InvariantError arguments; or None."""
    for (src, dst, tag), send in sends.items():
        recv = recvs.get((src, dst, tag))
        if recv is None:
            return f"unmatched send {src}->{dst} tag {tag}", src, send.id
        if recv.attrs.comm_size != send.attrs.comm_size:
            return (f"send {src}->{dst} tag {tag} has size {send.attrs.comm_size} but "
                    f"recv expects {recv.attrs.comm_size}", src, send.id)
    for (src, dst, tag), recv in recvs.items():
        if (src, dst, tag) not in sends:
            return f"unmatched recv from {src} tag {tag}", dst, recv.id
    return None


def expand_oracle(workload: WorkloadTrace, subtrace, tag_stride: int) -> CollectiveTrace:
    """The unified trace by the expander's rules, node by node: a COMM_COLL
    placeholder becomes its rank's subgraph of `subtrace(kind, size)`, whose
    roots take the placeholder's deps and whose sinks feed its dependents;
    each rank is renumbered 0.. in ascending workload id, a subgraph in
    ascending subgraph id at its placeholder's place; the placeholder's
    ordinal (its position among the rank's collectives in topological
    order, ties by id) lifts every tag by ordinal * `tag_stride` and
    prefixes every name with `coll{ordinal}_`; an empty subgraph is one
    free NOP node named `anchor`. Reference for `expand`."""
    out = []
    for rank, rank_nodes in enumerate(workload.per_rank_nodes):
        by_id = {node.id: node for node in rank_nodes}
        done, topo = set(), []
        while len(topo) < len(by_id):
            nid = min(i for i, node in by_id.items()
                      if i not in done and set(node.deps) <= done)
            done.add(nid)
            topo.append(nid)
        colls = [nid for nid in topo if by_id[nid].kind is NodeKind.COMM_COLL]
        # each workload node's block: its new ids by old id, and its nodes
        blocks, next_id = {}, 0
        for nid in sorted(by_id):
            node = by_id[nid]
            if node.kind is NodeKind.COMM_COLL:
                sub = subtrace(node.attrs.coll_kind, node.attrs.comm_size)
                members = sorted(sub.per_rank_nodes[rank], key=lambda m: m.id) or [
                    TraceNode(0, "anchor", NodeKind.COMP, (), CompAttrs(OP_NOP, 0))]
            else:
                members = [node]
            blocks[nid] = ({m.id: next_id + i for i, m in enumerate(members)}, members)
            next_id += len(members)

        def exits(nid):
            new_ids, members = blocks[nid]
            depended = {d for m in members for d in m.deps}
            return [new_ids[m.id] for m in members if m.id not in depended]

        nodes = []
        for nid in sorted(by_id):
            node = by_id[nid]
            deps = tuple(sorted({e for d in node.deps for e in exits(d)}))
            new_ids, members = blocks[nid]
            if node.kind is not NodeKind.COMM_COLL:
                nodes.append(TraceNode(new_ids[nid], node.name, node.kind, deps, node.attrs))
                continue
            ordinal = colls.index(nid)
            for m in members:
                attrs = m.attrs
                if m.kind is not NodeKind.COMP:
                    attrs = replace(attrs, tag=attrs.tag + ordinal * tag_stride)
                m_deps = tuple(new_ids[d] for d in m.deps) if m.deps else deps
                nodes.append(TraceNode(new_ids[m.id], f"coll{ordinal}_{m.name}", m.kind,
                                       m_deps, attrs))
        out.append(nodes)
    return CollectiveTrace(workload.num_ranks, None, out)


def generator_oracle(spec: AlgoSpec) -> CollectiveTrace:
    """The trace `generate(spec)` must equal, node by node from closed forms
    through the public constructors. Ring (all-reduce: a reduce-scatter phase
    "rs" then an all-gather phase "ag" on chunks of s/n bytes; all-gather:
    "ag" alone on chunks of s bytes): step t sends chunk (r - t) % n to
    r + 1 with tag t as node t, and receives chunk (r - t - 1) % n from
    r - 1; in "rs" each recv is followed by a REDUCE of that chunk.
    Recursive doubling: round j swaps block r >> j (2^j chunks, s * 2^j
    bytes, tag 0) with rank r ^ 2^j. In both, the recvs and reduces follow
    the sends in id order, send t waits for send t - 1 and for the last
    node written in step t - 1, and recv t waits for that node alone."""
    n, s = spec.num_ranks, spec.comm_size
    ranks = []
    if spec.algorithm is Algorithm.RECURSIVE_DOUBLING_ALL_GATHER:
        claimed, rounds = CollDescriptor(CollKind.ALL_GATHER, s), int(math.log2(n))

        def block(rank, width):  # the chunks of the width-aligned block holding rank
            return list(range(rank // width * width, rank // width * width + width))

        for r in range(n):
            sends, recvs = [], []
            for j in range(rounds):
                peer, width = r ^ 2 ** j, 2 ** j
                sends.append(TraceNode(j, f"rd_send_r{j}", NodeKind.COMM_SEND,
                                       [j - 1, rounds + j - 1] if j else [],
                                       SendAttrs(peer, s * width, 0, block(r, width))))
                recvs.append(TraceNode(rounds + j, f"rd_recv_r{j}", NodeKind.COMM_RECV,
                                       [rounds + j - 1] if j else [],
                                       RecvAttrs(peer, s * width, 0, block(peer, width))))
            ranks.append(sends + recvs)
        return CollectiveTrace(n, claimed, ranks)
    reduce_scatter = spec.algorithm is Algorithm.RING_ALL_REDUCE
    phases = ["rs", "ag"] if reduce_scatter else ["ag"]
    claimed = CollDescriptor(CollKind.ALL_REDUCE if reduce_scatter else CollKind.ALL_GATHER, s)
    c, steps = (s // n if reduce_scatter else s), len(phases) * (n - 1)
    reducing = n - 1 if reduce_scatter else 0
    recv_id = [steps + 2 * t if t < reducing else steps + reducing + t for t in range(steps)]
    last = [recv_id[t] + 1 if t < reducing else recv_id[t] for t in range(steps)]
    for r in range(n):
        sends, recvs = [], []
        for t in range(steps):
            phase, out, into = phases[t // (n - 1)], (r - t) % n, (r - t - 1) % n
            sends.append(TraceNode(t, f"{phase}_send_c{out}", NodeKind.COMM_SEND,
                                   [t - 1, last[t - 1]] if t else [],
                                   SendAttrs((r + 1) % n, c, t, [out])))
            recvs.append(TraceNode(recv_id[t], f"{phase}_recv_c{into}", NodeKind.COMM_RECV,
                                   [last[t - 1]] if t else [],
                                   RecvAttrs((r - 1) % n, c, t, [into])))
            if t < reducing:
                recvs.append(TraceNode(recv_id[t] + 1, f"reduce_c{into}", NodeKind.COMP,
                                       [recv_id[t]], CompAttrs(OP_REDUCE, c, [into])))
        ranks.append(sends + recvs)
    return CollectiveTrace(n, claimed, ranks)


def full_mask(n: int, num_chunks: int, chunk: int) -> int:
    """Bitmask of every rank's contribution to one chunk (all-reduced)."""
    mask = 0
    for r in range(n):
        mask |= 1 << (r * num_chunks + chunk)
    return mask


def delete_node(trace: CollectiveTrace, rank: int, node_id: int) -> CollectiveTrace:
    """Remove one node and scrub it from other deps (ids keep their values)."""
    ranks = []
    for r, rank_nodes in enumerate(trace.per_rank_nodes):
        if r != rank:
            ranks.append(rank_nodes)
            continue
        kept = []
        for node in rank_nodes:
            if node.id == node_id:
                continue
            deps = tuple(d for d in node.deps if d != node_id)
            kept.append(TraceNode(node.id, node.name, node.kind, deps, node.attrs))
        ranks.append(tuple(kept))
    return CollectiveTrace(trace.num_ranks, trace.claimed_collective, ranks)


def rewrite_peer(trace: CollectiveTrace, rank: int, node_id: int,
                 new_peer: int) -> CollectiveTrace:
    """Point one send/recv at a different peer, keeping everything else."""
    ranks = []
    for r, rank_nodes in enumerate(trace.per_rank_nodes):
        if r != rank:
            ranks.append(rank_nodes)
            continue
        rebuilt = []
        for node in rank_nodes:
            if node.id == node_id:
                a = node.attrs
                if node.kind is NodeKind.COMM_SEND:
                    a = SendAttrs(new_peer, a.comm_size, a.tag, a.chunks)
                elif node.kind is NodeKind.COMM_RECV:
                    a = RecvAttrs(new_peer, a.comm_size, a.tag, a.chunks)
                node = TraceNode(node.id, node.name, node.kind, node.deps, a)
            rebuilt.append(node)
        ranks.append(tuple(rebuilt))
    return CollectiveTrace(trace.num_ranks, trace.claimed_collective, ranks)


# ---------------------------------------------------------------------------
# MSCCL-IR XML writers
# ---------------------------------------------------------------------------

def msccl_xml(program, rng=None) -> str:
    """The MSCCL-IR XML text of an `MscclProgram`, one element per line.
    Given a `random.Random`, it lists the gpus and each element's attributes
    in a shuffled order, and writes a missing peer, a missing dependency or
    a zero `cnt` either as the parser's default (-1, or 0) or not at all."""
    def maybe() -> bool:
        return rng is not None and rng.random() < 0.5

    def element(tag, attrs, close=""):
        items = list(attrs.items())
        if rng is not None:
            rng.shuffle(items)
        return f"<{tag}{''.join(f' {k}={quoteattr(str(v))}' for k, v in items)}{close}>"

    lines = [element("algo", {"name": program.name, "ngpus": program.num_gpus,
                              "nchunks": program.num_chunks, "coll": program.collective})]
    gpus = list(program.gpus)
    if rng is not None:
        rng.shuffle(gpus)
    for gpu in gpus:
        lines.append(element("gpu", {"id": gpu.id}))
        for tb in gpu.threadblocks:
            attrs = {"id": tb.id, "chan": tb.channel}
            for key, peer in (("send", tb.send_peer), ("recv", tb.recv_peer)):
                if peer is not None or maybe():
                    attrs[key] = -1 if peer is None else peer
            lines.append(element("tb", attrs))
            for step in tb.steps:
                attrs = {"s": step.index, "type": step.type}
                for key, value in (("srcbuf", step.src_buf), ("srcoff", step.src_off),
                                   ("dstbuf", step.dst_buf), ("dstoff", step.dst_off)):
                    if value is not None:
                        attrs[key] = value
                if step.cnt or maybe():
                    attrs["cnt"] = step.cnt
                if step.depend is not None or maybe():
                    attrs["depid"], attrs["deps"] = step.depend or (-1, -1)
                if maybe():
                    attrs["hasdep"] = int(step.depend is not None)
                lines.append(element("step", attrs, "/"))
            lines.append("</tb>")
        lines.append("</gpu>")
    lines.append("</algo>")
    return "\n".join(lines) + "\n"


def ring_allreduce_xml(n: int) -> str:
    """MSCCL-IR of the n-rank ring all-reduce, laid out as the n = 4 fixture:
    threadblock 0 sends, threadblock 1 receives, reducing in the first n-1
    of its 2(n-1) steps."""
    steps = range(2 * (n - 1))
    gpus = []
    for r in range(n):
        sends = "".join(f'<step s="{k}" type="s" srcbuf="input" srcoff="{(r - k) % n}" '
                        f'cnt="1"' + (f' depid="1" deps="{k - 1}"' if k else "") + "/>"
                        for k in steps)
        recvs = "".join(f'<step s="{k}" type="{"rrc" if k < n - 1 else "r"}" '
                        f'dstbuf="input" dstoff="{(r - k - 1) % n}" cnt="1"/>'
                        for k in steps)
        gpus.append(f'<gpu id="{r}"><tb id="0" send="{(r + 1) % n}" chan="0">{sends}</tb>'
                    f'<tb id="1" recv="{(r - 1) % n}" chan="0">{recvs}</tb></gpu>')
    return f'<algo name="ring" ngpus="{n}" nchunks="{n}" coll="allreduce">{"".join(gpus)}</algo>'
