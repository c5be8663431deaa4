"""Shared test utilities: an independent concrete executor and rendezvous
reachability check used as oracles for the symbolic validator, `json.dumps`
oracles for the trace and report writers, a per-node checking loader as the
oracle for `loads_trace`, a dict-keyed simulator as the oracle for
`simulate`, a per-node lookup into its reports, the message table the
trace should store, a node-by-node splicer as the oracle for `expand`, and
structural mutation helpers."""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import replace

from collgraph.errors import (
    DeadlockError,
    ParseError,
    SchemaError,
    SpecError,
    UnexpandedCollectiveError,
)
from collgraph.simulator import SimReport, route
from collgraph.trace import (
    FORMAT_VERSION,
    OP_COPY,
    OP_NOP,
    OP_REDUCE,
    CollAttrs,
    CollDescriptor,
    CollKind,
    CollectiveTrace,
    CompAttrs,
    NodeKind,
    RecvAttrs,
    SendAttrs,
    TraceNode,
    WorkloadTrace,
    check_trace,
)


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
                    for chunk, src in zip(node.attrs.chunks, node.attrs.src_chunks):
                        state[rank][chunk] = state[rank][src]
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
