"""Shared test utilities: an independent concrete executor and rendezvous
reachability check used as oracles for the symbolic validator, `json.dumps`
oracles for the trace and report writers, and structural mutation helpers."""

from __future__ import annotations

import json

from collgraph.trace import (
    OP_COPY,
    OP_NOP,
    OP_REDUCE,
    CollectiveTrace,
    CompAttrs,
    NodeKind,
    RecvAttrs,
    SendAttrs,
    TraceNode,
    WorkloadTrace,
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


def report_json_oracle(report) -> str:
    """The simulation report through `json.dumps`. Reference for
    `SimReport.dumps`."""
    total = report.total_duration
    return _indented_json({
        "total_duration_s": total,
        "event_count": report.event_count,
        "num_ranks": report.num_ranks,
        "ranks": [
            [{"id": nid, "issue_s": t.issue, "start_s": t.start, "finish_s": t.finish}
             for nid, t in rank_times]
            for rank_times in report.node_times
        ],
        "links": [
            {"src": ls.src, "dst": ls.dst, "messages": ls.messages, "busy_s": ls.busy_time,
             "utilization": ls.busy_time / total if total > 0 else 0.0}
            for ls in report.link_stats
        ],
    })


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
