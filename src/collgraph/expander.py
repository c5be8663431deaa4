"""Splice collective algorithm subgraphs into workload graphs.

A binding is a `CollectiveTrace` or an `Algorithm`. The workload is SPMD, so
each (kind, size) in rank 0's collective sequence is resolved once, to a
trace that claims it, is matched and keeps its tags below `TAG_STRIDE`.
Each COMM_COLL placeholder then becomes its rank's subgraph: the roots take
the placeholder's deps and the sinks feed its dependents. Ids are
renumbered 0.. in ascending workload id, a subgraph's in ascending id at
its placeholder's place. The placeholder's ordinal in the rank's sequence
lifts every tag by ordinal * TAG_STRIDE and names each node
`coll{ordinal}_{name}`. An empty subgraph becomes one NOP node, the anchor.
"""

from __future__ import annotations

from .errors import BindingError
from .generators import AlgoSpec, Algorithm, generate
from .trace import (
    OP_NOP,
    CollKind,
    CollectiveTrace,
    NodeKind,
    RecvAttrs,
    SendAttrs,
    TraceNode,
    WorkloadTrace,
    _comp,
    _node,
    _recv,
    _send,
    check_trace,  # noqa: F401 -- kept importable: perfbench/tracer.py rebinds it
    coll_sequence,
    require_matched,
)

TAG_STRIDE = 1 << 20

# A rank's empty subgraph splices in as this free node, keeping the graph connected.
_ANCHOR = _node(0, "anchor", NodeKind.COMP, (), _comp(OP_NOP, 0, None, None))

Binding = CollectiveTrace | Algorithm


def _resolve(kind: CollKind, size: int, binding, num_ranks: int) -> CollectiveTrace:
    """The checked trace that `binding` gives for one (kind, size)."""
    if binding is None:
        raise BindingError(f"no binding for {kind.value}")
    if isinstance(binding, Algorithm):
        trace = generate(AlgoSpec(binding, num_ranks, size))
        if trace.claimed_collective.kind is not kind:
            raise BindingError(
                f"algorithm {binding.value} implements "
                f"{trace.claimed_collective.kind.value}, not {kind.value}")
    elif isinstance(binding, CollectiveTrace):
        trace, claimed = binding, binding.claimed_collective
        if claimed is None:
            raise BindingError(f"binding for {kind.value} does not claim a collective")
        if claimed.kind is not kind:
            raise BindingError(f"binding for {kind.value} claims {claimed.kind.value}")
        if trace.num_ranks != num_ranks:
            raise BindingError(
                f"binding for {kind.value} has {trace.num_ranks} ranks, "
                f"workload has {num_ranks}")
        if claimed.comm_size != size:
            raise BindingError(
                f"binding for {kind.value} is sized {claimed.comm_size}, "
                f"the collective node wants {size}")
    else:
        raise BindingError(f"binding for {kind.value} must be a CollectiveTrace or an "
                           f"Algorithm, got {type(binding).__name__}")
    require_matched(trace)
    tag = next((n.attrs.tag for nodes in trace.per_rank_nodes for n in nodes
                if n.kind is not NodeKind.COMP and n.attrs.tag >= TAG_STRIDE), None)
    if tag is not None:
        raise BindingError(
            f"binding tag {tag} exceeds the per-instance namespace of {TAG_STRIDE}")
    return trace


def _splice(workload: WorkloadTrace, resolved: dict) -> list[list[TraceNode]]:
    """Each rank's nodes, its placeholders replaced from `resolved`."""
    out_ranks: list[list[TraceNode]] = []
    for rank in range(workload.num_ranks):
        ordinal_of = {node.id: i for i, node in enumerate(coll_sequence(workload, rank))}
        nodes = {n.id: n for n in workload.per_rank_nodes[rank]}
        order = sorted(nodes)

        # Pass 1: reserve id blocks and record what each node's dependents
        # depend on: its new id or its subgraph's sinks.
        blocks: dict[int, tuple] = {}  # coll id -> (subnodes, id_base)
        exits: dict[int, list[int]] = {}
        cursor = 0
        for nid in order:
            node = nodes[nid]
            if node.kind is not NodeKind.COMM_COLL:
                exits[nid] = [cursor]
                cursor += 1
                continue
            sub = resolved[node.attrs.coll_kind, node.attrs.comm_size][rank]
            subnodes = sorted(sub, key=lambda n: n.id) or [_ANCHOR]
            depended = {d for n in subnodes for d in n.deps}
            exits[nid] = [cursor + i for i, n in enumerate(subnodes) if n.id not in depended]
            blocks[nid] = (subnodes, cursor)
            cursor += len(subnodes)

        # Pass 2: emit.
        out: list[TraceNode] = []
        for nid in order:
            node = nodes[nid]
            deps = tuple(sorted({d for dep in node.deps for d in exits[dep]}))
            if node.kind is not NodeKind.COMM_COLL:
                out.append(_node(exits[nid][0], node.name, node.kind, deps, node.attrs))
                continue
            ordinal = ordinal_of[nid]
            lift = ordinal * TAG_STRIDE
            subnodes, base = blocks[nid]
            sub_ids = {n.id: base + i for i, n in enumerate(subnodes)}
            for sub in subnodes:
                a = sub.attrs
                if type(a) is SendAttrs:
                    a = _send(a.dst_rank, a.comm_size, lift + a.tag, a.chunks)
                elif type(a) is RecvAttrs:
                    a = _recv(a.src_rank, a.comm_size, lift + a.tag, a.chunks)
                sub_deps = tuple(sub_ids[d] for d in sub.deps) if sub.deps else deps
                out.append(_node(sub_ids[sub.id], f"coll{ordinal}_{sub.name}",
                                 sub.kind, sub_deps, a))
        out_ranks.append(out)
    return out_ranks


def expand(workload: WorkloadTrace, bindings: dict[CollKind, Binding]) -> CollectiveTrace:
    """Replace every COMM_COLL node with its bound algorithm subgraph and
    return the unified trace (claimed_collective is None). Raises
    BindingError for a missing, mistyped or mismatched binding or one with
    tags at or above TAG_STRIDE, and InvariantError for an unmatched one."""
    n = workload.num_ranks
    keys = dict.fromkeys((node.attrs.coll_kind, node.attrs.comm_size)
                         for node in coll_sequence(workload, 0))
    resolved = {key: _resolve(*key, bindings.get(key[0]), n).per_rank_nodes for key in keys}
    out_ranks = _splice(workload, resolved)
    del resolved  # _splice's locals are gone too: no resolved trace is checked below
    return CollectiveTrace(n, None, out_ranks)
