"""Splice collective algorithm subgraphs into workload graphs.

A binding is a `CollectiveTrace` or an `Algorithm`. The workload is SPMD, so
each (kind, size) in rank 0's collective sequence is resolved once, to a
trace that claims it, is matched and keeps its tags below `TAG_STRIDE`.
Its ranks are numbered 0..k-1 (renumbered once if a binding's are not).
Each COMM_COLL placeholder then becomes its rank's subgraph: the roots take
the placeholder's deps and the sinks feed its dependents. Ids are
renumbered 0.. in ascending workload id; a subgraph placed from id `base`
turns its id d into base + d. The placeholder's ordinal in the rank's
sequence lifts every tag by ordinal * TAG_STRIDE and names each node
`coll{ordinal}_{name}`. An empty subgraph becomes one NOP node, the anchor.
"""

from __future__ import annotations

from .errors import BindingError, SpecError
from .generators import AlgoSpec, Algorithm, generate
from .trace import (
    OP_NOP,
    CollKind,
    CollectiveTrace,
    RecvAttrs,
    SendAttrs,
    TraceNode,
    WorkloadTrace,
    _COLL,
    _COMP,
    _comp_node,
    _node,
    _recv_node,
    _send_node,
    check_trace,  # noqa: F401 -- kept importable: perfbench/tracer.py rebinds it
    coll_sequence,
    require_matched,
)

TAG_STRIDE = 1 << 20

# A rank's empty subgraph splices in as this free node, keeping the graph connected.
_ANCHOR = _comp_node(0, "anchor", (), OP_NOP, 0, None, None)

Binding = CollectiveTrace | Algorithm


def _resolve(kind: CollKind, size: int, binding, num_ranks: int) -> tuple:
    """The rank lists of the checked trace that `binding` gives for one
    (kind, size), each numbered 0..k-1 in ascending id."""
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
                if n.kind is not _COMP and n.attrs.tag >= TAG_STRIDE), None)
    if tag is not None:
        raise BindingError(
            f"binding tag {tag} exceeds the per-instance namespace of {TAG_STRIDE}")
    return tuple(map(_dense, trace.per_rank_nodes))


def _dense(nodes: tuple) -> tuple:
    """A rank of a built trace with its ids renumbered 0..k-1 in ascending id."""
    if not nodes or nodes[-1].id == len(nodes) - 1:  # ids ascend: they are 0..k-1
        return nodes
    new = {node.id: i for i, node in enumerate(nodes)}
    return tuple(_node(i, node.name, node.kind, tuple(new[d] for d in node.deps), node.attrs)
                 for i, node in enumerate(nodes))


def _splice(workload: WorkloadTrace, resolved: dict) -> list[list[TraceNode]]:
    """Each rank's nodes, its placeholders replaced from `resolved`."""
    out_ranks: list[list[TraceNode]] = []
    names: dict[tuple[int, str], str] = {}  # one coll{ordinal}_{name} for every rank
    joined: dict[tuple, tuple] = {}  # each deps value of a workload node or root, once
    renumbered: dict[tuple, tuple] = {}  # (id base, subgraph deps) -> new deps
    lifted: dict[int, int] = {}  # each lifted tag value, once
    for rank, nodes in enumerate(workload.per_rank_nodes):
        ordinal_of = {node.id: i for i, node in enumerate(coll_sequence(workload, rank))}

        # Pass 1: reserve id blocks and record what each node's dependents
        # depend on: its new id or its subgraph's sinks.
        blocks: dict[int, tuple] = {}  # coll id -> (subnodes, id base)
        exits: dict[int, list[int]] = {}
        cursor = 0
        for node in nodes:
            if node.kind is not _COLL:
                exits[node.id] = [cursor]
                cursor += 1
                continue
            subnodes = resolved[node.attrs.coll_kind, node.attrs.comm_size][rank] or (_ANCHOR,)
            depended = {d for n in subnodes for d in n.deps}
            exits[node.id] = [cursor + n.id for n in subnodes if n.id not in depended]
            blocks[node.id] = (subnodes, cursor)
            cursor += len(subnodes)

        # Pass 2: emit.
        out: list[TraceNode] = []
        for node in nodes:
            nid = node.id
            deps = tuple(sorted({d for dep in node.deps for d in exits[dep]}))
            deps = joined.setdefault(deps, deps)
            if node.kind is not _COLL:
                out.append(_node(exits[nid][0], node.name, node.kind, deps, node.attrs))
                continue
            ordinal = ordinal_of[nid]
            lift = ordinal * TAG_STRIDE
            subnodes, base = blocks[nid]
            for sub in subnodes:
                a, key = sub.attrs, (ordinal, sub.name)
                name = names.get(key) or names.setdefault(key, f"coll{ordinal}_{sub.name}")
                if sub.deps:  # one tuple per (base, deps), shared by all ranks
                    key = base, sub.deps
                    sub_deps = renumbered.get(key) or renumbered.setdefault(
                        key, tuple(base + d for d in sub.deps))
                else:
                    sub_deps = deps
                new_id = base + sub.id
                if type(a) is SendAttrs:
                    out.append(_send_node(new_id, name, sub_deps, a.dst_rank, a.comm_size,
                                          lifted.setdefault(t := lift + a.tag, t), a.chunks))
                elif type(a) is RecvAttrs:
                    out.append(_recv_node(new_id, name, sub_deps, a.src_rank, a.comm_size,
                                          lifted.setdefault(t := lift + a.tag, t), a.chunks))
                else:
                    out.append(_node(new_id, name, sub.kind, sub_deps, a))
        out_ranks.append(out)
    return out_ranks


def expand(workload: WorkloadTrace, bindings: dict[CollKind, Binding]) -> CollectiveTrace:
    """Replace every COMM_COLL node with its bound algorithm subgraph and
    return the unified trace (claimed_collective is None). Raises
    BindingError for a missing, mistyped or mismatched binding or one with
    tags at or above TAG_STRIDE, InvariantError for an unmatched one, and
    SpecError unless `workload` is a `WorkloadTrace`."""
    if not isinstance(workload, WorkloadTrace):
        raise SpecError(f"expected a WorkloadTrace, got {type(workload).__name__}")
    n = workload.num_ranks
    keys = dict.fromkeys((node.attrs.coll_kind, node.attrs.comm_size)
                         for node in coll_sequence(workload, 0))
    resolved = {key: _resolve(*key, bindings.get(key[0]), n) for key in keys}
    out_ranks = _splice(workload, resolved)
    del resolved  # _splice's locals are gone too: no resolved trace is checked below
    return CollectiveTrace(n, None, out_ranks)
