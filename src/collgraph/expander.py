"""Splice collective algorithm subgraphs into workload graphs.

Each COMM_COLL placeholder is replaced, rank by rank, with that rank's
subgraph from the bound collective trace: edges into the placeholder
re-target every root of the subgraph, edges out re-source from every sink.
Node ids are renumbered and tags are lifted into a per-instance namespace so
repeated collectives can never cross-match.
"""

from __future__ import annotations

from typing import Union

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

Binding = Union[CollectiveTrace, Algorithm, AlgoSpec]


def _resolve_binding(kind: CollKind, binding: Binding, num_ranks: int, size: int,
                     cache: dict) -> CollectiveTrace:
    if isinstance(binding, CollectiveTrace):
        claimed = binding.claimed_collective
        if claimed is None:
            raise BindingError(f"binding for {kind.value} does not claim a collective")
        if claimed.kind is not kind:
            raise BindingError(
                f"binding for {kind.value} claims {claimed.kind.value}")
        if binding.num_ranks != num_ranks:
            raise BindingError(
                f"binding for {kind.value} has {binding.num_ranks} ranks, "
                f"workload has {num_ranks}")
        if claimed.comm_size != size:
            raise BindingError(
                f"binding for {kind.value} is sized {claimed.comm_size}, "
                f"the collective node wants {size}")
        return binding
    if isinstance(binding, AlgoSpec):
        if binding.num_ranks != num_ranks:
            raise BindingError(
                f"binding spec for {kind.value} has {binding.num_ranks} ranks, "
                f"workload has {num_ranks}")
        algorithm = binding.algorithm
    else:
        algorithm = binding
    key = (algorithm, size)
    if key not in cache:
        trace = generate(AlgoSpec(algorithm, num_ranks, size))
        if trace.claimed_collective.kind is not kind:
            raise BindingError(
                f"algorithm {algorithm.value} implements "
                f"{trace.claimed_collective.kind.value}, not {kind.value}")
        cache[key] = trace
    return cache[key]


def expand(workload: WorkloadTrace, bindings: dict[CollKind, Binding]) -> CollectiveTrace:
    """Replace every COMM_COLL node with its bound algorithm subgraph and
    return the unified trace (claimed_collective is None).

    Raises BindingError for missing or mismatched bindings, and for a
    binding that uses tags at or above the per-instance stride (2^20).
    """
    cache: dict = {}
    out_ranks: list[list[TraceNode]] = []
    for rank in range(workload.num_ranks):
        ordinal_of = {node.id: i for i, node in enumerate(coll_sequence(workload, rank))}
        nodes = {n.id: n for n in workload.per_rank_nodes[rank]}
        order = sorted(nodes)

        # Pass 1: resolve bindings, reserve id blocks, and record what each
        # node's dependents depend on: its new id or its subgraph's sinks.
        resolved: dict[int, tuple] = {}  # coll id -> (subnodes, id_base)
        exits: dict[int, list[int]] = {}
        cursor = 0
        for nid in order:
            node = nodes[nid]
            if node.kind is not NodeKind.COMM_COLL:
                exits[nid] = [cursor]
                cursor += 1
                continue
            binding = bindings.get(node.attrs.coll_kind)
            if binding is None:
                raise BindingError(f"no binding for {node.attrs.coll_kind.value}")
            sub = _resolve_binding(node.attrs.coll_kind, binding, workload.num_ranks,
                                   node.attrs.comm_size, cache)
            subnodes = sorted(sub.per_rank_nodes[rank], key=lambda n: n.id) or [_ANCHOR]
            depended = {d for n in subnodes for d in n.deps}
            exits[nid] = [cursor + i for i, n in enumerate(subnodes) if n.id not in depended]
            resolved[nid] = (subnodes, cursor)
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
            subnodes, base = resolved[nid]
            sub_ids = {n.id: base + i for i, n in enumerate(subnodes)}
            for sub in subnodes:
                attrs = sub.attrs
                if type(attrs) is SendAttrs or type(attrs) is RecvAttrs:
                    if attrs.tag >= TAG_STRIDE:
                        raise BindingError(
                            f"binding tag {attrs.tag} exceeds the per-instance "
                            f"namespace of {TAG_STRIDE}")
                    tag = ordinal * TAG_STRIDE + attrs.tag
                    attrs = (_send(attrs.dst_rank, attrs.comm_size, tag, attrs.chunks)
                             if type(attrs) is SendAttrs else
                             _recv(attrs.src_rank, attrs.comm_size, tag, attrs.chunks))
                # roots take the placeholder's deps; ids keep their order
                sub_deps = tuple(sub_ids[d] for d in sub.deps) if sub.deps else deps
                out.append(_node(sub_ids[sub.id], f"coll{ordinal}_{sub.name}",
                                 sub.kind, sub_deps, attrs))
        out_ranks.append(out)

    unified = CollectiveTrace(workload.num_ranks, None, out_ranks)
    require_matched(unified)
    return unified
