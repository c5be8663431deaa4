"""Common graph representation for collective algorithms and workloads.

A trace holds one dependency graph per rank. Vertices are send / recv /
compute operations (collective placeholders in workload traces); edges are
intra-rank dependencies only. Cross-rank ordering is expressed exclusively
through send/recv tag matching, so each rank's graph stays independently
analyzable. A built `CollectiveTrace` holds no COMM_COLL node (`check_trace`
refuses one), so `require_expanded` scans only a `WorkloadTrace`.

A trace is checked once, when it is built: `CollectiveTrace` and
`WorkloadTrace` run `check_trace` on construction and are frozen. That
check, and only it, pairs each send with its recv: it keeps
the pairing as the `messages` table, where a message is its number, and
the first unmatched send/recv pair as `mismatch`. `loads_trace` keeps such
a trace for the semantic validator; `save_trace`, `dumps_trace`, `simulate`
and `expand` (for its bindings) refuse it through `require_matched`.

Construction contract. The public constructors take `deps` and chunk lists
as iterables of exact ints (a bool, float or str is an InvariantError),
store them as tuples, `deps` sorted, and reject a negative chunk. The
private constructors store what they are given and check nothing: `_node`
takes its attrs whole, and `_send_node`, `_recv_node` and `_comp_node`
build the attrs in the same call. None runs `__init__`: each fills an open
twin that has the frozen class's slots, then assigns its `__class__`. Callers
pass `deps` as a sorted tuple of ints and chunk lists as tuples of
non-negative ints or None, checked where each tuple is made (the
generators build them from `range`, the loader checks each parsed list,
the MSCCL parser rejects a negative offset and `expand` copies them from
checked traces). The trace checks the rest. Producers may share these
immutable tuples, and names, between nodes and ranks. A built trace lists
each rank by ascending id, as producers emit it (`check_trace` sorts other
orders once they pass every check): a list index is a position everywhere.

`check_trace` counts deps on list indices, since it meets the ids before
they are known to be valid. Every walk reads `Readiness`, the one
read-only index of a rank's dependencies: each node's dep count and its
dependents. A walk counts down its own copy of the counts and releases
dependents inline, so one index serves any number of walks. `ordered`
walks a rank in heap order; the validator and the simulator walk all ranks
from their own cross-rank event loops.

A saved trace is UTF-8 text, byte for byte what `json.dumps(doc, indent=2,
ensure_ascii=False)` plus a newline gives for its canonical dict: fixed key
order, nodes by ascending id. `save_trace` formats it directly (the
pure-Python indent encoder is several times slower) and writes it rank by
rank; `dumps_trace` joins the same pieces, and a test pins them to the
`json.dumps` oracle. Each deps and chunk tuple is formatted once while
consecutive ranks use it, so a write holds two ranks' texts at most.
`loads_trace` builds each node while the JSON is parsed, so the parsed tree
never exists whole; within one load, equal names, ops, ints, deps and chunk
tuples are one object. It drops the text before the trace is checked. Built
traces hold only exact ints and UTF-8 text, so every saved trace loads back.
"""

from __future__ import annotations

import gc
import heapq
import json
import logging
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from time import perf_counter
from typing import NoReturn, Optional, Union

from .errors import (CycleError, InvariantError, ParseError, SchemaError, SpecError,
                     UnexpandedCollectiveError)

FORMAT_VERSION = "1"

log = logging.getLogger("collgraph")

# Defined COMP operations. The op vocabulary is open (any string is stored);
# only these three carry defined validator/cost semantics.
OP_REDUCE = "REDUCE"
OP_COPY = "COPY"
OP_NOP = "NOP"


class NodeKind(Enum):
    COMM_SEND = "COMM_SEND"
    COMM_RECV = "COMM_RECV"
    COMP = "COMP"
    COMM_COLL = "COMM_COLL"


class CollKind(Enum):
    ALL_REDUCE = "ALL_REDUCE"
    ALL_GATHER = "ALL_GATHER"
    REDUCE_SCATTER = "REDUCE_SCATTER"
    BROADCAST = "BROADCAST"


# Largest byte size: Chakra stores comm_size as an int64.
MAX_SIZE = 2**63 - 1


_INT = {int}


def _int_tuple(value, what: str) -> tuple:
    """`value` as a tuple of exact ints, or InvariantError."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or not _INT.issuperset(map(type, items)):
        raise InvariantError(f"{what} must be a list of ints, got {value!r}")
    return items


def _freeze_chunks(value):
    if value is None:
        return None
    chunks = _int_tuple(value, "chunks")
    if chunks and min(chunks) < 0:
        raise InvariantError(f"chunk indices must be non-negative, got {min(chunks)}")
    return chunks


@dataclass(frozen=True, slots=True)
class SendAttrs:
    """Point-to-point message emission. `chunks` is optional validation
    metadata naming the chunk indices read by this send."""

    dst_rank: int
    comm_size: int
    tag: int
    chunks: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "chunks", _freeze_chunks(self.chunks))


@dataclass(frozen=True, slots=True)
class RecvAttrs:
    """Wait for a matching message. `chunks` names the chunk indices the
    payload is delivered into."""

    src_rank: int
    comm_size: int
    tag: int
    chunks: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "chunks", _freeze_chunks(self.chunks))


@dataclass(frozen=True, slots=True)
class CompAttrs:
    """Local compute. `chunks` is the written chunk range, `src_chunks` an
    optional local read range (for buffer-to-buffer reduce/copy)."""

    op: str
    comp_size: int
    chunks: Optional[tuple[int, ...]] = None
    src_chunks: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "chunks", _freeze_chunks(self.chunks))
        object.__setattr__(self, "src_chunks", _freeze_chunks(self.src_chunks))


@dataclass(frozen=True, slots=True)
class CollAttrs:
    """Workload-side placeholder for a collective of a given kind/size."""

    coll_kind: CollKind
    comm_size: int


Attrs = Union[SendAttrs, RecvAttrs, CompAttrs, CollAttrs]

_KIND_FOR_ATTRS = {
    SendAttrs: NodeKind.COMM_SEND,
    RecvAttrs: NodeKind.COMM_RECV,
    CompAttrs: NodeKind.COMP,
    CollAttrs: NodeKind.COMM_COLL,
}


@dataclass(frozen=True, slots=True)
class TraceNode:
    """One operation on one rank. `deps` lists same-rank node ids that must
    finish first; it is normalized to a sorted tuple."""

    id: int
    name: str
    kind: NodeKind
    deps: tuple[int, ...]
    attrs: Attrs

    def __post_init__(self):
        object.__setattr__(self, "deps", tuple(sorted(_int_tuple(self.deps, "deps"))))


# Private constructors (see the module docstring). An attribute store on an
# open twin costs less than a call of the frozen class's slot descriptor;
# the twin never leaves its builder.
_OpenTraceNode, _OpenSendAttrs, _OpenRecvAttrs, _OpenCompAttrs = (
    type(f"_Open{cls.__name__}", (), {"__slots__": cls.__slots__})
    for cls in (TraceNode, SendAttrs, RecvAttrs, CompAttrs))
# The kinds as module constants: per-node loops compare with these, since a
# read through the Enum class costs several times a global read.
_SEND, _RECV, _COMP, _COLL = (
    NodeKind.COMM_SEND, NodeKind.COMM_RECV, NodeKind.COMP, NodeKind.COMM_COLL)
_NO_KIND = object()  # `check_trace`'s kind for attrs of no node type: no node has it
_PEER_FIELD = {SendAttrs: "dst_rank", RecvAttrs: "src_rank"}
_SURROGATE = re.compile("[\ud800-\udfff]")  # what UTF-8 cannot encode


def _node(nid, name, kind, deps, attrs) -> TraceNode:
    node = _OpenTraceNode()
    node.id = nid
    node.name = name
    node.kind = kind
    node.deps = deps
    node.attrs = attrs
    node.__class__ = TraceNode
    return node


def _send_node(nid, name, deps, dst_rank, comm_size, tag, chunks) -> TraceNode:
    a = _OpenSendAttrs()
    a.dst_rank = dst_rank
    a.comm_size = comm_size
    a.tag = tag
    a.chunks = chunks
    a.__class__ = SendAttrs
    return _node(nid, name, _SEND, deps, a)


def _recv_node(nid, name, deps, src_rank, comm_size, tag, chunks) -> TraceNode:
    a = _OpenRecvAttrs()
    a.src_rank = src_rank
    a.comm_size = comm_size
    a.tag = tag
    a.chunks = chunks
    a.__class__ = RecvAttrs
    return _node(nid, name, _RECV, deps, a)


def _comp_node(nid, name, deps, op, comp_size, chunks, src_chunks) -> TraceNode:
    a = _OpenCompAttrs()
    a.op = op
    a.comp_size = comp_size
    a.chunks = chunks
    a.src_chunks = src_chunks
    a.__class__ = CompAttrs
    return _node(nid, name, _COMP, deps, a)


@dataclass(frozen=True)
class CollDescriptor:
    """What collective a trace claims to implement. For ALL_REDUCE and
    REDUCE_SCATTER `comm_size` is the per-rank buffer size; for ALL_GATHER
    and BROADCAST it is the per-rank input size."""

    kind: CollKind
    comm_size: int


@dataclass(frozen=True)
class CollectiveTrace:
    """Per-rank graphs of SEND/RECV/COMP nodes implementing one collective.

    `claimed_collective` may be None for unified traces produced by the
    expander, which splice several collectives into one graph.
    """

    num_ranks: int
    claimed_collective: Optional[CollDescriptor]
    per_rank_nodes: tuple[tuple[TraceNode, ...], ...]
    # set by check_trace: see _pair_messages
    messages: tuple = field(default=(), init=False, repr=False, compare=False)
    mismatch: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        try:  # store the rank lists as tuples, then check the trace
            ranks = tuple(map(tuple, self.per_rank_nodes))
        except TypeError:  # not an iterable of iterables
            raise InvariantError("per_rank_nodes must be a list of node lists") from None
        object.__setattr__(self, "per_rank_nodes", ranks)
        check_trace(self)


@dataclass(frozen=True)
class WorkloadTrace:
    """Per-rank graphs of COMP and COMM_COLL placeholder nodes (SPMD)."""

    num_ranks: int
    per_rank_nodes: tuple[tuple[TraceNode, ...], ...]
    messages: tuple = field(default=(), init=False, repr=False, compare=False)
    mismatch: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    __post_init__ = CollectiveTrace.__post_init__


Trace = Union[CollectiveTrace, WorkloadTrace]


class collector_paused:
    """A `with` block run with the cyclic garbage collector paused, which it
    then leaves as the caller's thread set it. collgraph builds no reference
    cycles (tests pin that): a collection during a load would walk its nodes
    for nothing."""

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.collecting:
            gc.enable()


# ---------------------------------------------------------------------------
# Graph utilities
# ---------------------------------------------------------------------------

class Readiness:
    """The dependency index of one rank's graph, by list position, read-only.

    `nodes[p]` is the node at position `p`, `pos[nid]` the position of an id
    (`check_trace` passes the map its node pass built; a dep missing from it
    raises KeyError). `pending` holds each node's dep count and `dependents`
    the positions that depend on it, both by position. Every walk over a
    rank in dependency order (toposort, canonical form, symbolic execution,
    simulation) counts down its own `list(pending)`. A built trace lists ids
    ascending, so a heap of positions pops as a heap of ids would."""

    def __init__(self, nodes, pos=None):
        self.nodes = nodes
        self.pos = pos = {node.id: p for p, node in enumerate(nodes)} if pos is None else pos
        self.pending = [len(node.deps) for node in nodes]
        self.dependents = dependents = [[] for _ in nodes]
        for p, node in enumerate(nodes):
            for dep in node.deps:
                dependents[pos[dep]].append(p)

    def roots(self) -> list[int]:
        """Positions with no deps, ascending."""
        return [p for p, count in enumerate(self.pending) if not count]


def ordered(trace: Trace, rank: int, key=attrgetter("id")):
    """Walk one rank in dependency order, always taking the ready node with
    the smallest `(key(node), position)`, on a built trace `(key(node), id)`:
    yields `(key(node), node)` pairs. The key is evaluated when a node
    becomes ready, i.e. after every dep was yielded. After the last yield,
    raises CycleError carrying the ids of one cycle if nodes were left over."""
    ready = Readiness(trace.per_rank_nodes[rank])
    nodes, dependents, pending = ready.nodes, ready.dependents, list(ready.pending)
    push, pop = heapq.heappush, heapq.heappop
    heap = [(key(nodes[p]), p) for p in ready.roots()]
    heapq.heapify(heap)
    while heap:
        value, p = pop(heap)
        yield value, nodes[p]
        for succ in dependents[p]:
            pending[succ] -= 1
            if not pending[succ]:
                push(heap, (key(nodes[succ]), succ))
    if any(pending):
        raise CycleError(f"dependency cycle on rank {rank}",
                         _find_cycle(nodes, ready.pos, pending))


def toposort_rank(trace: Trace, rank: int) -> list[int]:
    """Topological order of one rank's nodes, ties broken by position (ascending id).

    Raises CycleError carrying the ids of one dependency cycle.
    """
    return [node.id for _, node in ordered(trace, rank)]


def _find_cycle(nodes, pos: dict, pending: list[int]) -> list[int]:
    """One cycle among the nodes a walk left unfinished (`pending` > 0), as
    ids: from the smallest unfinished id, follow the smallest unfinished dep
    until a node repeats, so the cycle named does not depend on the list order."""
    p = pos[min(node.id for node, count in zip(nodes, pending) if count)]
    path, seen = [], {}
    while p not in seen:
        seen[p] = len(path)
        path.append(p)
        p = next(pos[d] for d in nodes[p].deps if pending[pos[d]])
    return [nodes[q].id for q in path[seen[p]:]]


def coll_sequence(workload: WorkloadTrace, rank: int) -> list[TraceNode]:
    """COMM_COLL nodes of one rank in topological (tie: id) order."""
    return [node for _, node in ordered(workload, rank) if node.kind is _COLL]


# ---------------------------------------------------------------------------
# Invariant checking
# ---------------------------------------------------------------------------

def check_trace(trace: Trace) -> None:
    """Verify every structural invariant; raise InvariantError on the first
    violation (with rank and node id). Every trace runs this when it is built.

    It raises what checking all nodes, deps and cycles rank by rank, in the
    given order, then all tags, raises first. Per rank, one pass over the
    nodes checks each node, where each node rule is stated once, in the
    order a fault is reported: the entry, its id, name and kind, then its
    attrs' fields. It maps each id to its list index (an id seen before is
    a duplicate) while it fills the send/recv tables; the rank's
    `Readiness` is built on that map and counted down inline, and `_dep_fault`
    raises for a missing dep or nodes left over. Then it sorts unsorted ranks.

    It does not require every send and recv to match (tags must still be
    unique), so the semantic validator can execute deliberately broken
    traces: it stores the pairing in `trace.messages` and the first
    unmatched or size-mismatched pair in `trace.mismatch`, which
    `require_matched` raises.
    """
    num_ranks = trace.num_ranks
    if type(num_ranks) is not int or num_ranks < 1:
        raise InvariantError(f"num_ranks must be a positive int, got {num_ranks!r}")
    if len(trace.per_rank_nodes) != num_ranks:
        raise InvariantError(
            f"expected {num_ranks} rank node lists, got {len(trace.per_rank_nodes)}"
        )
    is_workload = isinstance(trace, WorkloadTrace)
    claimed = None if is_workload else trace.claimed_collective
    if claimed is not None and not (
            isinstance(claimed, CollDescriptor) and type(claimed.kind) is CollKind
            and type(claimed.comm_size) is int and 0 < claimed.comm_size <= MAX_SIZE):
        raise InvariantError(
            f"claimed_collective must be a CollKind and a size in 1..{MAX_SIZE}, "
            f"got {claimed!r}")
    sends, recvs = {}, {}  # (src, dst, tag) -> (node id, comm_size), in node order
    duplicate = None  # the first duplicate tag, raised once every rank passed
    unsorted = set()  # the ranks not listed by ascending id
    for rank, nodes in enumerate(trace.per_rank_nodes):
        index, last = {}, -1  # node id -> list index; the previous node's id
        for i, node in enumerate(nodes):
            if type(node) is not TraceNode:
                raise InvariantError(
                    f"rank lists must hold TraceNodes, got {type(node).__name__}", rank)
            nid, name, a = node.id, node.name, node.attrs
            if type(nid) is not int or nid < 0:
                raise InvariantError(f"node id must be a non-negative int, got {nid!r}", rank)
            if type(name) is not str or not name.isascii() and _SURROGATE.search(name):
                raise InvariantError(f"name must be UTF-8 text, got {name!r}", rank, nid)
            ta = type(a)
            if ta is SendAttrs:  # (assignments of at most three names build no tuple)
                peer, tag, table = a.dst_rank, a.tag, sends
                kind, key = _SEND, (rank, peer, tag)
            elif ta is RecvAttrs:
                peer, tag, table = a.src_rank, a.tag, recvs
                kind, key = _RECV, (peer, rank, tag)
            else:
                kind = _COMP if ta is CompAttrs else _COLL if ta is CollAttrs else _NO_KIND
                table = None
            if node.kind is not kind:
                shown = node.kind.value if type(node.kind) is NodeKind else repr(node.kind)
                raise InvariantError(f"kind {shown} inconsistent with attrs {ta.__name__}",
                                     rank, nid)
            if table is not None:
                size = a.comm_size
                if is_workload:
                    raise InvariantError(
                        "workload traces may contain only COMP and COMM_COLL nodes", rank, nid)
                if not type(peer) is type(size) is type(tag) is int:
                    raise InvariantError(f"{_PEER_FIELD[ta]}, comm_size and tag must be ints, "
                                         f"got {peer!r}, {size!r}, {tag!r}", rank, nid)
                if not 0 <= peer < num_ranks:
                    raise InvariantError(f"{_PEER_FIELD[ta]} {peer} out of range", rank, nid)
                if peer == rank:
                    raise InvariantError(f"{_PEER_FIELD[ta]} must differ from the owning rank",
                                         rank, nid)
                if not 0 < size <= MAX_SIZE:
                    raise InvariantError(f"comm_size must be in 1..{MAX_SIZE}, got {size}",
                                         rank, nid)
                if tag < 0:
                    raise InvariantError(f"tag must be non-negative, got {tag}", rank, nid)
            elif kind is _COMP:
                op, size = a.op, a.comp_size
                if type(op) is not str or not op.isascii() and _SURROGATE.search(op):
                    raise InvariantError(f"op must be UTF-8 text, got {op!r}", rank, nid)
                if type(size) is not int or not 0 <= size <= MAX_SIZE:
                    raise InvariantError(f"comp_size must be an int in 0..{MAX_SIZE}, "
                                         f"got {size!r}", rank, nid)
            else:
                size = a.comm_size
                if not is_workload:
                    raise InvariantError("COMM_COLL may appear only in workload traces",
                                         rank, nid)
                if type(a.coll_kind) is not CollKind:
                    raise InvariantError(f"coll_kind must be a CollKind, got {a.coll_kind!r}",
                                         rank, nid)
                if type(size) is not int or not 0 < size <= MAX_SIZE:
                    raise InvariantError(f"comm_size must be an int in 1..{MAX_SIZE}, "
                                         f"got {size!r}", rank, nid)
            if nid < last:  # a descent
                unsorted.add(rank)
            if index.setdefault(nid, i) != i:
                raise InvariantError("duplicate node id", rank, nid)
            last = nid
            if table is not None:
                entry = (nid, size)  # a duplicate tag keeps the first entry, then raises
                if table.setdefault(key, entry) is not entry and duplicate is None:
                    side = "sends" if table is sends else "recvs"
                    duplicate = f"duplicate tag {tag} for {side} {key[0]}->{key[1]}", rank, nid
        try:
            ready = Readiness(nodes, index)
        except KeyError:  # a missing dep
            pending = None
        else:
            pending, dependents = list(ready.pending), ready.dependents
            released = ready.roots()
            for i in released:  # the list grows as nodes are released
                for succ in dependents[i]:
                    pending[succ] -= 1
                    if not pending[succ]:
                        released.append(succ)
            if len(released) == len(nodes):
                continue
        _dep_fault(rank, nodes, index, pending)
    if duplicate is not None:
        raise InvariantError(*duplicate)
    if unsorted:  # store ranks, and the tables' node order, by ascending id
        object.__setattr__(trace, "per_rank_nodes", tuple(
            tuple(sorted(nodes, key=attrgetter("id"))) if rank in unsorted else nodes
            for rank, nodes in enumerate(trace.per_rank_nodes)))
        sends = dict(sorted(sends.items(), key=lambda item: (item[0][0], item[1][0])))
        recvs = dict(sorted(recvs.items(), key=lambda item: (item[0][1], item[1][0])))
    messages, mismatch = (), None
    if is_workload:
        _check_spmd(trace)
    else:
        messages, mismatch = _pair_messages(sends, recvs)
    object.__setattr__(trace, "messages", messages)
    object.__setattr__(trace, "mismatch", mismatch)


def _dep_fault(rank: int, nodes, index: dict, pending: Optional[list]) -> NoReturn:
    """Raise the first missing or self dep of a rank in node order, else the
    cycle among the nodes that the walk's counts `pending` left."""
    for node in nodes:
        for dep in node.deps:
            if dep not in index:
                raise InvariantError(f"dep {dep} does not exist on this rank", rank, node.id)
            if dep == node.id:
                raise InvariantError("node depends on itself", rank, node.id)
    cycle = _find_cycle(nodes, index, pending)
    raise InvariantError(f"dependency cycle {cycle}", rank, cycle[0]) from CycleError(
        f"dependency cycle on rank {rank}", cycle)


def require_trace(trace) -> None:
    """SpecError unless `trace` is a `CollectiveTrace` or a `WorkloadTrace`."""
    if not isinstance(trace, (CollectiveTrace, WorkloadTrace)):
        raise SpecError(f"expected a CollectiveTrace or a WorkloadTrace, got "
                        f"{type(trace).__name__}")


def require_matched(trace: Trace) -> None:
    """Raise the InvariantError for the first unmatched or size-mismatched
    send/recv pair that `check_trace` recorded, if there is one."""
    if trace.mismatch is not None:
        raise InvariantError(*trace.mismatch)


def require_expanded(trace: Trace, before: str) -> None:
    """Raise UnexpandedCollectiveError for the first COMM_COLL node, by rank
    then list order, if there is one: it must be expanded `before` a step.
    A built `CollectiveTrace` holds none (`check_trace` refuses one), so
    only a `WorkloadTrace` is scanned."""
    if isinstance(trace, CollectiveTrace):
        return
    for rank, nodes in enumerate(trace.per_rank_nodes):
        for node in nodes:
            if node.kind is _COLL:
                raise UnexpandedCollectiveError(
                    f"COMM_COLL node {node.id} on rank {rank} must be expanded before {before}")


def _pair_messages(sends: dict, recvs: dict):
    """Pair each SEND with the RECV of the same (src, dst, tag) in
    `check_trace`'s tables.

    Returns the `messages` table, one entry per (src, dst, tag) of a send or
    a recv in ascending order: (src, dst, send id, recv id, send comm_size),
    None for a missing side; and the `mismatch`, the first unmatched or
    size-mismatched pair as InvariantError arguments (message, rank, node
    id), or None.
    """
    mismatch = _first_mismatch(sends, recvs)
    missing = (None, None)
    messages = []
    # all matched: the sends hold every key, in node order, which sorts fast
    for key in sorted(sends) if mismatch is None else sorted(sends.keys() | recvs.keys()):
        send_id, size = sends.get(key, missing)
        messages.append((key[0], key[1], send_id, recvs.get(key, missing)[0], size))
    return tuple(messages), mismatch


def _first_mismatch(sends, recvs) -> Optional[tuple]:
    """`_pair_messages`' mismatch: the first faulty send, else recv, in node order."""
    for (src, dst, tag), (nid, size) in sends.items():
        match = recvs.get((src, dst, tag))
        if match is None:
            return f"unmatched send {src}->{dst} tag {tag}", src, nid
        if match[1] != size:
            return (f"send {src}->{dst} tag {tag} has size {size} but recv expects "
                    f"{match[1]}", src, nid)
    for (src, dst, tag), (nid, _) in recvs.items():
        if (src, dst, tag) not in sends:
            return f"unmatched recv from {src} tag {tag}", dst, nid
    return None


def _check_spmd(trace: WorkloadTrace) -> None:
    """All ranks must issue the same ordered collective sequence."""
    reference = None
    for rank in range(trace.num_ranks):
        seq = [(n.attrs.coll_kind, n.attrs.comm_size) for n in coll_sequence(trace, rank)]
        if reference is None:
            reference = seq
        elif seq != reference:
            raise InvariantError(
                f"rank {rank} collective sequence {seq} differs from rank 0 {reference}",
                rank)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

class TraceBuilder:
    """Accumulates per-rank nodes, then freezes them into a trace.

    Tags may be left implicit: each direction (src, dst) gets consecutive
    tags starting at 0, assigned in add order independently on the send and
    recv side, so FIFO-paired programs match up without bookkeeping.
    """

    def __init__(self, num_ranks: int):
        self.num_ranks = num_ranks
        self._nodes: list[list[TraceNode]] = [[] for _ in range(num_ranks)]
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}

    def _add(self, rank: int, name: str, attrs: Attrs, deps) -> int:
        nid = len(self._nodes[rank])
        kind = _KIND_FOR_ATTRS[type(attrs)]
        self._nodes[rank].append(TraceNode(nid, name, kind, tuple(deps), attrs))
        return nid

    def _next_tag(self, table, src, dst) -> int:
        tag = table.get((src, dst), 0)
        table[(src, dst)] = tag + 1
        return tag

    def add_send(self, rank, dst, size, deps=(), chunks=None, name="send", tag=None) -> int:
        if tag is None:
            tag = self._next_tag(self._send_seq, rank, dst)
        return self._add(rank, name, SendAttrs(dst, size, tag, chunks), deps)

    def add_recv(self, rank, src, size, deps=(), chunks=None, name="recv", tag=None) -> int:
        if tag is None:
            tag = self._next_tag(self._recv_seq, src, rank)
        return self._add(rank, name, RecvAttrs(src, size, tag, chunks), deps)

    def add_comp(self, rank, op, size, deps=(), chunks=None, src_chunks=None, name="comp") -> int:
        return self._add(rank, name, CompAttrs(op, size, chunks, src_chunks), deps)

    def add_coll(self, rank, kind: CollKind, size, deps=(), name="coll") -> int:
        return self._add(rank, name, CollAttrs(kind, size), deps)

    def build_collective(self, claimed: Optional[CollDescriptor]) -> CollectiveTrace:
        trace = CollectiveTrace(self.num_ranks, claimed, self._nodes)
        require_matched(trace)
        return trace

    def build_workload(self) -> WorkloadTrace:
        return WorkloadTrace(self.num_ranks, self._nodes)


# ---------------------------------------------------------------------------
# Serialization (canonical JSON, schema version 1)
# ---------------------------------------------------------------------------

def json_array(elements, indent: int) -> str:
    """A JSON array of already-encoded `elements` laid out as
    `json.dumps(indent=2)` lays it out at column `indent`: one element per
    line, and `[]` when there are none."""
    inner = "\n" + " " * (indent + 2)
    body = ("," + inner).join(elements)
    return f"[{inner}{body}\n{' ' * indent}]" if body else "[]"


def json_array_pieces(elements, indent: int):
    """The text of `json_array(elements, indent)`, one piece per element."""
    sep, inner = "[", "\n" + " " * (indent + 2)
    for element in elements:
        yield sep + inner + element
        sep = ","
    yield "[]" if sep == "[" else f"\n{' ' * indent}]"


_ATTR_SEP = ",\n" + " " * 10
# keyed by attrs type, which `check_trace` ties one-to-one to the node's kind
_KIND_TEXT = {attrs: f'        "kind": "{kind.value}",\n        "deps": '
              for attrs, kind in _KIND_FOR_ATTRS.items()}
_CHUNKS, _SRC_CHUNKS = (f'{_ATTR_SEP}"{key}": ' for key in ("chunks", "src_chunks"))


def _node_text(node: TraceNode, texts: tuple, last: tuple) -> str:
    """One node as indent-2 JSON, at column 6 inside its rank's array.
    `texts` holds one dict per field (deps, chunks, src_chunks) from each
    value met on this rank to its text, `last` the same for the previous
    rank: a tuple is formatted once while consecutive ranks use it. Names
    and ops are not kept: their C escaper costs less than the lookups."""
    deps_texts, chunk_texts, src_texts = texts
    prev_deps, prev_chunks, prev_src = last
    a, deps = node.attrs, node.deps
    deps = deps_texts.get(deps) or deps_texts.setdefault(
        deps, prev_deps.get(deps) or json_array(map(str, deps), 8))
    ta, src = type(a), None
    if ta is SendAttrs or ta is RecvAttrs:
        peer = f'"dst_rank": {a.dst_rank}' if ta is SendAttrs else f'"src_rank": {a.src_rank}'
        body = f'{peer}{_ATTR_SEP}"comm_size": {a.comm_size}{_ATTR_SEP}"tag": {a.tag}'
        chunks = a.chunks
    elif ta is CompAttrs:
        body = f'"op": {encode_basestring(a.op)}{_ATTR_SEP}"comp_size": {a.comp_size}'
        chunks, src = a.chunks, a.src_chunks
    else:
        body = f'"coll_kind": "{a.coll_kind.value}"{_ATTR_SEP}"comm_size": {a.comm_size}'
        chunks = None
    if chunks is not None:
        body += chunk_texts.get(chunks) or chunk_texts.setdefault(
            chunks, prev_chunks.get(chunks) or _CHUNKS + json_array(map(str, chunks), 10))
    if src is not None:
        body += src_texts.get(src) or src_texts.setdefault(
            src, prev_src.get(src) or _SRC_CHUNKS + json_array(map(str, src), 10))
    return (f'{{\n        "id": {node.id},\n        "name": {encode_basestring(node.name)},\n'
            f'{_KIND_TEXT[ta]}{deps},\n        "attrs": {{\n          {body}'
            '\n        }\n      }')


def _trace_pieces(trace: Trace):
    """The canonical text of a matched trace, one piece per rank."""
    if isinstance(trace, WorkloadTrace):
        trace_class, claimed = "workload", None
    else:
        trace_class, claimed = "collective", trace.claimed_collective
    claimed_text = "null" if claimed is None else (
        f'{{\n    "kind": "{claimed.kind.value}",\n    "comm_size": {claimed.comm_size}\n  }}')
    yield (f'{{\n  "format_version": "{FORMAT_VERSION}",\n'
           f'  "trace_class": "{trace_class}",\n'
           f'  "num_ranks": {trace.num_ranks},\n  "claimed_collective": {claimed_text},\n'
           f'  "ranks": ')

    def rank_texts(last=({},) * 3):  # see _node_text
        for nodes in trace.per_rank_nodes:
            texts = ({}, {}, {})
            yield json_array([_node_text(n, texts, last) for n in nodes], 4)
            last = texts

    yield from json_array_pieces(rank_texts(), 2)
    yield "\n}\n"


def dumps_trace(trace: Trace) -> str:
    """The canonical text of a trace (see `save_trace`). Refuses what is not
    a trace, and an unmatched one."""
    require_trace(trace)
    require_matched(trace)
    return "".join(_trace_pieces(trace))


def save_trace(trace: Trace, path) -> None:
    """Write the canonical form, rank by rank; identical traces produce
    identical bytes. Refuses (before opening the file) what is not a trace,
    and an unmatched one.

    The bytes are `json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"` in
    UTF-8, where `doc` has the keys format_version, trace_class, num_ranks,
    claimed_collective {kind, comm_size}, ranks; each node id, name, kind,
    deps, attrs; attrs as `dumps_trace` orders them, `chunks`/`src_chunks`
    only when set. `tests/helpers.py::trace_json_oracle` pins this."""
    began = perf_counter()
    require_trace(trace)
    require_matched(trace)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(_trace_pieces(trace))
    _log_io("save_trace", trace, path, began)


def _log_io(what: str, trace: Trace, path, began: float) -> None:
    """Log a file's ranks, nodes, bytes and seconds at DEBUG, as `simulate` logs its counts."""
    log.debug("%s: %d ranks, %d nodes, %d bytes, %.6f s", what, trace.num_ranks,
              sum(map(len, trace.per_rank_nodes)), os.path.getsize(path), perf_counter() - began)


_TOP_KEYS = {"format_version", "trace_class", "num_ranks", "claimed_collective", "ranks"}
_NODE_KEYS = {"id", "name", "kind", "deps", "attrs"}
_KINDS = {kind.value: kind for kind in NodeKind}
_COLL_KINDS = {kind.value: kind for kind in CollKind}
# Each kind's attrs in schema order with their JSON types; lists are the
# optional chunk lists, and CollKind stands for its name.
_ATTR_SCHEMA = {
    NodeKind.COMM_SEND: {"dst_rank": int, "comm_size": int, "tag": int, "chunks": list},
    NodeKind.COMM_RECV: {"src_rank": int, "comm_size": int, "tag": int, "chunks": list},
    NodeKind.COMP: {"op": str, "comp_size": int, "chunks": list, "src_chunks": list},
    NodeKind.COMM_COLL: {"coll_kind": CollKind, "comm_size": int},
}


def _expect(obj: dict, key: str, typ: type, where: str):
    """`obj[key]`, or SchemaError if it is missing or not of exact type `typ`."""
    value = obj.get(key)
    if type(value) is typ:
        return value
    if key not in obj:
        raise SchemaError(f"missing key '{key}' in {where}")
    raise SchemaError(f"key '{key}' in {where} has wrong type {type(value).__name__}")


def _nodes_in_ranks(doc) -> int:
    """How many TraceNodes a parsed document holds in its rank lists."""
    ranks = doc.get("ranks") if type(doc) is dict else None
    if type(ranks) is not list:
        return 0
    return sum(list(map(type, nodes)).count(TraceNode) for nodes in ranks
               if type(nodes) is list)


def _node_fault(obj, where: str) -> NoReturn:
    """Raise the SchemaError for the first fault of a refused node, checking
    its fields in schema order."""
    if type(obj) is not dict:
        raise SchemaError(f"node in {where} must be an object")
    if obj.keys() - _NODE_KEYS:
        raise SchemaError(f"unknown node key(s) {sorted(obj.keys() - _NODE_KEYS)} in {where}")
    _expect(obj, "id", int, where)
    _expect(obj, "name", str, where)
    kind = _KINDS.get(_expect(obj, "kind", str, where))
    if kind is None:
        raise SchemaError(f"unknown node kind '{obj['kind']}' in {where}")
    if not _INT.issuperset(map(type, _expect(obj, "deps", list, where))):
        raise SchemaError(f"deps in {where} must be integers")
    a = _expect(obj, "attrs", dict, where)
    schema = _ATTR_SCHEMA[kind]
    missing = {key for key, typ in schema.items() if typ is not list} - a.keys()
    if missing:
        raise SchemaError(f"missing attribute(s) {sorted(missing)} for {kind.value} in {where}")
    if a.keys() - schema.keys():
        raise SchemaError(f"unknown attribute(s) {sorted(a.keys() - schema.keys())} "
                          f"for {kind.value} in {where}")
    for key, typ in schema.items():
        if typ is list:  # a null, or not a list of non-negative ints
            value = a.get(key, [])
            if not (type(value) is list and _INT.issuperset(map(type, value))
                    and min(value, default=0) >= 0):
                raise SchemaError(f"'{key}' in {where} must be a list of non-negative ints")
        elif typ is CollKind:
            if _expect(a, key, str, where) not in _COLL_KINDS:
                raise SchemaError(f"unknown coll_kind '{a[key]}' in {where}")
        else:
            _expect(a, key, typ, where)
    raise SchemaError(f"node in {where} is not a valid node")


def loads_trace(text: str) -> Trace:
    """Parse and schema-check a trace; building it checks its invariants.

    A JSON object hook builds each node as soon as its object is parsed. If
    it built a node outside the rank lists (inside attrs, say), the text is
    parsed again without it, so the checks below see the plain JSON and
    raise the same SchemaError either way. It runs with the collector paused."""
    share, built = {}.setdefault, 0

    def node_of(obj: dict):
        """The node a parsed JSON object describes, or the object itself if
        the schema refuses it. A value goes through `share` only after its
        exact type is checked (`1 == 1.0 == True`). A key whose value is null
        is absent to `get`, so the length checks refuse it."""
        nonlocal built
        if len(obj) != 5:  # attrs have fewer keys
            return obj
        try:
            nid, name, kind, deps, a = (obj["id"], obj["name"], obj["kind"], obj["deps"],
                                        obj["attrs"])
        except KeyError:
            return obj
        if not (type(nid) is int and type(name) is str and type(deps) is list
                and type(a) is dict and _INT.issuperset(map(type, deps))):
            return obj
        deps = tuple(sorted(deps))
        nid, name, deps = share(nid, nid), share(name, name), share(deps, deps)
        chunks, src = a.get("chunks"), a.get("src_chunks")
        if chunks is not None:
            if not (type(chunks) is list and _INT.issuperset(map(type, chunks))
                    and min(chunks, default=0) >= 0):
                return obj
            chunks = tuple(chunks)
            chunks = share(chunks, chunks)
        if src is not None:
            if not (type(src) is list and _INT.issuperset(map(type, src))
                    and min(src, default=0) >= 0):
                return obj
            src = tuple(src)
            src = share(src, src)
        if kind == "COMM_SEND" or kind == "COMM_RECV":
            peer = a.get("dst_rank" if kind == "COMM_SEND" else "src_rank")
            size, tag = a.get("comm_size"), a.get("tag")
            if not (type(peer) is type(size) is type(tag) is int
                    and len(a) == 3 + (chunks is not None)):
                return obj
            build = _send_node if kind == "COMM_SEND" else _recv_node
            node = build(nid, name, deps, peer, share(size, size), share(tag, tag), chunks)
        elif kind == "COMP":
            op, size = a.get("op"), a.get("comp_size")
            if not (type(op) is str and type(size) is int
                    and len(a) == 2 + (chunks is not None) + (src is not None)):
                return obj
            node = _comp_node(nid, name, deps, share(op, op), share(size, size), chunks, src)
        elif kind == "COMM_COLL":
            coll_kind, size = a.get("coll_kind"), a.get("comm_size")
            if not (len(a) == 2 and type(size) is int and type(coll_kind) is str
                    and coll_kind in _COLL_KINDS):
                return obj
            node = _node(nid, name, _COLL, deps,
                         CollAttrs(_COLL_KINDS[coll_kind], share(size, size)))
        else:
            return obj
        built += 1
        return node

    with collector_paused():  # a frame here would count toward JSON's nesting limit
        try:
            try:
                doc = json.loads(text, object_hook=node_of)
            except RecursionError:  # the hook's frames count toward the nesting limit
                doc, built = None, -1
            if built != _nodes_in_ranks(doc):
                doc = json.loads(text)
            text = None  # frees the text if the caller kept none
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg} at line {exc.lineno}, "
                             f"column {exc.colno}") from exc
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
        for rank, nodes in enumerate(ranks_obj):
            if not isinstance(nodes, list):
                raise SchemaError(f"rank {rank} entry must be a list of nodes")
            for i, obj in enumerate(nodes):
                if type(obj) is not TraceNode:  # refused by the hook, or parsed again
                    node = node_of(obj) if type(obj) is dict else obj
                    if type(node) is not TraceNode:  # the fault finder raises what no node raises
                        _node_fault(obj, f"rank {rank}, node index {i}")
                    nodes[i] = node
        if trace_class == "workload":
            if claimed is not None:
                raise SchemaError("workload traces must have claimed_collective: null")
            return WorkloadTrace(num_ranks, ranks_obj)
        return CollectiveTrace(num_ranks, claimed, ranks_obj)


def load_trace(path) -> Trace:
    """Load and schema-check a trace file; building the trace checks its
    invariants (see the module docstring)."""
    began = perf_counter()
    with collector_paused():  # through the log line: no collection starts before the return
        try:  # no local holds the text, so loads_trace can free it
            trace = loads_trace(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:  # only reading decodes bytes
            raise ParseError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        _log_io("load_trace", trace, path, began)
        return trace
