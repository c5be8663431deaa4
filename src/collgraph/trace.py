"""Common graph representation for collective algorithms and workloads.

A trace holds one dependency graph per rank. Vertices are send / recv /
compute operations (collective placeholders in workload traces); edges are
intra-rank dependencies only. Cross-rank ordering is expressed exclusively
through send/recv tag matching, so each rank's graph stays independently
analyzable.

A trace is checked once, when it is built: `CollectiveTrace` and
`WorkloadTrace` run `check_trace(matching=False)` on construction and are
frozen. That check, and only it, pairs each send with its recv: it keeps
the pairing as the `messages` table, where a message is its number, and
the first unmatched send/recv pair as `mismatch`. `loads_trace` keeps such
a trace for the semantic validator; `dumps_trace`, `simulate` and `expand`
(for its bindings) refuse it through `require_matched`.

Construction contract. The public constructors take `deps` and chunk lists
as iterables of exact ints (a bool, float or str is an InvariantError) and
store them as tuples, `deps` sorted. The private constructors
`_node`, `_send`, `_recv` and `_comp`, used by `loads_trace`, the
generators, `convert_to_trace` and `expand`, store what they are given and
only reject negative chunks: callers pass `deps` as a sorted tuple of ints
and chunk lists as tuples of ints or None. The trace checks the rest.

`Readiness` is the one dependency-readiness engine: it numbers a rank's
nodes by position (ascending id), counts each node's unfinished deps and
releases dependents as nodes finish. `ordered` walks a rank with it in heap
order; the validator and the simulator drive it from their own cross-rank
event loops.

A saved trace is UTF-8 text, byte for byte what `json.dumps(doc, indent=2,
ensure_ascii=False)` plus a newline gives for its canonical dict: fixed key
order, nodes by ascending id. `dumps_trace` writes that text directly (the
pure-Python indent encoder is several times slower); a test pins it to the
`json.dumps` oracle. Built traces hold only exact ints and UTF-8 text, so
every trace that can be saved loads back.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import NoReturn, Optional, Union

from .errors import CycleError, InvariantError, ParseError, SchemaError

FORMAT_VERSION = "1"

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


def _check_chunks(chunks):
    if chunks and min(chunks) < 0:
        raise InvariantError(f"chunk indices must be non-negative, got {min(chunks)}")
    return chunks


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
    return None if value is None else _check_chunks(_int_tuple(value, "chunks"))


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


# Private constructors (see the module docstring). Each writes its values
# through the slot descriptors, which a frozen class leaves open, instead of
# running the normalizing `__init__`.
_new = object.__new__


def _slot_setters(cls):
    return [cls.__dict__[name].__set__ for name in cls.__slots__]


def _node(nid, name, kind, deps, attrs, _set=_slot_setters(TraceNode)) -> TraceNode:
    node = _new(TraceNode)
    _set[0](node, nid)
    _set[1](node, name)
    _set[2](node, kind)
    _set[3](node, deps)
    _set[4](node, attrs)
    return node


def _message(cls, setters, peer, comm_size, tag, chunks):
    attrs = _new(cls)
    setters[0](attrs, peer)
    setters[1](attrs, comm_size)
    setters[2](attrs, tag)
    setters[3](attrs, _check_chunks(chunks))
    return attrs


_send = partial(_message, SendAttrs, _slot_setters(SendAttrs))
_recv = partial(_message, RecvAttrs, _slot_setters(RecvAttrs))


def _comp(op, comp_size, chunks, src_chunks, _set=_slot_setters(CompAttrs)) -> CompAttrs:
    attrs = _new(CompAttrs)
    _set[0](attrs, op)
    _set[1](attrs, comp_size)
    _set[2](attrs, _check_chunks(chunks))
    _set[3](attrs, _check_chunks(src_chunks))
    return attrs


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
        object.__setattr__(self, "per_rank_nodes", tuple(map(tuple, self.per_rank_nodes)))
        check_trace(self, matching=False)


@dataclass(frozen=True)
class WorkloadTrace:
    """Per-rank graphs of COMP and COMM_COLL placeholder nodes (SPMD)."""

    num_ranks: int
    per_rank_nodes: tuple[tuple[TraceNode, ...], ...]
    messages: tuple = field(default=(), init=False, repr=False, compare=False)
    mismatch: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "per_rank_nodes", tuple(map(tuple, self.per_rank_nodes)))
        check_trace(self, matching=False)


Trace = Union[CollectiveTrace, WorkloadTrace]


# ---------------------------------------------------------------------------
# Graph utilities
# ---------------------------------------------------------------------------

class Readiness:
    """Dependency readiness of one rank's graph, indexed by position.

    A node's position is its index in ascending-id order: `ids[pos]` is its
    id, `nodes[pos]` the node, `pos[nid]` the position of an id. `pending`
    holds each node's count of unfinished deps and `dependents` the
    positions that depend on it, both indexed by position. Since positions
    follow ids, a heap of positions pops in the same order as a heap of ids.
    Every walk over a rank in dependency order (toposort, canonical form,
    symbolic execution, simulation) drives one of these."""

    def __init__(self, nodes):
        self.nodes = by_pos = sorted(nodes, key=attrgetter("id"))
        self.ids = ids = [node.id for node in by_pos]
        self.pos = pos = {nid: p for p, nid in enumerate(ids)}
        self.pending = [len(node.deps) for node in by_pos]
        self.dependents = dependents = [[] for _ in ids]
        for p, node in enumerate(by_pos):
            for dep in node.deps:
                dependents[pos[dep]].append(p)

    def roots(self) -> list[int]:
        """Positions with no deps, ascending."""
        return [p for p, count in enumerate(self.pending) if not count]

    def finish(self, p: int) -> list[int]:
        """Mark position `p` finished; return the positions it made ready."""
        pending = self.pending
        released = []
        for succ in self.dependents[p]:
            left = pending[succ] - 1
            pending[succ] = left
            if not left:
                released.append(succ)
        return released


def ordered(trace: Trace, rank: int, key=None):
    """Walk one rank in dependency order, always taking the smallest ready
    entry: yields ids, or `(key(node), id)` pairs when `key` is given. The
    key is evaluated when a node becomes ready, i.e. after every dep was
    yielded. After the last yield, raises CycleError carrying the ids of one
    dependency cycle if nodes were left over."""
    ready = Readiness(trace.per_rank_nodes[rank])
    ids, nodes, finish = ready.ids, ready.nodes, ready.finish
    push, pop = heapq.heappush, heapq.heappop
    heap = ready.roots()  # ascending, hence already a heap
    if key is not None:
        heap = [(key(nodes[p]), p) for p in heap]
        heapq.heapify(heap)
    while heap:
        entry = pop(heap)
        p = entry if key is None else entry[1]
        yield ids[p] if key is None else (entry[0], ids[p])
        for succ in finish(p):
            push(heap, succ if key is None else (key(nodes[succ]), succ))
    if any(ready.pending):
        raise CycleError(f"dependency cycle on rank {rank}", _find_cycle(ready))


def toposort_rank(trace: Trace, rank: int) -> list[int]:
    """Topological order of one rank's nodes, ties broken by ascending id.

    Raises CycleError carrying the ids of one dependency cycle.
    """
    return list(ordered(trace, rank))


def _find_cycle(ready: Readiness) -> list[int]:
    # Walk unfinished deps until a node repeats; the repeated tail is a cycle.
    pending, pos = ready.pending, ready.pos
    p = next(p for p, count in enumerate(pending) if count)
    path, seen = [], {}
    while p not in seen:
        seen[p] = len(path)
        path.append(p)
        p = next(pos[d] for d in ready.nodes[p].deps if pending[pos[d]])
    return [ready.ids[q] for q in path[seen[p]:]]


def coll_sequence(workload: WorkloadTrace, rank: int) -> list[TraceNode]:
    """COMM_COLL nodes of one rank in topological (tie: id) order."""
    nodes = {n.id: n for n in workload.per_rank_nodes[rank]}
    return [nodes[nid] for nid in toposort_rank(workload, rank)
            if nodes[nid].kind is NodeKind.COMM_COLL]


# ---------------------------------------------------------------------------
# Invariant checking
# ---------------------------------------------------------------------------

def check_trace(trace: Trace, *, matching: bool = True) -> None:
    """Verify every structural invariant; raise InvariantError on the first
    violation (with rank and node id). Every trace runs this when it is built.

    `matching=False` skips send/recv completeness (tag uniqueness is still
    enforced); built traces skip it so the semantic validator can execute
    deliberately broken ones. Either way the pairing is stored in
    `trace.messages` and the first unmatched or size-mismatched pair in
    `trace.mismatch` for `require_matched`.
    """
    if type(trace.num_ranks) is not int or trace.num_ranks < 1:
        raise InvariantError(f"num_ranks must be a positive int, got {trace.num_ranks!r}")
    if len(trace.per_rank_nodes) != trace.num_ranks:
        raise InvariantError(
            f"expected {trace.num_ranks} rank node lists, got {len(trace.per_rank_nodes)}"
        )
    is_workload = isinstance(trace, WorkloadTrace)
    claimed = None if is_workload else trace.claimed_collective
    if claimed is not None and not (
            isinstance(claimed, CollDescriptor) and type(claimed.kind) is CollKind
            and type(claimed.comm_size) is int and 0 < claimed.comm_size <= MAX_SIZE):
        raise InvariantError(
            f"claimed_collective must be a CollKind and a size in 1..{MAX_SIZE}, "
            f"got {claimed!r}")
    for rank, nodes in enumerate(trace.per_rank_nodes):
        ids = set()
        for node in nodes:
            _check_node(trace, rank, node, is_workload)
            if node.id in ids:
                raise InvariantError("duplicate node id", rank, node.id)
            ids.add(node.id)
        for node in nodes:
            for dep in node.deps:
                if dep not in ids:
                    raise InvariantError(f"dep {dep} does not exist on this rank", rank, node.id)
                if dep == node.id:
                    raise InvariantError("node depends on itself", rank, node.id)
        ready = Readiness(nodes)  # drained in any order: only what is left matters
        stack = ready.roots()
        while stack:
            stack += ready.finish(stack.pop())
        if any(ready.pending):
            exc = CycleError(f"dependency cycle on rank {rank}", _find_cycle(ready))
            raise InvariantError(f"dependency cycle {exc.cycle}", rank, exc.cycle[0]) from exc
    messages, mismatch = (), None
    if is_workload:
        _check_spmd(trace)
    else:
        messages, mismatch = _pair_messages(trace)
    object.__setattr__(trace, "messages", messages)
    object.__setattr__(trace, "mismatch", mismatch)
    if matching:
        require_matched(trace)


def require_matched(trace: Trace) -> None:
    """Raise the InvariantError for the first unmatched or size-mismatched
    send/recv pair that `check_trace` recorded, if there is one."""
    if trace.mismatch is not None:
        raise InvariantError(*trace.mismatch)


_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_text(value) -> bool:
    """A str that UTF-8 can encode, i.e. one without lone surrogates."""
    return type(value) is str and (value.isascii() or not _SURROGATE.search(value))


def _check_node(trace: Trace, rank: int, node: TraceNode, is_workload: bool) -> None:
    # Exact ints and UTF-8 text: what the writer writes, the loader reads back.
    if type(node) is not TraceNode:
        raise InvariantError(f"rank lists must hold TraceNodes, got {type(node).__name__}",
                             rank)
    if type(node.id) is not int or node.id < 0:
        raise InvariantError(f"node id must be a non-negative int, got {node.id!r}", rank)
    if not _is_text(node.name):
        raise InvariantError(f"name must be UTF-8 text, got {node.name!r}", rank, node.id)
    expected_kind = _KIND_FOR_ATTRS.get(type(node.attrs))
    if expected_kind is None or node.kind is not expected_kind:
        kind = node.kind.value if type(node.kind) is NodeKind else repr(node.kind)
        raise InvariantError(
            f"kind {kind} inconsistent with attrs {type(node.attrs).__name__}",
            rank, node.id,
        )
    a = node.attrs
    if isinstance(a, (SendAttrs, RecvAttrs)):
        if is_workload:
            raise InvariantError("workload traces may contain only COMP and COMM_COLL nodes",
                                 rank, node.id)
        peer = a.dst_rank if isinstance(a, SendAttrs) else a.src_rank
        role = "dst_rank" if isinstance(a, SendAttrs) else "src_rank"
        if not (type(peer) is type(a.comm_size) is type(a.tag) is int):
            raise InvariantError(f"{role}, comm_size and tag must be ints, got "
                                 f"{peer!r}, {a.comm_size!r}, {a.tag!r}", rank, node.id)
        if not 0 <= peer < trace.num_ranks:
            raise InvariantError(f"{role} {peer} out of range", rank, node.id)
        if peer == rank:
            raise InvariantError(f"{role} must differ from the owning rank", rank, node.id)
        if not 0 < a.comm_size <= MAX_SIZE:
            raise InvariantError(f"comm_size must be in 1..{MAX_SIZE}, got {a.comm_size}",
                                 rank, node.id)
        if a.tag < 0:
            raise InvariantError(f"tag must be non-negative, got {a.tag}", rank, node.id)
    elif isinstance(a, CompAttrs):
        if not _is_text(a.op):
            raise InvariantError(f"op must be UTF-8 text, got {a.op!r}", rank, node.id)
        if type(a.comp_size) is not int or not 0 <= a.comp_size <= MAX_SIZE:
            raise InvariantError(f"comp_size must be an int in 0..{MAX_SIZE}, "
                                 f"got {a.comp_size!r}", rank, node.id)
    elif isinstance(a, CollAttrs):
        if not is_workload:
            raise InvariantError("COMM_COLL may appear only in workload traces", rank, node.id)
        if type(a.coll_kind) is not CollKind:
            raise InvariantError(f"coll_kind must be a CollKind, got {a.coll_kind!r}",
                                 rank, node.id)
        if type(a.comm_size) is not int or not 0 < a.comm_size <= MAX_SIZE:
            raise InvariantError(f"comm_size must be an int in 1..{MAX_SIZE}, "
                                 f"got {a.comm_size!r}", rank, node.id)


def _pair_messages(trace: CollectiveTrace):
    """Pair each SEND with the RECV of the same (src, dst, tag).

    Returns the `messages` table, one entry per (src, dst, tag) of a send or
    a recv in ascending order: (src, dst, send id, recv id, send comm_size),
    None for a missing side; and the `mismatch`, the first unmatched or
    size-mismatched pair as InvariantError arguments (message, rank, node
    id), or None. Raises InvariantError on duplicate tags.
    """
    sends: dict[tuple[int, int, int], tuple[int, int]] = {}
    recvs: dict[tuple[int, int, int], tuple[int, int]] = {}
    for rank, nodes in enumerate(trace.per_rank_nodes):
        for node in nodes:
            if node.kind is NodeKind.COMM_SEND:
                key = (rank, node.attrs.dst_rank, node.attrs.tag)
                if key in sends:
                    raise InvariantError(
                        f"duplicate tag {node.attrs.tag} for sends {rank}->{key[1]}",
                        rank, node.id)
                sends[key] = (node.id, node.attrs.comm_size)
            elif node.kind is NodeKind.COMM_RECV:
                key = (node.attrs.src_rank, rank, node.attrs.tag)
                if key in recvs:
                    raise InvariantError(
                        f"duplicate tag {node.attrs.tag} for recvs {key[0]}->{rank}",
                        rank, node.id)
                recvs[key] = (node.id, node.attrs.comm_size)
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


_ATTR_SEP = ",\n" + " " * 10


def _node_text(node: TraceNode) -> str:
    """One node as indent-2 JSON, at column 6 inside its rank's array."""
    a = node.attrs
    if type(a) is SendAttrs:
        body = (f'"dst_rank": {a.dst_rank}{_ATTR_SEP}"comm_size": {a.comm_size}'
                f'{_ATTR_SEP}"tag": {a.tag}')
    elif type(a) is RecvAttrs:
        body = (f'"src_rank": {a.src_rank}{_ATTR_SEP}"comm_size": {a.comm_size}'
                f'{_ATTR_SEP}"tag": {a.tag}')
    elif type(a) is CompAttrs:
        body = f'"op": {encode_basestring(a.op)}{_ATTR_SEP}"comp_size": {a.comp_size}'
    else:
        body = f'"coll_kind": "{a.coll_kind.value}"{_ATTR_SEP}"comm_size": {a.comm_size}'
    for key in ("chunks", "src_chunks"):
        chunks = getattr(a, key, None)
        if chunks is not None:
            body += f'{_ATTR_SEP}"{key}": {json_array(map(str, chunks), 10)}'
    return (f'{{\n        "id": {node.id},\n        "name": {encode_basestring(node.name)},\n'
            f'        "kind": "{node.kind.value}",\n'
            f'        "deps": {json_array(map(str, node.deps), 8)},\n'
            f'        "attrs": {{\n          {body}\n        }}\n      }}')


def dumps_trace(trace: Trace) -> str:
    """The canonical text of a trace (see `save_trace`)."""
    require_matched(trace)
    if isinstance(trace, WorkloadTrace):
        trace_class, claimed = "workload", None
    else:
        trace_class, claimed = "collective", trace.claimed_collective
    claimed_text = "null" if claimed is None else (
        f'{{\n    "kind": "{claimed.kind.value}",\n    "comm_size": {claimed.comm_size}\n  }}')
    ranks = json_array(
        [json_array([_node_text(n) for n in sorted(nodes, key=lambda n: n.id)], 4)
         for nodes in trace.per_rank_nodes], 2)
    return (f'{{\n  "format_version": "{FORMAT_VERSION}",\n'
            f'  "trace_class": "{trace_class}",\n'
            f'  "num_ranks": {trace.num_ranks},\n  "claimed_collective": {claimed_text},\n'
            f'  "ranks": {ranks}\n}}\n')


def save_trace(trace: Trace, path) -> None:
    """Write the canonical form; identical traces produce identical bytes.
    Refuses (before writing anything) if a send or recv is unmatched.

    The bytes are `json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"` in
    UTF-8, where `doc` has the keys format_version, trace_class, num_ranks,
    claimed_collective {kind, comm_size}, ranks; each node id, name, kind,
    deps, attrs; attrs as `dumps_trace` orders them, `chunks`/`src_chunks`
    only when set. `tests/helpers.py::trace_json_oracle` pins this."""
    text = dumps_trace(trace)
    Path(path).write_bytes(text.encode("utf-8"))


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


def _wrong(obj: dict, key: str, where: str) -> SchemaError:
    """The error for `obj[key]` being missing or of the wrong type."""
    if key not in obj:
        return SchemaError(f"missing key '{key}' in {where}")
    return SchemaError(f"key '{key}' in {where} has wrong type {type(obj[key]).__name__}")


def _expect(obj: dict, key: str, typ: type, where: str):
    value = obj.get(key)
    if type(value) is not typ:
        raise _wrong(obj, key, where)
    return value


def _json_chunks(value):
    """A parsed chunk list as a tuple, None for None, and False unless it is
    a list of non-negative ints."""
    if value is None:
        return None
    if type(value) is list and _INT.issuperset(map(type, value)) and not (
            value and min(value) < 0):
        return tuple(value)
    return False


def _attrs_from_json(kind, a: dict):
    """The attrs of a node of JSON kind `kind`, or None unless `a` holds
    exactly the keys and value types the schema allows for it. A key whose
    value is null is absent to `get`, so the length check refuses it."""
    if kind == "COMM_SEND" or kind == "COMM_RECV":
        peer = a.get("dst_rank" if kind == "COMM_SEND" else "src_rank")
        size, tag, chunks = a.get("comm_size"), a.get("tag"), a.get("chunks")
        if (type(peer) is type(size) is type(tag) is int
                and len(a) == 3 + (chunks is not None)
                and (chunks := _json_chunks(chunks)) is not False):
            return (_send if kind == "COMM_SEND" else _recv)(peer, size, tag, chunks)
    elif kind == "COMP":
        op, size = a.get("op"), a.get("comp_size")
        chunks, src_chunks = a.get("chunks"), a.get("src_chunks")
        if (type(op) is str and type(size) is int
                and len(a) == 2 + (chunks is not None) + (src_chunks is not None)
                and (chunks := _json_chunks(chunks)) is not False
                and (src_chunks := _json_chunks(src_chunks)) is not False):
            return _comp(op, size, chunks, src_chunks)
    elif kind == "COMM_COLL":
        coll_kind, size = a.get("coll_kind"), a.get("comm_size")
        if (len(a) == 2 and type(size) is int and type(coll_kind) is str
                and coll_kind in _COLL_KINDS):
            return CollAttrs(_COLL_KINDS[coll_kind], size)
    return None


def _node_from_json(obj, rank: int, index: int) -> TraceNode:
    """One node, built straight from the parsed JSON with exact-type checks.
    A node this refuses goes to `_node_fault`, which raises its SchemaError;
    no valid node does."""
    if type(obj) is dict and obj.keys() == _NODE_KEYS:
        nid, name, deps, a = obj["id"], obj["name"], obj["deps"], obj["attrs"]
        if (type(nid) is int and type(name) is str and type(deps) is list
                and type(a) is dict and _INT.issuperset(map(type, deps))):
            attrs = _attrs_from_json(obj["kind"], a)
            if attrs is not None:
                return _node(nid, name, _KINDS[obj["kind"]], tuple(sorted(deps)), attrs)
    _node_fault(obj, f"rank {rank}, node index {index}")


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
            if key in a and _json_chunks(a[key]) in (None, False):
                raise SchemaError(f"'{key}' in {where} must be a list of non-negative ints")
        elif typ is CollKind:
            if _expect(a, key, str, where) not in _COLL_KINDS:
                raise SchemaError(f"unknown coll_kind '{a[key]}' in {where}")
        else:
            _expect(a, key, typ, where)
    raise SchemaError(f"node in {where} is not a valid node")


def loads_trace(text: str) -> Trace:
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
        per_rank.append([_node_from_json(obj, rank, i) for i, obj in enumerate(nodes_obj)])
    doc = ranks_obj = nodes_obj = None  # free the parsed JSON before the check
    if trace_class == "workload":
        if claimed is not None:
            raise SchemaError("workload traces must have claimed_collective: null")
        return WorkloadTrace(num_ranks, per_rank)
    return CollectiveTrace(num_ranks, claimed, per_rank)


def load_trace(path) -> Trace:
    """Load and schema-check a trace file; building the trace checks its
    invariants (see the module docstring)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return loads_trace(text)
