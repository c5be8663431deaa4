"""Semantic checking of collective traces by symbolic chunk tracking.

Every chunk slot holds a set of (origin_rank, chunk_index) contributions.
A send snapshots the slots it reads. A matched recv commits the payload
into its slots, except each chunk that a REDUCE depending on that recv
writes: that one stays staged, and the REDUCE unions it in (a
receive-reduce step). A COPY reads all its sources before it writes any
target, so chunks (0, 1) from (1, 0) swap; a REDUCE runs chunk by chunk.
Reduction is a commutative-associative set union, so the final state is
schedule-independent for traces whose dependencies correctly order writers
before readers.

The chunk identities come from the optional "chunks" / "src_chunks" node
metadata. Traces without that metadata still get the executability
(deadlock) check; the semantic comparison is then reported as SKIPPED.
A PASS also certifies the bytes. The chunk unit is the claimed size (times
n for ALL_GATHER, whose claim is per rank) over the number of chunks, and
every send, recv, REDUCE and COPY that names k chunks must be k units.

Execution is one schedule and a state pass along it, both reading one
index of the trace: a `Readiness` per rank and a peer table. `_schedule`
runs a node once its deps finished (on its own copy of the dep counts)
and, for a recv, once its message was sent; it returns the run order and
the nodes left waiting. `_track` then applies each node's effect on the
chunk state in that order. A second schedule over the same index, under
rendezvous semantics where a send also waits until its recv is posted,
decides the rendezvous-deadlock warning. That pass may run in any order
(it runs LIFO): what lets a node run never turns false, so the nodes it
leaves parked do not depend on the order. The eager pass keeps its order,
which `_track`'s violations follow. The canonical form for isomorphism is
an `ordered` walk with a structural key.
"""

from __future__ import annotations

import heapq
import logging
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from time import perf_counter

from .errors import InvariantError, SpecError, StuckError
from .trace import (
    OP_COPY,
    OP_REDUCE,
    CollKind,
    CollectiveTrace,
    Readiness,
    _COMP,
    _RECV,
    _SEND,
    check_trace,  # noqa: F401 -- kept importable: perfbench/tracer.py rebinds it
    collector_paused,
    ordered,
    require_expanded,
    require_trace,
)

log = logging.getLogger("collgraph")

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass
class Verdict:
    status: str
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    stuck_nodes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": self.status,
            "violations": self.violations,
            "stuck_nodes": self.stuck_nodes,
            "warnings": self.warnings,
        }


# ---------------------------------------------------------------------------
# Symbolic execution: a schedule, then the chunk state along it
# ---------------------------------------------------------------------------

def _peers(trace: CollectiveTrace, readiness: list[Readiness]) -> list[list]:
    """Per rank, by position (`readiness` maps ids to positions): each send's
    and recv's message and its peer's rank and position (None if missing)."""
    peer: list[list] = [[None] * len(r.nodes) for r in readiness]
    for m, (src, dst, send_id, recv_id, _) in enumerate(trace.messages):
        send_pos, recv_pos = readiness[src].pos.get(send_id), readiness[dst].pos.get(recv_id)
        if send_pos is not None:
            peer[src][send_pos] = (m, dst, recv_pos)
        if recv_pos is not None:
            peer[dst][recv_pos] = (m, src, send_pos)
    return peer


def _schedule(readiness: list[Readiness], peer: list[list], order: random.Random | None,
              rendezvous: bool = False) -> tuple[list, list]:
    """Run all ranks to quiescence on a copy of their `readiness` counts.
    Sends are eager unless `rendezvous` is set; then a send also waits until
    its recv is posted. Ready nodes run by (rank, position), or in the
    random `order`. Returns the (rank, position) of each node in run order
    and, sorted, of the nodes left waiting for their peer: none iff all ran.
    Under `rendezvous` they run LIFO and `order` is unread: the parked set
    does not depend on the order, since what lets a node run never turns false."""
    nodes, pending = [r.nodes for r in readiness], [list(r.pending) for r in readiness]
    ready: list[tuple[int, int]] = []
    push = ready.append if rendezvous else partial(heapq.heappush, ready)
    # dep-ready nodes waiting for their peer: recvs missing their message
    # and, under rendezvous, sends whose recv is not posted yet
    parked: set[tuple[int, int]] = set()
    sent: set[int] = set()
    run = []

    def unpark(rank: int, p: int | None) -> None:
        if (rank, p) in parked:
            parked.discard((rank, p))
            push((rank, p))

    def on_dep_ready(rank: int, p: int) -> None:
        kind = nodes[rank][p].kind
        if kind is _RECV:
            m, src, send_pos = peer[rank][p]
            unpark(src, send_pos)  # the recv is posted now
            if m not in sent:
                parked.add((rank, p))
                return
        elif kind is _SEND and rendezvous:
            _, dst, recv_pos = peer[rank][p]
            if recv_pos is None or pending[dst][recv_pos]:
                parked.add((rank, p))
                return
        push((rank, p))

    for rank, r in enumerate(readiness):
        for p in r.roots():
            on_dep_ready(rank, p)

    while ready:
        if rendezvous:
            rank, p = ready.pop()
        elif order is None:
            rank, p = heapq.heappop(ready)
        else:
            idx = order.randrange(len(ready))
            ready[idx], ready[-1] = ready[-1], ready[idx]
            rank, p = ready.pop()
            heapq.heapify(ready)
        run.append((rank, p))
        if nodes[rank][p].kind is _SEND:
            m, dst, recv_pos = peer[rank][p]
            sent.add(m)
            unpark(dst, recv_pos)
        left = pending[rank]
        for succ in readiness[rank].dependents[p]:
            left[succ] -= 1
            if not left[succ]:
                on_dep_ready(rank, succ)
    return run, sorted(parked)


def _track(readiness: list[Readiness], peer: list[list], run: list,
           state: list[dict[int, frozenset]]) -> list[dict]:
    """Apply each node's effect on the per-rank chunk `state` in `run`'s
    order; return the reads of unwritten chunks in that order. Raises
    InvariantError where a recv's chunk count differs from its send's, or
    a REDUCE's or COPY's from its src_chunks'."""
    delivered: dict[int, list[frozenset]] = {}  # per message, once its send ran
    staged: dict[tuple[int, int], dict[int, frozenset]] = {}  # per (rank, recv id)
    reads: list[dict] = []

    def read(rank: int, chunk: int, node_id: int) -> frozenset:
        value = state[rank].get(chunk)
        if value is None:
            reads.append({"rank": rank, "node": node_id, "chunk": chunk,
                          "error": "read of unwritten chunk"})
            return frozenset()
        return value

    for rank, p in run:
        nodes = readiness[rank].nodes
        node = nodes[p]
        a = node.attrs
        if a.chunks is None:  # no effect, as for a NOP or an opaque op
            continue
        kind = node.kind
        if kind is _SEND:
            delivered[peer[rank][p][0]] = [read(rank, c, node.id) for c in a.chunks]
        elif kind is _RECV:
            payload = delivered.pop(peer[rank][p][0])
            if len(payload) != len(a.chunks):
                raise InvariantError(
                    f"send/recv chunk metadata disagree for tag {a.tag} "
                    f"from {a.src_rank}", rank, node.id)
            consumed = set()
            for q in readiness[rank].dependents[p]:
                succ = nodes[q]
                if succ.kind is _COMP and succ.attrs.op == OP_REDUCE \
                        and succ.attrs.chunks is not None:
                    consumed.update(succ.attrs.chunks)
            stage: dict[int, frozenset] = {}
            for chunk, value in zip(a.chunks, payload):
                if chunk in consumed:
                    stage[chunk] = value
                else:
                    state[rank][chunk] = value
            if stage:
                staged[(rank, node.id)] = stage
        elif a.op in (OP_REDUCE, OP_COPY):
            if a.src_chunks is not None and len(a.src_chunks) != len(a.chunks):
                raise InvariantError(
                    f"{a.op} names {len(a.chunks)} chunk(s) but {len(a.src_chunks)} "
                    f"src_chunks", rank, node.id)
            if a.op == OP_REDUCE:
                for i, chunk in enumerate(a.chunks):
                    acc = state[rank].get(chunk, frozenset())
                    for dep in node.deps:
                        held = staged.get((rank, dep))
                        if held and chunk in held:
                            acc |= held[chunk]
                    if a.src_chunks is not None:
                        acc |= read(rank, a.src_chunks[i], node.id)
                    state[rank][chunk] = acc
            elif a.src_chunks is not None:
                values = [read(rank, c, node.id) for c in a.src_chunks]
                for chunk, value in zip(a.chunks, values):
                    state[rank][chunk] = value
    return reads


# ---------------------------------------------------------------------------
# check_semantics
# ---------------------------------------------------------------------------

def _shape(node) -> tuple[int, int] | None:
    """The bytes and chunk count of a send, recv, REDUCE or COPY that names
    chunks, which the chunk unit must account for; None for other nodes.
    `_chunk_space`'s scan inlines it."""
    a = node.attrs
    if a.chunks is None:
        return None
    if node.kind is _COMP:
        return (a.comp_size, len(a.chunks)) if a.op in (OP_REDUCE, OP_COPY) else None
    return a.comm_size, len(a.chunks)


def _chunk_space(trace: CollectiveTrace) -> tuple[int, int, list[int], list[dict]] | None:
    """The number of chunks the metadata names (largest id + 1, or the rank
    count if it names none), how many ids below that it leaves out, the
    first 8 of those, and, when it leaves none out, the violations of the
    chunk unit; None if a send or recv carries no metadata.

    The claimed size (times n for ALL_GATHER, whose claim is per rank)
    divided by the chunk count is the unit. It must divide exactly, and a
    node of `_shape` (bytes, k) must have bytes == k x unit."""
    named, shapes = set(), set()  # shapes: each `_shape` but None
    for nodes in trace.per_rank_nodes:
        for node in nodes:
            a = node.attrs
            if node.kind is _COMP:
                if a.src_chunks is not None:
                    named.update(a.src_chunks)
                if a.chunks is None:
                    continue
                if a.op == OP_REDUCE or a.op == OP_COPY:
                    shapes.add((a.comp_size, len(a.chunks)))
            elif a.chunks is None:
                return None
            else:
                shapes.add((a.comm_size, len(a.chunks)))
            named.update(a.chunks)
    if not named:
        return max(trace.num_ranks, 1), 0, [], []
    space = max(named) + 1
    # the first 8 gaps lie within len(named) + 8 ids of 0, so this is bounded
    gaps = list(islice((c for c in range(space) if c not in named), 8))
    if gaps or not shapes:
        return space, space - len(named), gaps, []
    claimed = trace.claimed_collective
    total = claimed.comm_size * (trace.num_ranks if claimed.kind is CollKind.ALL_GATHER else 1)
    if total % space:
        return space, 0, [], [{"rank": None, "chunk": None,
                               "error": f"claimed {total} B do not divide into {space} chunks"}]
    unit = total // space
    if all(size == k * unit for size, k in shapes):
        return space, 0, [], []
    return space, 0, [], [
        {"rank": rank, "node": node.id, "name": node.name,
         "error": f"size {shape[0]} B is not {shape[1]} chunk(s) x {unit} B = "
                  f"{shape[1] * unit} B"}
        for rank, nodes in enumerate(trace.per_rank_nodes) for node in nodes
        if (shape := _shape(node)) is not None and shape[0] != shape[1] * unit]


def _origins(kind: CollKind, num_ranks: int, num_chunks: int) -> list:
    """Per chunk j, the ranks whose input holds it: all for ALL_REDUCE and
    REDUCE_SCATTER, 0 for BROADCAST, the owner of j's share for ALL_GATHER,
    and none for an indivisible ALL_GATHER (`check_semantics` reports it)."""
    if kind is CollKind.BROADCAST:
        return [(0,)] * num_chunks
    if kind is CollKind.ALL_GATHER:
        if num_chunks % num_ranks:
            return [()] * num_chunks
        share = num_chunks // num_ranks
        return [(j // share,) for j in range(num_chunks)]
    return [range(num_ranks)] * num_chunks


def _compare(kind: CollKind, n: int, num_chunks: int, origins: list,
             state: list[dict[int, frozenset]]) -> list[dict]:
    """The violations of the final chunk `state` against what `kind`
    requires: each chunk ends as the union of its origins, on every rank
    (REDUCE_SCATTER: on the rank that owns its share)."""
    if kind in (CollKind.ALL_GATHER, CollKind.REDUCE_SCATTER) and num_chunks % n:
        return [{"rank": None, "chunk": None,
                 "error": f"chunk space of {num_chunks} not divisible by {n} ranks"}]
    want = [frozenset((r, j) for r in ranks) for j, ranks in enumerate(origins)]
    share, scatter = num_chunks // n, kind is CollKind.REDUCE_SCATTER
    violations = []
    for rank in range(n):
        owned = range(rank * share, (rank + 1) * share) if scatter else range(num_chunks)
        for chunk in owned:
            got = state[rank].get(chunk)
            if got != want[chunk]:
                violations.append({
                    "rank": rank, "chunk": chunk,
                    "expected": sorted(want[chunk]),
                    "actual": sorted(got) if got is not None else None})
    return violations


def check_semantics(trace: CollectiveTrace, *, order_seed: int | None = None) -> Verdict:
    """Symbolically execute `trace` and compare the final chunk state with
    what its claimed collective requires.

    `order_seed` randomizes the execution order of independent nodes; any
    seed must produce the same verdict (schedule independence).

    Raises SpecError unless `trace` is a trace and `order_seed` None or an
    int. Raises StuckError when execution cannot reach quiescence (deadlock
    or missing messages). Returns SKIPPED when the trace carries no claimed
    collective or no chunk metadata, and FAIL with one violation when the
    named chunk ids are not 0..k-1; matching/deadlock checks still ran.
    Violations list the nodes whose bytes are not their chunks' units
    first (see `_chunk_space`), then reads of unwritten chunks, then the
    final chunk state. Logs its counts and seconds at DEBUG.
    """
    began = perf_counter()
    require_trace(trace)
    if order_seed is not None and type(order_seed) is not int:  # exact: a bool is an int too
        raise SpecError(f"order_seed must be None or an int, got {order_seed!r}")
    require_expanded(trace, "validation")
    claimed = getattr(trace, "claimed_collective", None)  # a workload claims none
    order = None if order_seed is None else random.Random(order_seed)
    space = None if claimed is None else _chunk_space(trace)
    readiness = [Readiness(nodes) for nodes in trace.per_rank_nodes]
    peer = _peers(trace, readiness)
    run, frontier = _schedule(readiness, peer, order)
    if space is not None:  # an InvariantError before a stall wins over StuckError
        num_chunks, missing, gaps, violations = space
        state: list[dict[int, frozenset]] = [{} for _ in range(trace.num_ranks)]
        if not missing:  # each chunk's origins hold their own part
            origins = _origins(claimed.kind, trace.num_ranks, num_chunks)
            for j, ranks in enumerate(origins):
                for rank in ranks:
                    state[rank][j] = frozenset({(rank, j)})
        violations += _track(readiness, peer, run, state)
    total, ran = sum(map(len, trace.per_rank_nodes)), len(run)
    if frontier:
        raise StuckError(f"execution stuck with {total - ran} node(s) unrun", [
            (rank, trace.per_rank_nodes[rank][p].id, trace.per_rank_nodes[rank][p].name)
            for rank, p in frontier])
    del run  # free the eager run before the rendezvous one
    parked = _schedule(readiness, peer, None, rendezvous=True)[1]
    warnings = ["trace deadlocks under rendezvous send semantics"] if parked else []
    if space is None:
        verdict = Verdict(SKIPPED, warnings=warnings)
    elif missing:  # the state is neither seeded nor compared, so one violation
        shown = ", ".join(map(str, gaps)) + (", ..." if missing > len(gaps) else "")
        verdict = Verdict(FAIL, warnings=warnings, violations=[{
            "rank": None, "chunk": None,
            "error": f"chunk ids are not 0..{num_chunks - 1}: {missing} missing ({shown})"}])
    else:
        violations += _compare(claimed.kind, trace.num_ranks, num_chunks, origins, state)
        verdict = Verdict(FAIL if violations else PASS, violations=violations, warnings=warnings)
    log.debug("check_semantics: %d ranks, %d nodes, %d messages, %d run, "
              "%d parked under rendezvous, %.6f s", trace.num_ranks, total,
              len(trace.messages), ran, len(parked), perf_counter() - began)
    return verdict


# ---------------------------------------------------------------------------
# Canonical-form isomorphism
# ---------------------------------------------------------------------------

def canonical_form(trace: CollectiveTrace):
    """Relabel each rank's nodes by dependency order with a structural
    tie-break, erasing ids, names, raw tag values and chunk metadata.

    Raw tag values are producer-specific; only their relative order within
    a direction is structurally meaningful, so each send and recv keys on
    its ordinal in its direction of the trace's `messages` table. Raises
    SpecError unless `trace` is a trace; logs its counts and seconds at DEBUG."""
    began = perf_counter()
    require_trace(trace)
    require_expanded(trace, "canonical labelling")
    # per rank: send/recv id -> ordinal of its tag within its direction (a
    # missing side files its ordinal under None, which no node id looks up)
    ordinals: list[dict] = [{} for _ in range(trace.num_ranks)]
    direction, k = None, 0
    for src, dst, send_id, recv_id, _ in trace.messages:
        k = k + 1 if (src, dst) == direction else 0
        direction = (src, dst)
        ordinals[src][send_id] = ordinals[dst][recv_id] = k
    form = []
    for rank in range(trace.num_ranks):
        label: dict[int, int] = {}
        labelled, tag_of = label.__getitem__, ordinals[rank]

        def key_of(node):  # (kind: send 0, recv 1, compute 2; peer; size; tag; op; deps)
            a, kind = node.attrs, node.kind
            deps = tuple(sorted(map(labelled, node.deps)))
            if kind is _SEND:
                return 0, a.dst_rank, a.comm_size, tag_of[node.id], "", deps
            if kind is _RECV:
                return 1, a.src_rank, a.comm_size, tag_of[node.id], "", deps
            return 2, -1, a.comp_size, -1, a.op, deps

        records = []
        for key, node in ordered(trace, rank, key_of):
            label[node.id] = len(records)
            records.append(key)
        form.append(tuple(records))
    log.debug("canonical_form: %d ranks, %d nodes, %.6f s", trace.num_ranks,
              sum(map(len, trace.per_rank_nodes)), perf_counter() - began)
    return tuple(form)


def isomorphic(a: CollectiveTrace, b: CollectiveTrace) -> bool:
    """True iff the traces are structurally identical up to node ids, names,
    raw tag values and auxiliary chunk metadata. Raises SpecError unless
    both are traces."""
    require_trace(a)
    require_trace(b)
    if a.num_ranks != b.num_ranks:
        return False
    with collector_paused():
        return canonical_form(a) == canonical_form(b)
