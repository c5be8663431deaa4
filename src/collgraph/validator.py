"""Semantic checking of collective traces by symbolic chunk tracking.

Every chunk slot holds a set of (origin_rank, chunk_index) contributions.
A send snapshots the slots it reads. A matched recv commits the payload
into its slots, except each chunk that a REDUCE depending on that recv
writes: that one stays staged, and the REDUCE unions it in (a
receive-reduce step). Reduction is a commutative-associative
set union, so the final state is schedule-independent for traces whose
dependencies correctly order writers before readers.

The chunk identities come from the optional "chunks" / "src_chunks" node
metadata. Traces without that metadata still get the executability
(deadlock) check; the semantic comparison is then reported as SKIPPED.

Execution is driven by the readiness engine of `trace` (`Readiness`): a
node runs once its deps finished and, for a recv, once its message (its
number in the trace's `messages` table) was sent. A second, untracked run
under rendezvous semantics, where a send also waits until its recv is
posted, decides the rendezvous-deadlock warning. The canonical form for
isomorphism is an `ordered` walk with a structural key.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from itertools import islice

from .errors import InvariantError, StuckError
from .trace import (
    OP_COPY,
    OP_REDUCE,
    CollKind,
    CollectiveTrace,
    NodeKind,
    Readiness,
    check_trace,  # noqa: F401 -- kept importable: perfbench/tracer.py rebinds it
    ordered,
)

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
# Symbolic execution
# ---------------------------------------------------------------------------

class _Exec:
    """One symbolic run over all ranks to quiescence. Sends are eager unless
    `rendezvous` is set; then a send also waits until its recv is posted
    (every dep of the recv finished)."""

    def __init__(self, trace: CollectiveTrace, track_state: bool, order: random.Random | None,
                 rendezvous: bool = False):
        self.track = track_state
        self.order = order
        self.rendezvous = rendezvous
        self.readiness = [Readiness(nodes) for nodes in trace.per_rank_nodes]
        self.nodes = [r.nodes for r in self.readiness]  # by position
        pos = [r.pos for r in self.readiness]
        # Per rank, by position: each send's and recv's message and its
        # peer's rank and position (None if missing); per message, the
        # payload once its send ran.
        self.peer: list[list] = [[None] * len(r.ids) for r in self.readiness]
        for m, (src, dst, send_id, recv_id, _) in enumerate(trace.messages):
            send_pos, recv_pos = pos[src].get(send_id), pos[dst].get(recv_id)
            if send_pos is not None:
                self.peer[src][send_pos] = (m, dst, recv_pos)
            if recv_pos is not None:
                self.peer[dst][recv_pos] = (m, src, send_pos)
        self.delivered: list[list[frozenset] | None] = [None] * len(trace.messages)
        # chunk state per rank; staged payloads per (rank, recv_id)
        self.state: list[dict[int, frozenset]] = [dict() for _ in range(trace.num_ranks)]
        self.staged: dict[tuple[int, int], dict[int, frozenset]] = {}
        self.read_violations: list[dict] = []

    # -- state helpers ------------------------------------------------------

    def seed_initial_state(self, claimed, num_chunks: int) -> list:
        """Seed each chunk's origins (`_origins`, returned) with their own part."""
        origins = _origins(claimed.kind, len(self.state), num_chunks)
        for j, ranks in enumerate(origins):
            for rank in ranks:
                self.state[rank][j] = frozenset({(rank, j)})
        return origins

    def _read(self, rank: int, chunk: int, node_id: int) -> frozenset:
        value = self.state[rank].get(chunk)
        if value is None:
            self.read_violations.append(
                {"rank": rank, "node": node_id, "chunk": chunk,
                 "error": "read of unwritten chunk"})
            return frozenset()
        return value

    # -- node effects -------------------------------------------------------

    def _run_send(self, rank: int, node, m: int) -> None:
        if self.track and node.attrs.chunks is not None:
            payload = [self._read(rank, c, node.id) for c in node.attrs.chunks]
        else:
            payload = []
        self.delivered[m] = payload

    def _run_recv(self, rank: int, p: int, node, m: int) -> None:
        """Commit the payload, except the chunks that a REDUCE depending on
        this recv writes: those stay staged for it to union in."""
        payload = self.delivered[m]
        if not self.track or node.attrs.chunks is None:
            return
        if len(payload) != len(node.attrs.chunks):
            raise InvariantError(
                f"send/recv chunk metadata disagree for tag {node.attrs.tag} "
                f"from {node.attrs.src_rank}", rank, node.id)
        consumed = set()
        for q in self.readiness[rank].dependents[p]:
            succ = self.nodes[rank][q]
            if succ.kind is NodeKind.COMP and succ.attrs.op == OP_REDUCE \
                    and succ.attrs.chunks is not None:
                consumed.update(succ.attrs.chunks)
        stage: dict[int, frozenset] = {}
        for chunk, value in zip(node.attrs.chunks, payload):
            if chunk in consumed:
                stage[chunk] = value
            else:
                self.state[rank][chunk] = value
        if stage:
            self.staged[(rank, node.id)] = stage

    def _run_comp(self, rank: int, node) -> None:
        if not self.track or node.attrs.chunks is None:
            return
        a = node.attrs
        if a.op in (OP_REDUCE, OP_COPY) and a.src_chunks is not None \
                and len(a.src_chunks) != len(a.chunks):
            raise InvariantError(
                f"{a.op} names {len(a.chunks)} chunk(s) but {len(a.src_chunks)} "
                f"src_chunks", rank, node.id)
        if a.op == OP_REDUCE:
            for i, chunk in enumerate(a.chunks):
                acc = self.state[rank].get(chunk, frozenset())
                for dep in node.deps:
                    staged = self.staged.get((rank, dep))
                    if staged and chunk in staged:
                        acc |= staged[chunk]
                if a.src_chunks is not None:
                    acc |= self._read(rank, a.src_chunks[i], node.id)
                self.state[rank][chunk] = acc
        elif a.op == OP_COPY:
            if a.src_chunks is not None:
                values = [self._read(rank, c, node.id) for c in a.src_chunks]
                for chunk, value in zip(a.chunks, values):
                    self.state[rank][chunk] = value
        # NOP and opaque ops leave chunk state untouched

    # -- scheduling ---------------------------------------------------------

    def run(self) -> None:
        """Execute to quiescence; StuckError if any node can never run.
        Nodes are scheduled as (rank, position) pairs."""
        ready: list[tuple[int, int]] = []
        # dep-ready nodes waiting for their peer: recvs missing their message
        # and, under rendezvous, sends whose recv is not posted yet
        parked: set[tuple[int, int]] = set()
        executed = 0
        total = sum(len(r) for r in self.nodes)

        def unpark(rank: int, p: int | None) -> None:
            if (rank, p) in parked:
                parked.discard((rank, p))
                heapq.heappush(ready, (rank, p))

        def on_dep_ready(rank: int, p: int) -> None:
            kind = self.nodes[rank][p].kind
            if kind is NodeKind.COMM_RECV:
                m, src, send_pos = self.peer[rank][p]
                unpark(src, send_pos)  # the recv is posted now
                if self.delivered[m] is None:
                    parked.add((rank, p))
                    return
            elif kind is NodeKind.COMM_SEND and self.rendezvous:
                _, dst, recv_pos = self.peer[rank][p]
                if recv_pos is None or self.readiness[dst].pending[recv_pos]:
                    parked.add((rank, p))
                    return
            heapq.heappush(ready, (rank, p))

        for rank, readiness in enumerate(self.readiness):
            for p in readiness.roots():
                on_dep_ready(rank, p)

        while ready:
            if self.order is None:
                rank, p = heapq.heappop(ready)
            else:
                idx = self.order.randrange(len(ready))
                ready[idx], ready[-1] = ready[-1], ready[idx]
                rank, p = ready.pop()
                heapq.heapify(ready)
            node = self.nodes[rank][p]
            if node.kind is NodeKind.COMM_SEND:
                m, dst, recv_pos = self.peer[rank][p]
                self._run_send(rank, node, m)
                unpark(dst, recv_pos)
            elif node.kind is NodeKind.COMM_RECV:
                self._run_recv(rank, p, node, self.peer[rank][p][0])
            else:
                self._run_comp(rank, node)
            executed += 1
            for succ in self.readiness[rank].finish(p):
                on_dep_ready(rank, succ)

        if executed < total:
            frontier = [(rank, self.nodes[rank][p]) for rank, p in sorted(parked)]
            raise StuckError(f"execution stuck with {total - executed} node(s) unrun",
                             [(rank, node.id, node.name) for rank, node in frontier])


# ---------------------------------------------------------------------------
# check_semantics
# ---------------------------------------------------------------------------

def _chunk_space(trace: CollectiveTrace) -> tuple[int, int, list[int]] | None:
    """The number of chunks the metadata names (largest id + 1, or the rank
    count if it names none), how many ids below that it leaves out, and the
    first 8 of those; None if a send or recv carries no metadata."""
    named = set()
    for nodes in trace.per_rank_nodes:
        for node in nodes:
            chunks = getattr(node.attrs, "chunks", None)
            if chunks is None and node.kind in (NodeKind.COMM_SEND, NodeKind.COMM_RECV):
                return None
            named.update(chunks or ())
            named.update(getattr(node.attrs, "src_chunks", None) or ())
    if not named:
        return max(trace.num_ranks, 1), 0, []
    space = max(named) + 1
    # the first 8 gaps lie within len(named) + 8 ids of 0, so this is bounded
    gaps = list(islice((c for c in range(space) if c not in named), 8))
    return space, space - len(named), gaps


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


def check_semantics(trace: CollectiveTrace, *, order_seed: int | None = None) -> Verdict:
    """Symbolically execute `trace` and compare the final chunk state with
    what its claimed collective requires.

    `order_seed` randomizes the execution order of independent nodes; any
    seed must produce the same verdict (schedule independence).

    Raises StuckError when execution cannot reach quiescence (deadlock or
    missing messages). Returns SKIPPED when the trace carries no claimed
    collective or no chunk metadata, and FAIL with one violation when the
    named chunk ids are not 0..k-1; matching/deadlock checks still ran.
    """
    order = None if order_seed is None else random.Random(order_seed)
    space = None if trace.claimed_collective is None else _chunk_space(trace)
    track = space is not None
    ex = _Exec(trace, track, order)
    warnings: list[str] = []
    if track:
        num_chunks, missing, gaps = space
        if not missing:
            origins = ex.seed_initial_state(trace.claimed_collective, num_chunks)
    ex.run()
    try:
        _Exec(trace, False, None, rendezvous=True).run()
    except StuckError:
        warnings.append("trace deadlocks under rendezvous send semantics")
    if not track:
        return Verdict(SKIPPED, warnings=warnings)
    if missing:  # the state is neither seeded nor compared, so one violation
        shown = ", ".join(map(str, gaps)) + (", ..." if missing > len(gaps) else "")
        return Verdict(FAIL, warnings=warnings, violations=[{
            "rank": None, "chunk": None,
            "error": f"chunk ids are not 0..{num_chunks - 1}: {missing} missing ({shown})"}])

    violations = list(ex.read_violations)
    kind, n = trace.claimed_collective.kind, trace.num_ranks
    if kind in (CollKind.ALL_GATHER, CollKind.REDUCE_SCATTER) and num_chunks % n:
        violations.append({
            "rank": None, "chunk": None,
            "error": f"chunk space of {num_chunks} not divisible by {n} ranks"})
    else:
        # each chunk ends as the union of its origins (REDUCE_SCATTER: on one rank)
        want = [frozenset((r, j) for r in ranks) for j, ranks in enumerate(origins)]
        share = num_chunks // n
        for rank in range(n):
            owned = range(rank * share, (rank + 1) * share) \
                if kind is CollKind.REDUCE_SCATTER else range(num_chunks)
            for chunk in owned:
                got = ex.state[rank].get(chunk)
                if got != want[chunk]:
                    violations.append({
                        "rank": rank, "chunk": chunk,
                        "expected": sorted(want[chunk]),
                        "actual": sorted(got) if got is not None else None})
    if violations:
        return Verdict(FAIL, violations=violations, warnings=warnings)
    return Verdict(PASS, warnings=warnings)


# ---------------------------------------------------------------------------
# Canonical-form isomorphism
# ---------------------------------------------------------------------------

_KIND_ORDER = {NodeKind.COMM_SEND: 0, NodeKind.COMM_RECV: 1, NodeKind.COMP: 2}


def canonical_form(trace: CollectiveTrace):
    """Relabel each rank's nodes by dependency order with a structural
    tie-break, erasing ids, names, raw tag values and chunk metadata.

    Raw tag values are producer-specific; only their relative order within
    a direction is structurally meaningful, so each send and recv keys on
    its ordinal in its direction of the trace's `messages` table."""
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

        def key_of(node):
            a = node.attrs
            if node.kind is NodeKind.COMM_SEND:
                peer, size, tag, op = a.dst_rank, a.comm_size, ordinals[rank][node.id], ""
            elif node.kind is NodeKind.COMM_RECV:
                peer, size, tag, op = a.src_rank, a.comm_size, ordinals[rank][node.id], ""
            else:
                peer, size, tag, op = -1, a.comp_size, -1, a.op
            deps = tuple(sorted(label[d] for d in node.deps))
            return (_KIND_ORDER[node.kind], peer, size, tag, op, deps)

        records = []
        for key, nid in ordered(trace, rank, key_of):
            label[nid] = len(records)
            records.append(key)
        form.append(tuple(records))
    return tuple(form)


def isomorphic(a: CollectiveTrace, b: CollectiveTrace) -> bool:
    """True iff the traces are structurally identical up to node ids, names,
    raw tag values and auxiliary chunk metadata."""
    if a.num_ranks != b.num_ranks:
        return False
    return canonical_form(a) == canonical_form(b)
