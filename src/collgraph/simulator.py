"""Deterministic discrete-event replay of traces on analytical networks.

Link model: a message holds each directed link of its route exclusively for
size/bandwidth (store-and-forward), and the fixed latency alpha is charged
once per message, on delivery. Links are granted FIFO by enqueue time;
simultaneous enqueues are ordered by the message's (src, dst, tag). A send
completes when its message has fully left the first link of the route; a
recv completes at delivery over the last link (or later, if its own
dependencies resolve later). Sends are eager: they never wait for the
receiver. The only contended resources are links.

Charging alpha once per message (rather than per hop) keeps a single-hop
route at the classic alpha + size/B cost while making multi-hop slowdowns
approach, without reaching, the hop-count ratio as messages grow.

Event order, which fixes every reported time: events are grouped by time,
and the times run in order. At one time every due node finish (also one a
grant made due at its own time, by a hold below half an ulp) runs before
the next link grant. Grants run by message, its number in the `messages`
table that `check_trace` sorted by (src, dst, tag), then hop. Finishes run
in any order: a finish only issues nodes, reading only what grants write.
"""

from __future__ import annotations

import heapq
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from time import perf_counter
from typing import Optional

from .errors import DeadlockError, SpecError, UnreachableError
from .generators import AlgoSpec, Algorithm, generate
from .trace import (
    OP_NOP,
    Readiness,
    Trace,
    json_array,
    json_array_pieces,
    require_expanded,
    require_matched,
    require_trace,
)

log = logging.getLogger("collgraph")


class TopologyKind(Enum):
    RING = "ring"
    FULLY_CONNECTED = "fc"
    MESH2D = "mesh2d"
    TORUS2D = "torus2d"
    SWITCH = "switch"


@dataclass(frozen=True)
class Topology:
    """A physical interconnect of `n` endpoints (plus one hub node for
    SWITCH). `placement` maps rank -> physical node, identity by default;
    2D kinds number nodes row-major."""

    kind: TopologyKind
    n: int
    rows: int = 0
    cols: int = 0
    placement: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if type(self.kind) is not TopologyKind:
            raise SpecError(f"topology kind must be a TopologyKind, got {self.kind!r}")
        for name, value in (("n", self.n), ("rows", self.rows), ("cols", self.cols)):
            if type(value) is not int:  # exact: a bool is an int too
                raise SpecError(f"topology {name} must be an int, got {value!r}")
        if self.n < 1:
            raise SpecError(f"topology needs at least one node, got {self.n}")
        if self.kind in (TopologyKind.MESH2D, TopologyKind.TORUS2D):
            if self.rows < 1 or self.cols < 1 or self.rows * self.cols != self.n:
                raise SpecError(
                    f"{self.kind.value} needs rows*cols == n, got "
                    f"{self.rows}x{self.cols} != {self.n}")
        if self.placement is not None:
            if (type(self.placement) not in (tuple, list)
                    or any(type(node) is not int for node in self.placement)
                    or sorted(self.placement) != list(range(self.n))):
                raise SpecError("placement must be a permutation of the endpoint nodes")
            object.__setattr__(self, "placement", tuple(self.placement))

    @staticmethod
    def ring(n: int) -> "Topology":
        return Topology(TopologyKind.RING, n)

    @staticmethod
    def fully_connected(n: int) -> "Topology":
        return Topology(TopologyKind.FULLY_CONNECTED, n)

    @staticmethod
    def mesh2d(rows: int, cols: int) -> "Topology":
        return Topology(TopologyKind.MESH2D, rows * cols, rows, cols)

    @staticmethod
    def torus2d(rows: int, cols: int) -> "Topology":
        return Topology(TopologyKind.TORUS2D, rows * cols, rows, cols)

    @staticmethod
    def switch(n: int) -> "Topology":
        return Topology(TopologyKind.SWITCH, n)

    def place(self, rank: int) -> int:
        return rank if self.placement is None else self.placement[rank]

    def label(self) -> str:
        if self.kind in (TopologyKind.MESH2D, TopologyKind.TORUS2D):
            return f"{self.kind.value}:{self.rows}x{self.cols}"
        return self.kind.value


@dataclass(frozen=True)
class CostModel:
    """Alpha-beta link cost plus optional compute throughput.

    REDUCE/COPY/opaque compute runs at `reduce_bandwidth` bytes/s (None =
    infinitely fast); NOP nodes are pure dependency anchors and always cost
    zero. `fixed_comp_overhead` is added to every non-NOP compute node.
    """

    alpha: float
    bandwidth: float
    reduce_bandwidth: Optional[float] = None
    fixed_comp_overhead: float = 0.0

    def __post_init__(self):
        for field in ("alpha", "bandwidth", "reduce_bandwidth", "fixed_comp_overhead"):
            value = getattr(self, field)
            if value is None and field == "reduce_bandwidth":
                continue
            if type(value) not in (int, float):  # exact: a bool is an int too
                raise SpecError(f"{field} must be an int or a float, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int no float holds
                shown = value if type(value) is float else "an int too large for a float"
                raise SpecError(f"{field} must be finite, got {shown}")
        if self.alpha < 0:
            raise SpecError(f"alpha must be non-negative, got {self.alpha}")
        if self.bandwidth <= 0:
            raise SpecError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.reduce_bandwidth is not None and self.reduce_bandwidth <= 0:
            raise SpecError("reduce_bandwidth must be positive or None")
        if self.fixed_comp_overhead < 0:
            raise SpecError("fixed_comp_overhead must be non-negative")

    def comp_duration(self, op: str, comp_size: int) -> float:
        if op == OP_NOP:
            return 0.0
        work = 0.0 if self.reduce_bandwidth is None else comp_size / self.reduce_bandwidth
        return self.fixed_comp_overhead + work

    def link_occupancy(self, size: int) -> float:
        return size / self.bandwidth


# `route` runs once per issued send, so it compares kinds with these
_RING, _FC, _MESH2D, _SWITCH = (
    TopologyKind.RING, TopologyKind.FULLY_CONNECTED, TopologyKind.MESH2D, TopologyKind.SWITCH)


def route(topology: Topology, src: int, dst: int) -> list[tuple[int, int]]:
    """Deterministic path of directed links between two physical nodes.

    A ring routes as a one-axis torus; 2D kinds (row-major) walk columns,
    then rows. Each axis takes its shortest way, wrapping on RING and
    TORUS2D, ties toward increasing index. SWITCH relays through hub `n`.
    """
    if src == dst:
        raise UnreachableError(f"no route from node {src} to itself")
    if not (0 <= src < topology.n and 0 <= dst < topology.n):
        raise UnreachableError(f"nodes {src}->{dst} outside topology of {topology.n}")
    kind = topology.kind
    if kind is _FC:
        return [(src, dst)]
    if kind is _SWITCH:
        hub = topology.n
        return [(src, hub), (hub, dst)]
    # each axis: its number of positions and the node distance between them
    axes = ((topology.n, 1),) if kind is _RING else \
        ((topology.cols, 1), (topology.rows, topology.cols))
    wrap = kind is not _MESH2D
    path, node = [], src
    for size, stride in axes:
        here, there = node // stride % size, dst // stride % size
        forward = (there - here) % size
        if forward <= size - forward if wrap else there >= here:
            step, hops = 1, forward
        else:
            step, hops = -1, size - forward
        base = node - here * stride
        for i in range(1, hops + 1):
            nxt = base + (here + i * step) % size * stride
            path.append((node, nxt))
            node = nxt
    return path


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimReport:
    """Per-node timestamps plus link usage; a pure function of its inputs.

    `node_times[rank]` holds one row `(id, issue_s, start_s, finish_s)` per
    node of that rank, by ascending id; `link_stats` holds one row
    `(src, dst, messages, busy_s)` per directed link that carried a
    message, sorted by link."""

    num_ranks: int
    node_times: tuple[tuple[tuple[int, float, float, float], ...], ...]
    total_duration: float
    event_count: int
    link_stats: tuple[tuple[int, int, int, float], ...]

    def dumps(self) -> str:
        """The report as indent-2 JSON text, byte for byte what `json.dumps`
        writes; `simulate` keeps every time finite, so the text is strict JSON."""
        return "".join(self.pieces())

    def pieces(self):
        """The text of `dumps`, one piece per rank, to write it unjoined.
        Lockstep SPMD ranks repeat most rows: if a rank starts as the previous
        one did, a row equal to the previous rank's at its position reuses its
        text, unless it holds a zero (0.0 == -0.0, but their texts differ)."""
        num = float.__repr__  # json's own float format
        total = self.total_duration
        yield (f'{{\n  "total_duration_s": {num(total)},\n  "event_count": {self.event_count},\n'
               f'  "num_ranks": {self.num_ranks},\n  "ranks": ')
        yield from json_array_pieces(self._rank_texts(), 2)
        links = json_array(
            [f'{{\n      "src": {src},\n      "dst": {dst},\n'
             f'      "messages": {messages},\n      "busy_s": {num(busy)},\n'
             f'      "utilization": {num(busy / total if total > 0 else 0.0)}\n    }}'
             for src, dst, messages, busy in self.link_stats], 2)
        yield f',\n  "links": {links}\n}}\n'

    def _rank_texts(self, last_rows=(), last_texts=()):
        def row_text(nid, issue, start, finish):  # !r: a float as json writes it
            return (f'{{\n        "id": {nid},\n        "issue_s": {issue!r},\n'
                    f'        "start_s": {start!r},\n        "finish_s": {finish!r}\n      }}')
        for rows in self.node_times:  # only the previous rank's texts are kept
            same = rows[:1] == last_rows[:1]  # else no row is compared
            texts = [text if same and row == last and 0.0 not in row else row_text(*row)
                     for row, last, text in zip(rows, last_rows, last_texts)]
            texts += [row_text(*row) for row in rows[len(texts):]]
            yield json_array(texts, 4)
            last_rows, last_texts = rows, texts


def simulate(trace: Trace, topology: Topology, cost: CostModel) -> SimReport:
    """Event-driven replay in the module's event order, counting node finishes
    and link grants as events, and logging its counts at DEBUG. Raises
    UnexpandedCollectiveError on COMM_COLL nodes, InvariantError (recorded by
    `check_trace`) on an unmatched send or recv, DeadlockError (naming the
    pending receives) if events run out early, and SpecError on inf times or
    an argument of the wrong type."""
    began = perf_counter()
    require_trace(trace)
    for value, cls in ((topology, Topology), (cost, CostModel)):
        if not isinstance(value, cls):
            raise SpecError(f"expected a {cls.__name__}, got {type(value).__name__}")
    require_expanded(trace, "simulation")
    if trace.num_ranks > topology.n:
        raise SpecError(
            f"trace has {trace.num_ranks} ranks but topology only {topology.n} endpoints")
    require_matched(trace)

    readiness = [Readiness(rank_nodes) for rank_nodes in trace.per_rank_nodes]
    nodes = [r.nodes for r in readiness]
    pending = [list(r.pending) for r in readiness]
    dependents = [r.dependents for r in readiness]
    # Per rank, by position: the message a send or recv belongs to (-1 for
    # compute), and issue/start/finish times (None until set).
    msg_at = [[-1] * len(r.nodes) for r in readiness]
    issue_t = [[None] * len(r.nodes) for r in readiness]
    start_t = [[None] * len(r.nodes) for r in readiness]
    finish_t = [[None] * len(r.nodes) for r in readiness]
    # Per message of the trace's table: (src, send position, dst, recv
    # position, link hold time), plus its route as the states of its links
    # (set when its send is issued) and its delivery time.
    msgs = []
    for m, (src, dst, send_id, recv_id, size) in enumerate(trace.messages):
        send_pos, recv_pos = readiness[src].pos[send_id], readiness[dst].pos[recv_id]
        msg_at[src][send_pos] = msg_at[dst][recv_pos] = m
        msgs.append((src, send_pos, dst, recv_pos, cost.link_occupancy(size)))
    msg_path, arrival = [None] * len(msgs), [None] * len(msgs)

    links: dict[tuple[int, int], list] = {}  # link -> [free at, busy time, messages]
    # due[t]: the finishes due at time t, as (rank, position), and a heap of its link
    # grants, as message * stride + hop (a route has at most n hops); `times` heaps the t.
    times, due, stride = [], {}, topology.n + 1
    push, pop = heapq.heappush, heapq.heappop
    place, alpha = topology.place, cost.alpha
    finished = distinct = 0

    def at(t: float) -> tuple[list, list]:
        slot = due.get(t)
        if slot is None:
            slot = due[t] = ([], [])
            push(times, t)
        return slot

    def issue(rank: int, p: int, t: float) -> None:
        issue_t[rank][p] = t
        m = msg_at[rank][p]
        if m < 0:  # compute
            node = nodes[rank][p]
            start_t[rank][p] = t
            at(t + cost.comp_duration(node.attrs.op, node.attrs.comp_size))[0].append((rank, p))
        elif msgs[m][0] == rank:  # send
            path = msg_path[m] = []
            for link in route(topology, place(rank), place(msgs[m][2])):
                path.append(links.get(link) or links.setdefault(link, [0.0, 0.0, 0]))
            push(at(t)[1], m * stride)
        else:  # recv; it waits for its message unless that was delivered
            start_t[rank][p] = t
            if arrival[m] is not None:
                at(max(t, arrival[m]))[0].append((rank, p))

    for rank, r in enumerate(readiness):
        for p in r.roots():
            issue(rank, p, 0.0)

    while times:
        t = pop(times)
        finishes, grants = due[t]
        distinct += 1
        while True:
            while finishes:  # in any order: a finish only issues, reading what grants write
                rank, p = finishes.pop()
                finish_t[rank][p] = t
                finished += 1
                left = pending[rank]
                for succ in dependents[rank][p]:
                    left[succ] -= 1
                    if not left[succ]:  # times run in order, so its last dep finishes now
                        issue(rank, succ, t)
            if not grants:
                break
            key = pop(grants)
            m, hop = divmod(key, stride)
            src, send_pos, dst, recv_pos, hold = msgs[m]
            path = msg_path[m]
            link = path[hop]
            begin = link[0]
            if begin < t:
                begin = t
            departed = link[0] = begin + hold
            link[1] += hold
            link[2] += 1
            if hop == 0:
                start_t[src][send_pos] = begin
                at(departed)[0].append((src, send_pos))
            if hop + 1 < len(path):
                push(at(departed)[1], key + 1)
            else:
                delivered = arrival[m] = departed + alpha
                issued = issue_t[dst][recv_pos]
                if issued is not None:  # the recv was waiting
                    at(max(issued, delivered))[0].append((dst, recv_pos))
        del due[t]

    total_nodes = sum(map(len, nodes))
    if finished < total_nodes:
        waiting = sorted((dst, p) for (_, _, dst, p, _), delivered in zip(msgs, arrival)
                         if delivered is None and issue_t[dst][p] is not None)
        raise DeadlockError(
            f"simulation stalled with {total_nodes - finished} node(s) unfinished",
            [(rank, nodes[rank][p].id, nodes[rank][p].name) for rank, p in waiting])

    node_times = tuple(tuple(zip([n.id for n in ns], issue_t[r], start_t[r], finish_t[r]))
                       for r, ns in enumerate(nodes))
    total = max((max(f) for f in finish_t if f), default=0.0)
    if not math.isfinite(total):  # every other time is at most the total
        raise SpecError("simulated time overflows a float; scale the costs down")
    stats = tuple((*link, count, busy) for link, (_, busy, count) in sorted(links.items()))
    events = finished + sum(stat[2] for stat in stats)
    log.debug("simulate: %d ranks, %d nodes, %d messages, %d events, %d distinct times, %.6f s",
              trace.num_ranks, total_nodes, len(msgs), events, distinct, perf_counter() - began)
    return SimReport(trace.num_ranks, node_times, total, events, stats)


# ---------------------------------------------------------------------------
# Topology sweeps
# ---------------------------------------------------------------------------

def _sweep_cell(args) -> float:
    spec, topology, cost = args
    return simulate(generate(spec), topology, cost).total_duration


def sweep(
    algorithm: Algorithm,
    num_ranks: int,
    sizes: list[int],
    topologies: list[Topology],
    cost: CostModel,
    jobs: int = 1,
) -> list[tuple[str, int, float, float]]:
    """Simulate `algorithm` for every (topology, size) cell and return the
    rows (topology label, size_bytes, duration_s, slowdown), each slowdown
    against the baseline, which is always the ring of `num_ranks`. Rows
    keep the given topology order with sizes ascending; each distinct cell
    is simulated once, and the result is independent of `jobs`, which is
    capped at the number of cells and of CPUs; not an int or below 1, it is a SpecError."""
    if type(jobs) is not int:  # exact: a bool is an int too
        raise SpecError(f"jobs must be an int, got {jobs!r}")
    if jobs < 1:
        raise SpecError(f"jobs must be at least 1, got {jobs}")
    baseline = Topology.ring(num_ranks)
    sizes = sorted(sizes)
    cells = list(dict.fromkeys((topo, size) for topo in (baseline, *topologies)
                               for size in sizes))
    args = [(AlgoSpec(algorithm, num_ranks, size), topo, cost) for topo, size in cells]
    workers = min(jobs, len(args), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            durations = list(pool.map(_sweep_cell, args))
    else:
        durations = [_sweep_cell(a) for a in args]
    duration = dict(zip(cells, durations))
    # a one-rank collective moves nothing: 0 s on every topology, slowdown 1
    return [(topo.label(), size, duration[topo, size],
             duration[topo, size] / duration[baseline, size] if duration[baseline, size] else 1.0)
            for topo in topologies for size in sizes]
