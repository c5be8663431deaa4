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

Event order, which fixes every reported time: events run by time; at equal
times node finishes run before link enqueues; finishes run by (rank, node
id) and enqueues by the message's (src, dst, tag), then hop. The replay
works on integers that keep this order: a node is its rank and its
position in `Readiness` (ascending id), and a message is its number in the
trace's `messages` table, which `check_trace` sorted by (src, dst, tag), so
events are (t, 0, rank, position) and (t, 1, message, hop).
"""

from __future__ import annotations

import heapq
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import DeadlockError, SpecError, UnexpandedCollectiveError, UnreachableError
from .generators import AlgoSpec, Algorithm, generate
from .trace import (
    OP_NOP,
    NodeKind,
    Readiness,
    Trace,
    json_array,
    require_matched,
)


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
        if self.n < 1:
            raise SpecError(f"topology needs at least one node, got {self.n}")
        if self.kind in (TopologyKind.MESH2D, TopologyKind.TORUS2D):
            if self.rows < 1 or self.cols < 1 or self.rows * self.cols != self.n:
                raise SpecError(
                    f"{self.kind.value} needs rows*cols == n, got "
                    f"{self.rows}x{self.cols} != {self.n}")
        if self.placement is not None:
            object.__setattr__(self, "placement", tuple(self.placement))
            if sorted(self.placement) != list(range(self.n)):
                raise SpecError("placement must be a permutation of the endpoint nodes")

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
            if value is not None and not math.isfinite(value):
                raise SpecError(f"{field} must be finite, got {value}")
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
    if kind is TopologyKind.FULLY_CONNECTED:
        return [(src, dst)]
    if kind is TopologyKind.SWITCH:
        hub = topology.n
        return [(src, hub), (hub, dst)]
    # each axis: its number of positions and the node distance between them
    axes = ((topology.n, 1),) if kind is TopologyKind.RING else \
        ((topology.cols, 1), (topology.rows, topology.cols))
    wrap = kind is not TopologyKind.MESH2D
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
        num = float.__repr__  # json's own float format
        ranks = json_array(
            [json_array([f'{{\n        "id": {nid},\n        "issue_s": {num(issue)},\n'
                         f'        "start_s": {num(start)},\n'
                         f'        "finish_s": {num(finish)}\n      }}'
                         for nid, issue, start, finish in rank_times], 4)
             for rank_times in self.node_times], 2)
        total = self.total_duration
        links = json_array(
            [f'{{\n      "src": {src},\n      "dst": {dst},\n'
             f'      "messages": {messages},\n      "busy_s": {num(busy)},\n'
             f'      "utilization": {num(busy / total if total > 0 else 0.0)}\n    }}'
             for src, dst, messages, busy in self.link_stats], 2)
        return (f'{{\n  "total_duration_s": {num(total)},\n  "event_count": {self.event_count},\n'
                f'  "num_ranks": {self.num_ranks},\n  "ranks": {ranks},\n  "links": {links}\n}}\n')


_FINISH, _ENQUEUE = 0, 1


def simulate(trace: Trace, topology: Topology, cost: CostModel) -> SimReport:
    """Event-driven replay. Raises UnexpandedCollectiveError on COMM_COLL
    nodes, InvariantError (recorded by `check_trace`) on an unmatched send
    or recv, DeadlockError (naming the pending receives) if the event pool
    drains with nodes unfinished, and SpecError if a time overflows to inf."""
    for rank, nodes in enumerate(trace.per_rank_nodes):
        for node in nodes:
            if node.kind is NodeKind.COMM_COLL:
                raise UnexpandedCollectiveError(
                    f"COMM_COLL node {node.id} on rank {rank} must be expanded "
                    f"before simulation")
    if trace.num_ranks > topology.n:
        raise SpecError(
            f"trace has {trace.num_ranks} ranks but topology only {topology.n} endpoints")
    require_matched(trace)

    readiness = [Readiness(rank_nodes) for rank_nodes in trace.per_rank_nodes]
    nodes = [r.nodes for r in readiness]
    finish = [r.finish for r in readiness]
    # Per rank, by position: the message a send or recv belongs to (-1 for
    # compute), and issue/start/finish times (None until set).
    msg_at = [[-1] * len(r.ids) for r in readiness]
    issue_t = [[None] * len(r.ids) for r in readiness]
    start_t = [[None] * len(r.ids) for r in readiness]
    finish_t = [[None] * len(r.ids) for r in readiness]
    # Per message of the trace's table: (src, send position, dst, recv
    # position, link hold time), plus its route as link ids (set when its
    # send is issued) and its delivery time.
    msgs = []
    for m, (src, dst, send_id, recv_id, size) in enumerate(trace.messages):
        send_pos, recv_pos = readiness[src].pos[send_id], readiness[dst].pos[recv_id]
        msg_at[src][send_pos] = msg_at[dst][recv_pos] = m
        msgs.append((src, send_pos, dst, recv_pos, cost.link_occupancy(size)))
    msg_path = [None] * len(msgs)
    arrival = [None] * len(msgs)

    link_ids: dict[tuple[int, int], int] = {}
    link_free: list[float] = []
    link_busy: list[float] = []
    link_msgs: list[int] = []
    events: list[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    place, alpha = topology.place, cost.alpha
    event_count = finished = 0

    def issue(rank: int, p: int, t: float) -> None:
        issue_t[rank][p] = t
        m = msg_at[rank][p]
        if m < 0:  # compute
            node = nodes[rank][p]
            start_t[rank][p] = t
            push(events, (t + cost.comp_duration(node.attrs.op, node.attrs.comp_size),
                          _FINISH, rank, p))
        elif msgs[m][0] == rank:  # send
            path = []
            for link in route(topology, place(rank), place(msgs[m][2])):
                lid = link_ids.get(link)
                if lid is None:
                    lid = link_ids[link] = len(link_free)
                    link_free.append(0.0)
                    link_busy.append(0.0)
                    link_msgs.append(0)
                path.append(lid)
            msg_path[m] = path
            push(events, (t, _ENQUEUE, m, 0))
        else:  # recv; it waits for its message unless that was delivered
            start_t[rank][p] = t
            if arrival[m] is not None:
                push(events, (max(t, arrival[m]), _FINISH, rank, p))

    for rank, r in enumerate(readiness):
        for p in r.roots():
            issue(rank, p, 0.0)

    # Events are (t, _FINISH, rank, position) and (t, _ENQUEUE, message, hop).
    while events:
        t, what, a, b = pop(events)
        event_count += 1
        if what == _FINISH:
            finish_t[a][b] = t
            finished += 1
            for succ in finish[a](b):
                # events pop in time order, so the dep finishing last finishes now
                issue(a, succ, t)
            continue
        src, send_pos, dst, recv_pos, hold = msgs[a]
        path = msg_path[a]
        link = path[b]
        begin = link_free[link]
        if begin < t:
            begin = t
        departed = link_free[link] = begin + hold
        link_busy[link] += hold
        link_msgs[link] += 1
        if b == 0:
            start_t[src][send_pos] = begin
            push(events, (departed, _FINISH, src, send_pos))
        if b + 1 < len(path):
            push(events, (departed, _ENQUEUE, a, b + 1))
        else:
            delivered = arrival[a] = departed + alpha
            issued = issue_t[dst][recv_pos]
            if issued is not None:  # the recv was waiting
                push(events, (max(issued, delivered), _FINISH, dst, recv_pos))

    total_nodes = sum(map(len, nodes))
    if finished < total_nodes:
        waiting = sorted((dst, p) for (_, _, dst, p, _), delivered in zip(msgs, arrival)
                         if delivered is None and issue_t[dst][p] is not None)
        raise DeadlockError(
            f"simulation stalled with {total_nodes - finished} node(s) unfinished",
            [(rank, nodes[rank][p].id, nodes[rank][p].name) for rank, p in waiting])

    node_times = tuple(tuple(zip(r.ids, issue_t[rank], start_t[rank], finish_t[rank]))
                       for rank, r in enumerate(readiness))
    total = max((max(f) for f in finish_t if f), default=0.0)
    if not math.isfinite(total):  # every other time is at most the total
        raise SpecError("simulated time overflows a float; scale the costs down")
    stats = tuple((src, dst, link_msgs[lid], link_busy[lid])
                  for (src, dst), lid in sorted(link_ids.items()))
    return SimReport(trace.num_ranks, node_times, total, event_count, stats)


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
    capped at the number of cells and of CPUs."""
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
    return [(topo.label(), size, duration[topo, size],
             duration[topo, size] / duration[baseline, size])
            for topo in topologies for size in sizes]
