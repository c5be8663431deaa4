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
    CollectiveTrace,
    NodeKind,
    Readiness,
    Trace,
    WorkloadTrace,
    json_array,
    message_index,
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

    RING takes the shorter arc (ties clockwise); 2D kinds use dimension-order
    routing, columns before rows, with per-axis shortest wrap on the torus
    (ties toward increasing index); SWITCH relays through the hub node `n`.
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
    if kind is TopologyKind.RING:
        n = topology.n
        forward = (dst - src) % n
        step = 1 if forward <= n - forward else -1
        hops = forward if step == 1 else n - forward
        path = []
        node = src
        for _ in range(hops):
            nxt = (node + step) % n
            path.append((node, nxt))
            node = nxt
        return path
    # 2D mesh / torus, row-major, X (columns) first then Y (rows)
    cols, rows = topology.cols, topology.rows
    wrap = kind is TopologyKind.TORUS2D
    path = []
    node = src

    def walk(axis_pos, target, size, move):
        nonlocal node
        delta = (target - axis_pos) % size
        if wrap:
            step = 1 if delta <= size - delta else -1
            hops = delta if step == 1 else size - delta
        else:
            step = 1 if target > axis_pos else -1
            hops = abs(target - axis_pos)
        for _ in range(hops):
            nxt = move(node, step)
            path.append((node, nxt))
            node = nxt

    def move_col(at, step):
        r, c = divmod(at, cols)
        return r * cols + (c + step) % cols if wrap else r * cols + c + step

    def move_row(at, step):
        r, c = divmod(at, cols)
        return ((r + step) % rows) * cols + c if wrap else (r + step) * cols + c

    walk(src % cols, dst % cols, cols, move_col)
    walk(node // cols, dst // cols, rows, move_row)
    return path


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeTiming:
    issue: float
    start: float
    finish: float


@dataclass(frozen=True)
class LinkStats:
    src: int
    dst: int
    messages: int
    busy_time: float


@dataclass(frozen=True)
class SimReport:
    """Per-node timestamps plus link usage; a pure function of its inputs."""

    num_ranks: int
    node_times: tuple[tuple[tuple[int, NodeTiming], ...], ...]
    total_duration: float
    event_count: int
    link_stats: tuple[LinkStats, ...]

    def timing(self, rank: int, node_id: int) -> NodeTiming:
        for nid, t in self.node_times[rank]:
            if nid == node_id:
                return t
        raise KeyError(f"no node {node_id} on rank {rank}")

    def dumps(self) -> str:
        """The report as indent-2 JSON text, byte for byte what `json.dumps`
        writes; `simulate` keeps every time finite, so the text is strict JSON."""
        num = float.__repr__  # json's own float format
        ranks = json_array(
            [json_array([f'{{\n        "id": {nid},\n        "issue_s": {num(t.issue)},\n'
                         f'        "start_s": {num(t.start)},\n'
                         f'        "finish_s": {num(t.finish)}\n      }}'
                         for nid, t in rank_times], 4)
             for rank_times in self.node_times], 2)
        total = self.total_duration
        links = json_array(
            [f'{{\n      "src": {ls.src},\n      "dst": {ls.dst},\n'
             f'      "messages": {ls.messages},\n      "busy_s": {num(ls.busy_time)},\n'
             f'      "utilization": {num(ls.busy_time / total if total > 0 else 0.0)}\n    }}'
             for ls in self.link_stats], 2)
        return (f'{{\n  "total_duration_s": {num(total)},\n  "event_count": {self.event_count},\n'
                f'  "num_ranks": {self.num_ranks},\n  "ranks": {ranks},\n  "links": {links}\n}}\n')


_FINISH, _ENQUEUE = 0, 1


def simulate(trace: Trace, topology: Topology, cost: CostModel) -> SimReport:
    """Event-driven replay. Raises UnexpandedCollectiveError on COMM_COLL
    nodes, InvariantError (from `message_index`) on an unmatched send or
    recv, DeadlockError (naming the pending receives) if the event pool
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
    message_index(trace)

    readiness = [Readiness(rank_nodes) for rank_nodes in trace.per_rank_nodes]
    nodes = [r.nodes for r in readiness]
    total_nodes = sum(len(r) for r in nodes)

    issue_t: dict[tuple[int, int], float] = {}
    start_t: dict[tuple[int, int], float] = {}
    finish_t: dict[tuple[int, int], float] = {}
    # message bookkeeping, keyed (src, dst, tag)
    msg_info: dict[tuple[int, int, int], tuple[int, int, list[tuple[int, int]]]] = {}
    arrival: dict[tuple[int, int, int], float] = {}
    recv_wait: dict[tuple[int, int, int], tuple[int, int]] = {}

    link_free: dict[tuple[int, int], float] = {}
    link_busy: dict[tuple[int, int], float] = {}
    link_msgs: dict[tuple[int, int], int] = {}
    events: list[tuple] = []
    event_count = 0

    def issue(rank: int, nid: int, t: float) -> None:
        node = nodes[rank][nid]
        issue_t[(rank, nid)] = t
        if node.kind is NodeKind.COMP:
            dur = cost.comp_duration(node.attrs.op, node.attrs.comp_size)
            start_t[(rank, nid)] = t
            heapq.heappush(events, (t + dur, _FINISH, rank, nid))
        elif node.kind is NodeKind.COMM_SEND:
            key = (rank, node.attrs.dst_rank, node.attrs.tag)
            path = route(topology, topology.place(rank), topology.place(key[1]))
            msg_info[key] = (nid, node.attrs.comm_size, path)
            heapq.heappush(events, (t, _ENQUEUE, key[0], key[1], key[2], 0))
        else:  # COMM_RECV
            key = (node.attrs.src_rank, rank, node.attrs.tag)
            start_t[(rank, nid)] = t
            if key in arrival:
                heapq.heappush(events, (max(t, arrival[key]), _FINISH, rank, nid))
            else:
                recv_wait[key] = (rank, nid)

    for rank in range(trace.num_ranks):
        for nid in readiness[rank].roots():
            issue(rank, nid, 0.0)

    while events:
        event = heapq.heappop(events)
        event_count += 1
        t = event[0]
        if event[1] == _FINISH:
            _, _, rank, nid = event
            finish_t[(rank, nid)] = t
            for succ in readiness[rank].finish(nid):
                # events pop in time order, so the dep finishing last finishes now
                issue(rank, succ, t)
        else:
            _, _, src, dst, tag, hop = event
            key = (src, dst, tag)
            send_nid, size, path = msg_info[key]
            link = path[hop]
            begin = max(link_free.get(link, 0.0), t)
            hold = cost.link_occupancy(size)
            link_free[link] = begin + hold
            link_busy[link] = link_busy.get(link, 0.0) + hold
            link_msgs[link] = link_msgs.get(link, 0) + 1
            departed = begin + hold
            if hop == 0:
                start_t[(src, send_nid)] = begin
                heapq.heappush(events, (departed, _FINISH, src, send_nid))
            if hop + 1 < len(path):
                heapq.heappush(events, (departed, _ENQUEUE, src, dst, tag, hop + 1))
            else:
                delivered = departed + cost.alpha
                arrival[key] = delivered
                waiter = recv_wait.pop(key, None)
                if waiter is not None:
                    r, nid = waiter
                    heapq.heappush(events,
                                   (max(issue_t[(r, nid)], delivered), _FINISH, r, nid))

    if len(finish_t) < total_nodes:
        frontier = sorted(recv_wait.values())
        raise DeadlockError(
            f"simulation stalled with {total_nodes - len(finish_t)} node(s) unfinished",
            frontier)

    node_times = tuple(
        tuple(
            (nid, NodeTiming(issue_t[(rank, nid)], start_t[(rank, nid)],
                             finish_t[(rank, nid)]))
            for nid in sorted(nodes[rank])
        )
        for rank in range(trace.num_ranks)
    )
    total = max(finish_t.values(), default=0.0)
    if not math.isfinite(total):  # every other time is at most the total
        raise SpecError("simulated time overflows a float; scale the costs down")
    stats = tuple(
        LinkStats(link[0], link[1], link_msgs[link], link_busy[link])
        for link in sorted(link_busy)
    )
    return SimReport(trace.num_ranks, node_times, total, event_count, stats)


# ---------------------------------------------------------------------------
# Topology sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    topology: str
    size_bytes: int
    duration_s: float
    slowdown: float


def _sweep_cell(args) -> float:
    algo_value, num_ranks, size, topology, cost = args
    trace = generate(AlgoSpec(Algorithm(algo_value), num_ranks, size))
    return simulate(trace, topology, cost).total_duration


def sweep(
    algorithm: Algorithm,
    num_ranks: int,
    sizes: list[int],
    topologies: list[Topology],
    cost: CostModel,
    baseline: Optional[Topology] = None,
    jobs: int = 1,
) -> list[SweepRow]:
    """Simulate `algorithm` for every (topology, size) cell and report each
    duration plus its slowdown against the baseline topology (a ring of the
    same rank count unless given). Rows keep the given topology order with
    sizes ascending; the result is independent of `jobs`, which is capped at
    the number of cells and of CPUs."""
    if baseline is None:
        baseline = Topology.ring(num_ranks)
    sizes = sorted(sizes)
    labeled = [(topo.label(), topo) for topo in topologies]
    tasks = [(baseline.label(), baseline, size) for size in sizes]
    for label, topo in labeled:
        if label != baseline.label():
            tasks += [(label, topo, size) for size in sizes]
    args = [(algorithm.value, num_ranks, size, topo, cost) for _, topo, size in tasks]
    workers = min(jobs, len(args), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            durations = list(pool.map(_sweep_cell, args))
    else:
        durations = [_sweep_cell(a) for a in args]
    by_cell = {(label, size): d for (label, _, size), d in zip(tasks, durations)}
    rows = []
    for label, _ in labeled:
        for size in sizes:
            duration = by_cell[(label, size)]
            rows.append(SweepRow(label, size, duration,
                                 duration / by_cell[(baseline.label(), size)]))
    return rows
