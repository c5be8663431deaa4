"""Builders for the named collective algorithms.

Each generator emits one dependency graph per rank, laid out as two streams
that mirror how such algorithms are executed: a send stream (all outgoing
messages, chained) and a receive stream (recv and reduce nodes, chained).
Cross-stream edges tie every send to the local node that produced the chunk
it transmits. Tags are assigned per (src, dst) direction in FIFO order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import SpecError
from .trace import (
    OP_REDUCE,
    CollDescriptor,
    CollKind,
    CollectiveTrace,
    NodeKind,
    _comp,
    _node,
    _recv as _recv_attrs,
    _send as _send_attrs,
    check_trace,  # noqa: F401 -- kept importable: perfbench/tracer.py rebinds it
)


class Algorithm(Enum):
    RING_ALL_REDUCE = "ring-allreduce"
    RING_ALL_GATHER = "ring-allgather"
    RECURSIVE_DOUBLING_ALL_GATHER = "rd-allgather"


@dataclass(frozen=True)
class AlgoSpec:
    algorithm: Algorithm
    num_ranks: int
    comm_size: int

    def validate(self) -> None:
        n, s = self.num_ranks, self.comm_size
        if n < 1:
            raise SpecError(f"num_ranks must be positive, got {n}")
        if s < 1:
            raise SpecError(f"comm_size must be positive, got {s}")
        if self.algorithm is Algorithm.RECURSIVE_DOUBLING_ALL_GATHER and n & (n - 1):
            raise SpecError(f"recursive doubling needs a power-of-two rank count, got {n}")
        if self.algorithm is Algorithm.RING_ALL_REDUCE and s % n:
            raise SpecError(f"ring all-reduce needs comm_size divisible by num_ranks "
                            f"({s} % {n} != 0)")


def generate(spec: AlgoSpec) -> CollectiveTrace:
    """Build the CollectiveTrace of the requested algorithm (checked, like
    every trace, when it is built)."""
    spec.validate()
    if spec.algorithm is Algorithm.RING_ALL_REDUCE:
        return _ring_all_reduce(spec.num_ranks, spec.comm_size)
    if spec.algorithm is Algorithm.RING_ALL_GATHER:
        return _ring_all_gather(spec.num_ranks, spec.comm_size)
    return _recursive_doubling_all_gather(spec.num_ranks, spec.comm_size)


# Nodes go through the private constructors: every `deps` list below is
# written in ascending order.
def _send(nid, dst, size, tag, deps, chunk_list, name):
    return _node(nid, name, NodeKind.COMM_SEND, tuple(deps),
                 _send_attrs(dst, size, tag, tuple(chunk_list)))


def _recv(nid, src, size, tag, deps, chunk_list, name):
    return _node(nid, name, NodeKind.COMM_RECV, tuple(deps),
                 _recv_attrs(src, size, tag, tuple(chunk_list)))


def _reduce(nid, size, deps, chunk_list, name):
    return _node(nid, name, NodeKind.COMP, tuple(deps),
                 _comp(OP_REDUCE, size, tuple(chunk_list), None))


def _ring_all_reduce(n: int, s: int) -> CollectiveTrace:
    """Unidirectional ring: N-1 reduce-scatter steps, then N-1 all-gather
    steps; every message is one chunk of s/n bytes sent to rank+1."""
    claimed = CollDescriptor(CollKind.ALL_REDUCE, s)
    c = s // n
    steps = n - 1
    ranks = []
    for r in range(n):
        nxt, prv = (r + 1) % n, (r - 1) % n
        # Send stream: ids 0 .. 2*steps-1. Recv stream follows: phase-1
        # recv/reduce pairs, then phase-2 recvs.
        base = 2 * steps
        rs_recv = lambda k: base + 2 * k          # noqa: E731
        rs_comp = lambda k: base + 2 * k + 1      # noqa: E731
        ag_recv = lambda k: base + 2 * steps + k  # noqa: E731
        nodes = []
        for k in range(steps):  # phase 1: reduce-scatter sends
            chunk = (r - k) % n
            deps = [] if k == 0 else [k - 1, rs_comp(k - 1)]
            nodes.append(_send(k, nxt, c, k, deps, [chunk], f"rs_send_c{chunk}"))
        for k in range(steps):  # phase 2: all-gather sends
            chunk = (r + 1 - k) % n
            deps = [steps - 1, rs_comp(steps - 1)] if k == 0 else \
                   [steps + k - 1, ag_recv(k - 1)]
            nodes.append(_send(steps + k, nxt, c, steps + k, deps, [chunk],
                               f"ag_send_c{chunk}"))
        for k in range(steps):  # phase 1: recv + reduce chain
            chunk = (r - k - 1) % n
            deps = [] if k == 0 else [rs_comp(k - 1)]
            nodes.append(_recv(rs_recv(k), prv, c, k, deps, [chunk], f"rs_recv_c{chunk}"))
            nodes.append(_reduce(rs_comp(k), c, [rs_recv(k)], [chunk], f"reduce_c{chunk}"))
        for k in range(steps):  # phase 2: recv chain, no compute
            chunk = (r - k) % n
            deps = [rs_comp(steps - 1)] if k == 0 else [ag_recv(k - 1)]
            nodes.append(_recv(ag_recv(k), prv, c, steps + k, deps, [chunk],
                               f"ag_recv_c{chunk}"))
        ranks.append(nodes)
    return CollectiveTrace(n, claimed, ranks)


def _ring_all_gather(n: int, s: int) -> CollectiveTrace:
    """Unidirectional ring all-gather: N-1 steps forwarding whole per-rank
    inputs of s bytes; chunk index = originating rank."""
    claimed = CollDescriptor(CollKind.ALL_GATHER, s)
    steps = n - 1
    ranks = []
    for r in range(n):
        nxt, prv = (r + 1) % n, (r - 1) % n
        nodes = []
        for k in range(steps):
            chunk = (r - k) % n
            deps = [] if k == 0 else [k - 1, steps + k - 1]
            nodes.append(_send(k, nxt, s, k, deps, [chunk], f"ag_send_c{chunk}"))
        for k in range(steps):
            chunk = (r - k - 1) % n
            deps = [] if k == 0 else [steps + k - 1]
            nodes.append(_recv(steps + k, prv, s, k, deps, [chunk], f"ag_recv_c{chunk}"))
        ranks.append(nodes)
    return CollectiveTrace(n, claimed, ranks)


def _recursive_doubling_all_gather(n: int, s: int) -> CollectiveTrace:
    """log2(N) rounds; in round j each rank swaps its accumulated 2^j-chunk
    block with the partner at XOR distance 2^j."""
    claimed = CollDescriptor(CollKind.ALL_GATHER, s)
    rounds = n.bit_length() - 1  # n is a power of two
    ranks = []
    for r in range(n):
        nodes = []
        for j in range(rounds):  # send stream: ids 0..rounds-1
            peer = r ^ (1 << j)
            width = 1 << j
            own_lo = (r >> j) << j
            deps = [] if j == 0 else [j - 1, rounds + j - 1]
            nodes.append(_send(j, peer, width * s, 0, deps,
                               range(own_lo, own_lo + width), f"rd_send_r{j}"))
        for j in range(rounds):  # recv stream: ids rounds..2*rounds-1
            peer = r ^ (1 << j)
            width = 1 << j
            peer_lo = (peer >> j) << j
            deps = [] if j == 0 else [rounds + j - 1]
            nodes.append(_recv(rounds + j, peer, width * s, 0, deps,
                               range(peer_lo, peer_lo + width), f"rd_recv_r{j}"))
        ranks.append(nodes)
    return CollectiveTrace(n, claimed, ranks)
