"""Builders for the named collective algorithms.

Every generator is a step table that `_streams` lays out as two streams per
rank. The send stream holds ids 0..T-1: send t waits for send t-1 and for
the last write of step t-1. The recv stream follows: recv t waits for that
write, and each of the first `reducing` recvs is followed by a REDUCE of
its chunks. A message or REDUCE of k chunks is k x unit bytes.
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
    _comp_node,
    _recv_node,
    _send_node,
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
        if not isinstance(self.algorithm, Algorithm):
            raise SpecError(f"algorithm must be an Algorithm, got {self.algorithm!r}")
        n, s = self.num_ranks, self.comm_size
        for name, value in (("num_ranks", n), ("comm_size", s)):
            if type(value) is not int:  # exact: a bool is an int too
                raise SpecError(f"{name} must be an int, got {value!r}")
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
    n, s = spec.num_ranks, spec.comm_size
    if spec.algorithm is Algorithm.RING_ALL_REDUCE:
        return _ring(CollDescriptor(CollKind.ALL_REDUCE, s), n, s // n, ("rs", "ag"))
    if spec.algorithm is Algorithm.RING_ALL_GATHER:
        return _ring(CollDescriptor(CollKind.ALL_GATHER, s), n, s, ("ag",))
    return _recursive_doubling_all_gather(n, s)


def _streams(claimed: CollDescriptor, n: int, unit: int, reducing: int, steps) -> CollectiveTrace:
    """The trace of `steps` in the module's two-stream layout. Step t is
    `(tag, send_peers, send_chunks, send_names, recv_peers, recv_chunks,
    recv_names, reduce_names)`, each field but the tag indexed by rank. Deps
    are ascending, as the private constructors need, and every deps tuple,
    name and chunk tuple is made once and shared by every rank."""
    recv_ids = [len(steps) + t + min(t, reducing) for t in range(len(steps))]
    done = [nid + (t < reducing) for t, nid in enumerate(recv_ids)]  # each step's last write
    sends = [(t, (t - 1, done[t - 1]) if t else ()) + step[:4] for t, step in enumerate(steps)]
    recvs = [(nid, (done[t - 1],) if t else (), (nid,) if t < reducing else None, step[0])
             + step[4:] for t, (nid, step) in enumerate(zip(recv_ids, steps))]
    longest = max((max(map(len, step[2] + step[5])) for step in steps), default=0)
    size_of = [k * unit for k in range(longest + 1)]  # one int per chunk count
    ranks = [[] for _ in range(n)]
    for r, nodes in enumerate(ranks):
        for t, deps, tag, peers, chunks, names in sends:
            ch = chunks[r]
            nodes.append(_send_node(t, names[r], deps, peers[r], size_of[len(ch)], tag, ch))
        for nid, deps, write, tag, peers, chunks, names, reduces in recvs:
            ch = chunks[r]
            size = size_of[len(ch)]
            nodes.append(_recv_node(nid, names[r], deps, peers[r], size, tag, ch))
            if write:  # the REDUCE's deps, None past the first `reducing` steps
                nodes.append(_comp_node(nid + 1, reduces[r], write, OP_REDUCE, size, ch, None))
    return CollectiveTrace(n, claimed, ranks)


def _ring(claimed: CollDescriptor, n: int, c: int, phases: tuple) -> CollectiveTrace:
    """Unidirectional ring: N-1 steps per phase, "rs" (reduce-scatter, each
    recv followed by a reduce) then "ag" (all-gather), send t carrying chunk
    (r - t) % n of c bytes to rank+1. All-reduce runs both on s/n-byte chunks;
    all-gather runs "ag" on whole s-byte inputs, a chunk being its origin rank."""
    def rotated(items: list, t: int) -> list:  # items[(r - t) % n] at index r
        return items[-t % n:] + items[:-t % n]
    nxt, prv = [(r + 1) % n for r in range(n)], [(r - 1) % n for r in range(n)]
    chunks, reduces = [(j,) for j in range(n)], [f"reduce_c{j}" for j in range(n)]
    steps = []
    for phase in phases:
        sends, recvs = ([f"{phase}_{op}_c{j}" for j in range(n)] for op in ("send", "recv"))
        steps += [(t, nxt, rotated(chunks, t), rotated(sends, t), prv, rotated(chunks, t + 1),
                   rotated(recvs, t + 1), rotated(reduces, t + 1))
                  for t in range(len(steps), len(steps) + n - 1)]
    return _streams(claimed, n, c, n - 1 if phases[0] == "rs" else 0, steps)


def _recursive_doubling_all_gather(n: int, s: int) -> CollectiveTrace:
    """log2(N) rounds; in round j each rank swaps its 2^j-chunk block r >> j
    (chunks of s bytes) with the partner at XOR distance 2^j."""
    steps = []
    for j in range(n.bit_length() - 1):  # n is a power of two
        peers = [r ^ (1 << j) for r in range(n)]
        blocks = [tuple(range(b << j, (b + 1) << j)) for b in range(n >> j)]
        own = [blocks[r >> j] for r in range(n)]
        steps.append((0, peers, own, [f"rd_send_r{j}"] * n, peers, [own[p] for p in peers],
                      [f"rd_recv_r{j}"] * n, None))
    return _streams(CollDescriptor(CollKind.ALL_GATHER, s), n, s, 0, steps)
