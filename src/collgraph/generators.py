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


# Nodes go through the private constructors: every `deps` tuple below is in
# ascending order. What does not depend on the rank (deps, tags, names and
# chunk tuples) is built once per trace and shared by every rank.
def _chunk_names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_c{chunk}" for chunk in range(n)]


def _ring(claimed: CollDescriptor, n: int, c: int, phases: tuple) -> CollectiveTrace:
    """Unidirectional ring: N-1 steps per phase, "rs" (reduce-scatter, each
    recv followed by a reduce) then "ag" (all-gather); every message is one
    chunk of c bytes sent to rank+1. Ring all-reduce runs both phases on
    chunks of s/n bytes. Ring all-gather is its "ag" phase alone on whole
    inputs of s bytes, so a chunk index is the originating rank."""
    steps = n - 1
    total = len(phases) * steps
    reducing = steps if phases[0] == "rs" else 0  # the recvs followed by a reduce
    # Send stream: ids and tags t = 0 .. total-1, send t carrying chunk
    # (r - t) % n. Recv stream: the reduce-scatter recv/reduce pairs, then
    # the all-gather recvs, recv t taking chunk (r - t - 1) % n.
    recv_ids = [total + 2 * t if t < reducing else total + reducing + t for t in range(total)]
    done = [nid + 1 for nid in recv_ids[:reducing]] + recv_ids[reducing:]  # last writer
    send_deps = [()] + [(t - 1, done[t - 1]) for t in range(1, total)]
    recv_deps = [()] + [(done[t - 1],) for t in range(1, total)]
    reduce_deps = [(nid,) for nid in recv_ids[:reducing]]
    send_names = sum(([_chunk_names(f"{phase}_send", n)] * steps for phase in phases), [])
    recv_names = sum(([_chunk_names(f"{phase}_recv", n)] * steps for phase in phases), [])
    reduce_names = _chunk_names("reduce", n)
    chunks = [(chunk,) for chunk in range(n)]
    ranks = []
    for r in range(n):
        nxt, prv = (r + 1) % n, (r - 1) % n
        nodes = []
        for t in range(total):
            j = (r - t) % n
            nodes.append(_send_node(t, send_names[t][j], send_deps[t], nxt, c, t, chunks[j]))
        for t in range(total):
            j = (r - t - 1) % n
            nodes.append(_recv_node(recv_ids[t], recv_names[t][j], recv_deps[t], prv, c, t,
                                    chunks[j]))
            if t < reducing:
                nodes.append(_comp_node(done[t], reduce_names[j], reduce_deps[t], OP_REDUCE,
                                        c, chunks[j], None))
        ranks.append(nodes)
    return CollectiveTrace(n, claimed, ranks)


def _recursive_doubling_all_gather(n: int, s: int) -> CollectiveTrace:
    """log2(N) rounds; in round j each rank swaps its accumulated 2^j-chunk
    block with the partner at XOR distance 2^j."""
    claimed = CollDescriptor(CollKind.ALL_GATHER, s)
    rounds = n.bit_length() - 1  # n is a power of two
    send_deps = [()] + [(j - 1, rounds + j - 1) for j in range(1, rounds)]
    recv_deps = [()] + [(rounds + j - 1,) for j in range(1, rounds)]
    send_names = [f"rd_send_r{j}" for j in range(rounds)]
    recv_names = [f"rd_recv_r{j}" for j in range(rounds)]
    # blocks[j][b]: the 2^j chunks of block b in round j, the block of rank r being r >> j
    blocks = [[tuple(range(b << j, (b + 1) << j)) for b in range(n >> j)] for j in range(rounds)]
    ranks = []
    for r in range(n):
        nodes = []
        for j in range(rounds):  # send stream: ids 0..rounds-1
            nodes.append(_send_node(j, send_names[j], send_deps[j], r ^ (1 << j), s << j, 0,
                                    blocks[j][r >> j]))
        for j in range(rounds):  # recv stream: ids rounds..2*rounds-1
            peer = r ^ (1 << j)
            nodes.append(_recv_node(rounds + j, recv_names[j], recv_deps[j], peer, s << j, 0,
                                    blocks[j][peer >> j]))
        ranks.append(nodes)
    return CollectiveTrace(n, claimed, ranks)
