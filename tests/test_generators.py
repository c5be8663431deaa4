"""Generators: node counts, byte volumes, structure and validity."""

import pytest
from helpers import generator_oracle

from collgraph.errors import SpecError
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.trace import CollKind, NodeKind, check_trace, dumps_trace, require_matched
from collgraph.validator import PASS, check_semantics

MIB = 1024 * 1024


def kind_counts(trace, rank=0):
    counts = {}
    for node in trace.per_rank_nodes[rank]:
        counts[node.kind] = counts.get(node.kind, 0) + 1
    return counts


def bytes_sent(trace, rank):
    return sum(n.attrs.comm_size for n in trace.per_rank_nodes[rank]
               if n.kind is NodeKind.COMM_SEND)


@pytest.mark.parametrize("algo", list(Algorithm))
def test_single_rank_is_empty(algo):
    trace = generate(AlgoSpec(algo, 1, 1024))
    assert trace.per_rank_nodes == ((),)
    assert check_semantics(trace).status == PASS


def test_ring_all_reduce_n4_shape():
    trace = generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, 4, 4 * MIB))
    for rank in range(4):
        counts = kind_counts(trace, rank)
        assert counts == {NodeKind.COMM_SEND: 6, NodeKind.COMM_RECV: 6,
                          NodeKind.COMP: 3}
        assert len(trace.per_rank_nodes[rank]) == 15
    sizes = {n.attrs.comm_size for r in trace.per_rank_nodes for n in r
             if n.kind is not NodeKind.COMP}
    assert sizes == {MIB}
    assert trace.claimed_collective.kind is CollKind.ALL_REDUCE
    assert trace.claimed_collective.comm_size == 4 * MIB


def test_ring_all_gather_n4_shape():
    trace = generate(AlgoSpec(Algorithm.RING_ALL_GATHER, 4, MIB))
    for rank in range(4):
        assert kind_counts(trace, rank) == {NodeKind.COMM_SEND: 3, NodeKind.COMM_RECV: 3}
    sizes = {n.attrs.comm_size for r in trace.per_rank_nodes for n in r}
    assert sizes == {MIB}
    assert trace.claimed_collective.kind is CollKind.ALL_GATHER


def test_recursive_doubling_n8_doubles_sizes():
    trace = generate(AlgoSpec(Algorithm.RECURSIVE_DOUBLING_ALL_GATHER, 8, MIB))
    for rank in range(8):
        assert kind_counts(trace, rank) == {NodeKind.COMM_SEND: 3, NodeKind.COMM_RECV: 3}
        sends = sorted(n.attrs.comm_size for n in trace.per_rank_nodes[rank]
                       if n.kind is NodeKind.COMM_SEND)
        assert sends == [MIB, 2 * MIB, 4 * MIB]


def test_ring_sends_are_nearest_neighbor_only():
    for algo in (Algorithm.RING_ALL_REDUCE, Algorithm.RING_ALL_GATHER):
        for n in (2, 3, 5, 8):
            trace = generate(AlgoSpec(algo, n, n * 1024))
            for rank, nodes in enumerate(trace.per_rank_nodes):
                for node in nodes:
                    if node.kind is NodeKind.COMM_SEND:
                        assert node.attrs.dst_rank == (rank + 1) % n
                    elif node.kind is NodeKind.COMM_RECV:
                        assert node.attrs.src_rank == (rank - 1) % n


def test_recursive_doubling_partners_are_xor_neighbors():
    trace = generate(AlgoSpec(Algorithm.RECURSIVE_DOUBLING_ALL_GATHER, 8, MIB))
    for rank, nodes in enumerate(trace.per_rank_nodes):
        peers = sorted(n.attrs.dst_rank for n in nodes if n.kind is NodeKind.COMM_SEND)
        assert peers == sorted(rank ^ (1 << j) for j in range(3))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_total_bytes_sent_per_rank(n):
    s = n * 1024
    ar = generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, n, s))
    ag = generate(AlgoSpec(Algorithm.RING_ALL_GATHER, n, s))
    for rank in range(n):
        assert bytes_sent(ar, rank) == 2 * s * (n - 1) // n
        assert bytes_sent(ag, rank) == s * (n - 1)
    if n & (n - 1) == 0:
        rd = generate(AlgoSpec(Algorithm.RECURSIVE_DOUBLING_ALL_GATHER, n, s))
        for rank in range(n):
            assert bytes_sent(rd, rank) == s * (n - 1)


def test_all_rank_counts_up_to_16_are_valid_and_semantically_correct():
    for algo in Algorithm:
        for n in range(1, 17):
            if algo is Algorithm.RECURSIVE_DOUBLING_ALL_GATHER and n & (n - 1):
                continue
            trace = generate(AlgoSpec(algo, n, n * 64))
            check_trace(trace)
            require_matched(trace)
            assert check_semantics(trace).status == PASS, (algo, n)


@pytest.mark.parametrize("algo", list(Algorithm))
def test_generators_match_the_closed_form_oracle(algo):
    for n in range(1, 17):
        if algo is Algorithm.RECURSIVE_DOUBLING_ALL_GATHER and n & (n - 1):
            continue
        for size in (n * 64, n * 5 * MIB):
            spec = AlgoSpec(algo, n, size)
            trace, expected = generate(spec), generator_oracle(spec)
            assert trace == expected, spec
            assert dumps_trace(trace) == dumps_trace(expected), spec


def test_generation_is_deterministic():
    spec = AlgoSpec(Algorithm.RING_ALL_REDUCE, 6, 6 * 1024)
    assert generate(spec) == generate(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        (AlgoSpec(Algorithm.RECURSIVE_DOUBLING_ALL_GATHER, 6, 1024), "power-of-two"),
        (AlgoSpec(Algorithm.RING_ALL_REDUCE, 4, 1023), "divisible"),
        (AlgoSpec(Algorithm.RING_ALL_GATHER, 0, 1024), "num_ranks"),
        (AlgoSpec(Algorithm.RING_ALL_GATHER, 4, 0), "comm_size"),
        (AlgoSpec("ring-allreduce", 4, 64),
         "^algorithm must be an Algorithm, got 'ring-allreduce'$"),
        (AlgoSpec(Algorithm.RING_ALL_REDUCE, 4.0, 64), r"^num_ranks must be an int, got 4\.0$"),
        (AlgoSpec(Algorithm.RING_ALL_GATHER, 2, "64"), "^comm_size must be an int, got '64'$"),
        (AlgoSpec(Algorithm.RING_ALL_GATHER, True, 64), "^num_ranks must be an int, got True$"),
        (AlgoSpec(Algorithm.RING_ALL_GATHER, 2, False), "^comm_size must be an int, got False$"),
    ],
)
def test_spec_errors(spec, message):
    with pytest.raises(SpecError, match=message):
        generate(spec)


@pytest.mark.parametrize("algo", list(Algorithm))
def test_ranks_share_the_pieces_that_do_not_depend_on_the_rank(algo):
    """Node k's deps tuple is one object on every rank, and so is each name
    and chunk tuple: nodes that carry the same chunk share them."""
    trace = generate(AlgoSpec(algo, 8, 8 * 1024))
    rank0, rank1 = trace.per_rank_nodes[:2]
    assert all(a.deps is b.deps for a, b in zip(rank0, rank1, strict=True))
    names, chunks = {}, {}
    for nodes in trace.per_rank_nodes:
        for node in nodes:
            assert names.setdefault(node.name, node.name) is node.name
            assert chunks.setdefault(node.attrs.chunks, node.attrs.chunks) is node.attrs.chunks
    assert len(names) < len(rank0) * 8
