"""Semantic validator: oracle cross-checks, mutation sweeps, confluence,
deadlock detection and canonical-form isomorphism."""

import pytest
from helpers import (
    concrete_execute,
    delete_node,
    full_mask,
    rendezvous_completes,
    rewrite_peer,
)

from collgraph.errors import CollGraphError, CycleError, InvariantError, StuckError
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.msccl import convert_to_trace, parse_msccl_xml
from collgraph.trace import (
    CollDescriptor,
    CollKind,
    CollectiveTrace,
    NodeKind,
    RecvAttrs,
    SendAttrs,
    TraceBuilder,
    TraceNode,
    load_trace,
    toposort_rank,
)
from collgraph.validator import (
    FAIL,
    PASS,
    SKIPPED,
    Verdict,
    _Exec,
    canonical_form,
    check_semantics,
    isomorphic,
)

MIB = 1024 * 1024


def gen(algo, n, s=None):
    return generate(AlgoSpec(algo, n, s if s is not None else n * 1024))


# ---------------------------------------------------------------------------
# Oracle cross-checks: independent concrete execution with bitmask payloads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_ring_all_reduce_against_concrete_oracle(n):
    trace = gen(Algorithm.RING_ALL_REDUCE, n)
    state = concrete_execute(trace, n)
    for rank in range(n):
        for chunk in range(n):
            assert state[rank][chunk] == full_mask(n, n, chunk), (rank, chunk)
    assert check_semantics(trace).status == PASS


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_ring_all_gather_against_concrete_oracle(n):
    trace = gen(Algorithm.RING_ALL_GATHER, n)
    state = concrete_execute(trace, n)
    for rank in range(n):
        for chunk in range(n):
            # unreduced: exactly the originating rank's contribution
            assert state[rank][chunk] == 1 << (chunk * n + chunk)
    assert check_semantics(trace).status == PASS


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_recursive_doubling_against_concrete_oracle(n):
    trace = gen(Algorithm.RECURSIVE_DOUBLING_ALL_GATHER, n)
    state = concrete_execute(trace, n)
    for rank in range(n):
        for chunk in range(n):
            assert state[rank][chunk] == 1 << (chunk * n + chunk)
    assert check_semantics(trace).status == PASS


def test_hand_enumerated_two_rank_all_reduce_table():
    # N=2, chunks {0, 1}: rank r starts owning both chunks.
    # step 1: r sends chunk r, receives chunk 1-r, reduces it.
    # step 2: r forwards reduced chunk 1-r, receives reduced chunk r.
    trace = gen(Algorithm.RING_ALL_REDUCE, 2, 2048)
    state = concrete_execute(trace, 2)
    own = {(r, j): 1 << (r * 2 + j) for r in range(2) for j in range(2)}
    expected = {
        0: {0: own[0, 0] | own[1, 0], 1: own[0, 1] | own[1, 1]},
        1: {0: own[0, 0] | own[1, 0], 1: own[0, 1] | own[1, 1]},
    }
    assert state[0] == expected[0]
    assert state[1] == expected[1]


def test_validator_pass_for_all_generators_up_to_16():
    for algo in Algorithm:
        for n in list(range(1, 17)) if algo is not Algorithm.RECURSIVE_DOUBLING_ALL_GATHER \
                else [1, 2, 4, 8, 16]:
            assert check_semantics(gen(algo, n)).status == PASS, (algo, n)


# ---------------------------------------------------------------------------
# Mutation sweeps: no mutation may slip through as PASS
# ---------------------------------------------------------------------------

def non_pass(trace) -> bool:
    try:
        return check_semantics(trace).status != PASS
    except (StuckError, CollGraphError):
        return True


def rank_counts(algo):
    return [2, 4, 8] if algo is Algorithm.RECURSIVE_DOUBLING_ALL_GATHER \
        else list(range(2, 9))


@pytest.mark.parametrize("algo", list(Algorithm))
def test_every_single_node_deletion_is_caught(algo):
    for n in rank_counts(algo):
        trace = gen(algo, n)
        for rank in range(n):
            for node in trace.per_rank_nodes[rank]:
                assert non_pass(delete_node(trace, rank, node.id)), \
                    (algo, n, rank, node.id)


@pytest.mark.parametrize("algo", list(Algorithm))
def test_every_single_peer_rewrite_is_caught(algo):
    for n in rank_counts(algo):
        trace = gen(algo, n)
        for rank in range(n):
            for node in trace.per_rank_nodes[rank]:
                if node.kind is NodeKind.COMP:
                    continue
                peer = node.attrs.dst_rank if node.kind is NodeKind.COMM_SEND \
                    else node.attrs.src_rank
                for new_peer in range(n):
                    if new_peer in (rank, peer):
                        continue
                    try:  # a duplicate tag is rejected when the trace is built
                        mutated = rewrite_peer(trace, rank, node.id, new_peer)
                    except InvariantError:
                        continue
                    assert non_pass(mutated), (algo, n, rank, node.id, new_peer)


def test_deleted_recv_reports_fail_or_stuck_never_pass():
    trace = gen(Algorithm.RING_ALL_GATHER, 4, MIB)
    recv = next(n for n in trace.per_rank_nodes[2] if n.kind is NodeKind.COMM_RECV)
    broken = delete_node(trace, 2, recv.id)
    try:
        verdict = check_semantics(broken)
        assert verdict.status == FAIL
        assert any(v.get("rank") == 2 for v in verdict.violations)
    except StuckError:
        pass


def test_wrong_chunk_annotation_fails_with_slot_details():
    trace = gen(Algorithm.RING_ALL_GATHER, 3, 999)
    rank1 = []
    for node in trace.per_rank_nodes[1]:
        if node.kind is NodeKind.COMM_RECV and node.attrs.chunks == (0,):
            # claim the payload landed in slot 2 instead of slot 0
            node = TraceNode(node.id, node.name, node.kind, node.deps,
                             RecvAttrs(node.attrs.src_rank, node.attrs.comm_size,
                                       node.attrs.tag, (2,)))
        rank1.append(node)
    broken = CollectiveTrace(3, trace.claimed_collective,
                             [trace.per_rank_nodes[0], rank1, trace.per_rank_nodes[2]])
    verdict = check_semantics(broken)
    assert verdict.status == FAIL
    assert verdict.violations[0]["rank"] == 1
    assert any("expected" in v for v in verdict.violations)


# ---------------------------------------------------------------------------
# Execution-order independence and deadlock
# ---------------------------------------------------------------------------

def final_state(trace, seed):
    import random

    ex = _Exec(trace, True, random.Random(seed))
    ex.seed_initial_state(trace.claimed_collective, trace.num_ranks)
    ex.run()
    return ex.state


def test_confluence_over_100_random_orders():
    trace = gen(Algorithm.RING_ALL_REDUCE, 4, 4096)
    reference = final_state(trace, None if False else 0)
    for seed in range(1, 100):
        assert final_state(trace, seed) == reference
    for seed in (0, 7, 99):
        assert check_semantics(trace, order_seed=seed).status == PASS


def test_circular_wait_raises_stuck_with_both_recvs(fixtures_dir):
    trace = load_trace(fixtures_dir / "circular_wait.json")
    with pytest.raises(StuckError) as exc:
        check_semantics(trace)
    assert exc.value.frontier == [(0, 0), (1, 0)]
    assert str(exc.value).endswith("frontier: (0, 0) 'recv_first', (1, 0) 'recv_first'")


def send_before_recv_pair():
    # Both ranks send before receiving: fine eagerly, deadlock in rendezvous
    # because neither recv is posted until the local send completed.
    b = TraceBuilder(2)
    for rank, peer in ((0, 1), (1, 0)):
        s = b.add_send(rank, peer, 64)
        b.add_recv(rank, peer, 64, deps=[s])
    return b.build_collective(None)


def test_eager_pass_with_rendezvous_warning():
    verdict = check_semantics(send_before_recv_pair())
    assert verdict.status == SKIPPED  # no chunk metadata, but it ran
    assert any("rendezvous" in w for w in verdict.warnings)


def test_sendrecv_pairs_have_no_rendezvous_warning():
    trace = gen(Algorithm.RING_ALL_REDUCE, 4, 4096)
    assert check_semantics(trace).warnings == []


def rendezvous_runs(trace) -> bool:
    """The validator's answer to "does every node run under rendezvous
    sends": no warning, or, when eager execution is already stuck and
    there is no verdict, the rendezvous run itself."""
    try:
        warnings = check_semantics(trace).warnings
    except StuckError:
        try:
            _Exec(trace, False, None, rendezvous=True).run()
        except StuckError:
            return False
        return True
    return not any("rendezvous" in w for w in warnings)


def test_rendezvous_warning_matches_oracle_on_generator_traces():
    for algo in Algorithm:
        ranks = [1, 2, 4, 8] if algo is Algorithm.RECURSIVE_DOUBLING_ALL_GATHER \
            else range(1, 9)
        for n in ranks:
            trace = gen(algo, n)
            assert rendezvous_runs(trace) == rendezvous_completes(trace), (algo, n)


def test_rendezvous_warning_matches_oracle_on_single_node_deletions():
    # the deletion set of acceptance criterion 3
    checked = 0
    for algo in Algorithm:
        ranks = [2, 4] if algo is Algorithm.RECURSIVE_DOUBLING_ALL_GATHER else range(2, 6)
        for n in ranks:
            trace = gen(algo, n)
            for rank in range(n):
                for node in trace.per_rank_nodes[rank]:
                    mutated = delete_node(trace, rank, node.id)
                    assert rendezvous_runs(mutated) == rendezvous_completes(mutated), \
                        (algo, n, rank, node.id)
                    checked += 1
    assert checked > 100


def test_rendezvous_warning_matches_oracle_on_deadlocks(fixtures_dir):
    circular = load_trace(fixtures_dir / "circular_wait.json")
    assert not rendezvous_runs(circular) and not rendezvous_completes(circular)
    pair = send_before_recv_pair()
    assert not rendezvous_runs(pair) and not rendezvous_completes(pair)


# ---------------------------------------------------------------------------
# SKIPPED paths and degenerate traces
# ---------------------------------------------------------------------------

def test_empty_single_rank_trace_passes_for_reduce_and_gather():
    for kind in (CollKind.ALL_REDUCE, CollKind.ALL_GATHER):
        trace = CollectiveTrace(1, CollDescriptor(kind, 4096), [[]])
        assert check_semantics(trace).status == PASS


def test_missing_chunk_metadata_is_skipped_not_guessed():
    b = TraceBuilder(2)
    s = b.add_send(0, 1, 64)
    b.add_recv(1, 0, 64)
    trace = b.build_collective(CollDescriptor(CollKind.ALL_GATHER, 64))
    assert check_semantics(trace).status == SKIPPED


def two_rank_message(kind, chunks, recv_chunks=None):
    """One send from rank 0 to rank 1 carrying `chunks`, claiming `kind`."""
    b = TraceBuilder(2)
    b.add_send(0, 1, 64, chunks=chunks)
    b.add_recv(1, 0, 64, chunks=chunks if recv_chunks is None else recv_chunks)
    return b.build_collective(CollDescriptor(kind, 64))


def test_send_and_recv_chunk_lists_of_different_lengths_are_an_input_error():
    trace = two_rank_message(CollKind.ALL_REDUCE, [0], [0, 1])
    with pytest.raises(InvariantError, match=r"chunk metadata disagree.*\(rank 1, node 0\)"):
        check_semantics(trace)


def test_indivisible_all_gather_chunk_space_is_reported():
    verdict = check_semantics(two_rank_message(CollKind.ALL_GATHER, [0, 1, 2]))
    assert verdict.status == FAIL
    assert verdict.violations[-1] == {
        "rank": None, "chunk": None, "error": "chunk space of 3 not divisible by 2 ranks"}


@pytest.mark.parametrize("chunks, error", [
    ([200_000], "chunk ids are not 0..200000: 200000 missing (0, 1, 2, 3, 4, 5, 6, 7, ...)"),
    ([0, 2, 5], "chunk ids are not 0..5: 3 missing (1, 3, 4)"),
])
def test_a_chunk_space_with_gaps_is_one_violation(chunks, error):
    verdict = check_semantics(two_rank_message(CollKind.ALL_REDUCE, chunks))
    assert verdict.to_json() == {
        "verdict": FAIL, "violations": [{"rank": None, "chunk": None, "error": error}],
        "stuck_nodes": [], "warnings": []}


def test_unclaimed_trace_is_skipped():
    trace = gen(Algorithm.RING_ALL_REDUCE, 2, 2048)
    unclaimed = CollectiveTrace(2, None, trace.per_rank_nodes)
    assert check_semantics(unclaimed).status == SKIPPED


def test_verdict_json_shape():
    verdict = Verdict(PASS)
    assert verdict.to_json() == {
        "verdict": "PASS", "violations": [], "stuck_nodes": [], "warnings": []}
    stuck = Verdict("STUCK", stuck_nodes=[[0, 3]])
    assert stuck.to_json() == {
        "verdict": "STUCK", "violations": [], "stuck_nodes": [[0, 3]], "warnings": []}


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def shift_ids(trace, offset):
    ranks = []
    for nodes in trace.per_rank_nodes:
        ranks.append(tuple(
            TraceNode(n.id + offset, n.name, n.kind,
                      tuple(d + offset for d in n.deps), n.attrs)
            for n in nodes))
    return CollectiveTrace(trace.num_ranks, trace.claimed_collective, ranks)


def test_isomorphic_under_uniform_id_shift():
    trace = gen(Algorithm.RING_ALL_REDUCE, 4, 4 * MIB)
    assert isomorphic(trace, shift_ids(trace, 100))


def test_isomorphic_ignores_names_and_raw_tag_values():
    trace = gen(Algorithm.RING_ALL_GATHER, 3, 300)
    renamed = CollectiveTrace(3, trace.claimed_collective, [
        tuple(TraceNode(n.id, "x", n.kind, n.deps,
                        SendAttrs(n.attrs.dst_rank, n.attrs.comm_size,
                                  n.attrs.tag * 10 + 5, n.attrs.chunks)
                        if n.kind is NodeKind.COMM_SEND else
                        RecvAttrs(n.attrs.src_rank, n.attrs.comm_size,
                                  n.attrs.tag * 10 + 5, n.attrs.chunks)
                        if n.kind is NodeKind.COMM_RECV else n.attrs)
              for n in nodes)
        for nodes in trace.per_rank_nodes])
    assert isomorphic(trace, renamed)


def test_different_collectives_are_not_isomorphic():
    ar = gen(Algorithm.RING_ALL_REDUCE, 4, 4 * MIB)
    ag = gen(Algorithm.RING_ALL_GATHER, 4, 4 * MIB)
    assert not isomorphic(ar, ag)


def test_traces_of_different_rank_counts_are_not_isomorphic():
    assert not isomorphic(gen(Algorithm.RING_ALL_REDUCE, 2), gen(Algorithm.RING_ALL_REDUCE, 3))


def test_peer_rewrite_breaks_isomorphism():
    trace = gen(Algorithm.RING_ALL_GATHER, 4, 444)
    send = next(n for n in trace.per_rank_nodes[0] if n.kind is NodeKind.COMM_SEND)
    assert not isomorphic(trace, rewrite_peer(trace, 0, send.id, 2))


def test_converted_fixture_matches_generator(fixtures_dir):
    program = parse_msccl_xml(fixtures_dir / "ring_allreduce_n4.xml")
    converted = convert_to_trace(program, 4 * MIB)
    assert isomorphic(converted, gen(Algorithm.RING_ALL_REDUCE, 4, 4 * MIB))


def _unchecked(num_ranks, ranks):
    # A trace that skipped construction's check, as an unpickled one does;
    # canonical_form and toposort_rank must still report its cycle.
    trace = object.__new__(CollectiveTrace)
    object.__setattr__(trace, "num_ranks", num_ranks)
    object.__setattr__(trace, "claimed_collective", None)
    object.__setattr__(trace, "per_rank_nodes", tuple(map(tuple, ranks)))
    return trace


def test_canonical_form_raises_on_cycles():
    from collgraph.trace import CompAttrs

    nodes = [
        TraceNode(0, "a", NodeKind.COMP, (1,), CompAttrs("NOP", 0)),
        TraceNode(1, "b", NodeKind.COMP, (0,), CompAttrs("NOP", 0)),
    ]
    with pytest.raises(InvariantError, match="dependency cycle") as built:
        CollectiveTrace(1, None, [nodes])
    assert isinstance(built.value.__cause__, CycleError)
    with pytest.raises(CycleError):
        canonical_form(_unchecked(1, [nodes]))


def test_toposort_and_canonical_form_report_the_same_cycle():
    from collgraph.trace import CompAttrs

    # 0 is a root; 1 -> 3 -> 2 -> 1 is the cycle; 4 hangs off it
    deps = {0: (), 1: (0, 3), 2: (1,), 3: (2,), 4: (3,)}
    nodes = [TraceNode(nid, f"n{nid}", NodeKind.COMP, d, CompAttrs("NOP", 0))
             for nid, d in deps.items()]
    with pytest.raises(InvariantError, match="dependency cycle") as built:
        CollectiveTrace(1, None, [nodes])
    cyclic = _unchecked(1, [nodes])
    with pytest.raises(CycleError) as topo:
        toposort_rank(cyclic, 0)
    with pytest.raises(CycleError) as canon:
        canonical_form(cyclic)
    assert built.value.__cause__.cycle == topo.value.cycle == canon.value.cycle == [1, 3, 2]
    assert str(topo.value) == str(canon.value)
