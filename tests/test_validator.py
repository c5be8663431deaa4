"""Semantic validator: oracle cross-checks, mutation sweeps, confluence,
deadlock detection and canonical-form isomorphism."""

import logging
import random
from dataclasses import replace

import pytest
from helpers import (
    concrete_execute,
    delete_node,
    full_mask,
    rendezvous_completes,
    rewrite_peer,
    validator_state,
)

from collgraph.errors import (
    CollGraphError,
    CycleError,
    InvariantError,
    SpecError,
    StuckError,
    UnexpandedCollectiveError,
)
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.msccl import convert_to_trace, parse_msccl_xml
from collgraph.trace import (
    CollDescriptor,
    CollKind,
    CollectiveTrace,
    NodeKind,
    Readiness,
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
    _peers,
    _schedule,
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


def test_copy_reads_every_source_before_it_writes():
    """A COPY of chunks (1, 0) into (0, 1) is a swap in the validator and in
    the oracle: both read all sources first."""
    builder = TraceBuilder(1)
    builder.add_comp(0, "COPY", 64, chunks=[0, 1], src_chunks=[1, 0])
    trace = builder.build_collective(CollDescriptor(CollKind.ALL_REDUCE, 128))
    assert validator_state(trace, 2) == [{0: frozenset({(0, 1)}), 1: frozenset({(0, 0)})}]
    assert concrete_execute(trace, 2) == [{0: 1 << 1, 1: 1 << 0}]


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


def resized(trace, size_of):
    """`trace` with each node's bytes set to `size_of(rank, node)`, or kept
    where that is None."""
    def node_of(rank, node):
        size = size_of(rank, node)
        if size is None:
            return node
        field = "comp_size" if node.kind is NodeKind.COMP else "comm_size"
        return replace(node, attrs=replace(node.attrs, **{field: size}))
    return CollectiveTrace(trace.num_ranks, trace.claimed_collective, [
        [node_of(rank, node) for node in nodes]
        for rank, nodes in enumerate(trace.per_rank_nodes)])


def size_error(size, count, unit):
    return f"size {size} B is not {count} chunk(s) x {unit} B = {count * unit} B"


def test_a_pass_certifies_the_bytes_of_every_message():
    """Shrinking every message of a 4-rank 4,096 B ring all-reduce to 8 B,
    each recv with its send, keeps every chunk right but moves other bytes
    than the claim: each send and recv is a violation."""
    trace = gen(Algorithm.RING_ALL_REDUCE, 4, 4096)
    shrunk = resized(trace, lambda rank, node: None if node.kind is NodeKind.COMP else 8)
    verdict = check_semantics(shrunk)
    assert verdict.status == FAIL
    assert verdict.violations == [
        {"rank": rank, "node": node.id, "name": node.name, "error": size_error(8, 1, 1024)}
        for rank, nodes in enumerate(trace.per_rank_nodes) for node in nodes
        if node.kind is not NodeKind.COMP]


def test_one_message_resized_with_its_recv_names_both_nodes():
    trace = gen(Algorithm.RING_ALL_REDUCE, 4, 4096)
    src, dst, send_id, recv_id, _ = trace.messages[5]
    chosen = {(src, send_id), (dst, recv_id)}
    verdict = check_semantics(resized(
        trace, lambda rank, node: 2048 if (rank, node.id) in chosen else None))
    assert verdict.status == FAIL
    name = {(rank, node.id): node.name for rank, nodes in enumerate(trace.per_rank_nodes)
            for node in nodes}
    assert verdict.violations == [
        {"rank": rank, "node": nid, "name": name[rank, nid], "error": size_error(2048, 1, 1024)}
        for rank, nid in sorted(chosen)]


def test_a_reduce_off_by_one_unit_fails():
    trace = gen(Algorithm.RING_ALL_REDUCE, 4, 4096)
    reduce = next(node for node in trace.per_rank_nodes[2] if node.kind is NodeKind.COMP)
    verdict = check_semantics(resized(
        trace, lambda rank, node: 2048 if (rank, node) == (2, reduce) else None))
    assert verdict.to_json() == {"verdict": FAIL, "stuck_nodes": [], "warnings": [],
                                 "violations": [{"rank": 2, "node": reduce.id,
                                                 "name": reduce.name,
                                                 "error": size_error(2048, 1, 1024)}]}


def test_a_claim_that_does_not_divide_into_the_chunks_is_one_violation():
    verdict = check_semantics(two_rank_message(CollKind.ALL_REDUCE, [0, 1, 2]))
    assert verdict.violations[0] == {
        "rank": None, "chunk": None, "error": "claimed 64 B do not divide into 3 chunks"}
    assert [v for v in verdict.violations if "node" in v] == []


def test_an_all_gather_unit_is_the_per_rank_claim():
    """An ALL_GATHER claims its per-rank input, so n x 4,096 B over n chunks
    is 4,096 B a chunk; messages of 4,096 / n B are a quarter of that."""
    trace = gen(Algorithm.RING_ALL_GATHER, 4, 4096)
    assert check_semantics(trace).status == PASS
    verdict = check_semantics(resized(trace, lambda rank, node: 1024))
    assert verdict.status == FAIL
    assert {v["error"] for v in verdict.violations} == {size_error(1024, 1, 4096)}


# ---------------------------------------------------------------------------
# Execution-order independence and deadlock
# ---------------------------------------------------------------------------

def final_state(trace, seed):
    return validator_state(trace, trace.num_ranks, random.Random(seed))


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
        readiness = [Readiness(nodes) for nodes in trace.per_rank_nodes]
        peer = _peers(trace, readiness)
        return not _schedule(readiness, peer, None, rendezvous=True)[1]
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


def test_check_semantics_indexes_each_rank_once(monkeypatch):
    built = []

    class CountedReadiness(Readiness):
        def __init__(self, nodes, pos=None):
            built.append(nodes)
            super().__init__(nodes, pos)

    monkeypatch.setattr("collgraph.validator.Readiness", CountedReadiness)
    verdict = check_semantics(gen(Algorithm.RING_ALL_REDUCE, 4))
    assert verdict.status == PASS
    assert len(built) == 4  # both schedules and the state pass read one index


@pytest.mark.parametrize("make, seed, rendezvous, stalls", [
    (lambda: gen(Algorithm.RING_ALL_REDUCE, 4), None, False, False),
    (lambda: gen(Algorithm.RING_ALL_REDUCE, 4), 3, False, False),
    (lambda: gen(Algorithm.RING_ALL_REDUCE, 4), None, True, False),
    (send_before_recv_pair, None, False, False),
    (send_before_recv_pair, None, True, True),
], ids=["eager", "eager-seeded", "rendezvous", "pair-eager", "pair-rendezvous"])
def test_schedule_reads_its_index_without_writing_it(make, seed, rendezvous, stalls):
    trace = make()
    readiness = [Readiness(nodes) for nodes in trace.per_rank_nodes]
    counts = [list(r.pending) for r in readiness]
    peer = _peers(trace, readiness)

    def run():
        order = None if seed is None else random.Random(seed)
        return _schedule(readiness, peer, order, rendezvous)

    first = run()
    assert [r.pending for r in readiness] == counts
    assert run() == first
    assert bool(first[1]) == stalls


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


def _rank1_fault_then_stall(fault):
    """Rank 1 runs `fault(builder)` as its node 0, then a recv that has no
    send: built through `CollectiveTrace`, which records the mismatch that
    `build_collective` refuses."""
    b = TraceBuilder(2)
    fault(b)
    b.add_recv(1, 0, 64, chunks=[1])
    return CollectiveTrace(2, CollDescriptor(CollKind.ALL_REDUCE, 128), b._nodes)


def _chunk_count_disagreement(b):
    b.add_send(0, 1, 64, chunks=[0])
    b.add_recv(1, 0, 64, chunks=[0, 1])


@pytest.mark.parametrize("fault, error", [
    (_chunk_count_disagreement,
     "send/recv chunk metadata disagree for tag 0 from 0 (rank 1, node 0)"),
    (lambda b: b.add_comp(1, "REDUCE", 64, chunks=[0], src_chunks=[0, 1]),
     "REDUCE names 1 chunk(s) but 2 src_chunks (rank 1, node 0)"),
])
def test_an_invariant_error_before_a_stall_wins_over_stuck(fault, error):
    trace = _rank1_fault_then_stall(fault)
    assert trace.mismatch is not None
    with pytest.raises(InvariantError) as exc:
        check_semantics(trace)
    assert str(exc.value) == error


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


def _workload(with_coll):
    b = TraceBuilder(2)
    for rank in range(2):
        c = b.add_comp(rank, "NOP", 0, chunks=[0])
        if with_coll:
            b.add_coll(rank, CollKind.ALL_REDUCE, 64, deps=[c])
    return b.build_workload()


@pytest.mark.parametrize("check, step", [
    (check_semantics, "validation"),
    (canonical_form, "canonical labelling"),
    (lambda w: isomorphic(w, w), "canonical labelling"),
])
def test_a_workload_collective_must_be_expanded_first(check, step):
    with pytest.raises(UnexpandedCollectiveError) as exc:
        check(_workload(True))
    assert str(exc.value) == f"COMM_COLL node 1 on rank 0 must be expanded before {step}"


def test_a_workload_without_collectives_is_skipped_like_an_unclaimed_trace():
    workload = _workload(False)
    assert check_semantics(workload).to_json() == {
        "verdict": SKIPPED, "violations": [], "stuck_nodes": [], "warnings": []}
    assert isomorphic(workload, workload)


@pytest.mark.parametrize("call, error", [
    (lambda t: check_semantics(None), "got NoneType"),
    (lambda t: check_semantics(t.per_rank_nodes), "got tuple"),
    (lambda t: canonical_form(5), "got int"),
    (lambda t: isomorphic(t, None), "got NoneType"),
    (lambda t: isomorphic("trace", t), "got str"),
    (lambda t: check_semantics(t, order_seed=[1]), "order_seed must be None or an int, got [1]"),
    (lambda t: check_semantics(t, order_seed=True), "order_seed must be None or an int, got True"),
    (lambda t: check_semantics(t, order_seed=1.0), "order_seed must be None or an int, got 1.0"),
], ids=["semantics-none", "semantics-ranks", "canonical-int", "isomorphic-none",
        "isomorphic-str", "seed-list", "seed-bool", "seed-float"])
def test_the_entry_points_refuse_what_is_not_a_trace_or_a_seed(call, error):
    with pytest.raises(SpecError) as exc:
        call(gen(Algorithm.RING_ALL_REDUCE, 2))
    assert str(exc.value).endswith(error)


def test_check_semantics_and_canonical_form_log_their_counts_at_debug(caplog, fixtures_dir):
    """One DEBUG line per verdict and per canonical form, none for a stuck
    trace. Both sends of the send-first pair stay parked under rendezvous."""
    caplog.set_level(logging.DEBUG, logger="collgraph")
    trace = gen(Algorithm.RING_ALL_REDUCE, 4)
    nodes = sum(map(len, trace.per_rank_nodes))
    check_semantics(trace, order_seed=5)
    check_semantics(send_before_recv_pair())
    with pytest.raises(StuckError):
        check_semantics(load_trace(fixtures_dir / "circular_wait.json"))
    canonical_form(trace)
    records = [r for r in caplog.records
               if r.name == "collgraph" and not r.getMessage().startswith("load_trace")]
    assert [r.levelno for r in records] == [logging.DEBUG] * 3
    verdict, pair, form = records
    assert verdict.getMessage().startswith("check_semantics: 4 ranks")
    assert verdict.args[:5] == (4, nodes, len(trace.messages), nodes, 0)
    assert pair.args[:5] == (2, 4, 2, 4, 2)
    assert form.getMessage().startswith("canonical_form: 4 ranks")
    assert form.args[:2] == (4, nodes)
    assert verdict.args[5] >= 0.0 and form.args[2] >= 0.0


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

    # 0 is a root; 1 -> 3 -> 2 -> 1 is the cycle; 4 hangs off it. Then the
    # same rank in reversed and in shuffled list order, and with every id and
    # dep shifted by 10.
    deps = {0: (), 1: (0, 3), 2: (1,), 3: (2,), 4: (3,)}
    for order, shift, cycle in (([0, 1, 2, 3, 4], 0, [1, 3, 2]), ([4, 3, 2, 1, 0], 0, [1, 3, 2]),
                                ([4, 2, 0, 3, 1], 0, [1, 3, 2]),
                                ([0, 1, 2, 3, 4], 10, [11, 13, 12])):
        nodes = [TraceNode(nid + shift, f"n{nid}", NodeKind.COMP, [d + shift for d in ds],
                           CompAttrs("NOP", 0)) for nid, ds in deps.items()]
        nodes = [nodes[i] for i in order]
        with pytest.raises(InvariantError, match="dependency cycle") as built:
            CollectiveTrace(1, None, [nodes])
        cyclic = _unchecked(1, [nodes])
        with pytest.raises(CycleError) as topo:
            toposort_rank(cyclic, 0)
        with pytest.raises(CycleError) as canon:
            canonical_form(cyclic)
        assert built.value.__cause__.cycle == topo.value.cycle == canon.value.cycle == cycle
        assert str(topo.value) == str(canon.value)
