"""MSCCL-IR XML parsing and conversion to collective traces."""

import pytest

from collgraph.cli import main
from collgraph.errors import MatchError, RefError, SchemaError, SizeError, XmlError
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.msccl import convert_to_trace, parse_msccl_xml
from collgraph.trace import NodeKind, check_trace
from collgraph.validator import PASS, check_semantics, isomorphic

MIB = 1024 * 1024


def write(tmp_path, text, name="prog.xml"):
    path = tmp_path / name
    path.write_text(text)
    return path


NOP_ONLY = """\
<algo name="tiny" ngpus="1" nchunks="1" coll="allreduce">
  <gpu id="0">
    <tb id="0" chan="0">
      <step s="0" type="nop"/>
    </tb>
  </gpu>
</algo>
"""


def test_parse_minimal_nop_program(tmp_path):
    program = parse_msccl_xml(write(tmp_path, NOP_ONLY))
    assert program.num_gpus == 1
    assert program.num_chunks == 1
    assert program.collective == "allreduce"
    tb = program.gpus[0].threadblocks[0]
    assert tb.send_peer is None and tb.recv_peer is None
    assert len(tb.steps) == 1
    assert tb.steps[0].type == "nop"


def test_parse_ring_fixture_structure(fixtures_dir):
    program = parse_msccl_xml(fixtures_dir / "ring_allreduce_n4.xml")
    assert program.num_gpus == 4
    assert program.num_chunks == 4
    for gpu in program.gpus:
        assert len(gpu.threadblocks) == 2
        send_tb, recv_tb = gpu.threadblocks
        assert send_tb.send_peer == (gpu.id + 1) % 4 and send_tb.recv_peer is None
        assert recv_tb.recv_peer == (gpu.id - 1) % 4 and recv_tb.send_peer is None
        assert [s.type for s in send_tb.steps] == ["s"] * 6
        assert [s.type for s in recv_tb.steps] == ["rrc"] * 3 + ["r"] * 3
        assert [s.depend for s in send_tb.steps] == \
            [None] + [(1, i) for i in range(5)]


def test_unknown_step_type_names_type_and_line(tmp_path):
    bad = NOP_ONLY.replace('type="nop"', 'type="xyz"')
    with pytest.raises(SchemaError, match=r"'xyz' at line 4"):
        parse_msccl_xml(write(tmp_path, bad))


def test_malformed_xml_raises_xml_error(tmp_path):
    with pytest.raises(XmlError, match="malformed"):
        parse_msccl_xml(write(tmp_path, "<algo name='x' <gpu>"))


def test_unknown_element_rejected(tmp_path):
    bad = NOP_ONLY.replace("<gpu id=\"0\">", "<gpu id=\"0\"><banana/>")
    bad = bad.replace("</gpu>", "</banana></gpu>", 0) if False else bad
    with pytest.raises(SchemaError, match="<banana>"):
        parse_msccl_xml(write(tmp_path, bad.replace("<banana/>", "<banana></banana>")))


def test_unknown_attribute_rejected(tmp_path):
    bad = NOP_ONLY.replace('<step s="0" type="nop"/>',
                           '<step s="0" type="nop" proto="Simple"/>')
    with pytest.raises(SchemaError, match="proto"):
        parse_msccl_xml(write(tmp_path, bad))


def test_non_integer_hasdep_rejected(tmp_path):
    bad = NOP_ONLY.replace('<step s="0" type="nop"/>',
                           '<step s="0" type="nop" hasdep="yes"/>')
    with pytest.raises(SchemaError, match="hasdep"):
        parse_msccl_xml(write(tmp_path, bad))


def test_dangling_depend_raises_ref_error(tmp_path):
    bad = NOP_ONLY.replace('<step s="0" type="nop"/>',
                           '<step s="0" type="nop" depid="3" deps="0"/>')
    with pytest.raises(RefError, match=r"tb 3"):
        parse_msccl_xml(write(tmp_path, bad))


def test_send_step_requires_send_peer(tmp_path):
    bad = NOP_ONLY.replace(
        '<step s="0" type="nop"/>',
        '<step s="0" type="s" srcbuf="input" srcoff="0" cnt="1"/>')
    with pytest.raises(SchemaError, match="requires a send peer"):
        parse_msccl_xml(write(tmp_path, bad))


def test_step_indices_must_be_dense(tmp_path):
    bad = NOP_ONLY.replace('<step s="0" type="nop"/>',
                           '<step s="0" type="nop"/><step s="2" type="nop"/>')
    with pytest.raises(SchemaError, match="dense"):
        parse_msccl_xml(write(tmp_path, bad))


def test_peer_minus_one_means_none(tmp_path):
    text = NOP_ONLY.replace('<tb id="0" chan="0">',
                            '<tb id="0" send="-1" recv="-1" chan="0">')
    program = parse_msccl_xml(write(tmp_path, text))
    tb = program.gpus[0].threadblocks[0]
    assert tb.send_peer is None and tb.recv_peer is None


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------

def test_fixture_converts_to_generator_equivalent_trace(fixtures_dir):
    program = parse_msccl_xml(fixtures_dir / "ring_allreduce_n4.xml")
    converted = convert_to_trace(program, 4 * MIB)
    check_trace(converted)
    assert check_semantics(converted).status == PASS
    reference = generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, 4, 4 * MIB))
    assert isomorphic(converted, reference)


def test_node_count_matches_step_inventory(fixtures_dir):
    program = parse_msccl_xml(fixtures_dir / "ring_allreduce_n4.xml")
    converted = convert_to_trace(program, 4 * MIB)
    for gpu in program.gpus:
        expected = sum(
            2 if step.type in ("rrc", "rcs") else 1
            for tb in gpu.threadblocks for step in tb.steps)
        assert len(converted.per_rank_nodes[gpu.id]) == expected


def test_no_cross_rank_deps_after_conversion(fixtures_dir):
    program = parse_msccl_xml(fixtures_dir / "ring_allreduce_n4.xml")
    converted = convert_to_trace(program, 4 * MIB)
    for nodes in converted.per_rank_nodes:
        ids = {n.id for n in nodes}
        for node in nodes:
            assert set(node.deps) <= ids


COPY_ONLY = """\
<algo name="local" ngpus="1" nchunks="2" coll="allreduce">
  <gpu id="0">
    <tb id="0" chan="0">
      <step s="0" type="cpy" srcbuf="input" srcoff="0" dstbuf="output" dstoff="1" cnt="1"/>
      <step s="1" type="cpy" srcbuf="input" srcoff="1" dstbuf="output" dstoff="0" cnt="1"/>
    </tb>
  </gpu>
</algo>
"""


def test_copy_only_program_converts_to_comp_nodes(tmp_path):
    program = parse_msccl_xml(write(tmp_path, COPY_ONLY))
    converted = convert_to_trace(program, 2048)
    nodes = converted.per_rank_nodes[0]
    assert [n.kind for n in nodes] == [NodeKind.COMP, NodeKind.COMP]
    assert nodes[0].attrs.op == "COPY" and nodes[0].attrs.comp_size == 1024
    check_trace(converted)


ONE_COPY = """\
<algo name="local" ngpus="1" nchunks="2" coll="allreduce">
  <gpu id="0">
    <tb id="0" chan="0">
      <step s="0" type="cpy" srcbuf="input" srcoff="{src}"
            dstbuf="output" dstoff="{dst}" cnt="{cnt}"/>
    </tb>
  </gpu>
</algo>
"""


@pytest.mark.parametrize("src, dst, cnt, past", [
    (0, 0, 2, None), (1, 0, 1, None), (0, 1, 1, None),
    (1, 0, 2, "srcoff"), (0, 1, 2, "dstoff"), (0, 0, 1_000_000, "srcoff"),
])
def test_step_chunks_stay_inside_nchunks(tmp_path, capsys, src, dst, cnt, past):
    path = write(tmp_path, ONE_COPY.format(src=src, dst=dst, cnt=cnt))
    if past is None:  # off + cnt == nchunks is the last valid span
        node = convert_to_trace(parse_msccl_xml(path), 2048).per_rank_nodes[0][0]
        assert node.attrs.chunks == tuple(range(dst, dst + cnt))
        assert node.attrs.src_chunks == tuple(range(src, src + cnt))
        return
    with pytest.raises(SchemaError, match=f"{past}=.* at line 4 runs past nchunks=2"):
        parse_msccl_xml(path)
    assert main(["convert", "--msccl-xml", str(path), "--size", "2048",
                 "-o", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()
    assert "runs past nchunks" in capsys.readouterr().err


UNBALANCED = """\
<algo name="bad" ngpus="2" nchunks="1" coll="allgather">
  <gpu id="0">
    <tb id="0" send="1" chan="0">
      <step s="0" type="s" srcbuf="input" srcoff="0" cnt="1"/>
      <step s="1" type="s" srcbuf="input" srcoff="0" cnt="1"/>
    </tb>
  </gpu>
  <gpu id="1">
    <tb id="0" recv="0" chan="0">
      <step s="0" type="r" dstbuf="output" dstoff="0" cnt="1"/>
    </tb>
  </gpu>
</algo>
"""


def test_unbalanced_sends_raise_match_error(tmp_path):
    program = parse_msccl_xml(write(tmp_path, UNBALANCED))
    with pytest.raises(MatchError, match=r"2 send\(s\) but 1 recv\(s\)"):
        convert_to_trace(program, 1024)


def test_count_mismatch_raises_match_error(tmp_path):
    text = UNBALANCED.replace(
        '<step s="1" type="s" srcbuf="input" srcoff="0" cnt="1"/>', "")
    text = text.replace('dstoff="0" cnt="1"', 'dstoff="0" cnt="2"')
    text = text.replace('nchunks="1"', 'nchunks="2"')
    program = parse_msccl_xml(write(tmp_path, text))
    with pytest.raises(MatchError, match="chunk"):
        convert_to_trace(program, 2048)


PAIR = UNBALANCED.replace('      <step s="1" type="s" srcbuf="input" srcoff="0" cnt="1"/>\n', "")
NOP_STEP = '<step s="0" type="nop"/>'


@pytest.mark.parametrize("text, size, error, match", [
    pytest.param(NOP_ONLY.replace('ngpus="1"', 'ngpus="0"'), 1, SchemaError,
                 "ngpus=0 at line 1 must be positive", id="no-gpus"),
    pytest.param(NOP_ONLY.replace('nchunks="1"', 'nchunks="0"'), 1, SchemaError,
                 "nchunks=0 at line 1 must be positive", id="no-chunks"),
    pytest.param(NOP_ONLY.replace('coll="allreduce"', 'coll="alltoall"'), 1, SchemaError,
                 "unknown collective 'alltoall' at line 1", id="unknown-collective"),
    pytest.param(NOP_ONLY.replace('<gpu id="0">', '<gpu id="1">'), 1, SchemaError,
                 "gpu id=1 at line 2 out of range", id="gpu-out-of-range"),
    pytest.param(PAIR.replace('<gpu id="1">', '<gpu id="0">'), 1, SchemaError,
                 "duplicate gpu id=0 at line 7", id="duplicate-gpu"),
    pytest.param(NOP_ONLY.replace('ngpus="1"', 'ngpus="2"'), 1, SchemaError,
                 "expected 2 <gpu> elements, found 1", id="missing-gpu"),
    pytest.param(NOP_ONLY.replace("</tb>", f'</tb><tb id="0" chan="0">{NOP_STEP}</tb>'), 1,
                 SchemaError, "duplicate tb id=0 at line 5", id="duplicate-tb"),
    pytest.param(NOP_ONLY.replace('chan="0"', 'chan="-1"'), 1, SchemaError,
                 "chan=-1 at line 3 must be >= 0", id="negative-channel"),
    pytest.param(NOP_ONLY.replace('chan="0"', 'send="1" chan="0"'), 1, SchemaError,
                 "send=1 on <tb> at line 3 is not a valid gpu", id="send-peer-out-of-range"),
    pytest.param(NOP_ONLY.replace('chan="0"', 'send="0" chan="0"'), 1, SchemaError,
                 "send on <tb> at line 3 points at its own gpu", id="send-to-itself"),
    pytest.param(NOP_ONLY.replace(NOP_STEP, '<step s="0" type="r" dstbuf="output" '
                                            'dstoff="0" cnt="1"/>'), 1, SchemaError,
                 "requires a recv peer", id="recv-without-peer"),
    pytest.param(PAIR.replace('srcbuf="input" srcoff="0" ', ""), 1, SchemaError,
                 "step type 's' at line 4 needs srcbuf/srcoff", id="send-without-source"),
    pytest.param(PAIR.replace('dstbuf="output" dstoff="0" ', ""), 1, SchemaError,
                 "step type 'r' at line 9 needs dstbuf/dstoff", id="recv-without-target"),
    pytest.param(ONE_COPY.format(src=0, dst=0, cnt=0), 2, SchemaError,
                 "step type 'cpy' at line 4 needs cnt >= 1", id="no-count"),
    pytest.param(ONE_COPY.format(src=-1, dst=0, cnt=1), 2, SchemaError,
                 "srcoff=-1 at line 4 must be non-negative", id="negative-offset"),
    pytest.param(NOP_ONLY.replace(NOP_STEP, '<step s="0" type="nop" depid="0"/>'), 1,
                 SchemaError, "depid/deps at line 4 must be given together",
                 id="depid-without-deps"),
    pytest.param(PAIR.replace('<tb id="0" recv="0" chan="0">', '<tb id="0" recv="0" chan="1">'),
                 1, MatchError, r"sends and recvs for 0->1 use different channels \(\[0\] vs "
                 r"\[1\]\)", id="channels-differ"),
    pytest.param(NOP_ONLY, 0, SizeError, "comm_size must be positive, got 0",
                 id="no-bytes"),
])
def test_malformed_program_raises_its_error(tmp_path, text, size, error, match):
    with pytest.raises(error, match=match):
        convert_to_trace(parse_msccl_xml(write(tmp_path, text)), size)


def test_depid_minus_one_means_no_dependency(tmp_path):
    text = NOP_ONLY.replace(NOP_STEP, '<step s="0" type="nop" depid="-1" deps="-1"/>')
    program = parse_msccl_xml(write(tmp_path, text))
    assert program.gpus[0].threadblocks[0].steps[0].depend is None


def test_reduce_step_converts_to_a_reduce_node(tmp_path):
    text = NOP_ONLY.replace('nchunks="1"', 'nchunks="2"').replace(
        NOP_STEP, NOP_STEP + '<step s="1" type="re" srcbuf="input" srcoff="0" '
                             'dstbuf="output" dstoff="1" cnt="1"/>')
    nodes = convert_to_trace(parse_msccl_xml(write(tmp_path, text)), 2048).per_rank_nodes[0]
    reduce = nodes[1]
    assert (reduce.kind, reduce.attrs.op, reduce.attrs.comp_size) == (NodeKind.COMP, "REDUCE", 1024)
    assert (reduce.attrs.chunks, reduce.attrs.src_chunks) == ((1,), (0,))
    assert reduce.deps == (nodes[0].id,)


def test_indivisible_size_raises_size_error(fixtures_dir):
    program = parse_msccl_xml(fixtures_dir / "ring_allreduce_n4.xml")
    with pytest.raises(SizeError, match="divisible"):
        convert_to_trace(program, 4 * MIB + 1)


def test_rcs_forwards_through_a_recv_send_pair(tmp_path):
    text = """\
<algo name="fwd" ngpus="3" nchunks="1" coll="broadcast">
  <gpu id="0">
    <tb id="0" send="1" chan="0">
      <step s="0" type="s" srcbuf="input" srcoff="0" cnt="1"/>
    </tb>
  </gpu>
  <gpu id="1">
    <tb id="0" send="2" recv="0" chan="0">
      <step s="0" type="rcs" dstbuf="input" dstoff="0" cnt="1"/>
    </tb>
  </gpu>
  <gpu id="2">
    <tb id="0" recv="1" chan="0">
      <step s="0" type="r" dstbuf="input" dstoff="0" cnt="1"/>
    </tb>
  </gpu>
</algo>
"""
    converted = convert_to_trace(parse_msccl_xml(write(tmp_path, text)), 4096)
    middle = converted.per_rank_nodes[1]
    assert [n.kind for n in middle] == [NodeKind.COMM_RECV, NodeKind.COMM_SEND]
    assert middle[1].deps == (middle[0].id,)
    assert check_semantics(converted).status == PASS
