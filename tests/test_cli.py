"""End-to-end CLI behaviour: exit codes, file outputs, determinism."""

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import trace_json_oracle

from collgraph import cli
from collgraph.cli import (
    load_net_config,
    main,
    parse_size,
    parse_size_list,
    parse_topology_token,
)
from collgraph.errors import CollGraphError
from collgraph.generators import AlgoSpec, Algorithm, generate
from collgraph.simulator import CostModel, Topology
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
    save_trace,
)

MIB = 1024 * 1024


def run(*argv) -> int:
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

def test_parse_size_suffixes():
    assert parse_size("4096") == 4096
    assert parse_size("4KiB") == 4096
    assert parse_size("2MiB") == 2 * MIB
    assert parse_size("1GiB") == 1 << 30
    with pytest.raises(Exception):
        parse_size("4MB")


def test_parse_size_rejects_sizes_beyond_int64():
    assert parse_size(str(2**63 - 1)) == 2**63 - 1
    for text in (str(2**63), "8589934592GiB", "9" * 4296 + "GiB"):
        with pytest.raises(argparse.ArgumentTypeError, match="exceeds"):
            parse_size(text)


def test_parse_size_list_geometric():
    assert parse_size_list("1KiB:64KiB:x4") == [1024, 4096, 16384, 65536]
    assert parse_size_list("1KiB,3KiB") == [1024, 3072]


def test_parse_size_list_rejects_a_zero_lower_bound():
    # 0 * factor stays 0, so the geometric list would never end
    with pytest.raises(argparse.ArgumentTypeError, match="bounds"):
        parse_size_list("0:1KiB:x2")


def test_parse_topology_tokens():
    assert parse_topology_token("ring", 8).label() == "ring"
    assert parse_topology_token("fc", 8).n == 8
    assert parse_topology_token("mesh2d:2x4", 8).label() == "mesh2d:2x4"
    assert parse_topology_token("switch", 8).label() == "switch"
    assert parse_topology_token("fully_connected", 8).label() == "fc"
    for bad in ("hypercube", "mesh2d", "ring:2x4", "torus2d:2x", f"mesh2d:{'9' * 5000}x2"):
        with pytest.raises(CollGraphError):
            parse_topology_token(bad, 8)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_single_rank_writes_empty_trace(tmp_path):
    out = tmp_path / "t.json"
    assert run("gen", "--algo", "ring-allreduce", "--ranks", 1,
               "--size", 1024, "-o", out) == 0
    trace = load_trace(out)
    assert trace.per_rank_nodes == ((),)


def test_gen_n4_writes_60_nodes(tmp_path):
    out = tmp_path / "t.json"
    assert run("gen", "--algo", "ring-allreduce", "--ranks", 4,
               "--size", 4194304, "-o", out) == 0
    trace = load_trace(out)
    assert sum(len(nodes) for nodes in trace.per_rank_nodes) == 60


def test_gen_rejects_non_power_of_two_recursive_doubling(tmp_path, capsys):
    code = run("gen", "--algo", "rd-allgather", "--ranks", 6,
               "--size", "1MiB", "-o", tmp_path / "t.json")
    assert code == 2
    assert "power-of-two" in capsys.readouterr().err


def test_gen_of_a_size_beyond_int64_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("gen", "--algo", "ring-allgather", "--ranks", 2,
            "--size", "9" * 4296 + "GiB", "-o", tmp_path / "t.json")
    assert exc.value.code == 2
    assert "exceeds" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("gen", "--bogus", "1")
    assert exc.value.code == 2


def test_gen_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run("gen", "--algo", "ring-allgather", "--ranks", 4,
                   "--size", "1MiB", "-o", out) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def test_convert_fixture_then_validate(tmp_path, fixtures_dir):
    out = tmp_path / "conv.json"
    assert run("convert", "--msccl-xml", fixtures_dir / "ring_allreduce_n4.xml",
               "--size", "4MiB", "-o", out) == 0
    assert run("validate", out) == 0


def test_convert_malformed_xml_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("<algo name='x'")
    assert run("convert", "--msccl-xml", bad, "--size", 1024,
               "-o", tmp_path / "o.json") == 2
    assert "malformed" in capsys.readouterr().err


def test_convert_indivisible_size_exits_2(tmp_path, fixtures_dir, capsys):
    assert run("convert", "--msccl-xml", fixtures_dir / "ring_allreduce_n4.xml",
               "--size", 4 * MIB + 1, "-o", tmp_path / "o.json") == 2
    assert "divisible" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_generated_trace_passes(tmp_path, capsys):
    path = tmp_path / "ar.json"
    save_trace(generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, 4, 4 * MIB)), path)
    assert run("validate", path) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "PASS"
    assert verdict["violations"] == []


def test_validate_mutated_trace_fails_with_exit_3(tmp_path, capsys):
    trace = generate(AlgoSpec(Algorithm.RING_ALL_GATHER, 3, 999))
    rank1 = []
    for node in trace.per_rank_nodes[1]:
        if node.kind is NodeKind.COMM_RECV and node.attrs.chunks == (0,):
            node = TraceNode(node.id, node.name, node.kind, node.deps,
                             RecvAttrs(node.attrs.src_rank, node.attrs.comm_size,
                                       node.attrs.tag, (2,)))
        rank1.append(node)
    broken = CollectiveTrace(3, trace.claimed_collective,
                             [trace.per_rank_nodes[0], rank1, trace.per_rank_nodes[2]])
    path = tmp_path / "broken.json"
    save_trace(broken, path)
    assert run("validate", path) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "FAIL"
    assert verdict["violations"]


def test_validate_circular_wait_exits_4(fixtures_dir, capsys):
    assert run("validate", fixtures_dir / "circular_wait.json") == 4
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "STUCK"
    assert verdict["stuck_nodes"] == [[0, 0], [1, 0]]


@pytest.mark.parametrize("op, chunks, src_chunks", [("REDUCE", [0, 1], [0]),
                                                     ("COPY", [0, 1], [1])])
def test_validate_comp_whose_chunk_lists_differ_in_length_exits_2(tmp_path, capsys, op,
                                                                  chunks, src_chunks):
    b = TraceBuilder(1)
    b.add_comp(0, op, 64, chunks=chunks, src_chunks=src_chunks)
    path = tmp_path / "comp.json"
    save_trace(b.build_collective(CollDescriptor(CollKind.ALL_REDUCE, 64)), path)
    assert run("validate", path) == 2
    assert capsys.readouterr().err == \
        f"collgraph: {op} names 2 chunk(s) but 1 src_chunks (rank 0, node 0)\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_reports_closed_form_duration(tmp_path, net_config, capsys):
    path = tmp_path / "ar.json"
    save_trace(generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, 4, 4 * MIB)), path)
    out = tmp_path / "report.json"
    assert run("simulate", path, "--net", net_config, "-o", out) == 0
    report = json.loads(out.read_text())
    assert report["total_duration_s"] == pytest.approx(6.297456e-3, rel=1e-12)
    assert report["event_count"] > 0


def test_simulate_workload_exits_2(tmp_path, net_config, capsys):
    b = TraceBuilder(2)
    for r in range(2):
        b.add_coll(r, CollKind.ALL_REDUCE, 1024)
    path = tmp_path / "wl.json"
    save_trace(b.build_workload(), path)
    assert run("simulate", path, "--net", net_config) == 2
    assert "expanded" in capsys.readouterr().err


# net configs that are well-formed JSON but break the schema, by id, with
# the key each one must name
NET_KEY_FAULTS = [
    ("rows-fractional", '"topology": {"kind": "mesh2d", "rows": 2.7, "cols": 2}', "topology.rows"),
    ("n-bool", '"topology": {"kind": "ring", "n": true}', "topology.n"),
    ("n-string", '"topology": {"kind": "ring", "n": "4"}', "topology.n"),
    ("kind-not-a-string", '"topology": {"kind": ["ring"], "n": 4}', "topology.kind"),
    ("ring-with-rows", '"topology": {"kind": "ring", "n": 4, "rows": 2}', "topology.rows"),
    ("grid-with-n", '"topology": {"kind": "mesh2d", "n": 4, "rows": 2, "cols": 2}',
     "topology.n"),
    ("alpha-string-number", '"alpha_s": "1e-6"', "alpha_s"),
    ("alpha-bool", '"alpha_s": false', "alpha_s"),
    ("reduce-bandwidth-string", '"reduce_bandwidth_Bps": "1e9"', "reduce_bandwidth_Bps"),
    ("overhead-null", '"fixed_comp_overhead_s": null', "fixed_comp_overhead_s"),
    ("unknown-key", '"reduce_bandwith_Bps": 1e9', "reduce_bandwith_Bps"),
]


def net_with(entry: str) -> str:
    """A valid ring net config with one entry added or replaced."""
    doc = {"alpha_s": 1e-06, "bandwidth_Bps": 1e9, "topology": {"kind": "ring", "n": 4}}
    doc.update(json.loads("{" + entry + "}"))
    return json.dumps(doc)


@pytest.mark.parametrize("net", [
    '{"alpha_s": "x", "bandwidth_Bps": 1e9}',
    '{"alpha_s": 1e-06, "bandwidth_Bps": 1e9, "topology": "ring"}',
    '{"alpha_s": 1e-06, "bandwidth_Bps": 1e9, "topology": {"kind": "ring"}}',
    '{"alpha_s": 1e-06, "bandwidth_Bps": 1e9, '
    '"topology": {"kind": "mesh2d", "rows": "a", "cols": 2}}',
    '{"alpha_s": 1e-06, "bandwidth_Bps": 1e9, "topology": {"kind": "hypercube", "n": 4}}',
    '{"alpha_s": 1e-06,',
    '{"alpha_s": NaN, "bandwidth_Bps": 1e9, "topology": {"kind": "ring", "n": 4}}',
    '{"alpha_s": 1e-06, "bandwidth_Bps": Infinity, "topology": {"kind": "ring", "n": 4}}',
    '{"alpha_s": 1e308, "bandwidth_Bps": 1e9, "topology": {"kind": "ring", "n": 4}}',
    '{"alpha_s": 1' + "0" * 400 + ', "bandwidth_Bps": 1e9, "topology": {"kind": "ring", "n": 4}}',
    '{"alpha_s": 1e-06, "bandwidth_Bps": 1e9, "topology": {"kind": "ring", "n": 1e400}}',
] + [net_with(entry) for _, entry, _ in NET_KEY_FAULTS],
    ids=["alpha-not-a-number", "topology-not-an-object", "ring-without-n",
         "rows-not-an-integer", "unknown-kind", "truncated-json", "alpha-nan",
         "bandwidth-infinity", "time-overflows", "alpha-beyond-float", "ring-n-infinite"]
    + [name for name, _, _ in NET_KEY_FAULTS])
def test_simulate_malformed_net_config_exits_2(tmp_path, net, capsys):
    path = tmp_path / "ar.json"
    save_trace(generate(AlgoSpec(Algorithm.RING_ALL_REDUCE, 4, 4096)), path)
    config = tmp_path / "bad_net.json"
    config.write_text(net)
    assert run("simulate", path, "--net", config) == 2
    assert capsys.readouterr().err.startswith("collgraph: ")


@pytest.mark.parametrize("entry, key", [(entry, key) for _, entry, key in NET_KEY_FAULTS],
                         ids=[name for name, _, _ in NET_KEY_FAULTS])
def test_net_config_schema_faults_name_the_key(tmp_path, entry, key):
    config = tmp_path / "net.json"
    config.write_text(net_with(entry))
    with pytest.raises(CollGraphError, match=f"net config key '{key}'"):
        load_net_config(config)


def test_net_config_takes_integer_costs_and_null_reduce_bandwidth(tmp_path):
    config = tmp_path / "net.json"
    config.write_text('{"alpha_s": 0, "bandwidth_Bps": 1000000000, "reduce_bandwidth_Bps": null, '
                      '"fixed_comp_overhead_s": 1, "topology": {"kind": "torus2d", "rows": 2, '
                      '"cols": 2}}')
    assert load_net_config(config) == (Topology.torus2d(2, 2), CostModel(0.0, 1e9, None, 1.0))


@pytest.mark.parametrize("command, name, content", [
    ("validate", "trace.json", b'{"format_version": "\xff"}'),
    ("validate", "trace.json", b"[" * 200_000),
    ("sweep", "net.json", b"[" * 200_000),
    ("convert", "algo.xml", b"<algo name='\xff'/>"),
], ids=["trace-not-utf8", "trace-nested", "net-nested", "xml-not-utf8"])
def test_undecodable_or_deeply_nested_input_exits_2(tmp_path, capsys, command, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    argv = {
        "validate": ["validate", path],
        "sweep": ["sweep", "--algo", "ring-allgather", "--ranks", 4, "--sizes", 1024,
                  "--topologies", "ring", "--net", path],
        "convert": ["convert", "--msccl-xml", path, "--size", 1024, "-o", tmp_path / "o.json"],
    }[command]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("collgraph: ")


def test_sweep_of_an_overlong_topology_dimension_exits_2(net_config, capsys):
    assert run("sweep", "--algo", "ring-allgather", "--ranks", 4, "--sizes", 1024,
               "--topologies", f"mesh2d:{'5' * 5000}x2", "--net", net_config) == 2
    assert "too long" in capsys.readouterr().err


def write_unmatched(path, claimed=None):
    """A 2-rank trace whose one send has no recv; `save_trace` refuses it."""
    trace = CollectiveTrace(2, claimed, [
        [TraceNode(0, "s", NodeKind.COMM_SEND, (), SendAttrs(1, 64, 7))], []])
    path.write_text(trace_json_oracle(trace), encoding="utf-8")


UNMATCHED = "collgraph: unmatched send 0->1 tag 7 (rank 0, node 0)\n"


def test_simulate_of_an_unmatched_trace_exits_2(tmp_path, net_config, capsys):
    path = tmp_path / "unmatched.json"
    write_unmatched(path)
    assert run("simulate", path, "--net", net_config) == 2
    assert capsys.readouterr().err == UNMATCHED


def test_simulate_circular_wait_exits_4(tmp_path, fixtures_dir, capsys):
    net = tmp_path / "net2.json"
    net.write_text('{"topology": {"kind": "ring", "n": 2}, "alpha_s": 1e-06, '
                   '"bandwidth_Bps": 1e9, "reduce_bandwidth_Bps": null}\n')
    assert run("simulate", fixtures_dir / "circular_wait.json", "--net", net) == 4
    err = capsys.readouterr().err
    assert "(0, 0)" in err and "(1, 0)" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_contents_and_determinism(tmp_path, net_config):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out, jobs in ((out1, 1), (out2, 2)):
        assert run("sweep", "--algo", "ring-allreduce", "--ranks", 8,
                   "--sizes", "8KiB:128KiB:x4", "--topologies", "ring,fc,switch",
                   "--net", net_config, "--jobs", jobs, "-o", out) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "topology,size_bytes,duration_s,slowdown"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["ring"] * 3 + ["fc"] * 3 + ["switch"] * 3
    assert [int(r[1]) for r in rows[:3]] == [8192, 32768, 131072]
    for row in rows:
        if row[0] in ("ring", "fc"):
            assert float(row[3]) == 1.0
        else:
            assert 1.0 < float(row[3]) < 2.0


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def write_chain_workload(path, n=4, size=4 * MIB):
    b = TraceBuilder(n)
    for r in range(n):
        c1 = b.add_comp(r, "fwd", 8 * MIB, name="fwd")
        ar = b.add_coll(r, CollKind.ALL_REDUCE, size, deps=[c1], name="sync")
        c2 = b.add_comp(r, "opt", 2 * MIB, deps=[ar], name="opt")
        b.add_coll(r, CollKind.ALL_GATHER, size, deps=[c2], name="gather")
    save_trace(b.build_workload(), path)


def test_expand_workload_with_two_bindings(tmp_path, net_config):
    workload = tmp_path / "wl.json"
    write_chain_workload(workload)
    out = tmp_path / "uni.json"
    assert run("expand", workload,
               "--bind", "ALL_REDUCE=ring-allreduce",
               "--bind", "ALL_GATHER=ring-allgather",
               "-o", out) == 0
    unified = load_trace(out)
    assert isinstance(unified, CollectiveTrace)
    assert run("simulate", out, "--net", net_config, "-o", tmp_path / "rep.json") == 0


def test_expand_missing_binding_exits_2(tmp_path, capsys):
    workload = tmp_path / "wl.json"
    write_chain_workload(workload)
    assert run("expand", workload, "--bind", "ALL_REDUCE=ring-allreduce",
               "-o", tmp_path / "u.json") == 2
    assert "no binding" in capsys.readouterr().err


def test_expand_accepts_trace_file_binding(tmp_path):
    workload = tmp_path / "wl.json"
    b = TraceBuilder(2)
    for r in range(2):
        b.add_coll(r, CollKind.ALL_GATHER, MIB)
    save_trace(b.build_workload(), workload)
    binding = tmp_path / "ag.json"
    save_trace(generate(AlgoSpec(Algorithm.RING_ALL_GATHER, 2, MIB)), binding)
    out = tmp_path / "u.json"
    assert run("expand", workload, "--bind", f"ALL_GATHER=file:{binding}",
               "-o", out) == 0
    assert load_trace(out).num_ranks == 2


def test_expand_of_an_unmatched_binding_file_exits_2(tmp_path, capsys):
    workload = tmp_path / "wl.json"
    b = TraceBuilder(2)
    for r in range(2):
        b.add_coll(r, CollKind.ALL_GATHER, 64)
    save_trace(b.build_workload(), workload)
    binding = tmp_path / "unmatched.json"
    write_unmatched(binding, CollDescriptor(CollKind.ALL_GATHER, 64))
    out = tmp_path / "u.json"
    assert run("expand", workload, "--bind", f"ALL_GATHER=file:{binding}", "-o", out) == 2
    assert capsys.readouterr().err == UNMATCHED
    assert not out.exists()


def test_expand_of_coll_free_workload_is_byte_identical(tmp_path):
    workload = tmp_path / "wl.json"
    b = TraceBuilder(2)
    for r in range(2):
        first = b.add_comp(r, "a", 64, name="a")
        b.add_comp(r, "b", 64, deps=[first], name="b")
    save_trace(b.build_workload(), workload)
    out = tmp_path / "same.json"
    assert run("expand", workload, "-o", out) == 0
    assert out.read_bytes() == workload.read_bytes()


def test_expand_of_a_name_with_a_lone_surrogate_exits_2(tmp_path, capsys):
    workload = tmp_path / "wl.json"
    write_chain_workload(workload)
    text = workload.read_text(encoding="utf-8").replace('"fwd"', '"\\ud800"', 1)
    workload.write_text(text, encoding="utf-8")
    out = tmp_path / "u.json"
    assert run("expand", workload, "--bind", "ALL_REDUCE=ring-allreduce",
               "--bind", "ALL_GATHER=ring-allgather", "-o", out) == 2
    assert "UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_help_on_every_subcommand():
    for command in ("gen", "convert", "validate", "simulate", "sweep", "expand"):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0


@pytest.fixture
def inputs(tmp_path, net_config):
    """Paths by name: a collective trace, a workload with collectives, a net
    config with costs but no topology, the ring net config, and an output."""
    paths = {"coll": tmp_path / "coll.json", "wl": tmp_path / "wl.json",
             "costs": tmp_path / "costs.json", "net": net_config, "out": tmp_path / "out"}
    save_trace(generate(AlgoSpec(Algorithm.RING_ALL_GATHER, 4, 4096)), paths["coll"])
    write_chain_workload(paths["wl"])
    paths["costs"].write_text('{"alpha_s": 1e-06, "bandwidth_Bps": 1e9}')
    return paths


SWEEP = ["sweep", "--algo", "ring-allgather", "--ranks", "4", "--topologies", "ring"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(SWEEP + ["--sizes", "1KiB:4KiB", "--net", "{net}"],
                 "invalid sweep '1KiB:4KiB'", id="sweep-without-factor"),
    pytest.param(["simulate", "{coll}", "--net", "{costs}"],
                 "simulate needs a topology entry", id="simulate-without-topology"),
    pytest.param(["validate", "{wl}"], "validate expects a collective trace",
                 id="validate-a-workload"),
    pytest.param(["expand", "{coll}", "-o", "{out}"], "expand expects a workload trace",
                 id="expand-a-collective"),
    pytest.param(["expand", "{wl}", "--bind", "ALL_REDUCE", "-o", "{out}"],
                 "invalid binding 'ALL_REDUCE'", id="bind-without-target"),
    pytest.param(["expand", "{wl}", "--bind", "ALL_SUM=ring-allreduce", "-o", "{out}"],
                 "unknown collective kind 'ALL_SUM'", id="bind-unknown-kind"),
    pytest.param(["expand", "{wl}", "--bind", "ALL_REDUCE={out}.json", "-o", "{out}"],
                 "neither an algorithm", id="bind-missing-file"),
    pytest.param(["expand", "{wl}", "--bind", "ALL_REDUCE=file:{wl}", "-o", "{out}"],
                 "is not a collective trace", id="bind-a-workload"),
])
def test_wrong_arguments_and_inputs_exit_2(inputs, capsys, argv, message):
    try:
        code = run(*[arg.format(**inputs) for arg in argv])
    except SystemExit as exc:  # argparse rejects its own arguments this way
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not inputs["out"].exists()


def test_simulate_and_sweep_write_to_stdout_what_they_write_to_a_file(inputs, capsys):
    for argv in (["simulate", "{coll}", "--net", "{net}"],
                 SWEEP + ["--sizes", "1KiB", "--net", "{costs}"]):
        argv = [arg.format(**inputs) for arg in argv]
        assert run(*argv, "-o", inputs["out"]) == 0
        assert run(*argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == inputs["out"].read_bytes()


def test_module_entry_point_exits_with_the_command_status(fixtures_dir):
    src = str(Path(cli.__file__).parents[1])  # the directory that holds the package
    done = subprocess.run(
        [sys.executable, "-m", "collgraph.cli", "validate", fixtures_dir / "circular_wait.json"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60)
    assert done.returncode == 4
    assert json.loads(done.stdout)["stuck_nodes"] == [[0, 0], [1, 0]]


def test_log_level_env_var(tmp_path, monkeypatch):
    import logging

    monkeypatch.setenv("COLLGRAPH_LOG", "DEBUG")
    assert run("gen", "--algo", "ring-allgather", "--ranks", 2,
               "--size", 1024, "-o", tmp_path / "t.json") == 0
    assert logging.getLogger("collgraph").level == logging.DEBUG
    monkeypatch.setenv("COLLGRAPH_LOG", "WARNING")
    run("gen", "--algo", "ring-allgather", "--ranks", 2,
        "--size", 1024, "-o", tmp_path / "t.json")
    assert logging.getLogger("collgraph").level == logging.WARNING


# ---------------------------------------------------------------------------
# The cycle collector: paused while a command runs, and never needed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_state(tmp_path, fixtures_dir, monkeypatch, capsys,
                                           collecting):
    net = tmp_path / "net2.json"
    net.write_text('{"topology": {"kind": "ring", "n": 2}, "alpha_s": 1e-06, '
                   '"bandwidth_Bps": 1e9}\n')
    seen = []

    def raising(args):
        seen.append(gc.isenabled())
        raise RuntimeError("unexpected")

    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert run("gen", "--algo", "ring-allgather", "--ranks", 2,
                   "--size", 1024, "-o", tmp_path / "t.json") == 0
        assert gc.isenabled() is collecting
        assert run("gen", "--algo", "rd-allgather", "--ranks", 6,
                   "--size", 1024, "-o", tmp_path / "t.json") == 2
        assert gc.isenabled() is collecting
        assert run("simulate", fixtures_dir / "circular_wait.json", "--net", net) == 4
        assert gc.isenabled() is collecting
        monkeypatch.setattr(cli, "cmd_gen", raising)
        with pytest.raises(RuntimeError, match="unexpected"):
            run("gen", "--algo", "ring-allgather", "--ranks", 2,
                "--size", 1024, "-o", tmp_path / "t.json")
        assert gc.isenabled() is collecting
        assert seen == [False]  # the command itself ran with the collector paused
    finally:
        (gc.enable if before else gc.disable)()


def ring_allreduce_xml(n: int) -> str:
    """MSCCL-IR of the n-rank ring all-reduce, laid out as the n = 4 fixture:
    threadblock 0 sends, threadblock 1 receives, reducing in the first n-1
    of its 2(n-1) steps."""
    steps = range(2 * (n - 1))
    gpus = []
    for r in range(n):
        sends = "".join(f'<step s="{k}" type="s" srcbuf="input" srcoff="{(r - k) % n}" '
                        f'cnt="1"' + (f' depid="1" deps="{k - 1}"' if k else "") + "/>"
                        for k in steps)
        recvs = "".join(f'<step s="{k}" type="{"rrc" if k < n - 1 else "r"}" '
                        f'dstbuf="input" dstoff="{(r - k - 1) % n}" cnt="1"/>'
                        for k in steps)
        gpus.append(f'<gpu id="{r}"><tb id="0" send="{(r + 1) % n}" chan="0">{sends}</tb>'
                    f'<tb id="1" recv="{(r - 1) % n}" chan="0">{recvs}</tb></gpu>')
    return f'<algo name="ring" ngpus="{n}" nchunks="{n}" coll="allreduce">{"".join(gpus)}</algo>'


def cyclic_garbage(argv) -> list[type]:
    """The types of what the cycle collector finds once `main(argv)` has
    exited 0, starting from a freshly collected heap."""
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(*argv) == 0
        gc.collect()
        return [type(obj) for obj in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    found = {}
    for n in (4, 16):
        d = tmp_path / f"n{n}"
        d.mkdir()
        (d / "ring.xml").write_text(ring_allreduce_xml(n))
        (d / "net.json").write_text(f'{{"topology": {{"kind": "ring", "n": {n}}}, '
                                    f'"alpha_s": 1e-06, "bandwidth_Bps": 1e9}}\n')
        write_chain_workload(d / "wl.json", n)
        commands = {
            "gen": ("gen", "--algo", "ring-allreduce", "--ranks", n, "--size", "1MiB",
                    "-o", d / "gen.json"),
            "convert": ("convert", "--msccl-xml", d / "ring.xml", "--size", "1MiB",
                        "-o", d / "conv.json"),
            "validate": ("validate", d / "conv.json"),
            "simulate": ("simulate", d / "gen.json", "--net", d / "net.json",
                         "-o", d / "report.json"),
            "expand": ("expand", d / "wl.json", "--bind", "ALL_REDUCE=ring-allreduce",
                       "--bind", "ALL_GATHER=ring-allgather", "-o", d / "unified.json"),
            "sweep": ("sweep", "--algo", "ring-allreduce", "--ranks", n,
                      "--sizes", "1KiB:64KiB:x8", "--net", d / "net.json",
                      "--topologies", f"ring,fc,switch,torus2d:2x{n // 2}",
                      "-o", d / "sweep.csv"),
        }
        for name, argv in commands.items():
            found[name, n] = cyclic_garbage(argv)
    for (name, n), types in found.items():
        ours = [t for t in types if t.__module__.startswith("collgraph")]
        assert not ours, f"{name} at n={n} left {len(ours)} collgraph object(s) in cycles"
        assert len(types) == len(found[name, 4]), f"{name}'s cyclic garbage grows with n"
