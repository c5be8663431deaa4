"""Command-line entry point: gen / convert / validate / expand / simulate /
sweep, wired as one pipeline from algorithm producers to the network replay.

Exit codes: 0 success, 2 bad input (usage, spec, parse, schema, size,
binding), 3 semantic validation FAIL, 4 deadlock (validator stuck or
simulator stall). All outputs are byte-deterministic for identical inputs.
Traces and reports are strict RFC 8259 JSON: a cost that is NaN or infinite,
or a simulated time that overflows, is rejected (exit 2), never written.

Each command, and the library's `loads_trace` and `isomorphic`, runs with
the cyclic garbage collector paused (`trace.collector_paused`; it is then
left as the calling thread set it): collgraph builds no reference cycles
(tests/test_cli.py pins that), so reference counting frees all it drops.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys

from .errors import (
    CollGraphError,
    DeadlockError,
    SpecError,
    StuckError,
    UnexpandedCollectiveError,
)
from .expander import Binding, expand
from .generators import AlgoSpec, Algorithm, generate
from .msccl import convert_to_trace, parse_msccl_xml
from .simulator import CostModel, Topology, TopologyKind, simulate, sweep
from .trace import (MAX_SIZE, CollKind, CollectiveTrace, WorkloadTrace, collector_paused,
                    load_trace, require_expanded, save_trace)
from .validator import FAIL, Verdict, check_semantics

log = logging.getLogger("collgraph")

_SIZE_SUFFIX = {"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30}


def parse_size(text: str) -> int:
    """Byte count, optionally with a KiB/MiB/GiB suffix."""
    match = re.fullmatch(r"(\d+)(KiB|MiB|GiB)?", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}; expected e.g. 4096 or 4MiB")
    size = int(match.group(1)) * _SIZE_SUFFIX.get(match.group(2), 1)
    if size > MAX_SIZE:
        raise argparse.ArgumentTypeError(f"size exceeds {MAX_SIZE} bytes")
    return size


def parse_jobs(text: str) -> int:
    """A worker count: an integer of at least 1."""
    if not re.fullmatch(r"\d+", text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"invalid job count {text!r}; expected 1 or more")
    return int(text)


def parse_size_list(text: str) -> list[int]:
    """Either a comma list of sizes or a geometric sweep `lo:hi:xK`."""
    if ":" in text:
        match = re.fullmatch(r"([^:]+):([^:]+):x(\d+)", text)
        if not match:
            raise argparse.ArgumentTypeError(
                f"invalid sweep {text!r}; expected lo:hi:xK, e.g. 1KiB:64MiB:x4")
        lo, hi = parse_size(match.group(1)), parse_size(match.group(2))
        factor = int(match.group(3))
        if factor < 2 or lo < 1 or lo > hi:
            raise argparse.ArgumentTypeError(f"invalid sweep bounds in {text!r}")
        sizes = []
        size = lo
        while size <= hi:
            sizes.append(size)
            size *= factor
        return sizes
    return [parse_size(part) for part in text.split(",")]


_TOPO_KINDS = {kind.value: kind for kind in TopologyKind}
_TOPO_KINDS["fully_connected"] = TopologyKind.FULLY_CONNECTED
_GRID_KINDS = (TopologyKind.MESH2D, TopologyKind.TORUS2D)


def _topology(spec: dict) -> Topology:
    """A topology object {kind, n} or {kind, rows, cols}, the form both the
    net config and the CLI token syntax describe."""
    kind = _TOPO_KINDS.get(spec["kind"])
    if kind is None:
        raise SpecError(f"unknown topology kind {spec['kind']!r}")
    if kind in _GRID_KINDS:
        rows, cols = int(spec["rows"]), int(spec["cols"])
        return Topology(kind, rows * cols, rows, cols)
    return Topology(kind, int(spec["n"]))


def parse_topology_token(token: str, num_ranks: int) -> Topology:
    """CLI topology syntax: ring | fc | switch | mesh2d:RxC | torus2d:RxC."""
    match = re.fullmatch(r"(\w+)(?::(\d+)x(\d+))?", token)
    grid = match is not None and _TOPO_KINDS.get(match.group(1)) in _GRID_KINDS
    if match is None or grid != (match.group(2) is not None):
        raise SpecError(f"unknown topology {token!r}")
    kind, rows, cols = match.groups()
    try:
        return _topology({"kind": kind, "n": num_ranks, "rows": rows, "cols": cols})
    except ValueError:  # a dimension past int()'s digit limit
        raise SpecError(f"{kind} dimensions are too long to read as integers") from None


_NUMBER = (int, float)
_NET_FIELDS = {"alpha_s": _NUMBER, "bandwidth_Bps": _NUMBER,
               "reduce_bandwidth_Bps": (*_NUMBER, type(None)),
               "fixed_comp_overhead_s": _NUMBER, "topology": (dict, type(None))}


def _check_fields(obj: dict, fields: dict, path, prefix: str = "") -> None:
    """Each key of `obj` must be one of `fields`, and its value of one of
    that field's exact JSON types: a bool is not a number, nor "4" an integer."""
    for key, value in obj.items():
        if key not in fields:
            raise CollGraphError(f"{path}: unknown net config key {prefix + key!r}")
        if type(value) not in fields[key]:
            raise CollGraphError(f"{path}: net config key {prefix + key!r} "
                                 f"has the wrong type ({type(value).__name__})")


def load_net_config(path) -> tuple[Topology | None, CostModel]:
    """Network config JSON: numbers alpha_s, bandwidth_Bps, optional
    reduce_bandwidth_Bps (null = infinite) and fixed_comp_overhead_s, and an
    optional topology {kind, n} or {kind, rows, cols} of integers. Any other
    key is an error."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise CollGraphError(f"{path}: net config must be a JSON object")
        _check_fields(doc, _NET_FIELDS, path)
        reduce_bandwidth = doc.get("reduce_bandwidth_Bps")
        cost = CostModel(
            alpha=float(doc["alpha_s"]),
            bandwidth=float(doc["bandwidth_Bps"]),
            reduce_bandwidth=None if reduce_bandwidth is None else float(reduce_bandwidth),
            fixed_comp_overhead=float(doc.get("fixed_comp_overhead_s", 0.0)),
        )
        topo_obj = doc.get("topology")
        if topo_obj is None:
            return None, cost
        kind = topo_obj.get("kind")
        grid = isinstance(kind, str) and _TOPO_KINDS.get(kind) in _GRID_KINDS
        sizes = ("rows", "cols") if grid else ("n",)
        _check_fields(topo_obj, {"kind": (str,), **dict.fromkeys(sizes, (int,))}, path,
                      "topology.")
        return _topology(topo_obj), cost
    except KeyError as exc:
        raise CollGraphError(f"{path}: missing net config key {exc}") from None
    except (ValueError, OverflowError, RecursionError) as exc:
        raise CollGraphError(f"{path}: malformed net config: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _write(pieces, path) -> None:
    """Write text pieces as UTF-8 to `path`, or to stdout if there is none."""
    if not path:
        sys.stdout.writelines(pieces)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(pieces)


def cmd_gen(args) -> int:
    spec = AlgoSpec(Algorithm(args.algo), args.ranks, args.size)
    save_trace(generate(spec), args.output)
    log.info("wrote %s", args.output)
    return 0


def cmd_convert(args) -> int:
    program = parse_msccl_xml(args.msccl_xml)
    save_trace(convert_to_trace(program, args.size), args.output)
    log.info("wrote %s", args.output)
    return 0


def cmd_validate(args) -> int:
    trace = load_trace(args.trace)
    if not isinstance(trace, CollectiveTrace):
        raise CollGraphError("validate expects a collective trace, got a workload")
    try:
        verdict = check_semantics(trace)
    except StuckError as exc:
        verdict = Verdict("STUCK", stuck_nodes=[list(pair) for pair in exc.frontier])
    print(json.dumps(verdict.to_json(), indent=2))
    return {"STUCK": 4, FAIL: 3}.get(verdict.status, 0)


def cmd_simulate(args) -> int:
    topology, cost = load_net_config(args.net)  # the small file first: a bad one fails fast
    if topology is None:
        raise CollGraphError(f"{args.net}: simulate needs a topology entry")
    trace = load_trace(args.trace)
    _write(simulate(trace, topology, cost).pieces(), args.output)
    return 0


def cmd_sweep(args) -> int:
    _, cost = load_net_config(args.net)
    topologies = [parse_topology_token(token, args.ranks)
                  for token in args.topologies.split(",")]
    rows = sweep(Algorithm(args.algo), args.ranks, args.sizes, topologies, cost,
                 jobs=args.jobs)
    _write(["topology,size_bytes,duration_s,slowdown\n",
            *(f"{topology},{size},{duration!r},{slowdown!r}\n"
              for topology, size, duration, slowdown in rows)], args.output)
    return 0


def _parse_binding(value: str) -> tuple[CollKind, Binding]:
    if "=" not in value:
        raise argparse.ArgumentTypeError(
            f"invalid binding {value!r}; expected KIND=algorithm or KIND=file")
    kind_name, _, target = value.partition("=")
    try:
        kind = CollKind(kind_name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown collective kind {kind_name!r}; expected one of "
            f"{[k.value for k in CollKind]}") from None
    try:
        return kind, Algorithm(target)
    except ValueError:
        pass
    path = target[5:] if target.startswith("file:") else target
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(
            f"binding target {target!r} is neither an algorithm "
            f"({[a.value for a in Algorithm]}) nor an existing trace file")
    return kind, path


def cmd_expand(args) -> int:
    workload = load_trace(args.workload)
    if not isinstance(workload, WorkloadTrace):
        raise CollGraphError("expand expects a workload trace")
    bindings: dict[CollKind, Binding] = {}
    for kind, target in args.bind or []:  # a bad file fails even if nothing uses it
        if isinstance(target, str):
            bound = load_trace(target)
            if not isinstance(bound, CollectiveTrace):
                raise CollGraphError(f"binding file {target} is not a collective trace")
            bindings[kind] = bound
        else:
            bindings[kind] = target
    try:  # nothing to splice: expansion is the identity, byte for byte
        require_expanded(workload, "expansion")
        note = " (no collectives to expand)"
    except UnexpandedCollectiveError:
        workload, note = expand(workload, bindings), ""
    save_trace(workload, args.output)
    log.info("wrote %s%s", args.output, note)
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collgraph",
        description="Generate, convert, validate, expand and simulate "
                    "collective algorithm traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a collective algorithm trace")
    gen.add_argument("--algo", required=True, choices=[a.value for a in Algorithm])
    gen.add_argument("--ranks", required=True, type=int)
    gen.add_argument("--size", required=True, type=parse_size,
                     help="collective size in bytes (KiB/MiB/GiB suffixes allowed)")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen)

    convert = sub.add_parser("convert", help="convert an MSCCL-IR XML program")
    convert.add_argument("--msccl-xml", required=True)
    convert.add_argument("--size", required=True, type=parse_size,
                         help="total collective size in bytes")
    convert.add_argument("-o", "--output", required=True)
    convert.set_defaults(func=cmd_convert)

    validate = sub.add_parser("validate", help="semantically validate a trace")
    validate.add_argument("trace")
    validate.set_defaults(func=cmd_validate)

    sim = sub.add_parser("simulate", help="replay a trace on a network model")
    sim.add_argument("trace")
    sim.add_argument("--net", required=True, help="network config JSON")
    sim.add_argument("-o", "--output", help="report JSON path (default: stdout)")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="compare topologies across collective sizes")
    sw.add_argument("--algo", required=True, choices=[a.value for a in Algorithm])
    sw.add_argument("--ranks", required=True, type=int)
    sw.add_argument("--sizes", required=True, type=parse_size_list,
                    help="comma list or geometric lo:hi:xK, e.g. 1KiB:64MiB:x4")
    sw.add_argument("--topologies", required=True,
                    help="comma list: ring,fc,switch,mesh2d:RxC,torus2d:RxC")
    sw.add_argument("--net", required=True, help="network config JSON (costs)")
    sw.add_argument("--jobs", type=parse_jobs, default=1,
                    help="parallel simulations (output is identical for any value)")
    sw.add_argument("-o", "--output", help="CSV path (default: stdout)")
    sw.set_defaults(func=cmd_sweep)

    exp = sub.add_parser("expand", help="splice collective algorithms into a workload")
    exp.add_argument("workload")
    exp.add_argument("--bind", action="append", type=_parse_binding, metavar="KIND=SPEC",
                     help="e.g. ALL_REDUCE=ring-allreduce or ALL_GATHER=file:trace.json")
    exp.add_argument("-o", "--output", required=True)
    exp.set_defaults(func=cmd_expand)
    return parser


def main(argv=None) -> int:
    level = getattr(logging, os.environ.get("COLLGRAPH_LOG", "WARNING").upper(), None)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level if type(level) is int else logging.WARNING)  # BASIC_FORMAT is no level
    args = build_parser().parse_args(argv)
    with collector_paused():
        try:
            return args.func(args)
        except DeadlockError as exc:
            print(f"collgraph: {exc}", file=sys.stderr)
            return 4
        except (CollGraphError, OSError) as exc:
            print(f"collgraph: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
