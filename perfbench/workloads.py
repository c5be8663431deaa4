"""The benchmark's three workloads: input writers, the CLI steps of one
iteration, and checks on every output that do not use collgraph's code.

Each workload writes its inputs from the seed once (set-up), then runs the
same iteration again and again. An iteration calls `collgraph.cli.main`
in-process, one command at a time, exactly as a user would type them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from speed import Timed

MIB = 1 << 20
SWEEP_SIZES = {"64KiB": 64 << 10, "16MiB": 16 * MIB}
RTOL = 1e-12


# ---------------------------------------------------------------------------
# Input writers (independent of collgraph)
# ---------------------------------------------------------------------------

def ring_allreduce_xml(n: int) -> str:
    """MSCCL-IR XML of the unidirectional n-rank ring all-reduce.

    Threadblock 0 of gpu r sends chunk (r - k) mod n to r+1 at step k;
    threadblock 1 receives chunk (r - k - 1) mod n from r-1, reducing in
    the first n-1 steps and copying in the last n-1. Send step k waits for
    receive step k-1, so the program is the generator's ring.
    """
    steps = 2 * (n - 1)
    lines = [f'<algo name="ring_allreduce_{n}" ngpus="{n}" nchunks="{n}" coll="allreduce">']
    for r in range(n):
        lines.append(f'  <gpu id="{r}">')
        lines.append(f'    <tb id="0" send="{(r + 1) % n}" recv="-1" chan="0">')
        for k in range(steps):
            dep = "" if k == 0 else f' depid="1" deps="{k - 1}"'
            lines.append(f'      <step s="{k}" type="s" srcbuf="input" '
                         f'srcoff="{(r - k) % n}" cnt="1"{dep}/>')
        lines.append("    </tb>")
        lines.append(f'    <tb id="1" send="-1" recv="{(r - 1) % n}" chan="0">')
        for k in range(steps):
            kind = "rrc" if k < n - 1 else "r"
            hasdep = ' hasdep="1"' if k < steps - 1 else ""
            lines.append(f'      <step s="{k}" type="{kind}" dstbuf="input" '
                         f'dstoff="{(r - k - 1) % n}" cnt="1"{hasdep}/>')
        lines.append("    </tb>")
        lines.append("  </gpu>")
    lines.append("</algo>")
    return "\n".join(lines) + "\n"


TRAIN_KINDS = ("ALL_REDUCE", "ALL_GATHER", "ALL_REDUCE", "ALL_GATHER")


def train_sizes(rng: random.Random) -> tuple[list[int], list[int]]:
    """Seeded sizes of the training step: four distinct collective sizes
    (multiples of 64 B, so any rank count up to 64 divides them) and four
    compute sizes. Kinds and counts never depend on the seed."""
    units = rng.sample(range(1 << 10, 1 << 16), len(TRAIN_KINDS))
    comms = [64 * u for u in units]
    comps = [rng.randrange(1 << 20, 1 << 26) for _ in TRAIN_KINDS]
    return comms, comps


def train_workload_json(n: int, comms: list[int], comps: list[int]) -> str:
    """Workload trace with, on every rank, the chain COMP -> coll -> COMP ->
    coll ... over TRAIN_KINDS, in trace format version 1."""
    nodes = []
    for i, (kind, comm, comp) in enumerate(zip(TRAIN_KINDS, comms, comps)):
        nodes.append({"id": 2 * i, "name": f"compute{i}", "kind": "COMP",
                      "deps": [2 * i - 1] if i else [],
                      "attrs": {"op": "GEMM", "comp_size": comp}})
        nodes.append({"id": 2 * i + 1, "name": f"{kind.lower()}{i}", "kind": "COMM_COLL",
                      "deps": [2 * i],
                      "attrs": {"coll_kind": kind, "comm_size": comm}})
    doc = {"format_version": "1", "trace_class": "workload", "num_ranks": n,
           "claimed_collective": None, "ranks": [nodes] * n}
    return json.dumps(doc, indent=2) + "\n"


def draw_net(rng: random.Random) -> tuple[float, float]:
    """Seeded link latency (s) and bandwidth (B/s)."""
    return rng.uniform(0.5e-6, 5e-6), rng.uniform(5e9, 5e10)


def net_json(alpha: float, bandwidth: float, reduce_bandwidth=None, ring=None) -> str:
    doc = {"alpha_s": alpha, "bandwidth_Bps": bandwidth,
           "reduce_bandwidth_Bps": reduce_bandwidth}
    if ring is not None:
        doc["topology"] = {"kind": "ring", "n": ring}
    return json.dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# Closed forms the outputs are checked against
# ---------------------------------------------------------------------------

def ring_allreduce_time(n, size, alpha, bandwidth, reduce_bandwidth=None):
    """2(n-1) single-hop steps of size/n bytes, plus n-1 reductions on the
    critical path when compute is not free."""
    chunk = size / n
    total = 2 * (n - 1) * (alpha + chunk / bandwidth)
    if reduce_bandwidth is not None:
        total += (n - 1) * chunk / reduce_bandwidth
    return total


def ring_allgather_time(n, size, alpha, bandwidth):
    return (n - 1) * (alpha + size / bandwidth)


def rd_allgather_fc_time(n, size, alpha, bandwidth):
    """log2(n) rounds on direct links; round j moves 2^j * size bytes."""
    return (n.bit_length() - 1) * alpha + (n - 1) * size / bandwidth


def train_time(n, comms, comps, alpha, bandwidth, reduce_bandwidth):
    total = sum(c / reduce_bandwidth for c in comps)
    for kind, size in zip(TRAIN_KINDS, comms):
        if kind == "ALL_REDUCE":
            total += ring_allreduce_time(n, size, alpha, bandwidth, reduce_bandwidth)
        else:
            total += ring_allgather_time(n, size, alpha, bandwidth)
    return total


def close(got, want) -> bool:
    return isinstance(got, float) and math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


# ---------------------------------------------------------------------------
# One iteration
# ---------------------------------------------------------------------------

class Iteration:
    """Times the steps of one iteration and records the steps that failed.

    A step fails on an exception, an unexpected exit code or a failed output
    check. `digests` is shared by the iterations of a run: the first one
    records each artifact, the later ones must reproduce it byte for byte.
    """

    def __init__(self, collgraph, digests: dict, tracer=None):
        self.cg = collgraph
        self.digests = digests
        self.tracer = tracer
        self.step_s: dict[str, float] = {}  # at reference speed (see speed.py)
        self.wall_s: dict[str, float] = {}
        self.kernel_s: dict[str, list] = {}  # the speed samples of each step
        self.attempted = 0
        self.failures: list[str] = []
        self.work: dict[str, int] = {}  # counts read off the outputs
        self._step = ""
        self._step_failed = False

    @property
    def total_s(self) -> float:
        return sum(self.step_s.values())

    def _run(self, name: str, span: str, fn):
        self.attempted += 1
        self._step, self._step_failed = name, False
        scope = self.tracer.span(span) if self.tracer else contextlib.nullcontext()
        timed = Timed()
        try:
            with timed, scope:
                return fn()
        except Exception as exc:  # a crash is a failed step, not a crashed benchmark
            self.check(False, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.step_s[name] = self.step_s.get(name, 0.0) + timed.scaled_s
            self.wall_s[name] = self.wall_s.get(name, 0.0) + timed.wall_s
            self.kernel_s.setdefault(name, []).extend(timed.kernel_s)

    def cli(self, argv: list, capture=False):
        """Run one CLI command; returns its stdout if `capture`, else None."""
        argv = [str(a) for a in argv]
        out = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(out) if capture else contextlib.nullcontext():
                    return self.cg.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                return exc.code

        code = self._run(argv[0], f"cli.{argv[0]}", call)
        self.check(code == 0, f"exit code {code}")
        return out.getvalue() if capture else None

    def call(self, name: str, fn):
        return self._run(name, f"bench.{name}", fn)

    def check(self, ok: bool, message: str) -> None:
        if not ok and not self._step_failed:
            self._step_failed = True
            self.failures.append(f"{self._step}: {message}")
        elif not ok:
            self.failures[-1] += f"; {message}"

    def same_as_first(self, key: str, data: bytes) -> None:
        self.work[f"{key}.bytes"] = len(data)
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(key, digest)
        self.check(digest == first, f"{key} differs from the first iteration")

    def read(self, path: Path) -> bytes:
        try:
            return path.read_bytes()
        except OSError as exc:
            self.check(False, f"cannot read {path.name}: {exc}")
            return b""

    def report_total(self, path: Path):
        """Simulated total of a report; records its work counts."""
        data = self.read(path)
        self.same_as_first(path.name, data)
        try:
            report = json.loads(data)
            self.work[f"{path.stem}.nodes"] = sum(map(len, report["ranks"]))
            self.work[f"{path.stem}.events"] = report["event_count"]
            self.work[f"{path.stem}.link_hops"] = sum(link["messages"] for link in report["links"])
            return report["total_duration_s"]
        except (ValueError, KeyError, TypeError):
            self.check(False, f"{path.name} is not a simulation report")
            return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class CollectiveN64:
    """gen, convert, validate, isomorphic and simulate of one n-rank ring
    all-reduce of 64 MiB."""

    name = "collective-n64"
    why = ("mostly validator work (check_semantics), plus producers, MSCCL XML and "
           "trace JSON I/O; simulation is a small share")
    size = 64 * MIB

    def __init__(self, seed: int, workdir: Path, ranks: int = 64):
        self.n, self.dir = ranks, workdir
        self.alpha, self.bandwidth = draw_net(random.Random(seed))
        (workdir / "ring.xml").write_text(ring_allreduce_xml(ranks), encoding="utf-8")
        (workdir / "net.json").write_text(
            net_json(self.alpha, self.bandwidth, ring=ranks), encoding="utf-8")

    def iterate(self, it: Iteration) -> None:
        d, n = self.dir, self.n
        gen, conv, report = d / "gen.json", d / "converted.json", d / "report.json"
        it.cli(["gen", "--algo", "ring-allreduce", "--ranks", n, "--size", "64MiB", "-o", gen])
        it.same_as_first(gen.name, it.read(gen))
        it.cli(["convert", "--msccl-xml", d / "ring.xml", "--size", "64MiB", "-o", conv])
        it.same_as_first(conv.name, it.read(conv))
        text = it.cli(["validate", conv], capture=True)
        it.same_as_first("verdict", (text or "").encode())
        try:
            verdict = json.loads(text)["verdict"]
        except (TypeError, ValueError, KeyError):
            verdict = None
        it.check(verdict == "PASS", f"verdict {verdict!r}, expected 'PASS'")
        cg = it.cg
        same = it.call("isomorphic", lambda: cg.validator.isomorphic(
            cg.trace.load_trace(gen), cg.trace.load_trace(conv)))
        it.check(same is True, "generated and converted traces are not isomorphic")
        it.cli(["simulate", conv, "--net", d / "net.json", "-o", report])
        want = ring_allreduce_time(n, self.size, self.alpha, self.bandwidth)
        got = it.report_total(report)
        it.check(close(got, want), f"total {got!r}, expected {want!r}")


class ExpandTrain64:
    """expand a seeded n-rank training step, then simulate the unified trace
    with finite compute bandwidth."""

    name = "expand-train64"
    why = ("mostly trace JSON dumps/loads, check_trace, expand and single-hop "
           "simulation with compute; no validator work, generate cached per size")
    reduce_bandwidth = 1e10

    def __init__(self, seed: int, workdir: Path, ranks: int = 64):
        rng = random.Random(seed)
        self.n, self.dir = ranks, workdir
        self.alpha, self.bandwidth = draw_net(rng)
        self.comms, self.comps = train_sizes(rng)
        (workdir / "workload.json").write_text(
            train_workload_json(ranks, self.comms, self.comps), encoding="utf-8")
        (workdir / "net.json").write_text(
            net_json(self.alpha, self.bandwidth, self.reduce_bandwidth, ring=ranks),
            encoding="utf-8")

    def iterate(self, it: Iteration) -> None:
        d = self.dir
        unified, report = d / "unified.json", d / "report.json"
        it.cli(["expand", d / "workload.json", "--bind", "ALL_REDUCE=ring-allreduce",
                "--bind", "ALL_GATHER=ring-allgather", "-o", unified])
        it.same_as_first(unified.name, it.read(unified))
        it.cli(["simulate", unified, "--net", d / "net.json", "-o", report])
        want = train_time(self.n, self.comms, self.comps, self.alpha, self.bandwidth,
                          self.reduce_bandwidth)
        got = it.report_total(report)
        it.check(close(got, want), f"total {got!r}, expected {want!r}")


class SweepTopo:
    """Two topology sweeps: ring all-reduce on n ranks and recursive-doubling
    all-gather on 4n ranks, five topologies and two sizes each."""

    name = "sweep-topo"
    why = ("mostly generate (again for every cell) and multi-hop simulation with "
           "link contention; no JSON I/O and no validator work")

    def __init__(self, seed: int, workdir: Path, ranks: int = 64):
        self.n, self.dir = ranks, workdir
        self.alpha, self.bandwidth = draw_net(random.Random(seed))
        (workdir / "net.json").write_text(net_json(self.alpha, self.bandwidth),
                                          encoding="utf-8")

    def _sweep(self, it: Iteration, algo: str, n: int, csv: Path) -> dict:
        side = math.isqrt(n)
        topologies = f"ring,fc,mesh2d:{side}x{side},torus2d:{side}x{side},switch"
        it.cli(["sweep", "--algo", algo, "--ranks", n, "--sizes", ",".join(SWEEP_SIZES),
                "--topologies", topologies, "--net", self.dir / "net.json",
                "--jobs", 1, "-o", csv])
        data = it.read(csv)
        it.same_as_first(csv.name, data)
        rows = {}
        for line in data.decode().splitlines()[1:]:
            topo, size, duration, slowdown = line.split(",")
            rows[(topo.split(":")[0], int(size))] = (float(duration), float(slowdown))
        it.check(len(rows) == 10, f"{csv.name} has {len(rows)} cells, expected 10")
        return rows

    def iterate(self, it: Iteration) -> None:
        n, a, b = self.n, self.alpha, self.bandwidth
        rows = self._sweep(it, "ring-allreduce", n, self.dir / "allreduce.csv")
        missing = (math.nan, math.nan)
        for size in SWEEP_SIZES.values():
            ring, fc, mesh, switch = (rows.get((topo, size), missing)
                                      for topo in ("ring", "fc", "mesh2d", "switch"))
            want = ring_allreduce_time(n, size, a, b)
            it.check(close(ring[0], want), f"ring {size}: {ring[0]!r}, expected {want!r}")
            it.check(ring[1] == 1.0 and fc[1] == 1.0,
                     f"ring/fc slowdowns {ring[1]}, {fc[1]} at {size}")
            it.check(mesh[1] > 1.0, f"mesh2d slowdown {mesh[1]} at {size}")
            it.check(1.0 < switch[1] <= 2.0, f"switch slowdown {switch[1]} at {size}")
        rows = self._sweep(it, "rd-allgather", 4 * n, self.dir / "allgather.csv")
        for size in SWEEP_SIZES.values():
            got = rows.get(("fc", size), missing)[0]
            want = rd_allgather_fc_time(4 * n, size, a, b)
            it.check(close(got, want), f"rd fc {size}: {got!r}, expected {want!r}")

WORKLOADS = {w.name: w for w in (CollectiveN64, ExpandTrain64, SweepTopo)}
