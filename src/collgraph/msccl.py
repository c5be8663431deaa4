"""Parse MSCCL-IR style XML programs and convert them to collective traces.

The accepted dialect is deliberately closed: `<algo>` / `<gpu>` / `<tb>` /
`<step>` elements with the attributes listed below, and the step types
{s, r, rrc, rcs, re, cpy, nop}. Anything else is rejected with the offending
line number rather than approximated.

The parse is streamed: expat's handlers check each element, no tree is
built. Of several faults the first reported is an expat fault or stray text,
then the first faulty element in document order (a `<step>` as it closes,
a tb's dense step indices after its last step), then the `<gpu>` count,
then a `depend` on a missing step (RefError).
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Optional

from .errors import MatchError, RefError, SchemaError, SizeError, XmlError
from .trace import (
    OP_COPY,
    OP_NOP,
    OP_REDUCE,
    CollDescriptor,
    CollKind,
    CollectiveTrace,
    TraceNode,
    _comp_node,
    _recv_node,
    _send_node,
    check_trace,  # noqa: F401 -- kept importable: perfbench/tracer.py rebinds it
)

STEP_TYPES = ("s", "r", "rrc", "rcs", "re", "cpy", "nop")
_SENDING = ("s", "rcs")
_RECEIVING = ("r", "rrc", "rcs")
_BUFFERS = ("input", "output", "scratch")

_COLL_NAMES = {
    "allreduce": CollKind.ALL_REDUCE,
    "allgather": CollKind.ALL_GATHER,
    "reducescatter": CollKind.REDUCE_SCATTER,
    "broadcast": CollKind.BROADCAST,
}


@dataclass(frozen=True, slots=True)
class MscclStep:
    index: int
    type: str
    src_buf: Optional[str]
    src_off: Optional[int]
    dst_buf: Optional[str]
    dst_off: Optional[int]
    cnt: int
    depend: Optional[tuple[int, int]]  # (tb id, step index) in the same gpu


# The parser's constructor: stores on an open twin, as trace.py builds nodes.
_OpenMscclStep = type("_OpenMscclStep", (), {"__slots__": MscclStep.__slots__})


def _step(index, step_type, src_buf, src_off, dst_buf, dst_off, cnt, depend) -> MscclStep:
    step = _OpenMscclStep()
    step.index = index
    step.type = step_type
    step.src_buf = src_buf
    step.src_off = src_off
    step.dst_buf = dst_buf
    step.dst_off = dst_off
    step.cnt = cnt
    step.depend = depend
    step.__class__ = MscclStep
    return step


@dataclass(frozen=True)
class MscclThreadblock:
    id: int
    send_peer: Optional[int]
    recv_peer: Optional[int]
    channel: int
    steps: tuple[MscclStep, ...]


@dataclass(frozen=True)
class MscclGpu:
    id: int
    threadblocks: tuple[MscclThreadblock, ...]


@dataclass(frozen=True)
class MscclProgram:
    name: str
    num_gpus: int
    num_chunks: int
    collective: str
    gpus: tuple[MscclGpu, ...]


# ---------------------------------------------------------------------------
# XML parsing (expat, so schema errors carry line numbers)
# ---------------------------------------------------------------------------

_LEVELS = (None, "algo", "gpu", "tb", "step")  # the element expected at each depth
_ALLOWED_ATTRS = {
    "algo": {"name", "ngpus", "nchunks", "coll"},
    "gpu": {"id"},
    "tb": {"id", "send", "recv", "chan"},
    "step": {"s", "type", "srcbuf", "srcoff", "dstbuf", "dstoff", "cnt",
             "depid", "deps", "hasdep"},
}
_REQUIRED_ATTRS = {"algo": _ALLOWED_ATTRS["algo"], "gpu": {"id"}, "tb": {"id", "chan"},
                   "step": {"s", "type"}}
# Per step type: needs a send peer, a recv peer, srcoff, dstoff.
_STEP_RULES = {t: (t in _SENDING, t in _RECEIVING, t in ("s", "re", "cpy"),
                   t in ("r", "rrc", "rcs", "re", "cpy")) for t in STEP_TYPES}


def _check_attrs(tag: str, attrs: dict, line: int) -> None:
    if _REQUIRED_ATTRS[tag] <= attrs.keys() <= _ALLOWED_ATTRS[tag]:
        return
    unknown = attrs.keys() - _ALLOWED_ATTRS[tag]
    if unknown:
        raise SchemaError(f"unknown attribute(s) {sorted(unknown)} on <{tag}> at line {line}")
    missing = _REQUIRED_ATTRS[tag] - attrs.keys()
    if missing:
        raise SchemaError(f"missing attribute(s) {sorted(missing)} on <{tag}> at line {line}")


class _Reader:
    """Checks one MSCCL-IR document while expat parses it, so no tree is
    built: `<algo>`, `<gpu>` and `<tb>` when they open, a `<step>` when it
    closes (an element inside it is only noted before), and a tb's step
    indices once it closes. A fault is a SchemaError from the handler."""

    def __init__(self, text: str, checking: bool = True):
        self.parser = parser = xml.parsers.expat.ParserCreate()
        parser.CharacterDataHandler = self.chars
        if checking:  # fewer text calls; the unbuffered pass finds a stray text's line
            parser.StartElementHandler, parser.EndElementHandler = self.start, self.end
            parser.buffer_text = True
        self.depth, self.gpus, self.seen_gpus = 0, [], set()
        # The open elements' values, the open step's attrs and line, and the
        # first element inside a step (which ends the parse at that step).
        self.algo = self.gpu = self.tb = self.step = self.line = self.child = None
        try:
            parser.Parse(text, True)
        except xml.parsers.expat.ExpatError as exc:
            raise XmlError(f"malformed XML: {exc}") from exc
        finally:  # the handlers hold the reader, which holds the parser
            parser.StartElementHandler = parser.EndElementHandler = None
            parser.CharacterDataHandler = None

    def chars(self, data):
        if data.strip():
            raise SchemaError(f"unexpected character data {data.strip()!r} at line "
                              f"{self.parser.CurrentLineNumber}")

    def int_attr(self, attrs: dict, name: str, tag: str, line: int) -> int:
        try:
            return int(attrs[name])
        except ValueError:
            raise SchemaError(f"attribute {name}={attrs[name]!r} on <{tag}> at line {line} "
                              "is not an integer") from None

    def peer_attr(self, attrs: dict, name: str, line: int, own: int) -> Optional[int]:
        # Absent or -1 both mean "no peer" (upstream emitters use -1).
        if name not in attrs:
            return None
        value = self.int_attr(attrs, name, "tb", line)
        if value == -1:
            return None
        if not 0 <= value < self.algo[1]:
            raise SchemaError(f"{name}={value} on <tb> at line {line} is not a valid gpu")
        if value == own:
            raise SchemaError(f"{name} on <tb> at line {line} points at its own gpu")
        return value

    def start(self, tag: str, attrs: dict) -> None:
        depth = self.depth = self.depth + 1
        if depth == 4 and tag == "step":
            self.step, self.line = attrs, self.parser.CurrentLineNumber
            return
        line = self.parser.CurrentLineNumber
        if depth > 4:  # inside a step: only its first element counts
            if self.child is None:
                self.child = (tag, line)
            return
        if tag != _LEVELS[depth]:
            raise SchemaError(f"unknown element <{tag}> at line {line}")
        _check_attrs(tag, attrs, line)
        if depth == 3:
            gpu_id, _, seen_tbs = self.gpu
            tb_id = self.int_attr(attrs, "id", tag, line)
            if tb_id in seen_tbs:
                raise SchemaError(f"duplicate tb id={tb_id} at line {line}")
            seen_tbs.add(tb_id)
            channel = self.int_attr(attrs, "chan", tag, line)
            if channel < 0:
                raise SchemaError(f"chan={channel} at line {line} must be >= 0")
            self.tb = (tb_id, self.peer_attr(attrs, "send", line, gpu_id),
                       self.peer_attr(attrs, "recv", line, gpu_id), channel, [])
        elif depth == 2:
            gpu_id = self.int_attr(attrs, "id", tag, line)
            if not 0 <= gpu_id < self.algo[1]:
                raise SchemaError(f"gpu id={gpu_id} at line {line} out of range")
            if gpu_id in self.seen_gpus:
                raise SchemaError(f"duplicate gpu id={gpu_id} at line {line}")
            self.seen_gpus.add(gpu_id)
            self.gpu = (gpu_id, [], set())
        else:
            ngpus = self.int_attr(attrs, "ngpus", tag, line)
            nchunks = self.int_attr(attrs, "nchunks", tag, line)
            coll = attrs["coll"]
            if ngpus < 1:
                raise SchemaError(f"ngpus={ngpus} at line {line} must be positive")
            if nchunks < 1:
                raise SchemaError(f"nchunks={nchunks} at line {line} must be positive")
            if coll not in _COLL_NAMES:
                raise SchemaError(f"unknown collective '{coll}' at line {line}; "
                                  f"expected one of {sorted(_COLL_NAMES)}")
            self.algo = (attrs["name"], ngpus, nchunks, coll)

    def end(self, _tag: str) -> None:
        depth = self.depth = self.depth - 1
        if depth == 3:
            self.tb[4].append(self.closed_step())
        elif depth == 2:  # a tb closed: its step indices are 0, 1, ...
            tb_id, send_peer, recv_peer, channel, steps = self.tb
            for i, step in enumerate(steps):
                if step.index != i:
                    raise SchemaError(
                        f"step indices of tb {tb_id} (gpu {self.gpu[0]}) must be dense and "
                        f"ascending; found s={step.index} at position {i}")
            self.gpu[1].append(MscclThreadblock(tb_id, send_peer, recv_peer, channel,
                                                tuple(steps)))
        elif depth == 1:
            self.gpus.append(MscclGpu(self.gpu[0], tuple(self.gpu[1])))

    def closed_step(self) -> MscclStep:
        attrs, line, int_attr = self.step, self.line, self.int_attr
        _check_attrs("step", attrs, line)
        if self.child is not None:  # a step holds no elements
            raise SchemaError(f"unknown element <{self.child[0]}> at line {self.child[1]}")
        index = int_attr(attrs, "s", "step", line)
        step_type = attrs["type"]
        rule = _STEP_RULES.get(step_type)
        if rule is None:
            raise SchemaError(f"unknown step type '{step_type}' at line {line}")
        sends, receives, needs_src, needs_dst = rule
        if sends and self.tb[1] is None:
            raise SchemaError(
                f"step type '{step_type}' at line {line} requires a send peer on its tb")
        if receives and self.tb[2] is None:
            raise SchemaError(
                f"step type '{step_type}' at line {line} requires a recv peer on its tb")
        src_buf, dst_buf = attrs.get("srcbuf"), attrs.get("dstbuf")
        if src_buf is not None and src_buf not in _BUFFERS:
            raise SchemaError(f"srcbuf={src_buf!r} at line {line} is not one of {_BUFFERS}")
        src_off = int_attr(attrs, "srcoff", "step", line) if "srcoff" in attrs else None
        if dst_buf is not None and dst_buf not in _BUFFERS:
            raise SchemaError(f"dstbuf={dst_buf!r} at line {line} is not one of {_BUFFERS}")
        dst_off = int_attr(attrs, "dstoff", "step", line) if "dstoff" in attrs else None
        if needs_src and src_off is None:
            raise SchemaError(f"step type '{step_type}' at line {line} needs srcbuf/srcoff")
        if needs_dst and dst_off is None:
            raise SchemaError(f"step type '{step_type}' at line {line} needs dstbuf/dstoff")
        cnt = int_attr(attrs, "cnt", "step", line) if "cnt" in attrs else 0
        if cnt < 1 and step_type != "nop":
            raise SchemaError(f"step type '{step_type}' at line {line} needs cnt >= 1")
        last = self.algo[2] - cnt  # the last offset a span of cnt chunks may start at
        for name, value in (("srcoff", src_off), ("dstoff", dst_off)):
            if value is not None and not 0 <= value <= last:
                if value < 0:
                    raise SchemaError(f"{name}={value} at line {line} must be non-negative")
                raise SchemaError(f"{name}={value} with cnt={cnt} at line {line} "
                                  f"runs past nchunks={self.algo[2]}")
        depid = int_attr(attrs, "depid", "step", line) if "depid" in attrs else -1
        deps = int_attr(attrs, "deps", "step", line) if "deps" in attrs else -1
        if (depid == -1) != (deps == -1):  # -1 (upstream emitters write it) is none
            raise SchemaError(f"depid/deps at line {line} must be given together")
        if "hasdep" in attrs:
            int_attr(attrs, "hasdep", "step", line)  # rejects malformed input; nothing reads it
        return _step(index, step_type, src_buf, src_off, dst_buf, dst_off, cnt,
                     None if depid == -1 else (depid, deps))


def parse_msccl_xml(path) -> MscclProgram:
    """Parse and fully validate an MSCCL-IR style XML file (see the module
    docstring for which fault is reported first)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise XmlError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    try:
        reader = _Reader(text)
    except (SchemaError, XmlError):  # an expat fault or stray text comes first
        _Reader(text, checking=False)
        raise
    name, ngpus, nchunks, coll = reader.algo
    gpus = sorted(reader.gpus, key=lambda g: g.id)
    if len(gpus) != ngpus:
        raise SchemaError(f"expected {ngpus} <gpu> elements, found {len(gpus)}")
    program = MscclProgram(name, ngpus, nchunks, coll, tuple(gpus))
    _check_depends(program)
    return program


def _check_depends(program: MscclProgram) -> None:
    for gpu in program.gpus:
        steps_of = {tb.id: len(tb.steps) for tb in gpu.threadblocks}
        for tb in gpu.threadblocks:
            for step in tb.steps:
                if step.depend is None:
                    continue
                dep_tb, dep_step = step.depend
                if dep_tb not in steps_of or not 0 <= dep_step < steps_of[dep_tb]:
                    raise RefError(
                        f"gpu {gpu.id} tb {tb.id} step {step.index} depends on "
                        f"missing (tb {dep_tb}, step {dep_step})")


# ---------------------------------------------------------------------------
# Conversion to a CollectiveTrace
# ---------------------------------------------------------------------------

def _assign_tags(program: MscclProgram):
    """Pair sends and recvs per (src, dst, channel) stream in step order and
    hand out per-(src, dst) consecutive tags, channels in ascending order."""
    # (src, dst) -> its sends and its recvs, each by channel, as (step, tb, cnt)
    streams: dict[tuple[int, int], tuple[dict, dict]] = {}
    for gpu in program.gpus:
        for tb in gpu.threadblocks:
            for step in tb.steps:
                if step.type in _SENDING:
                    streams.setdefault((gpu.id, tb.send_peer), ({}, {}))[0] \
                           .setdefault(tb.channel, []).append((step.index, tb.id, step.cnt))
                if step.type in _RECEIVING:
                    streams.setdefault((tb.recv_peer, gpu.id), ({}, {}))[1] \
                           .setdefault(tb.channel, []).append((step.index, tb.id, step.cnt))
    send_tags: dict[tuple[int, int, int], int] = {}  # (gpu, tb, step) -> tag
    recv_tags: dict[tuple[int, int, int], int] = {}
    for (src, dst), (by_chan_s, by_chan_r) in sorted(streams.items()):
        if set(by_chan_s) != set(by_chan_r):
            raise MatchError(
                f"sends and recvs for {src}->{dst} use different channels "
                f"({sorted(by_chan_s)} vs {sorted(by_chan_r)})")
        tag = 0
        for chan in sorted(by_chan_s):
            s_list = sorted(by_chan_s[chan])
            r_list = sorted(by_chan_r[chan])
            if len(s_list) != len(r_list):
                raise MatchError(
                    f"{src}->{dst} channel {chan}: {len(s_list)} send(s) but "
                    f"{len(r_list)} recv(s)")
            for (s_step, s_tb, s_cnt), (r_step, r_tb, r_cnt) in zip(s_list, r_list):
                if s_cnt != r_cnt:
                    raise MatchError(
                        f"{src}->{dst} channel {chan}: send (tb {s_tb} step {s_step}) "
                        f"moves {s_cnt} chunk(s) but recv (tb {r_tb} step {r_step}) "
                        f"expects {r_cnt}")
                send_tags[(src, s_tb, s_step)] = tag
                recv_tags[(dst, r_tb, r_step)] = tag
                tag += 1
    return send_tags, recv_tags


def _span(spans: dict, offset: Optional[int], count: int) -> Optional[tuple[int, ...]]:
    """The chunk tuple of `count` chunks from `offset` (None for None), one
    per (offset, count) in `spans`."""
    return None if offset is None else spans.get((offset, count)) or spans.setdefault(
        (offset, count), tuple(range(offset, offset + count)))


def convert_to_trace(program: MscclProgram, comm_size: int) -> CollectiveTrace:
    """Create one trace vertex per MSCCL operation and wire the edges.

    Within a threadblock, step i+1 depends on step i (sequential executor
    semantics); a step's `depend` adds an edge from the referenced step's
    last emitted node. Chunk offsets become the validator's chunk metadata.
    """
    if type(comm_size) is not int:  # exact: a bool is an int too
        raise SizeError(f"comm_size must be an int, got {comm_size!r}")
    if comm_size < 1:
        raise SizeError(f"comm_size must be positive, got {comm_size}")
    if comm_size % program.num_chunks:
        raise SizeError(
            f"comm_size {comm_size} is not divisible by nchunks {program.num_chunks}")
    chunk_bytes = comm_size // program.num_chunks
    send_tags, recv_tags = _assign_tags(program)

    # What does not depend on the gpu is made once and shared by every rank:
    # the names of each (tb, step, type), the chunk tuple of each (offset,
    # count) and each deps tuple.
    names: dict[tuple[int, int, str], tuple[str, str]] = {}
    spans: dict[tuple[int, int], tuple[int, ...]] = {}
    share = {}.setdefault
    per_rank: list[list[TraceNode]] = []
    for gpu in program.gpus:
        tbs = sorted(gpu.threadblocks, key=attrgetter("id"))
        # Pre-assign node ids so `depend` may reference any threadblock,
        # including ones emitted later: (tb, step) -> the id of its last node.
        last: dict[tuple[int, int], int] = {}
        next_id = 0
        for tb in tbs:
            for step in tb.steps:
                next_id += 2 if step.type in ("rrc", "rcs") else 1
                last[(tb.id, step.index)] = next_id - 1
        nodes: list[TraceNode] = []
        append = nodes.append
        for tb in tbs:
            deps = ()
            for step in tb.steps:
                if step.depend is not None:
                    deps = tuple(sorted((*deps, last[step.depend])))
                    deps = share(deps, deps)
                key = (tb.id, step.index, step.type)
                if key not in names:
                    name = f"tb{tb.id}_s{step.index}_{step.type}"
                    names[key] = (name, name + ("_red" if step.type == "rrc" else "_fwd"))
                name, second = names[key]
                t, nid, size = step.type, len(nodes), step.cnt * chunk_bytes
                if t == "s":
                    append(_send_node(nid, name, deps, tb.send_peer, size,
                                      send_tags[(gpu.id, tb.id, step.index)],
                                      _span(spans, step.src_off, step.cnt)))
                elif t == "r" or t == "rrc" or t == "rcs":
                    dst = _span(spans, step.dst_off, step.cnt)
                    append(_recv_node(nid, name, deps, tb.recv_peer, size,
                                      recv_tags[(gpu.id, tb.id, step.index)], dst))
                    after = share((nid,), (nid,))
                    if t == "rrc":
                        append(_comp_node(nid + 1, second, after, OP_REDUCE, size, dst, None))
                    elif t == "rcs":
                        append(_send_node(nid + 1, second, after, tb.send_peer, size,
                                          send_tags[(gpu.id, tb.id, step.index)], dst))
                elif t == "nop":  # a zero-cost dependency anchor
                    append(_comp_node(nid, name, deps, OP_NOP, 0, None, None))
                else:
                    append(_comp_node(nid, name, deps, OP_REDUCE if t == "re" else OP_COPY, size,
                                      _span(spans, step.dst_off, step.cnt),
                                      _span(spans, step.src_off, step.cnt)))
                deps = (len(nodes) - 1,)
                deps = share(deps, deps)
        per_rank.append(nodes)

    claimed = CollDescriptor(_COLL_NAMES[program.collective], comm_size)
    return CollectiveTrace(program.num_gpus, claimed, per_rank)
