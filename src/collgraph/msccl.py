"""Parse MSCCL-IR style XML programs and convert them to collective traces.

The accepted dialect is deliberately closed: `<algo>` / `<gpu>` / `<tb>` /
`<step>` elements with the attributes listed below, and the step types
{s, r, rrc, rcs, re, cpy, nop}. Anything else is rejected with the offending
line number rather than approximated.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass
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


@dataclass(frozen=True)
class MscclStep:
    index: int
    type: str
    src_buf: Optional[str]
    src_off: Optional[int]
    dst_buf: Optional[str]
    dst_off: Optional[int]
    cnt: int
    depend: Optional[tuple[int, int]]  # (tb id, step index) in the same gpu


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

class _Elem:
    __slots__ = ("tag", "attrs", "children", "line")

    def __init__(self, tag, attrs, line):
        self.tag = tag
        self.attrs = attrs
        self.children = []
        self.line = line


def _parse_xml(text: str) -> _Elem:
    parser = xml.parsers.expat.ParserCreate()
    root: list[_Elem] = []
    stack: list[_Elem] = []

    def start(tag, attrs):
        elem = _Elem(tag, dict(attrs), parser.CurrentLineNumber)
        if stack:
            stack[-1].children.append(elem)
        else:
            root.append(elem)
        stack.append(elem)

    def end(_tag):
        stack.pop()

    def chars(data):
        if data.strip():
            raise SchemaError(
                f"unexpected character data {data.strip()!r} at line "
                f"{parser.CurrentLineNumber}")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlError(f"malformed XML: {exc}") from exc
    finally:  # the handlers close over the parser: a cycle holding the tree
        parser.StartElementHandler = parser.CharacterDataHandler = None
    return root[0]


_ALLOWED_ATTRS = {
    "algo": {"name", "ngpus", "nchunks", "coll"},
    "gpu": {"id"},
    "tb": {"id", "send", "recv", "chan"},
    "step": {"s", "type", "srcbuf", "srcoff", "dstbuf", "dstoff", "cnt",
             "depid", "deps", "hasdep"},
}


def _check_elem(elem: _Elem, expected_tag: str, required: set[str]) -> None:
    if elem.tag != expected_tag:
        raise SchemaError(f"unknown element <{elem.tag}> at line {elem.line}")
    unknown = set(elem.attrs) - _ALLOWED_ATTRS[expected_tag]
    if unknown:
        raise SchemaError(
            f"unknown attribute(s) {sorted(unknown)} on <{elem.tag}> at line {elem.line}")
    missing = required - set(elem.attrs)
    if missing:
        raise SchemaError(
            f"missing attribute(s) {sorted(missing)} on <{elem.tag}> at line {elem.line}")


def _int_attr(elem: _Elem, name: str) -> int:
    try:
        return int(elem.attrs[name])
    except ValueError:
        raise SchemaError(
            f"attribute {name}={elem.attrs[name]!r} on <{elem.tag}> at line "
            f"{elem.line} is not an integer") from None


def _peer_attr(elem: _Elem, name: str, ngpus: int, own: int) -> Optional[int]:
    # Absent or -1 both mean "no peer" (upstream emitters use -1).
    if name not in elem.attrs:
        return None
    value = _int_attr(elem, name)
    if value == -1:
        return None
    if not 0 <= value < ngpus:
        raise SchemaError(f"{name}={value} on <tb> at line {elem.line} is not a valid gpu")
    if value == own:
        raise SchemaError(f"{name} on <tb> at line {elem.line} points at its own gpu")
    return value


def _parse_step(elem: _Elem, send_peer: Optional[int], recv_peer: Optional[int],
                nchunks: int) -> MscclStep:
    _check_elem(elem, "step", {"s", "type"})
    if elem.children:  # a step holds no elements
        child = elem.children[0]
        raise SchemaError(f"unknown element <{child.tag}> at line {child.line}")
    index = _int_attr(elem, "s")
    step_type = elem.attrs["type"]
    if step_type not in STEP_TYPES:
        raise SchemaError(f"unknown step type '{step_type}' at line {elem.line}")
    if step_type in _SENDING and send_peer is None:
        raise SchemaError(
            f"step type '{step_type}' at line {elem.line} requires a send peer on its tb")
    if step_type in _RECEIVING and recv_peer is None:
        raise SchemaError(
            f"step type '{step_type}' at line {elem.line} requires a recv peer on its tb")

    def buf(name):
        if name not in elem.attrs:
            return None
        value = elem.attrs[name]
        if value not in _BUFFERS:
            raise SchemaError(f"{name}={value!r} at line {elem.line} is not one of {_BUFFERS}")
        return value

    def off(name):
        return _int_attr(elem, name) if name in elem.attrs else None

    src_buf, src_off = buf("srcbuf"), off("srcoff")
    dst_buf, dst_off = buf("dstbuf"), off("dstoff")
    needs_src = step_type in ("s", "re", "cpy")
    needs_dst = step_type in ("r", "rrc", "rcs", "re", "cpy")
    if needs_src and src_off is None:
        raise SchemaError(f"step type '{step_type}' at line {elem.line} needs srcbuf/srcoff")
    if needs_dst and dst_off is None:
        raise SchemaError(f"step type '{step_type}' at line {elem.line} needs dstbuf/dstoff")
    cnt = _int_attr(elem, "cnt") if "cnt" in elem.attrs else 0
    if step_type != "nop" and cnt < 1:
        raise SchemaError(f"step type '{step_type}' at line {elem.line} needs cnt >= 1")
    for name, value in (("srcoff", src_off), ("dstoff", dst_off)):
        if value is not None and value < 0:
            raise SchemaError(f"{name}={value} at line {elem.line} must be non-negative")
        if value is not None and value + cnt > nchunks:
            raise SchemaError(f"{name}={value} with cnt={cnt} at line {elem.line} "
                              f"runs past nchunks={nchunks}")

    depid = off("depid")
    deps = off("deps")
    if depid == -1:
        depid = None
    if deps == -1:
        deps = None
    if (depid is None) != (deps is None):
        raise SchemaError(f"depid/deps at line {elem.line} must be given together")
    depend = None if depid is None else (depid, deps)
    if "hasdep" in elem.attrs:
        _int_attr(elem, "hasdep")  # rejects malformed input; nothing reads the value
    return MscclStep(index, step_type, src_buf, src_off, dst_buf, dst_off, cnt, depend)


def parse_msccl_xml(path) -> MscclProgram:
    """Parse and fully validate an MSCCL-IR style XML file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise XmlError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    root = _parse_xml(text)
    _check_elem(root, "algo", {"name", "ngpus", "nchunks", "coll"})
    ngpus = _int_attr(root, "ngpus")
    nchunks = _int_attr(root, "nchunks")
    coll = root.attrs["coll"]
    if ngpus < 1:
        raise SchemaError(f"ngpus={ngpus} at line {root.line} must be positive")
    if nchunks < 1:
        raise SchemaError(f"nchunks={nchunks} at line {root.line} must be positive")
    if coll not in _COLL_NAMES:
        raise SchemaError(
            f"unknown collective '{coll}' at line {root.line}; "
            f"expected one of {sorted(_COLL_NAMES)}")

    gpus = []
    seen_gpus = set()
    for gpu_elem in root.children:
        _check_elem(gpu_elem, "gpu", {"id"})
        gpu_id = _int_attr(gpu_elem, "id")
        if not 0 <= gpu_id < ngpus:
            raise SchemaError(f"gpu id={gpu_id} at line {gpu_elem.line} out of range")
        if gpu_id in seen_gpus:
            raise SchemaError(f"duplicate gpu id={gpu_id} at line {gpu_elem.line}")
        seen_gpus.add(gpu_id)
        tbs = []
        seen_tbs = set()
        for tb_elem in gpu_elem.children:
            _check_elem(tb_elem, "tb", {"id", "chan"})
            tb_id = _int_attr(tb_elem, "id")
            if tb_id in seen_tbs:
                raise SchemaError(f"duplicate tb id={tb_id} at line {tb_elem.line}")
            seen_tbs.add(tb_id)
            channel = _int_attr(tb_elem, "chan")
            if channel < 0:
                raise SchemaError(f"chan={channel} at line {tb_elem.line} must be >= 0")
            send_peer = _peer_attr(tb_elem, "send", ngpus, gpu_id)
            recv_peer = _peer_attr(tb_elem, "recv", ngpus, gpu_id)
            steps = [_parse_step(step_elem, send_peer, recv_peer, nchunks)
                     for step_elem in tb_elem.children]
            for i, step in enumerate(steps):
                if step.index != i:
                    raise SchemaError(
                        f"step indices of tb {tb_id} (gpu {gpu_id}) must be dense and "
                        f"ascending; found s={step.index} at position {i}")
            tbs.append(MscclThreadblock(tb_id, send_peer, recv_peer, channel, tuple(steps)))
        gpus.append(MscclGpu(gpu_id, tuple(tbs)))
    if len(gpus) != ngpus:
        raise SchemaError(f"expected {ngpus} <gpu> elements, found {len(gpus)}")
    gpus.sort(key=lambda g: g.id)

    program = MscclProgram(root.attrs["name"], ngpus, nchunks, coll, tuple(gpus))
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
    sends: dict[tuple[int, int], dict[int, list[tuple[int, int, int]]]] = {}
    recvs: dict[tuple[int, int], dict[int, list[tuple[int, int, int]]]] = {}
    for gpu in program.gpus:
        for tb in gpu.threadblocks:
            for step in tb.steps:
                if step.type in _SENDING:
                    sends.setdefault((gpu.id, tb.send_peer), {}) \
                         .setdefault(tb.channel, []).append((step.index, tb.id, step.cnt))
                if step.type in _RECEIVING:
                    recvs.setdefault((tb.recv_peer, gpu.id), {}) \
                         .setdefault(tb.channel, []).append((step.index, tb.id, step.cnt))
    send_tags: dict[tuple[int, int, int, int], int] = {}  # (gpu, tb, step) -> tag
    recv_tags: dict[tuple[int, int, int, int], int] = {}
    for pair in sorted(set(sends) | set(recvs)):
        src, dst = pair
        by_chan_s = sends.get(pair, {})
        by_chan_r = recvs.get(pair, {})
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


def convert_to_trace(program: MscclProgram, comm_size: int) -> CollectiveTrace:
    """Create one trace vertex per MSCCL operation and wire the edges.

    Within a threadblock, step i+1 depends on step i (sequential executor
    semantics); a step's `depend` adds an edge from the referenced step's
    last emitted node. Chunk offsets become the validator's chunk metadata.
    """
    if comm_size < 1:
        raise SizeError(f"comm_size must be positive, got {comm_size}")
    if comm_size % program.num_chunks:
        raise SizeError(
            f"comm_size {comm_size} is not divisible by nchunks {program.num_chunks}")
    chunk_bytes = comm_size // program.num_chunks
    send_tags, recv_tags = _assign_tags(program)

    per_rank: list[list[TraceNode]] = []
    for gpu in program.gpus:
        # Pre-assign node ids so `depend` may reference any threadblock,
        # including ones emitted later.
        span: dict[tuple[int, int], tuple[int, int]] = {}  # (tb, step) -> (first, last)
        next_id = 0
        for tb in sorted(gpu.threadblocks, key=lambda t: t.id):
            for step in tb.steps:
                width = 2 if step.type in ("rrc", "rcs") else 1
                span[(tb.id, step.index)] = (next_id, next_id + width - 1)
                next_id += width

        nodes: list[TraceNode] = []

        def emit(build, name, deps, *attrs):
            nodes.append(build(len(nodes), name, tuple(sorted(deps)), *attrs))
            return len(nodes) - 1

        for tb in sorted(gpu.threadblocks, key=lambda t: t.id):
            prev_last = None
            for step in tb.steps:
                deps = [] if prev_last is None else [prev_last]
                if step.depend is not None:
                    deps.append(span[step.depend][1])
                name = f"tb{tb.id}_s{step.index}_{step.type}"
                size = step.cnt * chunk_bytes
                src = None if step.src_off is None else \
                    tuple(range(step.src_off, step.src_off + step.cnt))
                dst = None if step.dst_off is None else \
                    tuple(range(step.dst_off, step.dst_off + step.cnt))
                if step.type == "s":
                    tag = send_tags[(gpu.id, tb.id, step.index)]
                    first = last = emit(_send_node, name, deps, tb.send_peer, size, tag, src)
                elif step.type in ("r", "rrc", "rcs"):
                    tag = recv_tags[(gpu.id, tb.id, step.index)]
                    first = emit(_recv_node, name, deps, tb.recv_peer, size, tag, dst)
                    last = first
                    if step.type == "rrc":
                        last = emit(_comp_node, name + "_red", [first], OP_REDUCE, size, dst, None)
                    elif step.type == "rcs":
                        tag = send_tags[(gpu.id, tb.id, step.index)]
                        last = emit(_send_node, name + "_fwd", [first], tb.send_peer, size,
                                    tag, dst)
                elif step.type == "re":
                    first = last = emit(_comp_node, name, deps, OP_REDUCE, size, dst, src)
                elif step.type == "cpy":
                    first = last = emit(_comp_node, name, deps, OP_COPY, size, dst, src)
                else:  # nop: zero-cost dependency anchor
                    first = last = emit(_comp_node, name, deps, OP_NOP, 0, None, None)
                assert (first, last) == span[(tb.id, step.index)]
                prev_last = last
        per_rank.append(nodes)

    claimed = CollDescriptor(_COLL_NAMES[program.collective], comm_size)
    return CollectiveTrace(program.num_gpus, claimed, per_rank)
