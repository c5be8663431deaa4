"""Spans around the calls into collgraph's layers, and the per-layer metrics
derived from them.

`install` rebinds the module attributes that callers look up at call time
(`collgraph.cli.generate`, `collgraph.simulator.route`, ...) to wrappers
that record a span; the function it returns restores the originals. An
untraced iteration runs with the originals, so the difference between
traced and untraced iterations is the tracing overhead. Functions private
to a module, such as the validator's `_rendezvous_reachable`, cannot be
split off this way; their time is the self time of their public caller.
"""

from __future__ import annotations

import os
from time import perf_counter

# name, unit, the end-to-end time it should move (per workload).
LAYER_METRICS = [
    ("validator.check_semantics.self_s", "s", "validate_s, iter_s on collective-n64 only"),
    ("validator.check_semantics.nodes", "count", "validate_s on collective-n64 only"),
    ("validator.canonical_form.self_s", "s", "iter_s on collective-n64 only"),
    ("validator.isomorphic.self_s", "s", "iter_s on collective-n64 only"),
    ("trace.dumps_trace.self_s", "s", "expand_s on expand-train64; gen_s, convert_s on "
     "collective-n64; nothing on sweep-topo"),
    ("trace.loads_trace.self_s", "s", "expand_s, simulate_s on expand-train64; validate_s, "
     "simulate_s on collective-n64; nothing on sweep-topo"),
    ("trace.save_trace.self_s", "s", "as trace.dumps_trace"),
    ("trace.load_trace.self_s", "s", "as trace.loads_trace"),
    ("trace.bytes_written", "B", "as trace.dumps_trace"),
    ("trace.bytes_read", "B", "as trace.loads_trace"),
    ("trace.check_trace.calls", "count", "every command, most on expand-train64"),
    ("trace.check_trace.self_s", "s", "every command, most on expand-train64"),
    ("trace.check_trace.nodes", "count", "every command, most on expand-train64"),
    ("trace.check_trace.per_artifact", "ratio", "every command, most on expand-train64"),
    ("generators.generate.calls", "count", "sweep_s on sweep-topo; barely expand_s"),
    ("generators.generate.self_s", "s", "sweep_s on sweep-topo; gen_s on collective-n64"),
    ("generators.generate.nodes", "count", "sweep_s on sweep-topo"),
    ("simulator.sweep.generate_per_size", "ratio", "sweep_s on sweep-topo only"),
    ("simulator.simulate.calls", "count", "sweep_s on sweep-topo"),
    ("simulator.simulate.self_s", "s", "sweep_s on sweep-topo (multi-hop); simulate_s on "
     "expand-train64 (single-hop with compute)"),
    ("simulator.simulate.events", "count", "as simulator.simulate.self_s"),
    ("simulator.simulate.messages", "count", "as simulator.simulate.self_s"),
    ("simulator.simulate.ns_per_event", "ns", "as simulator.simulate.self_s"),
    ("simulator.route.calls", "count", "sweep_s on sweep-topo; nothing on expand-train64"),
    ("simulator.route.hops", "count", "sweep_s on sweep-topo; nothing on expand-train64"),
    ("simulator.route.self_s", "s", "sweep_s on sweep-topo; nothing on expand-train64"),
    ("expander.expand.self_s", "s", "expand_s on expand-train64 only"),
    ("expander.expand.nodes_out", "count", "expand_s on expand-train64 only"),
    ("expander.generate.calls", "count", "expand_s on expand-train64 only"),
    ("msccl.parse_msccl_xml.self_s", "s", "convert_s on collective-n64 only"),
    ("msccl.convert_to_trace.self_s", "s", "convert_s on collective-n64 only"),
    ("cli.gen.self_s", "s", "gen_s on collective-n64"),
    ("cli.convert.self_s", "s", "convert_s on collective-n64"),
    ("cli.validate.self_s", "s", "validate_s on collective-n64"),
    ("cli.simulate.self_s", "s", "simulate_s (includes SimReport.to_json and json.dumps)"),
    ("cli.expand.self_s", "s", "expand_s on expand-train64"),
    ("cli.sweep.self_s", "s", "sweep_s on sweep-topo (argparse, net config, CSV)"),
    ("bench.trace_overhead_s", "s", "none: traced minus untraced iteration time"),
]


def _nodes(trace) -> int:
    return sum(map(len, trace.per_rank_nodes))


# module, attribute, span name, counts(args, result) -> dict
_TARGETS = [
    ("cli", "generate", "generators.generate", lambda a, r: {"nodes": _nodes(r)}),
    ("simulator", "generate", "generators.generate", lambda a, r: {"nodes": _nodes(r)}),
    ("expander", "generate", "generators.generate", lambda a, r: {"nodes": _nodes(r)}),
    ("cli", "save_trace", "trace.save_trace", lambda a, r: {"bytes": os.path.getsize(a[1])}),
    ("cli", "load_trace", "trace.load_trace", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("trace", "load_trace", "trace.load_trace", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("trace", "dumps_trace", "trace.dumps_trace", None),
    ("trace", "loads_trace", "trace.loads_trace", None),
    *[(module, "check_trace", "trace.check_trace", lambda a, r: {"nodes": _nodes(a[0])})
      for module in ("trace", "generators", "msccl", "expander", "validator")],
    ("cli", "parse_msccl_xml", "msccl.parse_msccl_xml", None),
    ("cli", "convert_to_trace", "msccl.convert_to_trace", None),
    ("cli", "check_semantics", "validator.check_semantics",
     lambda a, r: {"nodes": _nodes(a[0])}),
    ("validator", "canonical_form", "validator.canonical_form", None),
    ("validator", "isomorphic", "validator.isomorphic", None),
    ("cli", "simulate", "simulator.simulate", lambda a, r: {"events": r.event_count}),
    ("simulator", "simulate", "simulator.simulate", lambda a, r: {"events": r.event_count}),
    ("cli", "sweep", "simulator.sweep", lambda a, r: {"sizes": len(set(a[2]))}),
    ("cli", "expand", "expander.expand", lambda a, r: {"nodes_out": _nodes(r)}),
]


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name: str, parent: int | None):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts: dict[str, float] = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent]


class _Open:
    """Context manager for one span; cheaper than contextlib's generator form."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer, self.span = tracer, span

    def __enter__(self) -> Span:
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        span = self.span
        span.end = perf_counter()
        tracer = self.tracer
        tracer._open.pop()
        if span.parent is not None:
            tracer.spans[span.parent].child_s += span.end - span.start


class Tracer:
    """Spans kept in memory in start order; a span's parent is the index of
    the span open when it started.

    `simulator.route` runs once per message, so its calls are folded into
    counters on the calling span rather than recorded one span each.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str) -> _Open:
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return _Open(self, span)

    def fold_route(self, seconds: float, hops: int) -> None:
        parent = self.spans[self._open[-1]]
        parent.child_s += seconds
        counts = parent.counts
        for key, value in (("calls", 1), ("hops", hops), ("self_s", seconds)):
            key = f"simulator.route.{key}"
            counts[key] = counts.get(key, 0) + value


def _wrap(tracer: Tracer, fn, name: str, counts):
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if counts is not None:
            for key, value in counts(args, result).items():
                span.counts[f"{name}.{key}"] = value
        return result
    return traced


def _wrap_route(tracer: Tracer, fn):
    def traced(*args, **kwargs):
        start = perf_counter()
        path = fn(*args, **kwargs)
        tracer.fold_route(perf_counter() - start, len(path))
        return path
    return traced


def install(tracer: Tracer, modules: dict):
    """Rebind the traced names in `modules` (short name -> module object);
    returns a function that restores the originals."""
    saved = []
    for module_name, attr, name, counts in _TARGETS:
        module = modules[module_name]
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, original, name, counts))
    route = modules["simulator"].route
    saved.append((modules["simulator"], "route", route))
    modules["simulator"].route = _wrap_route(tracer, route)

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return uninstall


def layer_metrics(spans: list[Span], first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of spans[first:last], the spans of one iteration
    (zero for a layer the iteration never entered)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    generate_under: dict[str, int] = {}  # generate calls by calling span
    for span in spans[first:last]:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        total_s[span.name] = total_s.get(span.name, 0.0) + span.end - span.start
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
        if span.name == "generators.generate" and span.parent is not None:
            caller = spans[span.parent].name
            generate_under[caller] = generate_under.get(caller, 0) + 1

    def ratio(num, den):
        return num / den if den else 0.0

    artifacts = sum(calls.get(name, 0) for name in (
        "generators.generate", "msccl.convert_to_trace", "expander.expand",
        "trace.loads_trace"))
    out = {
        "trace.bytes_written": counts.get("trace.save_trace.bytes", 0),
        "trace.bytes_read": counts.get("trace.load_trace.bytes", 0),
        "trace.check_trace.per_artifact": ratio(calls.get("trace.check_trace", 0), artifacts),
        "simulator.sweep.generate_per_size": ratio(generate_under.get("simulator.sweep", 0),
                                                   counts.get("simulator.sweep.sizes", 0)),
        "simulator.simulate.messages": counts.get("simulator.route.calls", 0),
        "simulator.simulate.ns_per_event": ratio(
            total_s.get("simulator.simulate", 0.0) * 1e9,
            counts.get("simulator.simulate.events", 0)),
        "expander.generate.calls": generate_under.get("expander.expand", 0),
    }
    for name, _, _ in LAYER_METRICS:
        if name in out or name.startswith("bench."):
            continue
        layer, _, field = name.rpartition(".")
        if name in counts:
            out[name] = counts[name]
        elif field == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif field == "calls":
            out[name] = calls.get(layer, 0)
        else:
            out[name] = 0
    return out
