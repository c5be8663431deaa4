"""Exception hierarchy shared by every collgraph module."""

from __future__ import annotations


class CollGraphError(Exception):
    """Base class for all collgraph errors."""


class ParseError(CollGraphError):
    """Malformed trace file (syntax level, with line/column info)."""


class SchemaError(CollGraphError):
    """Structurally valid file with unknown or missing fields."""


class InvariantError(CollGraphError):
    """A trace violates a structural invariant (cycle, unmatched message,
    duplicate tag, bad rank reference)."""

    def __init__(self, message: str, rank: int | None = None, node_id: int | None = None):
        if rank is not None:
            message = f"{message} (rank {rank}" + (
                f", node {node_id})" if node_id is not None else ")"
            )
        super().__init__(message)
        self.rank = rank
        self.node_id = node_id


class CycleError(CollGraphError):
    """Dependency cycle; carries the ids of one cycle."""

    def __init__(self, message: str, cycle: list[int]):
        super().__init__(f"{message}: {cycle}")
        self.cycle = cycle


class SpecError(CollGraphError):
    """Invalid algorithm specification (bad rank count, indivisible size)."""


class XmlError(CollGraphError):
    """Malformed XML input."""


class RefError(CollGraphError):
    """Dangling reference inside an otherwise well-formed program."""


class MatchError(CollGraphError):
    """Sends and receives cannot be paired one-to-one."""


class SizeError(CollGraphError):
    """Byte size incompatible with the requested chunking."""


class BindingError(CollGraphError):
    """Missing or mismatched collective binding during expansion."""


class _FrontierError(CollGraphError):
    """Built from a frontier of (rank, node_id, name) triples: the message
    names the first 8 after the subclass's `label`, and `frontier` holds
    every (rank, node_id) pair."""

    label = ""

    def __init__(self, message: str, nodes: list[tuple[int, int, str]]):
        shown = [f"({rank}, {nid}) {name!r}" for rank, nid, name in nodes[:8]]
        if len(nodes) > 8:
            shown.append(f"and {len(nodes) - 8} more")
        super().__init__(f"{message}; {self.label}: {', '.join(shown) or 'none'}")
        self.frontier = [(rank, nid) for rank, nid, _ in nodes]


class StuckError(_FrontierError):
    """Symbolic execution cannot reach quiescence; built from the blocked frontier."""

    label = "frontier"


class DeadlockError(_FrontierError):
    """Simulation ran out of events with nodes still pending (the frontier)."""

    label = "pending"


class UnexpandedCollectiveError(CollGraphError):
    """A COMM_COLL placeholder reached a consumer that needs it expanded."""


class UnreachableError(CollGraphError):
    """No route between two topology nodes."""
