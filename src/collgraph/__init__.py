"""Toolkit for representing, validating and replaying collective
communication algorithms as per-rank dependency graphs."""

from .errors import (
    BindingError,
    CollGraphError,
    CycleError,
    DeadlockError,
    InvariantError,
    MatchError,
    ParseError,
    RefError,
    SchemaError,
    SizeError,
    SpecError,
    StuckError,
    UnexpandedCollectiveError,
    UnreachableError,
    XmlError,
)
from .expander import expand
from .generators import Algorithm, AlgoSpec, generate
from .msccl import MscclProgram, convert_to_trace, parse_msccl_xml
from .simulator import (
    CostModel,
    SimReport,
    Topology,
    TopologyKind,
    route,
    simulate,
    sweep,
)
from .trace import (
    CollDescriptor,
    CollKind,
    CollectiveTrace,
    CollAttrs,
    CompAttrs,
    NodeKind,
    RecvAttrs,
    SendAttrs,
    TraceBuilder,
    TraceNode,
    WorkloadTrace,
    check_trace,
    load_trace,
    save_trace,
    toposort_rank,
)
from .validator import Verdict, canonical_form, check_semantics, isomorphic

__all__ = [name for name in dir() if not name.startswith("_")]
