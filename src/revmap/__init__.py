"""Compile combinational logic into reversible NOT/CNOT/Toffoli netlists.

Pipeline: parse BLIF -> validate -> insert COPY gates until every net has
one sink -> levelize into slots -> replace each gate by its reversible
template -> emit a .real netlist.  The sim module checks the result
against the source circuit by exhaustive or sampled co-simulation.
"""

from .blif import (
    classify_cover,
    parse_blif,
    parse_intermediate,
    write_intermediate,
)
from .convert import convert_circuit
from .errors import (
    BlifError,
    FanoutError,
    FeedbackError,
    NameMismatchError,
    RealFormatError,
    RevmapError,
    UnsupportedError,
    UsageError,
    ValidationError,
)
from .fanout import insert_copiers
from .ir import (
    PO_SINK,
    IrCircuit,
    IrGate,
    IrGateKind,
    Line,
    NetRecord,
    RevCircuit,
    RevGate,
    build_netlist,
    check_circuit,
    detect_cycles,
    t1,
    t2,
    t3,
    validate_circuit,
)
from .realfmt import parse_real, write_real
from .sim import (
    CircuitStats,
    EquivalenceReport,
    check_bijectivity,
    check_equivalence,
    eval_ir,
    eval_rev,
    gen_random_circuit,
    stats,
)
from .slotting import Slot, SlottedCircuit, slot_circuit
from .templates import Role, template_for

__version__ = "0.1.0"

__all__ = [
    "BlifError",
    "CircuitStats",
    "EquivalenceReport",
    "FanoutError",
    "FeedbackError",
    "IrCircuit",
    "IrGate",
    "IrGateKind",
    "Line",
    "NameMismatchError",
    "NetRecord",
    "PO_SINK",
    "RealFormatError",
    "RevCircuit",
    "RevGate",
    "RevmapError",
    "Role",
    "Slot",
    "SlottedCircuit",
    "UnsupportedError",
    "UsageError",
    "ValidationError",
    "build_netlist",
    "check_bijectivity",
    "check_circuit",
    "check_equivalence",
    "classify_cover",
    "convert_circuit",
    "detect_cycles",
    "eval_ir",
    "eval_rev",
    "gen_random_circuit",
    "insert_copiers",
    "parse_blif",
    "parse_intermediate",
    "parse_real",
    "slot_circuit",
    "stats",
    "t1",
    "t2",
    "t3",
    "template_for",
    "validate_circuit",
    "write_intermediate",
    "write_real",
]
