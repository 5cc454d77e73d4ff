"""Reversible replacement templates for the supported gate kinds.

Each template says how one conventional gate becomes a short sequence of
NOT/CNOT/Toffoli gates: which constant lines it needs, which role carries
each of its results afterwards, and which roles are left over as garbage.
Roles bind to concrete lines at conversion time: IN1/IN2 to the lines
currently holding the gate's input nets, ANC to a freshly added constant
line.  A role is a position in that binding (IN1 = 0, IN2 = 1, ANC = 2),
so the converter binds a gate's lines in one list and indexes it with the
roles the tables hold.
"""

from dataclasses import dataclass
from enum import IntEnum

from .ir import IrGateKind


class Role(IntEnum):
    IN1 = 0
    IN2 = 1
    ANC = 2


@dataclass(frozen=True)
class TemplateGate:
    controls: tuple[Role, ...]
    target: Role


@dataclass(frozen=True)
class GateTemplate:
    """Replacement recipe for one gate kind.

    constants lists the ancilla bits to allocate, in order.  outputs names
    the roles that carry the gate's result nets afterwards (two for COPY).
    garbage names the roles whose lines hold no result; restored tells
    whether those lines end with their original input values.
    """

    constants: tuple[int, ...]
    gates: tuple[TemplateGate, ...]
    outputs: tuple[Role, ...]
    garbage: tuple[Role, ...]
    restored: bool


_IN1, _IN2, _ANC = Role.IN1, Role.IN2, Role.ANC


def _g(*roles):
    return TemplateGate(tuple(roles[:-1]), roles[-1])


# the Toffoli onto the constant line at the heart of AND, NAND, OR and NOR
_TOFFOLI = (_g(_IN1, _IN2, _ANC),)

_PLAIN = {
    IrGateKind.NOT: GateTemplate((), (_g(_IN1),), (_IN1,), (), True),
    IrGateKind.AND: GateTemplate((0,), _TOFFOLI, (_ANC,), (_IN1, _IN2), True),
    IrGateKind.NAND: GateTemplate((1,), _TOFFOLI, (_ANC,), (_IN1, _IN2), True),
    IrGateKind.XOR: GateTemplate((), (_g(_IN1, _IN2),), (_IN2,), (_IN1,), True),
    IrGateKind.XNOR: GateTemplate(
        (), (_g(_IN1, _IN2), _g(_IN2)), (_IN2,), (_IN1,), True
    ),
    IrGateKind.COPY: GateTemplate((0,), (_g(_IN1, _ANC),), (_IN1, _ANC), (), True),
}

# OR and NOR invert both inputs around a Toffoli onto a constant line; the
# restoring variant undoes the input inversions afterwards so the garbage
# lines leave with their original values.
_INVERT_IN = (_g(_IN1), _g(_IN2))

_RESTORING = dict(_PLAIN)
_RESTORING[IrGateKind.OR] = GateTemplate(
    (1,), _INVERT_IN + _TOFFOLI + _INVERT_IN, (_ANC,), (_IN1, _IN2), True
)
_RESTORING[IrGateKind.NOR] = GateTemplate(
    (0,), _INVERT_IN + _TOFFOLI + _INVERT_IN, (_ANC,), (_IN1, _IN2), True
)

_BARE = dict(_PLAIN)
_BARE[IrGateKind.OR] = GateTemplate(
    (1,), _INVERT_IN + _TOFFOLI, (_ANC,), (_IN1, _IN2), False
)
_BARE[IrGateKind.NOR] = GateTemplate(
    (0,), _INVERT_IN + _TOFFOLI, (_ANC,), (_IN1, _IN2), False
)


def template_for(kind, restore_controls=True):
    """Return the template for a gate kind.

    restore_controls selects whether OR/NOR re-invert their inputs after
    the Toffoli; with False their garbage lines carry the inverted inputs
    and the sequence is two gates shorter.
    """
    table = _RESTORING if restore_controls else _BARE
    return table[kind]
