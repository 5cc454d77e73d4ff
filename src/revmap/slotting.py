"""Levelize a fanout-free circuit into slots.

Slot 0 holds the primary input nets and no gates.  Slot k holds, in
declaration order, the gates at ASAP level k: a gate that reads only
primary inputs is at level 1, any other gate at 1 + the highest level
among the gates driving its inputs.  So every gate fires one slot after
its last driver, and the slot count is 1 + the longest gate path.

Each slot also lists the nets available once it has fired: the new
gates' outputs first, then the nets of the previous slot that they did
not consume, in the previous slot's order.  Nets nobody will ever read
(unused primary inputs, dangling gate outputs that are not primary
outputs) are left out; slot 0 still lists every primary input.  The last
slot therefore lists exactly the primary outputs.  Together the slots'
nets grow with the square of a wide fanout's width, and conversion reads
only the gates, so slot_circuit finds only each slot's gates, its waves:
the slots, with their nets, are built on the first read of
SlottedCircuit.slots.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import FanoutError, FeedbackError
from .ir import IrCircuit, build_netlist, detect_cycles


@dataclass(frozen=True, slots=True)
class Slot:
    """One level of the slotted circuit.

    gates holds gate positions in declaration order (empty for slot 0);
    nets holds the nets available once the slot has fired.
    """

    gates: tuple[int, ...]
    nets: tuple[str, ...]


@dataclass(frozen=True)
class SlottedCircuit:
    """A fanout-free circuit and its slots, slot 0 first.

    _waves holds the gates of every slot after slot 0.  slot_circuit's
    circuits are given only their waves, and build their slots on the
    first read.
    """

    circuit: IrCircuit
    slots: tuple[Slot, ...]

    @cached_property
    def _waves(self):
        return tuple(slot.gates for slot in self.slots[1:])

    def __getattr__(self, name):
        # called only for what the instance lacks: the slots of one that
        # slot_circuit built, until they are first read
        attrs = self.__dict__
        if name != "slots" or "_waves" not in attrs:
            raise AttributeError(
                f"'SlottedCircuit' object has no attribute {name!r}"
            )
        return attrs.setdefault("slots", _slots(self.circuit, attrs["_waves"]))


def slot_circuit(c):
    cycle = detect_cycles(c)
    # one entry per sink: the primary outputs, then every gate input
    reads = [*c.outputs, *chain.from_iterable(c._ins)]
    if len(set(reads)) < len(reads):
        # name the first net with two sinks, in build_netlist's order
        rec = next(r for r in build_netlist(c).values() if len(r.sinks) > 1)
        raise FanoutError(
            f"net '{rec.net}' has {len(rec.sinks)} sinks; "
            "run fanout preprocessing first"
        )
    if cycle is not None:
        raise FeedbackError(cycle)
    level = c._index.level
    waves = [[] for _ in range(max(level, default=0))]
    for i, k in enumerate(level):
        waves[k - 1].append(i)
    s = object.__new__(SlottedCircuit)
    s.__dict__.update(circuit=c, _waves=tuple(map(tuple, waves)))
    return s


def _slots(c, waves):
    """The slots of fanout-free c, whose waves are given."""
    wanted = {*c.outputs, *chain.from_iterable(c._ins)}
    # fanout-free, so a wanted net is read exactly once, and it stays
    # available until that read.  The available nets are kept oldest first,
    # so a wave costs only its own nets; a slot lists them newest first.
    ins, outs = c._ins, c._outs
    alive = dict.fromkeys(net for net in reversed(c.inputs) if net in wanted)
    slots = [Slot((), c.inputs)]
    for wave in waves:
        for i in wave:
            for net in ins[i]:
                del alive[net]
        for i in reversed(wave):
            for net in reversed(outs[i]):
                if net in wanted:
                    alive[net] = None
        slots.append(Slot(wave, tuple(reversed(alive))))
    return tuple(slots)
