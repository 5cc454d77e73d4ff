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
slot therefore lists exactly the primary outputs.
"""

from itertools import chain

from .errors import FanoutError, UnsupportedError
from .ir import Slot, SlottedCircuit, build_netlist, detect_cycles


def slot_circuit(c):
    cycle = detect_cycles(c)
    # one entry per sink: the primary outputs, then every gate input
    reads = [*c.outputs, *chain.from_iterable(g.inputs for g in c.gates)]
    wanted = set(reads)
    if len(wanted) < len(reads):
        # name the first net with two sinks, in build_netlist's order
        rec = next(r for r in build_netlist(c).values() if len(r.sinks) > 1)
        raise FanoutError(
            f"net '{rec.net}' has {len(rec.sinks)} sinks; "
            "run fanout preprocessing first"
        )
    if cycle is not None:
        placed = set(c._index.order)
        left = ", ".join(f"g{i}" for i in range(len(c.gates)) if i not in placed)
        raise UnsupportedError(
            f"slotting made no progress; unplaced gates: {left}"
        )
    level = c._index.level
    waves = [[] for _ in range(max(level, default=0))]
    for i, k in enumerate(level):
        waves[k - 1].append(i)

    # fanout-free, so a wanted net is read exactly once, and it stays
    # available until that read.  The available nets are kept oldest first,
    # so a wave costs only its own nets; a slot lists them newest first.
    gates = c.gates
    alive = dict.fromkeys(net for net in reversed(c.inputs) if net in wanted)
    slots = [Slot((), tuple(c.inputs))]
    for wave in waves:
        for i in wave:
            for net in gates[i].inputs:
                del alive[net]
        for i in reversed(wave):
            for net in reversed(gates[i].outputs):
                if net in wanted:
                    alive[net] = None
        slots.append(Slot(tuple(wave), tuple(reversed(alive))))
    return SlottedCircuit(c, tuple(slots))
