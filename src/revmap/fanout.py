"""Fanout removal: rewrite every multi-sink net through COPY gates.

A net with d sinks gains a chain of d-1 copiers.  Each copier feeds one
pending sink from its first output and the rest of the chain from its
second; both outputs are fresh nets named <net>__cp0, <net>__cp1, ... in
allocation order, so the original name stays on the copier chain's input.

A net that is itself a primary output is the one exception: .outputs must
keep its names, so there the driver's output is renamed to the first
fresh net, the chain consumes that, and the chain's first output takes
the original name back for the PO.  A primary input that is listed in
.outputs and also feeds gates admits no such rewrite (neither boundary
name may move) and is rejected.

Copier chains sit immediately after the driving gate, or before all gates
for nets driven by primary inputs.
"""

from .errors import FeedbackError, UnsupportedError
from .ir import (
    PO_SINK,
    IrCircuit,
    IrGate,
    IrGateKind,
    _fresh_names,
    build_netlist,
)


def insert_copiers(c):
    """Return an equivalent circuit in which every net drives exactly one sink.

    Idempotent: running it on its own output changes nothing.  c must
    validate and be acyclic.  The copier nets are fresh, so the result is
    sound, and it is judged like any other circuit on its first
    validation.
    """
    records = build_netlist(c)
    if c._index.cycle is not None:
        raise FeedbackError(c._index.cycle)
    gates = c.gates
    # per gate, None while no copier touches it: its inputs with a copier's
    # output in place of each multi-sink net, and its outputs with a renamed
    # PO net
    fed = [None] * len(gates)
    renamed = [None] * len(gates)
    chains = {}  # driving gate (None for primary inputs) -> its copiers
    COPY = IrGateKind.COPY
    # the driver map lists the primary inputs, then each gate's outputs, so
    # fresh names are allocated in that order; they need only avoid c's own
    # nets, as the names drawn for two nets <a> and <b> (<a>__cp, a number,
    # underscores) never meet
    for net, source in c._index.driver.items():
        sinks = records[net].sinks
        if len(sinks) < 2:
            continue
        # copier j reads carry j (for j = 0 the net, or the name its driver
        # yields instead) and yields names[2j] for sink j and names[2j + 1]
        # as carry j + 1; the last sink reads the last carry
        names = _fresh_names(f"{net}__cp", records.keys(), 2 * len(sinks) - 2)
        carry = net
        if sinks[0] == PO_SINK:
            if source is None:
                raise UnsupportedError(
                    f"primary input '{net}' is listed in .outputs and also "
                    "feeds gates; this fanout cannot be rewritten without "
                    "renaming a boundary net"
                )
            # the driver yields a fresh net, and the first copier gives the
            # PO its name back
            outs = gates[source].outputs
            if renamed[source] is None:
                renamed[source] = list(outs)
            carry = renamed[source][outs.index(net)] = names[0]
            names[0] = net
        copiers = chains.setdefault(source, [])
        supplies = []
        for first, second in zip(names[::2], names[1::2]):
            copiers.append(IrGate(COPY, (carry,), (first, second)))
            supplies.append(first)
            carry = second
        supplies.append(carry)
        for sink, supply in zip(sinks, supplies):
            if sink != PO_SINK:
                gate, pin = sink
                if fed[gate] is None:
                    fed[gate] = list(gates[gate].inputs)
                fed[gate][pin] = supply

    # a gate that no copier feeds or renames is kept as it is; each chain
    # follows its driving gate, and the primary inputs' chains lead
    out_gates = chains.pop(None, [])
    for i, g in enumerate(gates):
        if fed[i] is not None or renamed[i] is not None:
            g = IrGate(g.kind, tuple(fed[i] or g.inputs),
                       tuple(renamed[i] or g.outputs))
        out_gates.append(g)
        if i in chains:
            out_gates += chains[i]
    return IrCircuit(c.name, c.inputs, c.outputs, tuple(out_gates))
