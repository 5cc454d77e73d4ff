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

from itertools import chain

from .errors import FeedbackError, UnsupportedError
from .ir import (
    PO_SINK,
    IrCircuit,
    IrGate,
    IrGateKind,
    _fresh_names,
    build_netlist,
)


def fanout_report(c):
    """List (net, sink_count) for every net with two or more sinks."""
    records = build_netlist(c)
    return [
        (net, len(rec.sinks))
        for net, rec in records.items()
        if len(rec.sinks) >= 2
    ]


def insert_copiers(c):
    """Return an equivalent circuit in which every net drives exactly one sink.

    Idempotent: running it on its own output changes nothing.
    """
    records = build_netlist(c)
    if c._index.cycle is not None:
        raise FeedbackError(c._index.cycle)
    gates = c.gates
    used = set(records)
    new_inputs = [None] * len(gates)  # per gate, its inputs if a copier feeds it
    renamed_out = {}  # position -> {output net: the fresh net it drives}
    lead = []
    trailing = [None] * len(gates)  # per gate, the copiers placed after it

    def rewrite(net, rec):
        sinks = rec.sinks
        source = rec.source
        fresh = _fresh_names(f"{net}__cp", used)
        to_po = sinks[0] == PO_SINK
        if to_po:
            if source is None:
                raise UnsupportedError(
                    f"primary input '{net}' is listed in .outputs and also "
                    "feeds gates; this fanout cannot be rewritten without "
                    "renaming a boundary net"
                )
            carry = next(fresh)
            renamed_out.setdefault(source, {})[net] = carry
        else:
            carry = net
        if source is None:
            copiers = lead
        else:
            if trailing[source] is None:
                trailing[source] = []
            copiers = trailing[source]

        # copier j feeds sink j from its first output and the rest of the
        # chain from its second; the last sink takes the chain's end
        for j, sink in enumerate(sinks):
            if j < len(sinks) - 1:
                first = net if j == 0 and to_po else next(fresh)
                second = next(fresh)
                copiers.append(IrGate(IrGateKind.COPY, (carry,), (first, second)))
                supply, carry = first, second
            else:
                supply = carry
            if sink == PO_SINK:
                continue
            gate, pin = sink
            ins = new_inputs[gate]
            if ins is None:
                ins = new_inputs[gate] = list(gates[gate].inputs)
            ins[pin] = supply

    for net in chain(c.inputs, *(g.outputs for g in gates)):
        rec = records[net]
        if len(rec.sinks) > 1:
            rewrite(net, rec)

    # a gate that no copier feeds or renames is kept as it is
    out_gates = lead
    for i, g in enumerate(gates):
        ins = new_inputs[i]
        renames = renamed_out.get(i)
        if ins is not None or renames is not None:
            outs = g.outputs
            if renames is not None:
                outs = tuple(renames.get(net, net) for net in outs)
            g = IrGate(g.kind, g.inputs if ins is None else tuple(ins), outs)
        out_gates.append(g)
        if trailing[i] is not None:
            out_gates += trailing[i]
    return IrCircuit(c.name, c.inputs, c.outputs, tuple(out_gates))
