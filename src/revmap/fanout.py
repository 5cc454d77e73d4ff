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

from collections import defaultdict

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
    used = set(records)
    new_inputs = [list(g.inputs) for g in c.gates]
    renamed_out = {}
    lead = []
    trailing = defaultdict(list)

    def rewrite(net):
        rec = records[net]
        sinks = rec.sinks
        if len(sinks) < 2:
            return
        fresh = _fresh_names(f"{net}__cp", used)
        if sinks[0] == PO_SINK:
            if rec.source is None:
                raise UnsupportedError(
                    f"primary input '{net}' is listed in .outputs and also "
                    "feeds gates; this fanout cannot be rewritten without "
                    "renaming a boundary net"
                )
            feed = next(fresh)
            slot = c.gates[rec.source].outputs.index(net)
            renamed_out[(rec.source, slot)] = feed
        else:
            feed = net

        copiers = []
        supplies = []
        carry = feed
        for j in range(len(sinks) - 1):
            first = net if j == 0 and sinks[0] == PO_SINK else next(fresh)
            second = next(fresh)
            copiers.append(IrGate(IrGateKind.COPY, (carry,), (first, second)))
            supplies.append(first)
            carry = second
        supplies.append(carry)

        for sink, supply in zip(sinks, supplies):
            if sink == PO_SINK:
                continue
            gate, pin = sink
            new_inputs[gate][pin] = supply
        if rec.source is None:
            lead.extend(copiers)
        else:
            trailing[rec.source].extend(copiers)

    for net in c.inputs:
        rewrite(net)
    for g in c.gates:
        for net in g.outputs:
            rewrite(net)

    out_gates = lead
    for i, g in enumerate(c.gates):
        outs = tuple(
            renamed_out.get((i, k), net) for k, net in enumerate(g.outputs)
        )
        out_gates.append(IrGate(g.kind, tuple(new_inputs[i]), outs))
        out_gates.extend(trailing.get(i, ()))
    return IrCircuit(c.name, c.inputs, c.outputs, tuple(out_gates))
