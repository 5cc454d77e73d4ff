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
from .ir import PO_SINK, IrGateKind, _fresh_names, _ir_circuit, build_netlist


def insert_copiers(c):
    """Return an equivalent circuit in which every net drives exactly one sink.

    Idempotent: running it on its own output changes nothing.  c must
    validate and be acyclic.  The copier nets are fresh, so the result is
    sound, and it is judged like any other circuit on its first
    validation.  The result is built as gate columns: a gate that no
    copier feeds or renames keeps its input and output tuples.
    """
    records = build_netlist(c)
    if c._index.cycle is not None:
        raise FeedbackError(c._index.cycle)
    # per gate, its input nets with a copier's output in place of each
    # multi-sink net, and its output nets with a renamed PO net; a gate
    # that no copier touches keeps its own tuples
    ins_col, outs_col = list(c._ins), list(c._outs)
    fed = {}  # gate -> its input nets as a list, once a copier feeds it
    renamed = {}  # gate -> its output nets as a list, once one is renamed
    # driving gate (None for primary inputs) -> its copiers' input nets and
    # output nets
    chains = {}
    # the driver map lists the primary inputs, then each gate's outputs, so
    # fresh names are allocated in that order, and chains holds the primary
    # inputs' first and then the gates' in gate order; the names need only
    # avoid c's own nets, as the names drawn for two nets <a> and <b>
    # (<a>__cp, a number, underscores) never meet
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
            outs = c._outs[source]
            if source not in renamed:
                renamed[source] = list(outs)
            carry = renamed[source][outs.index(net)] = names[0]
            names[0] = net
        copier_ins, copier_outs = chains.setdefault(source, ([], []))
        supplies = []
        for first, second in zip(names[::2], names[1::2]):
            copier_ins.append((carry,))
            copier_outs.append((first, second))
            supplies.append(first)
            carry = second
        supplies.append(carry)
        for sink, supply in zip(sinks, supplies):
            if sink != PO_SINK:
                gate, pin = sink
                if gate not in fed:
                    fed[gate] = list(ins_col[gate])
                fed[gate][pin] = supply
    for gate, nets in fed.items():
        ins_col[gate] = tuple(nets)
    for gate, nets in renamed.items():
        outs_col[gate] = tuple(nets)

    # each chain follows its driving gate, and the primary inputs' chains
    # lead
    kinds, out_kinds, out_ins, out_outs = c._kinds, [], [], []
    start = 0
    for source, (copier_ins, copier_outs) in chains.items():
        if source is not None:
            stop = source + 1
            out_kinds += kinds[start:stop]
            out_ins += ins_col[start:stop]
            out_outs += outs_col[start:stop]
            start = stop
        out_kinds += [IrGateKind.COPY] * len(copier_ins)
        out_ins += copier_ins
        out_outs += copier_outs
    out_kinds += kinds[start:]
    out_ins += ins_col[start:]
    out_outs += outs_col[start:]
    return _ir_circuit(c.name, c.inputs, c.outputs, tuple(out_kinds),
                       tuple(out_ins), tuple(out_outs))
