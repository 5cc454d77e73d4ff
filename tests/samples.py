"""Shared circuit fixtures and the reference truth tables used as oracles.

BOOL_FN gives an implementation-independent meaning for every gate kind;
tests compare pipeline results against these instead of against other
pipeline code.
"""

from revmap import (
    IrGateKind,
    build_netlist,
    insert_copiers,
    parse_blif,
    slot_circuit,
)

K = IrGateKind

BOOL_FN = {
    K.NOT: lambda a: 1 - a,
    K.AND: lambda a, b: a * b,
    K.NAND: lambda a, b: 1 - a * b,
    K.OR: lambda a, b: min(a + b, 1),
    K.NOR: lambda a, b: 1 - min(a + b, 1),
    K.XOR: lambda a, b: (a + b) % 2,
    K.XNOR: lambda a, b: 1 - (a + b) % 2,
}


def fanouts(c):
    """(net, sink count) for every net of c with two or more sinks."""
    return [(net, len(rec.sinks)) for net, rec in build_netlist(c).items()
            if len(rec.sinks) >= 2]


CANONICAL_ROWS = {
    K.NOT: ("0 1",),
    K.AND: ("11 1",),
    K.NAND: ("00 1", "01 1", "10 1"),
    K.OR: ("01 1", "10 1", "11 1"),
    K.NOR: ("00 1",),
    K.XOR: ("01 1", "10 1"),
    K.XNOR: ("00 1", "11 1"),
}

AND_BLIF = """\
.model and
.inputs a b
.outputs c
.names a b c
11 1
.end
"""

HALF_ADDER_BLIF = """\
.model half_adder
.inputs a b
.outputs s c
.names a b s
01 1
10 1
.names a b c
11 1
.end
"""

FEEDBACK_BLIF = """\
.model osc
.inputs a b
.outputs p q
.names a q p
01 1
10 1
.names b p q
01 1
10 1
.end
"""


def single_gate_blif(kind):
    """A one-gate circuit of the given kind with fresh input nets."""
    ins = ("a",) if kind.n_inputs == 1 else ("a", "b")
    rows = "\n".join(CANONICAL_ROWS[kind])
    return (
        f".model one_{kind.value}\n"
        f".inputs {' '.join(ins)}\n"
        ".outputs y\n"
        f".names {' '.join(ins)} y\n"
        f"{rows}\n"
        ".end\n"
    )


def pipeline(text):
    """Parse plain BLIF and run it through prep and slotting."""
    c = parse_blif(text)
    return c, slot_circuit(insert_copiers(c))


def not_chain_blif(length):
    """A chain of `length` NOT gates from a to y, declared output first.

    Every gate reads a net driven by a gate declared after it, so a
    recursive walk from the first gate goes `length` calls deep.
    """
    nets = ["a", *(f"w{k}" for k in range(1, length)), "y"]
    covers = "".join(
        f".names {nets[k - 1]} {nets[k]}\n0 1\n" for k in range(length, 0, -1)
    )
    return f".model chain\n.inputs a\n.outputs y\n{covers}.end\n"


def not_chain_real(length):
    """The .real that `revmap convert` emits for not_chain_blif(length)."""
    return (
        ".version 2.0\n.numvars 1\n.variables a\n.inputs a\n.outputs y\n"
        ".constants -\n.garbage -\n.begin\n" + "t1 a\n" * length + ".end\n"
    )


def buffer_chain_blif(length):
    """`length` buffers in series from a, each also feeding a NOT gate.

    Buffer b<k> copies b<k-1> (b0 copies a) and NOT gate k reads b<k>, so
    every NOT input is an alias chain that resolves to a.
    """
    covers = "".join(
        f".names {'a' if k == 0 else f'b{k - 1}'} b{k}\n1 1\n"
        f".names b{k} y{k}\n0 1\n"
        for k in range(length)
    )
    outputs = " ".join(f"y{k}" for k in range(length))
    return f".model buffers\n.inputs a\n.outputs {outputs}\n{covers}.end\n"
