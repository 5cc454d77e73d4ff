"""Seeded circuit generators for the benchmark corpus.

Every generator returns BLIF-subset text written by this module alone
(canonical on-set rows, one or two inputs per cover), so the program under
test only ever sees files.  Adders and multipliers are ripple-carry and
array structures with a known arithmetic meaning; the oracle checks them
against integer ``+`` and ``*``.  Each arithmetic circuit routes one
primary output through a BUF cover, which revmap resolves as a net alias.
"""

ROWS = {
    "not": ("0",),
    "buf": ("1",),
    "and": ("11",),
    "nand": ("00", "01", "10"),
    "or": ("01", "10", "11"),
    "nor": ("00",),
    "xor": ("01", "10"),
    "xnor": ("00", "11"),
}


class Netlist:
    """Collects .names covers and renders them as BLIF text."""

    def __init__(self, name, inputs):
        self.name = name
        self.inputs = list(inputs)
        self.outputs = []
        self.covers = []

    def gate(self, kind, ins, out):
        self.covers.append((kind, tuple(ins), out))
        return out

    def text(self):
        out = [f".model {self.name}", ".inputs " + " ".join(self.inputs)]
        out.append(".outputs " + " ".join(self.outputs))
        for kind, ins, net in self.covers:
            out.append(".names " + " ".join((*ins, net)))
            out.extend(f"{row} 1" for row in ROWS[kind])
        out.append(".end")
        return "\n".join(out) + "\n"


def _full_adder(nl, a, b, cin, s, cout, tag):
    t = nl.gate("xor", (a, b), f"{tag}_t")
    nl.gate("xor", (t, cin), s)
    g = nl.gate("and", (a, b), f"{tag}_g")
    p = nl.gate("and", (t, cin), f"{tag}_p")
    return nl.gate("or", (g, p), cout)


def _ripple(nl, xs, ys, sums, tag):
    """Add equal-width bit lists (LSB first); return the carry-out net."""
    carry = None
    for k, (x, y) in enumerate(zip(xs, ys)):
        if carry is None:
            nl.gate("xor", (x, y), sums[k])
            carry = nl.gate("and", (x, y), f"{tag}c{k}")
        else:
            carry = _full_adder(nl, x, y, carry, sums[k], f"{tag}c{k}", f"{tag}{k}")
    return carry


def adder(n):
    """n-bit ripple-carry adder: outputs s0..s<n> equal a + b (LSB first)."""
    a = [f"a{k}" for k in range(n)]
    b = [f"b{k}" for k in range(n)]
    nl = Netlist(f"add{n}", a + b)
    sums = [f"s{k}" for k in range(n)]
    carry = _ripple(nl, a, b, sums, "r")
    nl.gate("buf", (carry,), f"s{n}")
    nl.outputs = sums + [f"s{n}"]
    return nl.text()


def multiplier(n):
    """n x n array multiplier: outputs p0..p<2n-1> equal a * b (LSB first)."""
    a = [f"a{k}" for k in range(n)]
    b = [f"b{k}" for k in range(n)]
    nl = Netlist(f"mul{n}", a + b)

    def row(i):
        return [
            nl.gate("and", (a[j], b[i]), "p0" if i == j == 0 else f"pp{i}_{j}")
            for j in range(n)
        ]

    # acc carries the partial sum from weight i upwards
    acc = row(0)[1:]
    for i in range(1, n):
        pp = row(i)
        last = i == n - 1
        width = len(acc)
        sums = [f"p{i}"] + [
            f"p{i + k}" if last else f"m{i}_{k}" for k in range(1, width)
        ]
        carry = _ripple(nl, acc, pp[:width], sums, f"m{i}_")
        if width < n:
            # the first partial sum is one bit short: finish with a half adder
            top = f"p{i + width}" if last else f"m{i}_{width}"
            nl.gate("xor", (pp[width], carry), top)
            carry = nl.gate("and", (pp[width], carry), f"m{i}_h")
            sums.append(top)
        acc = sums[1:] + [carry]
    nl.gate("buf", (acc[-1],), f"p{2 * n - 1}")
    nl.outputs = [f"p{k}" for k in range(2 * n)]
    return nl.text()


def not_chain(n):
    """n inverters in series, declared from the output back to the input.

    The output y equals x xor (n mod 2).
    """
    nl = Netlist(f"chain{n}", ["x"])
    nets = ["x"] + [f"n{k}" for k in range(1, n)] + ["y"]
    for k in range(n, 0, -1):
        nl.gate("not", (nets[k - 1],), nets[k])
    nl.outputs = ["y"]
    return nl.text()


def narrow_tree(rng, n_inputs=12):
    """A balanced tree of two-input gates that reads each input once.

    Without fanout only AND, NAND, OR and NOR add an ancilla line, so 8 of
    the 11 gates over 12 inputs come from those kinds and the reversible
    circuit has exactly 20 lines.
    """
    kinds = [rng.choice(("and", "nand")) for _ in range(4)]
    kinds += [rng.choice(("or", "nor")) for _ in range(4)]
    kinds += [rng.choice(("xor", "xnor")) for _ in range(n_inputs - 9)]
    rng.shuffle(kinds)
    leaves = [f"i{k}" for k in range(n_inputs)]
    nl = Netlist("narrow", leaves)
    queue = leaves[:]
    rng.shuffle(queue)
    for k, kind in enumerate(kinds):
        x, y = queue.pop(0), queue.pop(0)
        queue.append(nl.gate(kind, (x, y), f"t{k}"))
    nl.outputs = queue
    return nl.text()


def random_circuit(rng, n_inputs, n_gates, name="rand"):
    """A random circuit with an even mix of the seven plain gate kinds.

    Gate inputs are drawn from the nets defined so far, so fanout occurs
    naturally; every net that no gate reads is a primary output.  The kind
    mix is fixed and only the order and the wiring are drawn, which keeps
    the size of the compiled circuit steady across seeds.
    """
    kinds = ["not", "and", "nand", "or", "nor", "xor", "xnor"]
    kinds = (kinds * (n_gates // len(kinds) + 1))[:n_gates]
    rng.shuffle(kinds)
    nets = [f"i{k}" for k in range(n_inputs)]
    nl = Netlist(name, nets)
    read = set()
    for g, kind in enumerate(kinds):
        ins = [rng.choice(nets) for _ in range(1 if kind == "not" else 2)]
        read.update(ins)
        nets.append(nl.gate(kind, ins, f"w{g}"))
    nl.outputs = [net for net in nets if net not in read]
    return nl.text()
