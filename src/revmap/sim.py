"""Simulation, equivalence checking and circuit statistics.

eval_ir and eval_rev are the two reference evaluators.  Both are
word-level simulators: every net or line carries a Python int whose bit k
is its value under assignment k, so one call evaluates a whole word of
assignments with one bitwise operation per gate.  The default word width
of one bit evaluates a single assignment.  Equivalence checking runs both
evaluators on the same words of up to BLOCK assignments and compares
primary outputs by name.  eval_rev, check_equivalence and stats read a
RevCircuit's packed form, its line columns and gate rows, and build no
Line or RevGate.  Inputs are enumerated exhaustively up to a
primary-input cap and sampled with a seeded generator above it.
Bijectivity needs no simulation: every gate row of a RevCircuit names one
to three distinct lines, all in range, as parse_real guarantees of .real
text, RevCircuit() of a caller's gates and the converter's binding of its
rows.  So each gate is a NOT, CNOT or Toffoli gate whose target is not a
control, each is its own inverse, and every RevCircuit is a bijection on
its line states.
"""

import random
from dataclasses import dataclass
from itertools import chain

from .errors import FeedbackError, NameMismatchError
from .ir import IrGateKind, _ir_circuit, check_circuit

# assignments per word in check_equivalence
BLOCK = 4096

# by the lines a gate's row names: NOT, CNOT, Toffoli
_QUANTUM_COST = {1: 1, 2: 1, 3: 5}


def eval_ir(c, assignment, word_width=1):
    """Evaluate the conventional circuit; return {output_name: word}.

    assignment must give a word of word_width bits for every primary
    input; with the default width that is a single bit.  Gates are
    evaluated in a topological order, so declaration order is free.
    """
    missing = [name for name in c.inputs if name not in assignment]
    if missing:
        raise ValueError(f"assignment misses inputs: {missing}")
    check_circuit(c)
    index = c._index
    if index.cycle is not None:
        raise FeedbackError(index.cycle)
    mask = (1 << word_width) - 1
    values = {name: assignment[name] & mask for name in c.inputs}
    # each kind is one bitwise op on words, written inline; mask is all ones
    K = IrGateKind
    NOT, COPY, AND, XOR, OR, NAND, NOR = (
        K.NOT, K.COPY, K.AND, K.XOR, K.OR, K.NAND, K.NOR
    )
    kinds, ins_col, outs_col = c._kinds, c._ins, c._outs
    for i in index.order:
        kind, ins, outs = kinds[i], ins_col[i], outs_col[i]
        if kind is NOT:
            values[outs[0]] = mask ^ values[ins[0]]
        elif kind is COPY:
            values[outs[0]] = values[outs[1]] = values[ins[0]]
        else:
            a, b = values[ins[0]], values[ins[1]]
            if kind is AND:
                word = a & b
            elif kind is XOR:
                word = a ^ b
            elif kind is OR:
                word = a | b
            elif kind is NAND:
                word = mask ^ (a & b)
            elif kind is NOR:
                word = mask ^ (a | b)
            else:  # XNOR
                word = mask ^ a ^ b
            values[outs[0]] = word
    return {name: values[name] for name in c.outputs}


def eval_rev(r, state, word_width=1):
    """Apply the reversible gate list to a full line state (word per line).

    state gives a word of word_width bits for every line; with the default
    width that is a single bit.  Returns the final words as a tuple.
    """
    if len(state) != r.width:
        raise ValueError(
            f"state has {len(state)} bits for {r.width} lines"
        )
    mask = (1 << word_width) - 1
    words = [w & mask for w in state]
    # each packed row names one to three lines: controls, then the target
    for row in r._rows:
        n = len(row)
        if n == 1:
            words[row[0]] ^= mask
        elif n == 2:
            a, target = row
            words[target] ^= words[a]
        else:
            a, b, target = row
            words[target] ^= words[a] & words[b]
    return tuple(words)


@dataclass(frozen=True)
class Witness:
    """A primary-input assignment on which the two circuits disagree."""

    bits: str
    assignment: dict
    expected: dict
    actual: dict


@dataclass(frozen=True)
class EquivalenceReport:
    status: str
    checked: int
    mode: str
    seed: int | None = None
    witness: Witness | None = None

    @property
    def equivalent(self):
        return self.status == "Equivalent"

    def summary(self):
        bits = self.witness.bits if self.witness else "none"
        return f"status={self.status} checked={self.checked} witness={bits}"


def check_equivalence(c, r, max_exhaustive=12, samples=4096, seed=0):
    """Compare a conventional circuit against a reversible one.

    Exhaustive over all primary-input assignments up to max_exhaustive
    inputs, first input most significant, otherwise `samples` (at least
    one) assignments drawn from a generator seeded with `seed`.  Primary
    input and output names must agree as sets; outputs are compared by
    name.  `checked` counts the assignments up to and including the first
    mismatch.
    """
    if set(c.inputs) != set(r.primary_inputs):
        raise NameMismatchError(
            f"primary inputs differ: {sorted(c.inputs)} vs "
            f"{sorted(r.primary_inputs)}"
        )
    if set(c.outputs) != set(r.primary_outputs):
        raise NameMismatchError(
            f"primary outputs differ: {sorted(c.outputs)} vs "
            f"{sorted(r.primary_outputs)}"
        )

    n = len(c.inputs)
    if n <= max_exhaustive:
        mode, used_seed = "exhaustive", None
        blocks = _exhaustive_blocks(n)
    else:
        if samples < 1:
            raise ValueError(f"need at least one sample, got {samples}")
        mode, used_seed = "sampled", seed
        blocks = _sampled_blocks(n, samples, random.Random(seed))

    # the line columns, read once for every block
    names, constants = r._names, r._constants
    po_lines = [
        (i, output) for i, output in enumerate(r._outputs) if output is not None
    ]
    checked = 0
    for size, columns in blocks:
        words = dict(zip(c.inputs, columns))
        mask = (1 << size) - 1
        expected = eval_ir(c, words, size)
        start = [
            words[name] if bit is None else mask * bit
            for name, bit in zip(names, constants)
        ]
        end = eval_rev(r, start, size)
        actual = {name: end[i] for i, name in po_lines}
        diff = 0
        for name in c.outputs:
            diff |= expected[name] ^ actual[name]
        if diff:
            k = _lowest_bit(diff)
            witness = Witness(
                "".join(str((w >> k) & 1) for w in columns),
                {name: (w >> k) & 1 for name, w in words.items()},
                {name: (w >> k) & 1 for name, w in expected.items()},
                {name: (w >> k) & 1 for name, w in actual.items()},
            )
            return EquivalenceReport(
                "Mismatch", checked + k + 1, mode, used_seed, witness
            )
        checked += size
    return EquivalenceReport("Equivalent", checked, mode, used_seed)


def _lowest_bit(word):
    """Position of the lowest set bit of a nonzero word."""
    return (word & -word).bit_length() - 1


def _periodic(p, size):
    """A word of `size` bits (a power of two) whose bit k is bit p of k."""
    half = 1 << p
    word = ((1 << half) - 1) << half
    span = 2 * half
    while span < size:
        word |= word << span
        span *= 2
    return word


def _exhaustive_blocks(n):
    """Yield (size, input words) covering all 2^n assignments in order.

    Assignment j sets input i to bit n-1-i of j.  Within a block the low
    input bits cycle and the high ones are constant.
    """
    size = min(1 << n, BLOCK)
    low = size.bit_length() - 1
    mask = (1 << size) - 1
    cycling = [_periodic(p, size) for p in reversed(range(low))]
    for base in range(0, 1 << n, size):
        fixed = [mask * ((base >> p) & 1) for p in reversed(range(low, n))]
        yield size, fixed + cycling


def _sampled_blocks(n, samples, rng):
    """Yield (size, input words) for `samples` draws of rng.getrandbits(n)."""
    for start in range(0, samples, BLOCK):
        size = min(BLOCK, samples - start)
        rows = [format(rng.getrandbits(n), f"0{n}b") for _ in range(size)]
        yield size, [int("".join(bits), 2) for bits in zip(*reversed(rows))]


def check_bijectivity(r, max_lines=16):
    """Return None: every RevCircuit is a bijection on its line states.

    Raises ValueError above max_lines lines, the cap `verify
    --max-bijective` sets.
    """
    width = r.width
    if width > max_lines:
        raise ValueError(f"{width} lines exceed the bijectivity cap {max_lines}")
    # every packed row names one to three distinct lines, all in range:
    # parse_real, RevCircuit() and the converter's binding each see to it
    # where a circuit enters.  So each gate flips its target by a function
    # of other lines: it is its own inverse, and the reversed gate list
    # undoes the circuit
    return None


@dataclass(frozen=True)
class CircuitStats:
    lines: int
    constant_inputs: int
    garbage_outputs: int
    gate_count: int
    quantum_cost: int

    def summary(self):
        return (
            f"lines={self.lines} constants={self.constant_inputs} "
            f"garbage={self.garbage_outputs} gates={self.gate_count} "
            f"quantum_cost={self.quantum_cost}"
        )


def stats(r):
    """Count lines, constants, garbage, gates and quantum cost.

    Cost per gate: NOT and CNOT are 1, the Toffoli gate is 5.
    """
    return CircuitStats(
        lines=r.width,
        constant_inputs=r.constant_count,
        garbage_outputs=r.garbage_count,
        gate_count=len(r._rows),
        quantum_cost=sum(map(_QUANTUM_COST.__getitem__, map(len, r._rows))),
    )


def gen_random_circuit(seed, n_inputs, n_gates):
    """Deterministically generate a random conventional circuit.

    Gate kinds are drawn uniformly from the seven plain kinds (never
    COPY); inputs are drawn from the nets defined so far, so fanout and
    repeated inputs occur naturally.  Every net without a sink becomes a
    primary output.
    """
    if n_inputs < 1:
        raise ValueError("need at least one primary input")
    if n_gates < 0:
        raise ValueError("gate count cannot be negative")
    kinds = [k for k in IrGateKind if k is not IrGateKind.COPY]
    rng = random.Random(seed)
    nets = [f"i{k}" for k in range(n_inputs)]
    # the gate columns: each gate's kind, input nets and output nets
    gate_kinds, ins_col, outs_col = [], [], []
    for g in range(n_gates):
        kind = kinds[rng.randrange(len(kinds))]
        ins = tuple(nets[rng.randrange(len(nets))] for _ in range(kind.n_inputs))
        out = f"w{g}"
        gate_kinds.append(kind)
        ins_col.append(ins)
        outs_col.append((out,))
        nets.append(out)
    read = set(chain.from_iterable(ins_col))
    outputs = tuple(net for net in nets if net not in read)
    return _ir_circuit(f"rand{seed}", tuple(nets[:n_inputs]), outputs,
                       tuple(gate_kinds), tuple(ins_col), tuple(outs_col))
