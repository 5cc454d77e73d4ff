"""Independent reference evaluators for BLIF-subset and .real files.

Shares no code with revmap.  Both evaluators are bit-parallel: a signal is
a Python int whose bit k is the signal's value under assignment k, so one
bitwise operation evaluates a gate on every assignment at once.

Assignment k of an exhaustive enumeration gives input j (in declaration
order) the bit (k >> (n - 1 - j)) & 1, i.e. the first input is the most
significant bit.
"""

import random
from dataclasses import dataclass


class OracleError(Exception):
    """A file the oracle cannot read, or a check that failed."""


def _logical_lines(text):
    pending = ""
    for raw in text.splitlines():
        piece = raw.split("#", 1)[0]
        if piece.rstrip().endswith("\\"):
            pending += piece.rstrip()[:-1] + " "
            continue
        tokens = (pending + piece).split()
        pending = ""
        if tokens:
            yield tokens


@dataclass
class Blif:
    inputs: list
    outputs: list
    covers: dict  # net -> (input nets, on-set rows)

    def resolve(self, net):
        """Follow buffer covers (one input, on-set {1}) back to their source."""
        seen = set()
        while net in self.covers and net not in seen:
            ins, rows = self.covers[net]
            if len(ins) != 1 or rows != ["1"]:
                break
            seen.add(net)
            net = ins[0]
        return net


def parse_blif(text):
    inputs, outputs, covers = [], [], {}
    current = None
    for tokens in _logical_lines(text):
        head = tokens[0]
        if not head.startswith("."):
            if current is None or len(tokens) != 2 or tokens[1] != "1":
                raise OracleError(f"unexpected cover row {tokens}")
            current[1].append(tokens[0])
            continue
        current = None
        if head == ".inputs":
            inputs.extend(tokens[1:])
        elif head == ".outputs":
            outputs.extend(tokens[1:])
        elif head == ".names":
            *ins, out = tokens[1:]
            if out in covers:
                raise OracleError(f"net {out} has two covers")
            current = covers[out] = (ins, [])
        elif head == ".copy":
            src, first, second = tokens[1:]
            covers[first] = ([src], ["1"])
            covers[second] = ([src], ["1"])
        elif head not in (".model", ".end"):
            raise OracleError(f"unsupported directive {head}")
    return Blif(inputs, outputs, covers)


def eval_blif(blif, words, mask):
    """Return {net: word} for every net reachable from the outputs."""
    values = dict(words)
    for root in blif.outputs:
        stack = [root]
        while stack:
            net = stack[-1]
            if net in values:
                stack.pop()
                continue
            if net not in blif.covers:
                raise OracleError(f"net {net} is undriven")
            ins, rows = blif.covers[net]
            todo = [i for i in ins if i not in values]
            if todo:
                stack.extend(todo)
                continue
            acc = 0
            for row in rows:
                term = mask
                for ch, src in zip(row, ins):
                    if ch == "1":
                        term &= values[src]
                    elif ch == "0":
                        term &= ~values[src] & mask
                acc |= term
            values[net] = acc
            stack.pop()
    return values


@dataclass
class Real:
    variables: list
    inputs: list  # net name or constant bit per line
    outputs: list
    constants: str
    garbage: str
    gates: list  # (controls, target) as line indices

    def text(self):
        out = [
            ".version 2.0",
            f".numvars {len(self.variables)}",
            ".variables " + " ".join(self.variables),
            ".inputs " + " ".join(self.inputs),
            ".outputs " + " ".join(self.outputs),
            ".constants " + self.constants,
            ".garbage " + self.garbage,
            ".begin",
        ]
        for controls, target in self.gates:
            touched = (*controls, target)
            names = " ".join(self.variables[i] for i in touched)
            out.append(f"t{len(touched)} {names}")
        out.append(".end")
        return "\n".join(out) + "\n"


def parse_real(text):
    header = {}
    gates = []
    body = False
    for tokens in _logical_lines(text):
        if body:
            if tokens[0] == ".end":
                break
            index = header["index"]
            touched = [index[name] for name in tokens[1:]]
            if tokens[0] != f"t{len(touched)}" or len(set(touched)) != len(touched):
                raise OracleError(f"bad gate {tokens}")
            gates.append((tuple(touched[:-1]), touched[-1]))
        elif tokens[0] == ".begin":
            body = True
        else:
            header[tokens[0]] = tokens[1:]
            if tokens[0] == ".variables":
                header["index"] = {n: i for i, n in enumerate(tokens[1:])}
    width = len(header[".variables"])
    real = Real(
        header[".variables"],
        header[".inputs"],
        header[".outputs"],
        header[".constants"][0],
        header[".garbage"][0],
        gates,
    )
    for row in (real.inputs, real.outputs, real.constants, real.garbage):
        if len(row) != width:
            raise OracleError(".real header rows disagree on the line count")
    return real


def eval_real(real, words, mask):
    """Return {output label: word} for every non-garbage line."""
    state = []
    for name, const in zip(real.inputs, real.constants):
        state.append(words[name] if const == "-" else mask * int(const))
    for controls, target in real.gates:
        hit = mask
        for c in controls:
            hit &= state[c]
        state[target] ^= hit
    return {
        label: state[i]
        for i, label in enumerate(real.outputs)
        if real.garbage[i] == "-"
    }


def exhaustive_words(names):
    """Input words enumerating all 2**n assignments in counting order."""
    n = len(names)
    total = 1 << n
    words = {}
    for j, name in enumerate(names):
        period = 1 << (n - 1 - j)
        block = ((1 << period) - 1) << period  # period zeros, then period ones
        word, reach = block, 2 * period
        while reach < total:
            word |= word << reach
            reach *= 2
        words[name] = word
    return words, total


def sampled_words(names, count, seed):
    rng = random.Random(seed)
    return {name: rng.getrandbits(count) for name in names}, count


def assignment_words(names, samples, seed, max_exhaustive=12):
    """Every assignment up to max_exhaustive inputs, else `samples` seeded ones.

    Returns (words, count) as exhaustive_words and sampled_words do.
    """
    if len(names) <= max_exhaustive:
        return exhaustive_words(names)
    return sampled_words(names, samples, seed)


def bits_of(words, names, k):
    """The assignment k of a word set, as a bit string in `names` order."""
    return "".join(str((words[name] >> k) & 1) for name in names)


def mismatches(blif, real, words, mask):
    """Word with bit k set where the .real's outputs differ from the .blif's."""
    want = eval_blif(blif, words, mask)
    got = eval_real(real, words, mask)
    labels = {blif.resolve(o) for o in blif.outputs}
    if labels != set(got):
        raise OracleError(
            f"outputs differ: blif {sorted(labels)} vs real {sorted(got)}"
        )
    diff = 0
    for o in blif.outputs:
        diff |= want[o] ^ got[blif.resolve(o)]
    return diff


def check_real(blif, real, max_exhaustive=12, samples=256, seed=0):
    """Raise OracleError unless the .real computes the .blif's outputs.

    Exhaustive up to max_exhaustive inputs, else `samples` seeded
    assignments.  Returns the number of assignments checked.
    """
    words, count = assignment_words(blif.inputs, samples, seed, max_exhaustive)
    diff = mismatches(blif, real, words, (1 << count) - 1)
    if diff:
        k = (diff & -diff).bit_length() - 1
        raise OracleError(f"mismatch on {bits_of(words, blif.inputs, k)}")
    return count


def first_mismatch(blif, real):
    """Index of the first differing assignment in counting order, or None."""
    words, count = exhaustive_words(blif.inputs)
    diff = mismatches(blif, real, words, (1 << count) - 1)
    return (diff & -diff).bit_length() - 1 if diff else None


def confirms_witness(blif, real, bits):
    """True when the assignment `bits` (declaration order) tells them apart."""
    if len(bits) != len(blif.inputs) or set(bits) - set("01"):
        return False
    words = {name: int(b) for name, b in zip(blif.inputs, bits)}
    return mismatches(blif, real, words, 1) == 1


def unsigned(values, names, k):
    """Integer whose bit i is net names[i] under assignment k."""
    return sum(((values[n] >> k) & 1) << i for i, n in enumerate(names))


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

HALF_ADDER_REAL = """\
.version 2.0
.numvars 5
.variables a b x0 x1 x2
.inputs a b 0 0 0
.outputs g0 s g1 g2 c
.constants --000
.garbage 1-11-
.begin
t2 a x0
t2 b x1
t2 a b
t3 x0 x1 x2
.end
"""

# a b -> s c, written out by hand
HALF_ADDER_TABLE = {"00": "00", "01": "10", "10": "10", "11": "01"}


def self_test():
    """Check both evaluators against the half adder's truth table."""
    blif = parse_blif(HALF_ADDER_BLIF)
    real = parse_real(HALF_ADDER_REAL)
    words, count = exhaustive_words(blif.inputs)
    mask = (1 << count) - 1
    for values in (eval_blif(blif, words, mask), eval_real(real, words, mask)):
        for k in range(count):
            ab = bits_of(words, ["a", "b"], k)
            sc = bits_of(values, ["s", "c"], k)
            if HALF_ADDER_TABLE[ab] != sc:
                raise OracleError(f"half adder: {ab} -> {sc}")
    if check_real(blif, real) != 4:
        raise OracleError("half adder: expected 4 assignments")
