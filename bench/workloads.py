"""The three benchmark workloads: corpus, commands and output checks.

A workload is prepared once per run from its seed and yields a list of
operations, one revmap CLI command each.  A round runs every operation
once, in order; a run repeats whole rounds.  Each operation carries the
check that decides, with the oracle, whether its output is right.

A command may appear more than once in a round.  Each workload has a
heavy stage and a light one (compile_deep: convert heavy, verify light;
the other two the reverse), and the light stage's commands are repeated
through the round, so that a run samples each of them at many moments
instead of two or three: on a shared virtual machine the CPU speed can
drift by a fifth over seconds, and a median of few samples drifts with it.

Seeds reach revmap only through the generated files: compile_deep's random
circuit comes from ``revmap gen`` with a seed drawn from the workload seed,
and every other file is written here.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import oracle

CHAIN_LENGTH = 3000
SAMPLED_VERIFY = 8  # --samples for the compile_deep checks: little checker work
ORACLE_SAMPLES = 256
# the assignment (in counting order) at which each original's mutants first
# disagree with it, within an eighth: a checker that enumerates in counting
# order does about this much work per refutation, whatever the seed
REFUTE_DEPTHS = (0, 16, 128, 512, 1024)
RANDOM_ORIGINALS = 4
VERIFY_PASSES = 2  # compile_deep runs each verify this many times a round


@dataclass
class Source:
    """One source circuit and what the oracle knows about it."""

    name: str
    blif: Path
    parsed: oracle.Blif
    spec: object = None  # callable(values, k) -> error text or None

    @classmethod
    def write(cls, workdir, name, text, spec=None):
        path = workdir / f"{name}.blif"
        path.write_text(text)
        return cls(name, path, oracle.parse_blif(text), spec)


@dataclass
class Op:
    """One CLI command of a round and the check of its outcome."""

    kind: str  # "convert" or "verify"
    argv: list
    source: Source
    real: Path
    expect: int = 0  # verify: 0 equivalent, 1 mismatch
    lines: list = field(default_factory=list)  # verify: expected stdout prefixes


def _arith(op_name, width, outs):
    """Spec for an adder or multiplier with inputs a*, b* and outputs outs."""
    a = [f"a{k}" for k in range(width)]
    b = [f"b{k}" for k in range(width)]
    fn = (lambda x, y: x + y) if op_name == "+" else (lambda x, y: x * y)

    def spec(values, k):
        x, y = oracle.unsigned(values, a, k), oracle.unsigned(values, b, k)
        got = oracle.unsigned(values, outs, k)
        if got != fn(x, y):
            return f"{x} {op_name} {y} gave {got}"
        return None

    return spec


def _parity(length):
    def spec(values, k):
        want = ((values["x"] >> k) & 1) ^ (length & 1)
        return None if (values["y"] >> k) & 1 == want else "chain parity wrong"

    return spec


def _gen(cli_main, workdir, name, seed, inputs, gates):
    path = workdir / f"{name}.blif"
    argv = ["gen", "--seed", str(seed), "--inputs", str(inputs),
            "--gates", str(gates), "-o", str(path)]
    if cli_main(argv) != 0:
        raise oracle.OracleError(f"revmap gen failed for {name}")
    return Source(name, path, oracle.parse_blif(path.read_text()))


def _adder(workdir, n):
    return Source.write(workdir, f"add{n}", corpus.adder(n),
                        _arith("+", n, [f"s{k}" for k in range(n + 1)]))


def _multiplier(workdir, n):
    return Source.write(workdir, f"mul{n}", corpus.multiplier(n),
                        _arith("*", n, [f"p{k}" for k in range(2 * n)]))


def _half_adder(workdir):
    return Source.write(workdir, "half_adder", oracle.HALF_ADDER_BLIF)


def _convert(src, out_dir):
    real = out_dir / f"{src.name}.real"
    return Op("convert", ["convert", str(src.blif), "-o", str(real)], src, real)


def _verify(src, real, extra=(), expect=0, lines=()):
    argv = ["verify", str(src.blif), str(real), *extra]
    return Op("verify", argv, src, real, expect, list(lines))


def compile_deep(seed, workdir, cli_main):
    """Few large or deep circuits; converted, then checked on 8 samples.

    A round converts each circuit and verifies it, then verifies every
    circuit VERIFY_PASSES - 1 more times.
    """
    rng = random.Random(seed)
    sources = [
        _half_adder(workdir),
        _multiplier(workdir, 32),
        _adder(workdir, 256),
        _gen(cli_main, workdir, "rand32x8000", rng.randrange(1 << 30), 32, 8000),
        Source.write(workdir, f"chain{CHAIN_LENGTH}", corpus.not_chain(CHAIN_LENGTH),
                     _parity(CHAIN_LENGTH)),
    ]
    ops, verifies = [], []
    for src in sources:
        conv = _convert(src, workdir)
        extra = ["--samples", str(SAMPLED_VERIFY), "--seed", str(seed)]
        if len(src.parsed.inputs) > 12:  # revmap verify's exhaustive cap
            count, mode = SAMPLED_VERIFY, f"mode=sampled seed={seed}"
        else:
            count, mode = 1 << len(src.parsed.inputs), "mode=exhaustive"
        lines = [f"status=Equivalent checked={count} ", mode]
        verifies.append(_verify(src, conv.real, extra, lines=lines))
        ops += [conv, verifies[-1]]
    return ops + verifies * (VERIFY_PASSES - 1)


def verify_exhaustive(seed, workdir, cli_main):
    """Small circuits checked over all 4096 assignments of 12 inputs.

    A round converts and verifies each circuit, and after each verify
    converts every circuit once more.
    """
    rng = random.Random(seed)
    sources = [
        _half_adder(workdir),
        _adder(workdir, 6),
        _multiplier(workdir, 6),
        Source.write(workdir, "rand12", corpus.random_circuit(rng, 12, 24)),
    ]
    narrow = [
        Source.write(workdir, f"narrow{k}", corpus.narrow_tree(rng))
        for k in range(2)
    ]
    converts = [_convert(src, workdir) for src in sources + narrow]
    ops = []
    for conv in converts:
        src = conv.source
        count = 1 << len(src.parsed.inputs)
        lines = [f"status=Equivalent checked={count} ", "mode=exhaustive"]
        extra = []
        if src in narrow:
            extra = ["--max-bijective", "20"]
            lines.append("bijectivity=ok states=1048576")
        elif src.name == "half_adder":
            lines.append("bijectivity=ok states=32")
        ops += [conv, _verify(src, conv.real, extra, lines=lines), *converts]
    return ops


def _candidates(real):
    """Single-gate mutants: delete a gate, drop a control, swap CNOT roles."""
    for i, (controls, target) in enumerate(real.gates):
        yield f"g{i}-deleted", real.gates[:i] + real.gates[i + 1:]
        if controls:
            altered = (controls[1:], target)
            yield f"g{i}-uncontrolled", real.gates[:i] + [altered] + real.gates[i + 1:]
        if len(controls) == 1:
            swapped = ((target,), controls[0])
            yield f"g{i}-swapped", real.gates[:i] + [swapped] + real.gates[i + 1:]


def make_mutants(src, real, rng):
    """Pick one mutant per refutation depth that fits the assignment space.

    Returns {label: mutant}, or None when some depth has no inequivalent
    candidate whose first disagreeing assignment lies within an eighth of
    it.  Among the candidates that do, rng picks one.
    """
    found = []
    for label, gates in _candidates(real):
        mutant = oracle.Real(real.variables, real.inputs, real.outputs,
                             real.constants, real.garbage, gates)
        first = oracle.first_mismatch(src.parsed, mutant)
        if first is not None:
            found.append((first, label, mutant))
    chosen = {}
    for depth in REFUTE_DEPTHS:
        if depth >= 1 << len(src.parsed.inputs):
            break
        near = [
            (label, mutant) for first, label, mutant in found
            if abs(first - depth) <= depth / 8 and label not in chosen
        ]
        if not near:
            return None
        label, mutant = rng.choice(near)
        chosen[label] = mutant
    return chosen


def refute_mutants(seed, workdir, cli_main):
    """Mutated .real files of small circuits, each of which verify must refute.

    The random originals are drawn until one offers a mutant at every
    depth in REFUTE_DEPTHS; about half of them do.  A round converts the
    originals, then verifies each original's mutants and after them
    converts every original once more.
    """
    rng = random.Random(seed)
    fixed = [_half_adder(workdir), _adder(workdir, 6), _multiplier(workdir, 4)]
    prep = workdir / "originals"
    prep.mkdir()
    converts, verifies = [], []

    def mutate(src):
        first = _convert(src, prep)
        if cli_main(first.argv) != 0:
            raise oracle.OracleError(f"revmap convert failed for {src.name}")
        return make_mutants(src, oracle.parse_real(first.real.read_text()), rng)

    picked = [(src, mutate(src)) for src in fixed]
    for k in range(RANDOM_ORIGINALS):
        for _ in range(100):
            src = Source.write(workdir, f"rand12_{k}",
                               corpus.random_circuit(rng, 12, 30))
            mutants = mutate(src)
            if mutants is not None:
                break
        else:
            raise oracle.OracleError(f"no random original for seed {seed}")
        picked.append((src, mutants))
    for src, mutants in picked:
        if mutants is None:
            raise oracle.OracleError(f"{src.name} lacks a mutant at some depth")
        group = []
        for label, mutant in mutants.items():
            path = workdir / f"{src.name}-{label}.real"
            path.write_text(mutant.text())
            group.append(_verify(src, path, expect=1, lines=["status=Mismatch"]))
        verifies.append(group)
        converts.append(_convert(src, workdir))
    ops = list(converts)
    for group in verifies:
        ops += group + converts
    return ops


WORKLOADS = {
    "compile_deep": compile_deep,
    "verify_exhaustive": verify_exhaustive,
    "refute_mutants": refute_mutants,
}


def check(op, code, stdout, seed):
    """Return what is wrong with a command's outcome, or None.

    Only called for outcomes that did not fail (no exception, exit 0 or 1).
    """
    if op.kind == "convert":
        if code != 0:
            return f"convert exited {code}"
        real = oracle.parse_real(op.real.read_text())
        try:
            oracle.check_real(op.source.parsed, real, samples=ORACLE_SAMPLES, seed=seed)
        except oracle.OracleError as exc:
            return f"{op.real.name} disagrees with {op.source.blif.name}: {exc}"
        return None
    if code != op.expect:
        return f"verify exited {code}, expected {op.expect}"
    out = stdout.splitlines()
    for prefix in op.lines:
        if not any(line.startswith(prefix) for line in out):
            return f"verify printed no line starting {prefix!r}"
    if op.expect == 1:
        bits = out[0].rpartition("witness=")[2]
        real = oracle.parse_real(op.real.read_text())
        if not oracle.confirms_witness(op.source.parsed, real, bits):
            return f"witness {bits!r} does not separate {op.real.name}"
    return None


def check_sources(ops, seed):
    """Check each generated circuit against its arithmetic spec, if any."""
    seen = set()
    for op in ops:
        src = op.source
        if src.spec is None or src.name in seen:
            continue
        seen.add(src.name)
        words, count = oracle.assignment_words(src.parsed.inputs, ORACLE_SAMPLES, seed)
        values = oracle.eval_blif(src.parsed, words, (1 << count) - 1)
        for k in range(count):
            problem = src.spec(values, k)
            if problem:
                raise oracle.OracleError(f"{src.name}: {problem}")
