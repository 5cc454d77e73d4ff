"""Evaluators, equivalence checking, bijectivity and statistics."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmap import (
    CircuitStats,
    FeedbackError,
    IrCircuit,
    IrGate,
    IrGateKind,
    Line,
    NameMismatchError,
    RevCircuit,
    RevGate,
    check_bijectivity,
    check_equivalence,
    convert_circuit,
    eval_ir,
    eval_rev,
    gen_random_circuit,
    insert_copiers,
    parse_blif,
    slot_circuit,
    stats,
    t1,
    t2,
    t3,
)
from revmap import ir, sim
from samples import (
    BOOL_FN,
    HALF_ADDER_BLIF,
    not_chain_blif,
    pipeline,
    single_gate_blif,
)

K = IrGateKind


# ---------------------------------------------------------------- eval_ir


@pytest.mark.parametrize("kind", [k for k in K if k is not K.COPY])
def test_eval_ir_matches_oracle(kind):
    text = single_gate_blif(kind)
    from revmap import parse_blif

    c = parse_blif(text)
    n = kind.n_inputs
    names = c.inputs
    for bits in range(1 << n):
        assignment = {names[i]: (bits >> (n - 1 - i)) & 1 for i in range(n)}
        got = eval_ir(c, assignment)
        assert got["y"] == BOOL_FN[kind](*(assignment[nm] for nm in names))


@pytest.mark.parametrize("kind", list(K))
def test_eval_ir_matches_oracle_on_64_bit_words(kind):
    # bit k of every word is one assignment, judged by BOOL_FN; COPY gives
    # its input on both outputs; the words given are wider than 64 bits
    ins, outs = ("a", "b")[:kind.n_inputs], ("y", "z")[:kind.n_outputs]
    c = IrCircuit("one", ins, outs, (IrGate(kind, ins, outs),))
    rng = random.Random(kind.value)
    words = {name: rng.getrandbits(72) for name in ins}
    got = eval_ir(c, words, 64)
    fn = BOOL_FN.get(kind, lambda a: a)
    for k in range(64):
        want = fn(*((words[name] >> k) & 1 for name in ins))
        assert [(got[name] >> k) & 1 for name in outs] == [want] * len(outs)
    assert all(got[name] >> 64 == 0 for name in outs)


def test_eval_ir_words_carry_one_assignment_per_bit():
    c = gen_random_circuit(21, 5, 30)
    rng = random.Random(4)
    width = 70
    words = {name: rng.getrandbits(width) for name in c.inputs}
    got = eval_ir(c, words, width)
    for k in range(width):
        one = eval_ir(c, {name: (w >> k) & 1 for name, w in words.items()})
        assert one == {name: (w >> k) & 1 for name, w in got.items()}


def test_eval_ir_deep_chain_declared_output_first():
    c = parse_blif(not_chain_blif(3000))
    assert eval_ir(c, {"a": 0}) == {"y": 0}
    assert eval_ir(c, {"a": 1}) == {"y": 1}
    assert eval_ir(c, {"a": 0b0110}, 4) == {"y": 0b0110}


def test_eval_ir_copy_duplicates():
    c = IrCircuit(
        "cp", ("a",), ("p", "q"), (IrGate(K.COPY, ("a",), ("p", "q")),)
    )
    assert eval_ir(c, {"a": 1}) == {"p": 1, "q": 1}
    assert eval_ir(c, {"a": 0}) == {"p": 0, "q": 0}


def test_eval_ir_handles_forward_references():
    # gate 0 reads the output of gate 1, declared later
    c = IrCircuit(
        "fwd",
        ("a",),
        ("y",),
        (
            IrGate(K.NOT, ("w",), ("y",)),
            IrGate(K.NOT, ("a",), ("w",)),
        ),
    )
    assert eval_ir(c, {"a": 0}) == {"y": 0}
    assert eval_ir(c, {"a": 1}) == {"y": 1}


def test_eval_ir_missing_input_rejected():
    c = IrCircuit("m", ("a", "b"), ("y",), (IrGate(K.AND, ("a", "b"), ("y",)),))
    with pytest.raises(ValueError, match="misses inputs"):
        eval_ir(c, {"a": 1})


def test_eval_ir_feedback_raises():
    c = IrCircuit(
        "loop",
        ("a",),
        ("y",),
        (
            IrGate(K.AND, ("a", "q"), ("p",)),
            IrGate(K.NOT, ("p",), ("q",)),
            IrGate(K.NOT, ("p",), ("y",)),
        ),
    )
    with pytest.raises(FeedbackError) as exc:
        eval_ir(c, {"a": 1})
    assert tuple(exc.value.cycle) == (0, 1)


# ---------------------------------------------------------------- eval_rev


def test_eval_rev_anchor_rows():
    flip = RevCircuit("n", (Line("a"),), (t1(0),))
    assert eval_rev(flip, (0,)) == (1,)
    assert eval_rev(flip, (1,)) == (0,)

    feynman = RevCircuit("f", (Line("a"), Line("b")), (t2(0, 1),))
    assert eval_rev(feynman, (1, 1)) == (1, 0)
    assert eval_rev(feynman, (1, 0)) == (1, 1)
    assert eval_rev(feynman, (0, 1)) == (0, 1)

    toffoli = RevCircuit("t", (Line("a"), Line("b"), Line("c")), (t3(0, 1, 2),))
    assert eval_rev(toffoli, (1, 1, 0)) == (1, 1, 1)
    assert eval_rev(toffoli, (1, 1, 1)) == (1, 1, 0)
    assert eval_rev(toffoli, (0, 1, 1)) == (0, 1, 1)


def test_eval_rev_words_carry_one_state_per_bit():
    c = gen_random_circuit(8, 4, 12)
    rev = convert_circuit(slot_circuit(insert_copiers(c)))
    rng = random.Random(6)
    width = 40
    words = [rng.getrandbits(width) for _ in rev.lines]
    got = eval_rev(rev, words, width)
    for k in range(width):
        one = eval_rev(rev, [(w >> k) & 1 for w in words])
        assert one == tuple((w >> k) & 1 for w in got)


@pytest.mark.parametrize("gate", [t1(1), t2(0, 2), t3(2, 0, 1)],
                         ids=["not", "cnot", "toffoli"])
def test_eval_rev_gates_on_64_bit_words(gate):
    # bit k of every word is one line state; the words given are wider than
    # 64 bits
    r = RevCircuit("one", (Line("a"), Line("b"), Line("c")), (gate,))
    rng = random.Random(len(gate.controls))
    start = [rng.getrandbits(72) for _ in r.lines]
    end = eval_rev(r, start, 64)
    for k in range(64):
        bits = [(w >> k) & 1 for w in start]
        bits[gate.target] ^= all(bits[i] for i in gate.controls)
        assert [(w >> k) & 1 for w in end] == bits
    assert all(w >> 64 == 0 for w in end)


def test_eval_rev_length_mismatch():
    flip = RevCircuit("n", (Line("a"),), (t1(0),))
    with pytest.raises(ValueError, match="1 lines"):
        eval_rev(flip, (0, 1))


@settings(max_examples=60, derandomize=True, database=None)
@given(st.data())
def test_gate_list_followed_by_its_reverse_is_identity(data):
    width = data.draw(st.integers(min_value=1, max_value=5))
    gates = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        lines = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=width - 1),
                min_size=1,
                max_size=min(3, width),
                unique=True,
            )
        )
        gates.append(RevGate(tuple(lines[:-1]), lines[-1]))
    r = RevCircuit(
        "p",
        tuple(Line(f"l{i}") for i in range(width)),
        tuple(gates) + tuple(reversed(gates)),
    )
    state = tuple(data.draw(st.integers(0, 1)) for _ in range(width))
    assert eval_rev(r, state) == state


# ------------------------------------------------------- check_equivalence


def test_equivalent_report():
    c, slotted = pipeline(HALF_ADDER_BLIF)
    report = check_equivalence(c, convert_circuit(slotted))
    assert report.status == "Equivalent"
    assert report.equivalent
    assert (report.checked, report.mode, report.seed) == (4, "exhaustive", None)
    assert report.summary() == "status=Equivalent checked=4 witness=none"


def test_mismatch_witness_replays():
    c, slotted = pipeline(single_gate_blif(K.AND))
    rev = convert_circuit(slotted)
    broken = RevCircuit(rev.name, rev.lines, rev.gates + (t1(2),))
    report = check_equivalence(c, broken)
    assert report.status == "Mismatch"
    assert not report.equivalent
    w = report.witness
    assert w is not None
    # the witness assignment really does split the two circuits
    expected = eval_ir(c, w.assignment)
    start = [
        ln.constant if ln.constant is not None else w.assignment[ln.name]
        for ln in broken.lines
    ]
    end = eval_rev(broken, start)
    assert expected == w.expected
    assert end[2] == w.actual["y"]
    assert w.expected != w.actual
    assert report.summary().startswith("status=Mismatch")
    assert w.bits in report.summary()


def test_sampled_mode_above_the_cap():
    c = gen_random_circuit(3, 14, 6)
    rev = convert_circuit(slot_circuit(insert_copiers(c)))
    report = check_equivalence(c, rev, samples=200, seed=11)
    assert (report.mode, report.seed, report.checked) == ("sampled", 11, 200)
    assert report.equivalent
    again = check_equivalence(c, rev, samples=200, seed=11)
    assert again == report


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_mode_needs_a_sample(samples):
    c = gen_random_circuit(3, 14, 6)
    rev = convert_circuit(slot_circuit(insert_copiers(c)))
    with pytest.raises(ValueError, match="at least one sample"):
        check_equivalence(c, rev, samples=samples)
    # exhaustive mode never reads the sample count
    report = check_equivalence(c, rev, max_exhaustive=14, samples=0)
    assert (report.mode, report.checked) == ("exhaustive", 1 << 14)


def test_exhaustive_cap_is_tunable():
    c = gen_random_circuit(4, 5, 4)
    rev = convert_circuit(slot_circuit(insert_copiers(c)))
    report = check_equivalence(c, rev, max_exhaustive=4, samples=64, seed=9)
    assert report.mode == "sampled"
    assert report.checked == 64


def test_name_mismatch_rejected():
    c, slotted = pipeline(single_gate_blif(K.AND))
    rev = convert_circuit(slotted)
    renamed = RevCircuit(
        rev.name,
        tuple(
            Line("zz", ln.constant, ln.output) if i == 0 else ln
            for i, ln in enumerate(rev.lines)
        ),
        rev.gates,
    )
    with pytest.raises(NameMismatchError, match="primary inputs differ"):
        check_equivalence(c, renamed)


def _scalar_ir(c, assignment):
    """Evaluate c one assignment at a time, straight from the truth tables."""
    values = dict(assignment)
    pending = list(c.gates)
    while pending:
        ready = [g for g in pending if all(n in values for n in g.inputs)]
        for g in ready:
            ins = [values[n] for n in g.inputs]
            for out in g.outputs:
                values[out] = ins[0] if g.kind is K.COPY else BOOL_FN[g.kind](*ins)
        pending = [g for g in pending if g not in ready]
    return {name: values[name] for name in c.outputs}


def _scalar_check(c, r, patterns):
    """(status, checked, witness bits) of a one-assignment-at-a-time loop."""
    checked = 0
    for bits in patterns:
        assignment = {name: int(b) for name, b in zip(c.inputs, bits)}
        state = [
            assignment[ln.name] if ln.constant is None else ln.constant
            for ln in r.lines
        ]
        for g in r.gates:
            if all(state[i] for i in g.controls):
                state[g.target] ^= 1
        actual = {ln.output: state[i] for i, ln in enumerate(r.lines)}
        checked += 1
        expected = _scalar_ir(c, assignment)
        if any(expected[name] != actual[name] for name in c.outputs):
            return "Mismatch", checked, bits
    return "Equivalent", checked, "none"


def _outcome(report):
    bits = report.witness.bits if report.witness else "none"
    return report.status, report.checked, bits


def _one_gate_mutants(r, rng):
    n = len(r.gates)
    out = []
    if n:
        k = rng.randrange(n)
        out.append(r.gates[:k] + r.gates[k + 1:])
        g = r.gates[k]
        out.append(r.gates[:k] + (t1(g.target),) + r.gates[k + 1:])
    k = rng.randrange(n + 1)
    out.append(r.gates[:k] + (t1(rng.randrange(r.width)),) + r.gates[k:])
    return [RevCircuit(r.name, r.lines, gates) for gates in out]


@pytest.mark.parametrize("block", [sim.BLOCK, 4])
def test_checker_agrees_with_a_scalar_loop(block, monkeypatch):
    # a small block puts block boundaries inside every enumeration
    monkeypatch.setattr(sim, "BLOCK", block)
    rng = random.Random(block)
    for seed in range(24):
        n = 1 + seed % 7
        c = gen_random_circuit(seed, n, rng.randrange(1, 14))
        rev = convert_circuit(slot_circuit(insert_copiers(c)))
        for r in [rev, *_one_gate_mutants(rev, rng)]:
            report = check_equivalence(c, r)
            every = (format(j, f"0{n}b") for j in range(1 << n))
            assert report.mode == "exhaustive"
            assert _outcome(report) == _scalar_check(c, r, every)

            samples = rng.randrange(1, 40)
            report = check_equivalence(
                c, r, max_exhaustive=n - 1, samples=samples, seed=seed
            )
            draws = random.Random(seed)
            drawn = (
                format(draws.getrandbits(n), f"0{n}b") for _ in range(samples)
            )
            assert report.mode == "sampled"
            assert _outcome(report) == _scalar_check(c, r, drawn)


# ------------------------------------------------------- check_bijectivity


def test_converted_circuits_are_bijective():
    for text in (HALF_ADDER_BLIF, single_gate_blif(K.OR), single_gate_blif(K.NOT)):
        _, slotted = pipeline(text)
        assert check_bijectivity(convert_circuit(slotted)) is None


def test_bijectivity_cap():
    r = RevCircuit(
        "wide", tuple(Line(f"l{i}") for i in range(17)), (t1(0),)
    )
    with pytest.raises(ValueError, match="cap"):
        check_bijectivity(r)
    assert check_bijectivity(r, max_lines=17) is None


def test_bijectivity_rejects_a_gate_that_is_not_a_revgate():
    # this gate clears its line, so it is no bijection; RevCircuit takes
    # only RevGates, whose rules rule that out, so no such circuit is built
    gate = SimpleNamespace(controls=(0,), target=0)
    with pytest.raises(TypeError) as err:
        RevCircuit("duck", (Line("a"), Line("b")), (t1(1), gate))
    assert str(err.value) == "not a RevGate: namespace(controls=(0,), target=0)"


def test_bijectivity_simulates_nothing(monkeypatch):
    r = convert_circuit(pipeline(HALF_ADDER_BLIF)[1])

    def refuse(*args, **kwargs):
        raise AssertionError("check_bijectivity must not simulate or rebuild")

    monkeypatch.setattr(sim, "eval_rev", refuse)
    monkeypatch.setattr(sim, "eval_ir", refuse)
    monkeypatch.setattr(RevCircuit, "__init__", refuse)
    monkeypatch.setattr(ir, "_rev_circuit", refuse)
    monkeypatch.setattr(RevGate, "__init__", refuse)
    assert check_bijectivity(r) is None


@pytest.mark.parametrize("restore", [True, False])
@pytest.mark.parametrize("source", ["random", "half_adder"])
def test_reversed_gates_undo_the_circuit(source, restore):
    # the identity the bijectivity verdict rests on, checked also on a
    # circuit far wider than any state walk could cover
    if source == "random":
        c = gen_random_circuit(12345, 32, 2000)
    else:
        c = parse_blif(HALF_ADDER_BLIF)
    rev = convert_circuit(slot_circuit(insert_copiers(c)), restore)
    back = RevCircuit(rev.name, rev.lines, rev.gates[::-1])
    rng = random.Random(source)
    for _ in range(4):
        start = tuple(rng.getrandbits(64) for _ in range(rev.width))
        there = eval_rev(rev, start, 64)
        assert there != start
        assert eval_rev(back, there, 64) == start


def test_vectorized_walk_agrees_with_scalar_eval():
    # the scalar image count is the reference the bijectivity verdict is
    # held to: every one of the 2^width states has its own image
    c = gen_random_circuit(12, 3, 5)
    rev = convert_circuit(slot_circuit(insert_copiers(c)))
    width = rev.width
    assert width <= 12
    images = set()
    for v in range(1 << width):
        start = tuple((v >> i) & 1 for i in range(width))
        images.add(eval_rev(rev, start))
    assert len(images) == 1 << width
    assert check_bijectivity(rev, max_lines=width) is None


# ------------------------------------------------------------------ stats


def test_stats_two_feynman():
    r = RevCircuit(
        "ff", (Line("a"), Line("b"), Line("c")), (t2(0, 1), t2(1, 2))
    )
    s = stats(r)
    assert s.quantum_cost == 2
    assert s.gate_count == 2


def test_stats_converted_or():
    c, slotted = pipeline(single_gate_blif(K.OR))
    s = stats(convert_circuit(slotted))
    assert s == CircuitStats(
        lines=3, constant_inputs=1, garbage_outputs=2, gate_count=5,
        quantum_cost=9,
    )
    assert s.summary() == (
        "lines=3 constants=1 garbage=2 gates=5 quantum_cost=9"
    )


def test_stats_half_adder():
    _, slotted = pipeline(HALF_ADDER_BLIF)
    s = stats(convert_circuit(slotted))
    assert (s.lines, s.constant_inputs, s.garbage_outputs) == (5, 3, 3)
    assert (s.gate_count, s.quantum_cost) == (4, 8)


# ------------------------------------------------------ gen_random_circuit


def test_generator_is_deterministic():
    a = gen_random_circuit(42, 4, 9)
    b = gen_random_circuit(42, 4, 9)
    assert a == b
    assert a.name == "rand42"


def test_generator_output_is_valid_and_convertible():
    from revmap import check_circuit

    for seed in range(10):
        c = gen_random_circuit(seed, 1 + seed % 5, seed % 9)
        check_circuit(c)
        assert all(g.kind is not K.COPY for g in c.gates)
        rev = convert_circuit(slot_circuit(insert_copiers(c)))
        assert check_equivalence(c, rev).equivalent


def test_generator_outputs_are_sink_free_nets():
    c = gen_random_circuit(7, 3, 8)
    read = {net for g in c.gates for net in g.inputs}
    defined = list(c.inputs) + [g.outputs[0] for g in c.gates]
    assert list(c.outputs) == [n for n in defined if n not in read]


def test_generator_zero_gates():
    c = gen_random_circuit(0, 3, 0)
    assert c.outputs == c.inputs
    assert c.gates == ()


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        gen_random_circuit(0, 0, 3)
    with pytest.raises(ValueError):
        gen_random_circuit(0, 2, -1)
