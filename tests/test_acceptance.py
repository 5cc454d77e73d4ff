"""Acceptance suite.

One test per acceptance criterion, so `pytest -v` prints one pass/fail
line for each.  Timed criteria assert wall-clock bounds with
time.perf_counter around the whole workload.
"""

import time
from itertools import product

from revmap import (
    IrGateKind,
    check_bijectivity,
    check_equivalence,
    convert_circuit,
    eval_ir,
    gen_random_circuit,
    insert_copiers,
    parse_blif,
    parse_intermediate,
    parse_real,
    slot_circuit,
    stats,
    t2,
    write_intermediate,
    write_real,
)
from revmap import Line, RevCircuit
from revmap.cli import main
from samples import (
    HALF_ADDER_BLIF,
    buffer_chain_blif,
    fanouts,
    not_chain_blif,
    not_chain_real,
    pipeline,
    single_gate_blif,
)

K = IrGateKind

PLAIN_KINDS = (K.NOT, K.AND, K.NAND, K.OR, K.NOR, K.XOR, K.XNOR)


def random_suite():
    """The 200 seeded circuits shared by criteria 5 and 6."""
    return [gen_random_circuit(seed, 1 + seed % 8, seed % 13) for seed in range(200)]


def same_function(a, b):
    """Exhaustive IR-vs-IR comparison over the primary inputs of a."""
    assert set(a.inputs) == set(b.inputs)
    assert set(a.outputs) == set(b.outputs)
    for bits in product((0, 1), repeat=len(a.inputs)):
        assignment = dict(zip(a.inputs, bits))
        if eval_ir(a, assignment) != eval_ir(b, assignment):
            return False
    return True


def test_c1_every_plain_gate_converts_and_verifies_under_1s():
    start = time.perf_counter()
    for kind in PLAIN_KINDS:
        c, slotted = pipeline(single_gate_blif(kind))
        report = check_equivalence(c, convert_circuit(slotted))
        assert report.status == "Equivalent", f"{kind.name}: {report.summary()}"
    assert time.perf_counter() - start < 1.0


def test_c2_emitted_real_matches_template_structure():
    def emitted(kind):
        _, slotted = pipeline(single_gate_blif(kind))
        return parse_real(write_real(convert_circuit(slotted)))

    r = emitted(K.AND)
    assert [len(g.controls) for g in r.gates] == [2]
    assert r.lines[2].constant == 0

    r = emitted(K.NAND)
    assert [len(g.controls) for g in r.gates] == [2]
    assert r.lines[2].constant == 1

    r = emitted(K.OR)
    assert [len(g.controls) for g in r.gates] == [0, 0, 2, 0, 0]
    assert r.lines[2].constant == 1

    r = emitted(K.NOR)
    assert [len(g.controls) for g in r.gates] == [0, 0, 2, 0, 0]
    assert r.lines[2].constant == 0

    r = emitted(K.XOR)
    assert [len(g.controls) for g in r.gates] == [1]
    assert r.constant_count == 0

    r = emitted(K.XNOR)
    assert [len(g.controls) for g in r.gates] == [1, 0]
    assert r.constant_count == 0

    r = emitted(K.NOT)
    assert [len(g.controls) for g in r.gates] == [0]
    assert r.constant_count == 0


def test_c3_half_adder_five_lines_equivalent_bijective_under_1s():
    start = time.perf_counter()
    c, slotted = pipeline(HALF_ADDER_BLIF)
    rev = convert_circuit(slotted)
    assert rev.width == 5
    report = check_equivalence(c, rev)
    assert report.equivalent
    assert (report.checked, report.mode) == (4, "exhaustive")
    assert check_bijectivity(rev) is None
    assert time.perf_counter() - start < 1.0


def test_c4_two_stage_example_slots_with_pass_through():
    text = "\n".join([
        ".model staged",
        ".inputs A B C D E",
        ".outputs H I",
        ".names A B F",
        "11 1",
        ".names C D G",
        "01 1",
        "10 1",
        "11 1",
        ".names F H",
        "0 1",
        ".names G E I",
        "01 1",
        "10 1",
        ".end",
    ])
    slotted = slot_circuit(insert_copiers(parse_blif(text)))
    assert len(slotted.slots) == 3
    assert slotted.slots[0].nets == ("A", "B", "C", "D", "E")
    assert slotted.slots[1].gates == (0, 1)
    assert slotted.slots[2].gates == (2, 3)
    # E is not consumed in the first stage; it rides through slot 1
    assert slotted.slots[1].nets == ("F", "G", "E")
    assert slotted.slots[2].nets == ("H", "I")


def test_c5_fanout_prep_on_200_random_circuits_under_5s():
    start = time.perf_counter()
    for c in random_suite():
        report = fanouts(c)
        p = insert_copiers(c)
        assert fanouts(p) == []
        copies = sum(d - 1 for _, d in report)
        assert len(p.gates) == len(c.gates) + copies
        assert same_function(c, p)
    assert time.perf_counter() - start < 5.0


def test_c6_full_pipeline_on_200_random_circuits_under_5s():
    start = time.perf_counter()
    failures = []
    for c in random_suite():
        rev = convert_circuit(slot_circuit(insert_copiers(c)))
        if not check_equivalence(c, rev).equivalent:
            failures.append((c.name, "equivalence"))
        if rev.width <= 16 and check_bijectivity(rev) is not None:
            failures.append((c.name, "bijectivity"))
    assert failures == []
    assert time.perf_counter() - start < 5.0


def test_c7_parsers_and_writers_round_trip():
    # plain circuits: parse/write identity and byte stability
    for text in (HALF_ADDER_BLIF, *(single_gate_blif(k) for k in PLAIN_KINDS)):
        c = parse_blif(text)
        written = write_intermediate(c)
        assert parse_blif(written) == c
        assert write_intermediate(parse_blif(written)) == written

    # intermediate circuits with COPY gates
    p = insert_copiers(parse_blif(HALF_ADDER_BLIF))
    written = write_intermediate(p)
    assert parse_intermediate(written) == p
    assert write_intermediate(parse_intermediate(written)) == written

    # reversible netlists
    for seed in range(12):
        c = gen_random_circuit(seed, 1 + seed % 4, 1 + seed % 6)
        rev = convert_circuit(slot_circuit(insert_copiers(c)))
        written = write_real(rev)
        assert parse_real(written) == rev
        assert write_real(parse_real(written)) == written


def test_c8_quantum_cost_accounting():
    two_feynman = RevCircuit(
        "ff", (Line("a"), Line("b"), Line("c")), (t2(0, 1), t2(1, 2))
    )
    assert stats(two_feynman).quantum_cost == 2

    expected_cost = {
        K.NOT: 1, K.AND: 5, K.NAND: 5, K.OR: 9, K.NOR: 9, K.XOR: 1, K.XNOR: 2,
    }
    for kind, cost in expected_cost.items():
        _, slotted = pipeline(single_gate_blif(kind))
        assert stats(convert_circuit(slotted)).quantum_cost == cost, kind.name


def test_c9_unsupported_inputs_fail_loudly(tmp_path, capsys):
    loop = tmp_path / "loop.blif"
    loop.write_text("\n".join([
        ".model loop",
        ".inputs a",
        ".outputs y",
        ".names a q p",
        "11 1",
        ".names p q",
        "0 1",
        ".names p y",
        "0 1",
        ".end",
    ]))
    assert main(["convert", str(loop), "-o", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[3]:")
    assert "g0" in err and "g1" in err

    wide = tmp_path / "wide.blif"
    wide.write_text(
        ".model w\n.inputs a b c\n.outputs y\n.names a b c y\n111 1\n.end\n"
    )
    assert main(["convert", str(wide), "-o", "-"]) == 3
    assert "error[3]:" in capsys.readouterr().err

    odd = tmp_path / "odd.blif"
    odd.write_text(".model o\n.inputs a b\n.outputs y\n.names a b y\n10 1\n.end\n")
    assert main(["convert", str(odd), "-o", "-"]) == 3
    assert "unrecognized cover" in capsys.readouterr().err


def test_c10_reverse_declared_chain_converts_under_1s(tmp_path):
    # 3000 slots of one gate each: slotting must not rescan every gate
    # once per slot
    blif = tmp_path / "chain.blif"
    real = tmp_path / "chain.real"
    blif.write_text(not_chain_blif(3000))
    start = time.perf_counter()
    assert main(["convert", str(blif), "-o", str(real)]) == 0
    assert time.perf_counter() - start < 1.0
    assert real.read_text() == not_chain_real(3000)


def test_c11_buffer_chain_parses_under_1s():
    # every NOT reads the end of an alias chain; resolving each chain from
    # its start is quadratic in the chain length
    text = buffer_chain_blif(10000)
    start = time.perf_counter()
    c = parse_blif(text)
    assert time.perf_counter() - start < 1.0
    assert len(c.gates) == 10000
    assert all(g.kind is K.NOT and g.inputs == ("a",) for g in c.gates)
