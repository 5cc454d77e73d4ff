"""The netlist index: how it decides soundness, on every kind of circuit.

An index decides soundness with set checks and lookups, and runs the
ordered walk, the reference judge, only when one fails: so the set checks
must call a circuit sound exactly when the walk finds no violation, and
validate_circuit must list exactly the walk's violations.  The circuit
insert_copiers derives from its parent gets its index like any other, on
its first validation, and must be judged sound by it; the
test_derived_index_* tests check that index.  The index's levels, order
and cycle witness come from one placement walk, which the test_placement_*
tests hold against a plain reference computed by fixpoints, on gates in
any declaration order and behind loops, and which must stay linear.
"""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revmap.ir
from revmap import (
    PO_SINK,
    IrCircuit,
    IrGate,
    IrGateKind,
    build_netlist,
    detect_cycles,
    gen_random_circuit,
    insert_copiers,
    parse_blif,
    parse_intermediate,
    slot_circuit,
    validate_circuit,
)
from revmap.ir import Violation, _NetIndex, _sound_driver, _walk
from samples import (
    AND_BLIF,
    CANONICAL_ROWS,
    FEEDBACK_BLIF,
    HALF_ADDER_BLIF,
    buffer_chain_blif,
    not_chain_blif,
    single_gate_blif,
)
from test_acceptance import random_suite
from test_golden import aliased_blif, malformed_circuit

K = IrGateKind
FIELDS = ("violations", "driver", "order", "level", "cycle")


def assert_copier_circuit_is_sound(c):
    """insert_copiers(c) is judged sound and acyclic by its memoized index,
    which equals _NetIndex of it in every field, and is idempotent."""
    p = insert_copiers(c)
    memo, fresh = p._index, _NetIndex(p)
    for name in FIELDS:
        assert getattr(memo, name) == getattr(fresh, name), name
    assert list(memo.driver) == list(fresh.driver)  # key order too
    assert memo.violations == () and memo.cycle is None
    assert insert_copiers(p) == p
    return p


def test_derived_index_on_random_circuits():
    for seed in range(300):
        assert_copier_circuit_is_sound(gen_random_circuit(seed, 1 + seed % 9, seed % 41))


def test_derived_index_on_the_acceptance_seeds():
    for c in random_suite():
        assert_copier_circuit_is_sound(c)


def test_derived_index_on_aliased_and_buffered_circuits():
    for seed in range(60):
        assert_copier_circuit_is_sound(parse_blif(aliased_blif(seed)))
    for length in (1, 3, 8):
        assert_copier_circuit_is_sound(parse_blif(buffer_chain_blif(length)))


def test_derived_index_on_samples():
    for text in (AND_BLIF, HALF_ADDER_BLIF, not_chain_blif(40)):
        assert_copier_circuit_is_sound(parse_blif(text))


def test_derived_index_when_a_primary_output_feeds_gates():
    # p is a PO read by three gates: its driver's output is renamed and the
    # chain's first copier gives the PO its name back
    c = IrCircuit("m", ("a", "b"), ("p", "x", "y", "z"), (
        IrGate(K.NOT, ("p",), ("x",)),
        IrGate(K.AND, ("a", "b"), ("p",)),
        IrGate(K.XOR, ("p", "a"), ("y",)),
        IrGate(K.OR, ("b", "p"), ("z",)),
    ))
    p = assert_copier_circuit_is_sound(c)
    (driver,) = [g for g in p.gates if g.kind is K.AND]
    assert driver.outputs == ("p__cp0",)


def test_derived_index_on_primary_input_chains():
    # a and b fan out from the primary inputs, in and out of declaration order
    c = IrCircuit("m", ("a", "b"), ("x", "y", "z", "w"), (
        IrGate(K.AND, ("a", "n"), ("x",)),
        IrGate(K.NOT, ("a",), ("n",)),
        IrGate(K.NAND, ("b", "a"), ("y",)),
        IrGate(K.NOR, ("b", "b"), ("z",)),
        IrGate(K.XNOR, ("b", "a"), ("w",)),
    ))
    p = assert_copier_circuit_is_sound(c)
    assert p.gates[0].kind is K.COPY


def test_derived_index_on_copies_in_the_parent():
    # both outputs of a parent COPY fan out, one of them to a PO
    c = parse_intermediate(
        ".model m\n.inputs a b\n.outputs x p q r s\n.copy a x y\n"
        ".names x b p\n11 1\n.names y b q\n01 1\n10 1\n"
        ".names y r\n0 1\n.names b s\n0 1\n.end\n"
    )
    assert_copier_circuit_is_sound(c)


def test_derived_index_on_reads_before_the_driver():
    # y is a PO read twice by one gate declared before y's COPY, whose
    # other output x fans out too; the chains follow the driver map
    c = IrCircuit("m", ("a", "b"), ("y", "p", "q", "r"), (
        IrGate(K.NOR, ("y", "y"), ("p",)),
        IrGate(K.XOR, ("x", "b"), ("q",)),
        IrGate(K.COPY, ("a",), ("x", "y")),
        IrGate(K.NOT, ("x",), ("r",)),
    ))
    records = build_netlist(c)
    assert (records["x"].source, records["x"].sinks) == (2, ((1, 0), (3, 0)))
    assert (records["y"].source, records["y"].sinks) == (
        2, (PO_SINK, (0, 0), (0, 1)))
    p = assert_copier_circuit_is_sound(c)
    assert p.gates[0].inputs == ("y__cp2", "y__cp3")
    # the COPY's chains follow it in driver order: x's, then y's
    assert [g.inputs for g in p.gates if g.kind is K.COPY] == [
        ("a",), ("x",), ("y__cp0",), ("y__cp1",)]


def test_derived_index_without_fanout():
    c = IrCircuit("m", ("a", "b"), ("z",), (
        IrGate(K.NOT, ("y",), ("z",)),
        IrGate(K.AND, ("a", "b"), ("y",)),
    ))
    p = assert_copier_circuit_is_sound(c)
    assert p == c


def test_derived_index_holds_no_reference_to_its_circuit():
    # neither a parsed circuit's index nor its copier circuit's
    def circuits():
        c = parse_blif(HALF_ADDER_BLIF)
        assert c._index.violations == ()
        yield c
        p = insert_copiers(c)
        assert p._index.violations == ()
        yield p

    for c in circuits():
        assert all(r is not c for r in gc.get_referents(c._index))
    gc.collect()
    gc.disable()
    try:
        list(circuits())
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_the_copier_circuit_is_judged_on_its_first_validation(monkeypatch):
    # the first validation of insert_copiers' output, in slot_circuit, runs
    # the set checks once; every later one is a lookup
    calls = []

    def sound_driver(c):
        calls.append(c)
        return _sound_driver(c)

    p = insert_copiers(gen_random_circuit(7, 4, 30))
    monkeypatch.setattr(revmap.ir, "_sound_driver", sound_driver)
    slot_circuit(p)
    assert calls == [p]
    assert validate_circuit(p) == [] and detect_cycles(p) is None
    assert calls == [p]


@st.composite
def sound_circuits(draw):
    """An acyclic circuit over every gate kind, gates in any order."""
    nets = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    inputs = tuple(nets)
    gates = []
    for k in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(list(K)))
        ins = tuple(draw(st.sampled_from(nets)) for _ in range(kind.n_inputs))
        outs = tuple(f"n{k}_{j}" for j in range(kind.n_outputs))
        gates.append(IrGate(kind, ins, outs))
        nets += outs
    order = draw(st.permutations(range(len(gates))))
    gate_outs = nets[len(inputs):]
    outputs = draw(st.lists(st.sampled_from(gate_outs), unique=True)) if gate_outs else []
    return IrCircuit("h", inputs, tuple(outputs), tuple(gates[i] for i in order))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sound_circuits())
def test_derived_index_property(c):
    assert validate_circuit(c) == []
    assert_copier_circuit_is_sound(c)


def sound_samples():
    """Random circuits and every sample, the cyclic one and the NOT chain too."""
    for seed in range(100):
        yield gen_random_circuit(seed, 1 + seed % 9, seed % 41)
    yield gen_random_circuit(12345, 32, 800)
    for text in (AND_BLIF, HALF_ADDER_BLIF, FEEDBACK_BLIF, not_chain_blif(3000),
                 buffer_chain_blif(8), *map(single_gate_blif, CANONICAL_ROWS)):
        yield parse_blif(text)


def test_a_sound_circuit_never_reaches_the_walk(monkeypatch):
    # the walk is the slow path, for unsound circuits only
    def walk(c):
        raise AssertionError(f"walked the sound circuit {c.name}")

    monkeypatch.setattr(revmap.ir, "_walk", walk)
    for c in sound_samples():
        assert _sound_driver(c) is not None, c.name
        assert _NetIndex(c).violations == ()
        if c._index.cycle is None:
            assert _NetIndex(insert_copiers(c)).violations == ()


# ------------------------------------------- set checks against the walk


def is_key(name, names):
    try:
        return name in names
    except TypeError:  # an unhashable name is never a key
        return False


def walk_finds_nothing(c):
    return not _walk(c)


def set_checks_pass(c):
    driver = _sound_driver(c)
    return driver is not None and all(is_key(n, driver) for g in c.gates for n in g.inputs)


NAMES = ["", " a", "a b", "a\tb", "a\nb", "a\u00a0b", "\u2003", "a\x1cb",
         "a\x1c", None, "a[3]", "n$1", "\u00fc", "a\u200bb", "a", "b", "y",
         "w0", "zz", 5, 1.5, (1,), b"a", ["a"], "b\\", "\\", "a\\b"]


@pytest.mark.parametrize("name", NAMES, ids=lambda name: repr(name)
                         if isinstance(name, bytes) else None)
def test_set_checks_judge_each_name_like_the_walk(name):
    for c in (
        IrCircuit(name, ("a",), ("a",)),
        IrCircuit("m", (name,), (name,)),
        IrCircuit("m", ("a",), ("y",), (IrGate(K.NOT, ("a",), (name,)),
                                        IrGate(K.NOT, (name,), ("y",)))),
        IrCircuit("m", ("a",), (name,), (IrGate(K.NOT, ("a",), (name,)),)),
    ):
        assert set_checks_pass(c) == walk_finds_nothing(c)
        assert (validate_circuit(c) == []) == walk_finds_nothing(c)


def test_set_checks_agree_on_malformed_circuits():
    rng = random.Random(5)
    for _ in range(1500):
        c = malformed_circuit(rng)
        assert set_checks_pass(c) == walk_finds_nothing(c)


def test_validation_is_the_walk_on_malformed_circuits():
    rng = random.Random(6)
    for _ in range(1500):
        c = malformed_circuit(rng)
        assert validate_circuit(c) == _walk(c)


edit = st.tuples(
    st.sampled_from(["rename", "drop", "repeat", "rekind", "output", "input",
                     "model"]),
    st.integers(0, 1000),
    st.sampled_from(NAMES),
    st.sampled_from(list(K)),
)


def mutate(c, edits):
    """c with each edit applied: names swapped, gates dropped or repeated,
    kinds changed without their arity, outputs and inputs added, the model
    renamed."""
    model = c.name
    inputs, outputs, gates = list(c.inputs), list(c.outputs), list(c.gates)
    for op, at, name, kind in edits:
        if op == "rename":
            slots = [(None, "i", k) for k in range(len(inputs))]
            slots += [(None, "o", k) for k in range(len(outputs))]
            slots += [(g, side, k) for g, gate in enumerate(gates)
                      for side in ("inputs", "outputs")
                      for k in range(len(getattr(gate, side)))]
            if not slots:
                continue
            g, side, k = slots[at % len(slots)]
            if g is None:
                (inputs if side == "i" else outputs)[k] = name
            else:
                names = list(getattr(gates[g], side))
                names[k] = name
                fields = {"kind": gates[g].kind, "inputs": gates[g].inputs,
                          "outputs": gates[g].outputs, side: names}
                gates[g] = IrGate(**fields)
        elif op in ("drop", "repeat", "rekind") and gates:
            i = at % len(gates)
            if op == "drop":
                del gates[i]
            elif op == "repeat":
                gates.insert(i, gates[i])
            else:
                gates[i] = IrGate(kind, gates[i].inputs, gates[i].outputs)
        elif op == "output":
            outputs.append(name)
        elif op == "input":
            inputs.append(name)
        elif op == "model":
            model = name
    return IrCircuit(model, inputs, outputs, gates)


BASES = [parse_blif(HALF_ADDER_BLIF), parse_blif(buffer_chain_blif(3)),
         gen_random_circuit(3, 3, 8), insert_copiers(gen_random_circuit(4, 2, 6))]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(BASES), edits=st.lists(edit, max_size=4))
def test_set_checks_agree_with_the_walk(base, edits):
    c = mutate(base, edits)
    assert set_checks_pass(c) == walk_finds_nothing(c)
    assert (validate_circuit(c) == []) == walk_finds_nothing(c)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(BASES), edits=st.lists(edit, max_size=4))
def test_validation_is_the_walk_on_mutated_circuits(base, edits):
    c = mutate(base, edits)
    assert validate_circuit(c) == _walk(c)


# ------------------------------------- placement against a plain reference


def reference(c):
    """The index's order, level and cycle questions answered plainly, for
    a circuit whose set checks pass: (behind, level, cycle), where behind
    is the set of gates that depend, directly or not, on a cycle, level
    maps every other gate to its ASAP level and cycle is detect_cycles'
    documented witness."""
    source = {}
    for i, g in enumerate(c.gates):
        for net in g.outputs:
            source[net] = i
    drivers = [[source[n] for n in g.inputs if n in source] for g in c.gates]
    # the gates each gate depends on, to a fixpoint
    reach = [set(ds) for ds in drivers]
    changed = True
    while changed:
        changed = False
        for i, ds in enumerate(drivers):
            more = set().union(*(reach[d] for d in ds)) - reach[i]
            if more:
                reach[i] |= more
                changed = True
    on_cycle = {i for i in range(len(c.gates)) if i in reach[i]}
    behind = {i for i in range(len(c.gates)) if (reach[i] | {i}) & on_cycle}
    level = {i: 1 for i in range(len(c.gates)) if i not in behind}
    changed = True
    while changed:
        changed = False
        for i in level:
            want = 1 + max((level[d] for d in drivers[i]), default=0)
            if level[i] != want:
                level[i] = want
                changed = True
    cycle = None
    if behind:
        walked = [min(behind)]
        while True:
            node = next(d for d in drivers[walked[-1]] if d in behind)
            if node in walked:
                cycle = tuple(walked[walked.index(node):])
                break
            walked.append(node)
    return behind, level, cycle


def assert_index_matches_reference(c):
    index = _NetIndex(c)
    assert index.violations == tuple(_walk(c)) == ()
    behind, level, cycle = reference(c)
    assert index.cycle == cycle
    assert {i for i, k in enumerate(index.level) if k < 0} == behind
    assert {i: index.level[i] for i in level} == level
    # each placeable gate once, after its drivers
    assert sorted(index.order) == sorted(level)
    placed = set()
    for i in index.order:
        assert all(index.driver[n] is None or index.driver[n] in placed
                   for n in c.gates[i].inputs)
        placed.add(i)


def reordered(c, gates):
    return IrCircuit(c.name, c.inputs, c.outputs, gates)


def with_loop(c, rng):
    """c with one gate input renamed to the output of a later gate, which
    closes a loop whenever that gate depends on the reader."""
    gates = list(c.gates)
    i = rng.randrange(len(gates) - 1)
    j = rng.randrange(i + 1, len(gates))
    g = gates[i]
    ins = list(g.inputs)
    ins[rng.randrange(len(ins))] = gates[j].outputs[0]
    gates[i] = IrGate(g.kind, ins, g.outputs)
    return reordered(c, gates)


def test_placement_matches_the_reference_in_any_declaration_order():
    for seed in range(150):
        c = gen_random_circuit(seed, 1 + seed % 6, seed % 37)
        gates = list(c.gates)
        random.Random(seed).shuffle(gates)
        for variant in (c, reordered(c, c.gates[::-1]), reordered(c, gates)):
            assert_index_matches_reference(variant)


def test_placement_matches_the_reference_behind_injected_loops():
    loops = 0
    for seed in range(200):
        rng = random.Random(seed)
        c = with_loop(gen_random_circuit(seed, 1 + seed % 5, 2 + seed % 30), rng)
        gates = list(c.gates)
        rng.shuffle(gates)
        for variant in (c, reordered(c, c.gates[::-1]), reordered(c, gates)):
            assert_index_matches_reference(variant)
            loops += variant._index.cycle is not None
    assert loops > 100  # most injected renames close a loop


def test_an_undriven_read_behind_a_loop_is_still_found():
    # g1 and g2 form a loop; g0, behind it, and g2 itself read the undriven
    # net u, each as an input the walk would not need for placement
    for second in ("g0", "g2"):
        gates = [
            IrGate(K.AND, ("p", "u" if second == "g0" else "a"), ("y",)),
            IrGate(K.NOT, ("q",), ("p",)),
            IrGate(K.AND, ("p", "u" if second == "g2" else "a"), ("q",)),
        ]
        for order in (gates, gates[::-1]):
            c = IrCircuit("m", ("a",), ("y",), order)
            assert validate_circuit(c) == _walk(c) == [
                Violation("undriven-input", "u")]


class CountedName(str):
    """A net name that counts its hashes: one per driver-map lookup."""

    hashes = 0

    def __hash__(self):
        CountedName.hashes += 1
        return str.__hash__(self)


def counted(c):
    def names(seq):
        return tuple(map(CountedName, seq))

    gates = [IrGate(g.kind, names(g.inputs), names(g.outputs)) for g in c.gates]
    return IrCircuit(c.name, names(c.inputs), names(c.outputs), gates)


def hashes_per_name(c):
    """Hashes of c's names while its index is built, per name mentioned."""
    mentioned = len(c.inputs) + len(c.outputs) + sum(
        len(g.inputs) + len(g.outputs) for g in c.gates)
    CountedName.hashes = 0
    index = _NetIndex(c)
    assert index.violations == ()
    return CountedName.hashes / mentioned


def test_placement_is_linear_in_the_gate_inputs():
    # a reverse-declared chain walks 4000 gates deep, a shuffled random
    # circuit walks often, and a ring puts every gate behind a loop
    chain = parse_blif(not_chain_blif(4000))
    ring = IrCircuit("ring", ("a",), (), [
        IrGate(K.NOT, ((f"w{k - 1}" if k else "w3999"),), (f"w{k}",))
        for k in range(4000)])
    assert ring._index.cycle == (0, *range(3999, 0, -1))
    gates = list(gen_random_circuit(3, 32, 4000).gates)
    random.Random(3).shuffle(gates)
    shuffled = reordered(gen_random_circuit(3, 32, 4000), gates)
    for c in (chain, ring, shuffled):
        assert hashes_per_name(counted(c)) <= 3
