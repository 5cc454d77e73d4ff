"""Golden digests of the compiler's byte-exact output.

Each test hashes what the CLI or the API produces over a fixed family of
seeded circuits and compares the sha256 with the digest the current
output was first recorded with.  A mismatch means some output byte
changed: the .real text, a trace or slot line, a cycle witness, a
violation list or an error message.
"""

import contextlib
import hashlib
import io
import random

from revmap import (
    IrCircuit,
    IrGate,
    IrGateKind,
    UnsupportedError,
    detect_cycles,
    gen_random_circuit,
    insert_copiers,
    validate_circuit,
    write_intermediate,
)
from revmap.blif import _EMIT_ROWS as EMIT_ROWS
from revmap.cli import main

COMMANDS = (
    ["convert", "-o", "-", "--trace"],
    ["convert", "-o", "-", "--trace", "--no-restore-controls"],
    ["slots"],
)


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{code}\n{out.getvalue()}"


def test_cli_output_digest(tmp_path):
    digest = hashlib.sha256()
    src = tmp_path / "c.blif"
    for seed in range(40):
        c = gen_random_circuit(seed, 1 + seed % 7, seed * 3 % 61)
        src.write_text(write_intermediate(c))
        for command in COMMANDS:
            argv = [command[0], str(src), *command[1:]]
            digest.update(cli_output(argv).encode())
    assert digest.hexdigest() == CLI_DIGEST


def random_graph(rng):
    """A small circuit whose gates may read any net, so it may be cyclic."""
    inputs = tuple(f"i{k}" for k in range(rng.randrange(1, 4)))
    kinds = [rng.choice(list(IrGateKind)) for _ in range(rng.randrange(1, 9))]
    wires = iter(f"w{k}" for k in range(2 * len(kinds)))
    outs = [tuple(next(wires) for _ in range(k.n_outputs)) for k in kinds]
    nets = [*inputs, *(net for o in outs for net in o)]
    gates = tuple(
        IrGate(k, tuple(rng.choice(nets) for _ in range(k.n_inputs)), o)
        for k, o in zip(kinds, outs)
    )
    return IrCircuit("g", inputs, tuple(rng.sample(nets, 2)), gates)


def test_cycle_witness_digest():
    digest = hashlib.sha256()
    rng = random.Random(7)
    for _ in range(1500):
        c = random_graph(rng)
        try:
            insert_copiers(c)
            message = "-"
        except UnsupportedError as exc:  # FeedbackError among them
            message = str(exc)
        digest.update(f"{detect_cycles(c)} {message}\n".encode())
    assert digest.hexdigest() == CYCLE_DIGEST


def aliased_blif(seed):
    """BLIF text of a seeded circuit with buffer covers and read outputs.

    gen_random_circuit never lists a net that gates read in .outputs and
    never writes a buffer; here some read gate outputs are primary
    outputs, some gate pins and outputs read a chain of one or two
    buffers, and some buffers are read by nothing.
    """
    rng = random.Random(seed)
    c = gen_random_circuit(seed, 1 + seed % 5, 4 + seed % 23)
    read = [net for g in c.gates for net in g.inputs if net.startswith("w")]
    outputs = list(c.outputs)
    for net in rng.sample(read, min(len(read), 1 + seed % 3)):
        if net not in outputs:
            outputs.append(net)
    buffers = []

    def alias(net):
        for _ in range(rng.randrange(1, 3)):
            name = f"b{len(buffers)}"
            buffers.append((net, name))
            net = name
        return net

    lines = [f".model alias{seed}", " ".join((".inputs", *c.inputs))]
    body = []
    for g in c.gates:
        ins = [alias(n) if rng.random() < 0.3 else n for n in g.inputs]
        body.append(" ".join((".names", *ins, g.outputs[0])))
        body.extend(f"{row} 1" for row in EMIT_ROWS[g.kind])
    outputs = [alias(n) if rng.random() < 0.2 else n for n in outputs]
    for k in range(seed % 3):
        buffers.append((rng.choice(c.inputs), f"u{k}"))
    lines.append(" ".join((".outputs", *outputs)))
    lines.extend(body)
    for src, name in rng.sample(buffers, len(buffers)):
        lines.extend((f".names {src} {name}", "1 1"))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def test_aliased_output_digest(tmp_path):
    # covers insert_copiers' output rename and the buffer alias resolution
    digest = hashlib.sha256()
    src = tmp_path / "c.blif"
    for seed in range(60):
        src.write_text(aliased_blif(seed))
        for command in (COMMANDS[0], COMMANDS[2]):
            argv = [command[0], str(src), *command[1:]]
            digest.update(cli_output(argv).encode())
    assert digest.hexdigest() == ALIAS_DIGEST


def malformed_circuit(rng):
    """A small circuit with bad names, wrong arities and bad wiring."""
    names = ["a", "b", "c", "w0", "w1", "w2", "", "x y", "t\t", "a"]
    kinds = list(IrGateKind)

    def pick(n):
        return tuple(rng.choice(names) for _ in range(n))

    gates = tuple(
        IrGate(k, pick(k.n_inputs + rng.choice((0, 0, 0, 1, -1))),
               pick(k.n_outputs + rng.choice((0, 0, 0, 1, -1))))
        for k in (rng.choice(kinds) for _ in range(rng.randrange(0, 7)))
    )
    return IrCircuit("m", pick(rng.randrange(0, 4)), pick(rng.randrange(0, 4)),
                     gates)


def test_violation_list_digest():
    digest = hashlib.sha256()
    rng = random.Random(11)
    for _ in range(1500):
        found = validate_circuit(malformed_circuit(rng))
        digest.update(("; ".join(map(str, found)) + "\n").encode())
    assert digest.hexdigest() == VIOLATION_DIGEST


CLI_DIGEST = "2c914bf6c84eb0434f73ce4faeceb995d75dee8fed23a395dea0f80d90070130"
CYCLE_DIGEST = "16b91692163fc450a03f1154b35677bfe03a2444b6813fd32b27777ae590fc3c"
ALIAS_DIGEST = "5c62fb34a79bf4ceb50c747f6343952091e0aa1952099c84c7ce3b0f50727da7"
VIOLATION_DIGEST = "43e1ffe46a7b071233b8814c53dc1893b014ce160c48e12dac1723a8062d5ef3"
