"""Golden digests of the compiler's byte-exact output.

Each test hashes what the CLI or the API produces over a fixed family of
seeded circuits and compares the sha256 with the digest the current
output was first recorded with.  A mismatch means some output byte
changed: the .real text, a trace or slot line, a cycle witness or an
error message.
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
    write_intermediate,
)
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


CLI_DIGEST = "2c914bf6c84eb0434f73ce4faeceb995d75dee8fed23a395dea0f80d90070130"
CYCLE_DIGEST = "16b91692163fc450a03f1154b35677bfe03a2444b6813fd32b27777ae590fc3c"
