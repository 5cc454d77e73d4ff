"""Run one command corpus through the CLI of two checkouts and compare.

    python tools/differential.py OLD NEW

OLD and NEW are checkout roots, each holding src/revmap.  The corpus is
built once, from this checkout's tests, bench/corpus.py and revmap's
gen_random_circuit, and written to a scratch directory:

- the 200 acceptance seeds, gen_random_circuit(s, 1 + s % 8, s % 13),
  each also with its gates reversed and with them shuffled (seeded), so
  that gates are declared before their drivers;
- the four compile_deep circuits of seed 11 (32x32 multiplier, 256-bit
  adder, 32 inputs and 8000 random gates, a 3000-NOT chain);
- the BLIF samples of tests/samples.py and a NOT-chain .real;
- the BLIF and .real texts of the tests' tables: every str holding
  '.model' or '.begin' among the module-level values of tests/test_*.py
  and the arguments of their pytest.mark.parametrize tables;
- seeded one-token mutants of every BLIF and .real text above, but not
  of the reordered seeds, their .real files or the compile_deep BLIFs: a
  token deleted, repeated, or replaced by another of the text or by a
  word of either format.

Each BLIF runs through convert (plain, --trace, --no-restore-controls),
prep, slots, verify against its .real (default and --samples 8), and sim;
each .real through stats and sim; each seed through gen.  Every checkout
runs the whole list in one interpreter of its own, through
revmap.cli.main, and records each command's exit code, stdout, stderr
(or the exception that escaped) and the SHA-256 of the file it wrote.

Prints the command count and "no difference" (exit 0), or the first
command whose records differ, with both records (exit 1).  Each child
interpreter runs this file as ``differential.py --run ROOT COMMANDS
RESULTS``.
"""

import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE_SEEDS = 200
DEEP_SEED = 11  # the benchmark's seed; picks the random circuit's gen seed
MUTANTS = 4  # per small BLIF and .real text
# words of either format a mutant may put in place of a token
VOCABULARY = (
    ".model", ".inputs", ".outputs", ".names", ".copy", ".latch", ".end",
    ".begin", ".numvars", ".variables", ".constants", ".garbage", "t0", "t1",
    "t2", "t3", "t4", "0", "1", "-", "01", "11", "1-", "#", "\\", "x",
)


def one_token_mutant(text, rng):
    """text with one whitespace-separated token deleted, repeated or
    replaced."""
    tokens = list(re.finditer(r"\S+", text))
    if not tokens:
        return text
    at = rng.choice(tokens)
    word = at.group()
    op = rng.randrange(4)
    if op == 0:
        word = ""
    elif op == 1:
        word = f"{word} {word}"
    elif op == 2:
        word = rng.choice(tokens).group()
    else:
        word = rng.choice(VOCABULARY)
    return text[:at.start()] + word + text[at.end():]


def _strings(value):
    """The strs in value, walking into lists, tuples and dict values."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _strings(item)


def table_texts():
    """The BLIF texts and the .real texts in the tests' tables, each list
    in file and table order, without repeats."""
    import importlib

    texts = {}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        module = importlib.import_module(path.stem)
        for value in vars(module).values():
            if callable(value):
                for mark in getattr(value, "pytestmark", ()):
                    texts.update(dict.fromkeys(_strings(mark.args)))
            texts.update(dict.fromkeys(_strings(value)))
    reals = [text for text in texts if ".begin" in text]
    blifs = [text for text in texts if ".model" in text and ".begin" not in text]
    return blifs, reals


def build_corpus(indir):
    """Write the corpus's files to indir; return the commands, each an
    argv for cli.main."""
    for sub in ("src", "tests", "bench"):
        sys.path.insert(0, str(ROOT / sub))
    import corpus
    import samples
    from revmap import (
        IrCircuit,
        convert_circuit,
        gen_random_circuit,
        insert_copiers,
        parse_intermediate,
        parse_real,
        slot_circuit,
        write_intermediate,
        write_real,
    )
    from revmap.errors import RevmapError

    blifs = {}  # name -> BLIF text
    reordered = {}  # name -> BLIF text of a seed with its gates reordered
    gens = []  # (name, gen argv tail)
    for seed in range(ACCEPTANCE_SEEDS):
        size = (1 + seed % 8, seed % 13)
        c = gen_random_circuit(seed, *size)
        blifs[f"seed{seed}"] = write_intermediate(c)
        shuffled = list(c.gates)
        random.Random(seed).shuffle(shuffled)
        for suffix, gates in (("rev", c.gates[::-1]), ("shuf", shuffled)):
            reordered[f"seed{seed}_{suffix}"] = write_intermediate(
                IrCircuit(c.name, c.inputs, c.outputs, gates))
        gens.append((f"seed{seed}", [seed, *size]))
    deep_seed = random.Random(DEEP_SEED).randrange(1 << 30)
    deep = {
        "mul32": corpus.multiplier(32),
        "add256": corpus.adder(256),
        "rand32x8000": write_intermediate(gen_random_circuit(deep_seed, 32, 8000)),
        "chain3000": corpus.not_chain(3000),
    }
    gens.append(("rand32x8000", [deep_seed, 32, 8000]))
    blifs.update({
        "and": samples.AND_BLIF,
        "half_adder": samples.HALF_ADDER_BLIF,
        "feedback": samples.FEEDBACK_BLIF,
        "not_chain40": samples.not_chain_blif(40),
        "buffers1": samples.buffer_chain_blif(1),
        "buffers8": samples.buffer_chain_blif(8),
        **{f"one_{k.value}": samples.single_gate_blif(k)
           for k in samples.CANONICAL_ROWS},
    })
    reals = {"not_chain_real40": samples.not_chain_real(40)}
    known = {*blifs.values(), *reals.values()}
    table_blifs, table_reals = table_texts()
    blifs.update((f"table{k}", text) for k, text in enumerate(table_blifs)
                 if text not in known)
    reals.update((f"table_real{k}", text) for k, text in enumerate(table_reals)
                 if text not in known)
    widths = {}  # name -> primary input count, for sim's bits
    for name, text in reals.items():
        try:
            widths[name] = len(parse_real(text).primary_inputs)
        except RevmapError:
            continue

    def convert_each(texts):
        for name, text in texts.items():
            try:
                c = parse_intermediate(text)
                reals[name] = write_real(
                    convert_circuit(slot_circuit(insert_copiers(c))))
            except RevmapError:
                continue
            widths[name] = len(c.inputs)

    convert_each({**blifs, **deep})

    # mutants of the small texts; each keeps its original's partner file
    # and width
    partner = {}
    for texts, suffix in ((blifs, "blif"), (reals, "real")):
        for name, text in list(texts.items()):
            rng = random.Random(f"{name}.{suffix}")
            for k in range(MUTANTS):
                mutant = f"{name}_m{k}"
                texts[mutant] = one_token_mutant(text, rng)
                partner[mutant] = name
    convert_each(reordered)
    blifs.update(deep)
    blifs.update(reordered)

    def path(name, suffix):
        return str(indir / f"{name}.{suffix}")

    for texts, suffix in ((blifs, "blif"), (reals, "real")):
        for name, text in texts.items():
            Path(path(name, suffix)).write_text(text)

    commands = []
    for name, args in gens:
        commands.append(["gen", "--seed", str(args[0]), "--inputs", str(args[1]),
                         "--gates", str(args[2]), "-o", f"{name}.gen.blif"])
    for name in blifs:
        source = partner.get(name, name)
        blif = path(name, "blif")
        commands += [
            ["convert", blif, "-o", f"{name}.real"],
            ["convert", blif, "-o", f"{name}.trace.real", "--trace"],
            ["convert", blif, "-o", f"{name}.plain.real", "--no-restore-controls"],
            ["prep", blif, "-o", f"{name}.prep.blif"],
            ["slots", blif],
        ]
        if source in reals:
            real = path(source, "real")
            commands += [["verify", blif, real],
                         ["verify", blif, real, "--samples", "8"]]
        if source in widths:
            bits = random.Random(name).getrandbits(widths[source])
            commands.append(["sim", blif, "--input",
                             format(bits, f"0{widths[source]}b")])
    for name in reals:
        source = partner.get(name, name)
        real = path(name, "real")
        commands.append(["stats", real])
        if source in widths:
            bits = random.Random(name).getrandbits(widths[source])
            commands.append(["sim", real, "--input",
                             format(bits, f"0{widths[source]}b")])
        if source in blifs:
            commands.append(["verify", path(source, "blif"), real])
    return commands


def _digest_or_text(text):
    if len(text) <= 400:
        return text
    return f"{text[:200]}... sha256 {hashlib.sha256(text.encode()).hexdigest()}"


def run(root, commands_file, results_file):
    """Run each command through root's cli.main in the current directory;
    write one record per command to results_file."""
    sys.path.insert(0, str(Path(root, "src")))
    from revmap.cli import main

    records = []
    for argv in json.loads(Path(commands_file).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except BaseException as exc:  # noqa: BLE001 - a traceback is a result
                code = f"raised {type(exc).__name__}: {exc}"
        digest = None
        if "-o" in argv:
            written = Path(argv[argv.index("-o") + 1])
            if written.exists():
                digest = hashlib.sha256(written.read_bytes()).hexdigest()
                written.unlink()
        # long outputs, such as a large circuit's slot table, by digest
        records.append([code, *map(_digest_or_text, (out.getvalue(), err.getvalue())),
                        digest])
    Path(results_file).write_text(json.dumps(records))


def main(argv):
    if len(argv) == 4 and argv[0] == "--run":
        run(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkouts = [Path(a).resolve() for a in argv]
    for root in checkouts:
        if not (root / "src" / "revmap" / "cli.py").is_file():
            print(f"{root}: no src/revmap/cli.py", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        tmp = Path(tmp)
        indir = tmp / "in"
        indir.mkdir()
        commands = build_corpus(indir)
        commands_file = tmp / "commands.json"
        commands_file.write_text(json.dumps(commands))
        results = []
        for k, root in enumerate(checkouts):
            workdir = tmp / f"out{k}"
            workdir.mkdir()
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--run",
                 str(root), str(commands_file), str(tmp / f"results{k}.json")],
                cwd=workdir, check=True,
            )
            print(f"{root}: {len(commands)} commands in "
                  f"{time.perf_counter() - start:.1f} s")
            results.append(json.loads((tmp / f"results{k}.json").read_text()))
    for argv, old, new in zip(commands, *results):
        if old != new:
            print("first difference: revmap " + " ".join(argv))
            for root, record in zip(checkouts, (old, new)):
                code, out, err, digest = record
                print(f"  {root}: exit {code}, file sha256 {digest}")
                print(f"    stdout {out!r}")
                print(f"    stderr {err!r}")
            return 1
    print(f"{len(commands)} commands: no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
