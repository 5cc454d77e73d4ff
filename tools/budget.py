"""Count the work of each compile stage on the compile_deep circuits.

    python tools/budget.py [ROOT]

ROOT is a checkout root holding src/revmap (default: this checkout).  The
circuits are the four large ones of the benchmark's compile_deep workload
at seed 11, built from this checkout's bench/corpus.py and revmap's
gen_random_circuit: the 32x32 multiplier, the 256-bit adder, 32 inputs
and 8000 random gates, and the reverse-declared 3000-NOT chain.

Each circuit goes through the stages of a convert and a verify, in
order, all in this one process:

- parse: parse_intermediate of the BLIF text;
- validate: the first check_circuit of the parsed circuit and of the
  copier circuit, each of which builds that circuit's netlist index;
- fanout: insert_copiers;
- slot: slot_circuit;
- convert: convert_circuit;
- write_real and parse_real: the .real text written and read back;
- equivalence: check_equivalence of the parsed circuit against the read
  .real on 8 sampled assignments, seed 11, as compile_deep's verify.

Prints one JSON object: per circuit and stage, the Python opcodes
executed (sys.settrace with f_trace_opcodes), the tracemalloc peak above
the stage's starting size, in bytes, and the memory blocks the stage
leaves allocated (the sys.getallocatedblocks() delta across it), which
counts the objects it builds and keeps, such as one per gate; under
"total", the opcodes and blocks summed over the circuits and the highest
peak.  The three are taken in separate passes, each on freshly parsed
circuits, with the garbage collector paused as cli.main pauses it; the
blocks pass runs last, so that the caches the earlier passes fill are
not counted.  Opcode counts do not depend on the machine's speed, so a
change can state an exact delta beside its timed runs; the interpreter
is re-run with PYTHONHASHSEED=0 so that they do not depend on the hash
seed either.  A peak is exact only for unchanged code: it can move by a
few hundred bytes when an earlier stage leaves the heap in another
state.  A block count repeats to within a block or so.
"""

import gc
import json
import os
import random
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEEP_SEED = 11  # the benchmark's seed; picks the random circuit's gen seed
SAMPLES = 8  # compile_deep's verify --samples
STAGES = ("parse", "validate", "fanout", "slot", "convert", "write_real",
          "parse_real", "equivalence")


def circuits():
    """name -> BLIF text of the four compile_deep circuits."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus
    from revmap import gen_random_circuit, write_intermediate

    deep_seed = random.Random(DEEP_SEED).randrange(1 << 30)
    return {
        "mul32": corpus.multiplier(32),
        "add256": corpus.adder(256),
        "rand32x8000": write_intermediate(gen_random_circuit(deep_seed, 32, 8000)),
        "chain3000": corpus.not_chain(3000),
    }


def pipeline(text):
    """Yield (stage, thunk) for each stage of one circuit; a thunk runs
    its stage and returns what later stages need."""
    from revmap import (
        check_circuit,
        check_equivalence,
        convert_circuit,
        insert_copiers,
        parse_intermediate,
        parse_real,
        slot_circuit,
        write_real,
    )

    got = {}
    yield "parse", lambda: got.setdefault("c", parse_intermediate(text))
    yield "validate", lambda: check_circuit(got["c"])
    yield "fanout", lambda: got.setdefault("p", insert_copiers(got["c"]))
    yield "validate", lambda: check_circuit(got["p"])
    yield "slot", lambda: got.setdefault("s", slot_circuit(got["p"]))
    yield "convert", lambda: got.setdefault("r", convert_circuit(got["s"]))
    yield "write_real", lambda: got.setdefault("text", write_real(got["r"]))
    yield "parse_real", lambda: got.setdefault("read", parse_real(got["text"]))
    yield "equivalence", lambda: check_equivalence(
        got["c"], got["read"], samples=SAMPLES, seed=DEEP_SEED)


def count_opcodes(thunk):
    """The Python opcodes executed by thunk()."""
    count = [0]

    def local(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(enter)
    try:
        thunk()
    finally:
        sys.settrace(None)
    return count[0]


def peak_bytes(thunk):
    """How far tracemalloc's traced size rose above its start in thunk()."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    thunk()
    return tracemalloc.get_traced_memory()[1] - start


def kept_blocks(thunk):
    """How many more memory blocks are allocated after thunk() than before."""
    start = sys.getallocatedblocks()
    thunk()
    return sys.getallocatedblocks() - start


def measure(texts):
    """The JSON object's "circuits": name or "total" -> stage -> counts."""
    result = {name: {stage: {"opcodes": 0, "peak_bytes": 0, "blocks": 0}
                     for stage in STAGES}
              for name in (*texts, "total")}
    tracemalloc.start()
    for name, text in texts.items():
        for stage, thunk in pipeline(text):
            peak = peak_bytes(thunk)
            entry = result[name][stage]
            entry["peak_bytes"] = max(entry["peak_bytes"], peak)
    tracemalloc.stop()
    for name, text in texts.items():
        for stage, thunk in pipeline(text):
            result[name][stage]["opcodes"] += count_opcodes(thunk)
    for name, text in texts.items():
        for stage, thunk in pipeline(text):
            result[name][stage]["blocks"] += kept_blocks(thunk)
    for stage in STAGES:
        total = result["total"][stage]
        for name in texts:
            total["opcodes"] += result[name][stage]["opcodes"]
            total["blocks"] += result[name][stage]["blocks"]
            total["peak_bytes"] = max(total["peak_bytes"], result[name][stage]["peak_bytes"])
    return result


def main(argv):
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else ROOT).resolve()
    if not (root / "src" / "revmap" / "ir.py").is_file():
        print(f"{root}: no src/revmap/ir.py", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, __file__, str(root)], env)
    sys.path.insert(0, str(root / "src"))
    gc.disable()
    texts = circuits()
    print(json.dumps({"root": str(root), "python": sys.version.split()[0],
                      "circuits": measure(texts)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
