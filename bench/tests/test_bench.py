"""Tests of the benchmark's own code: generators, oracle, mutants, tracer.

    python3 -m pytest bench/tests -q
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import revmap  # noqa: E402
import revmap.cli  # noqa: E402


def _values(text, samples, seed):
    blif = oracle.parse_blif(text)
    words, count = oracle.assignment_words(blif.inputs, samples, seed)
    return oracle.eval_blif(blif, words, (1 << count) - 1), count


@pytest.mark.parametrize("n", [1, 2, 6, 64, 256])
def test_adder_adds(n):
    values, count = _values(corpus.adder(n), 64, n)
    a, b = [f"a{k}" for k in range(n)], [f"b{k}" for k in range(n)]
    s = [f"s{k}" for k in range(n + 1)]
    for k in range(count):
        x, y = oracle.unsigned(values, a, k), oracle.unsigned(values, b, k)
        assert oracle.unsigned(values, s, k) == x + y


@pytest.mark.parametrize("n", [2, 3, 6, 16, 32])
def test_multiplier_multiplies(n):
    values, count = _values(corpus.multiplier(n), 64, n)
    a, b = [f"a{k}" for k in range(n)], [f"b{k}" for k in range(n)]
    p = [f"p{k}" for k in range(2 * n)]
    for k in range(count):
        x, y = oracle.unsigned(values, a, k), oracle.unsigned(values, b, k)
        assert oracle.unsigned(values, p, k) == x * y


def test_chain_is_declared_backwards_and_keeps_parity():
    text = corpus.not_chain(5)
    assert text.splitlines()[3] == ".names n4 y"
    values, _ = _values(text, 0, 0)
    assert values["y"] == values["x"] ^ 0b11


def test_counting_order_puts_the_first_input_high():
    words, count = oracle.exhaustive_words(["p", "q", "r"])
    assert count == 8
    assert [oracle.bits_of(words, ["p", "q", "r"], k) for k in range(8)] == [
        format(k, "03b") for k in range(8)
    ]


def test_oracle_self_test_and_buffer_aliases(tmp_path):
    oracle.self_test()
    blif = oracle.parse_blif(corpus.adder(3))
    assert blif.resolve("s3") == "rc2"
    src, real = tmp_path / "add3.blif", tmp_path / "add3.real"
    src.write_text(corpus.adder(3))
    assert revmap.cli.main(["convert", str(src), "-o", str(real)]) == 0
    parsed = oracle.parse_real(real.read_text())
    assert "rc2" in parsed.outputs and "s3" not in parsed.outputs
    assert oracle.check_real(blif, parsed) == 64


def test_oracle_catches_a_broken_real():
    blif = oracle.parse_blif(oracle.HALF_ADDER_BLIF)
    real = oracle.parse_real(oracle.HALF_ADDER_REAL)
    real.gates = real.gates[:-1]  # drop the Toffoli that computes c
    assert oracle.first_mismatch(blif, real) == 3
    with pytest.raises(oracle.OracleError):
        oracle.check_real(blif, real)
    assert oracle.confirms_witness(blif, real, "11")
    assert not oracle.confirms_witness(blif, real, "01")


def test_narrow_trees_have_twenty_lines(tmp_path):
    for seed in range(3):
        src, real = tmp_path / "n.blif", tmp_path / "n.real"
        src.write_text(corpus.narrow_tree(random.Random(seed)))
        assert revmap.cli.main(["convert", str(src), "-o", str(real)]) == 0
        assert len(oracle.parse_real(real.read_text()).variables) == 20


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_mutant_is_inequivalent(tmp_path, seed, capsys):
    ops = workloads.refute_mutants(seed, tmp_path, revmap.cli.main)
    mutants = [op for op in ops if op.kind == "verify"]
    # half adder: depth 0 only; mul4: 0, 16, 128; the 12-input ones: all five
    depths = len(workloads.REFUTE_DEPTHS)
    assert len(mutants) == 1 + 3 + depths * (1 + workloads.RANDOM_ORIGINALS)
    for op in mutants:
        assert op.expect == 1
        real = oracle.parse_real(op.real.read_text())
        first = oracle.first_mismatch(op.source.parsed, real)
        assert first is not None
        assert any(abs(first - d) <= d / 8 for d in workloads.REFUTE_DEPTHS)


def test_a_pass_takes_each_distinct_commands_median():
    a, b, c = (workloads.Op(kind, [], None, None) for kind in ("convert", "convert", "verify"))
    ops = [a, c, b, a]  # a runs twice a round
    rounds = [[1.0, 5.0, 2.0, 3.0], [2.0, 7.0, 2.0, 9.0]]
    # a took 1, 3, 2 and 9 s (median 2.5), b 2 and 2, c 5 and 7
    assert run.pass_seconds(ops, rounds, "convert") == 2.5 + 2.0
    assert run.pass_seconds(ops, rounds, "verify") == 6.0


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "revmap" or name.startswith("revmap.")
        for attr, value in vars(module).items()
    }


def test_tracer_puts_every_attribute_back(tmp_path):
    before = _bindings()
    src, real = tmp_path / "ha.blif", tmp_path / "ha.real"
    src.write_text(oracle.HALF_ADDER_BLIF)
    tracer = Tracer(revmap)
    with pytest.raises(RuntimeError):
        with tracer:
            assert revmap.cli.check_equivalence is not before[("revmap.cli", "check_equivalence")]
            assert revmap.cli.main(["convert", str(src), "-o", str(real)]) == 0
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    self_s, calls = tracer.layers()
    assert calls["cli.main"] == 1 and calls["ir.validate_circuit"] >= 1
    assert tracer.commands == [f"convert {src} -o {real}"]
    assert tracer.counts["convert.ancillas"] == 3


def test_self_times_add_up_to_the_commands():
    tracer = Tracer(revmap)
    with tracer:
        revmap.cli.main(["gen", "--seed", "1", "--inputs", "3", "--gates", "4", "-o", "-"])
    self_s, _ = tracer.layers()
    roots = sum(e - s for _, s, e, parent, _ in tracer.spans if parent < 0)
    assert sum(self_s.values()) == pytest.approx(roots)


def _run(cwd, *args):
    argv = [sys.executable, "bench/run.py", "--workload", "refute_mutants",
            "--seed", "5", "--seconds", "0", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    done = _run(ROOT, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_run_fails_when_a_traced_function_is_renamed(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copytree(ROOT / "src" / "revmap", tmp_path / "src" / "revmap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in (tmp_path / "src" / "revmap").glob("*.py"):
        text = path.read_text()
        path.write_text(re.sub(r"\bdetect_cycles\b", "find_cycles", text))
    done = _run(tmp_path, "--trace", "1")
    assert done.returncode != 0
    assert "ir.detect_cycles.self_s" in done.stderr
    assert '"metrics"' not in done.stdout
