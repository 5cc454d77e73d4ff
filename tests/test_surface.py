"""The names the benchmark traces stay plain public functions.

The benchmark's tracer wraps only the functions listed in revmap.__all__
(and cli.main) and names each layer <module>.<function>, so renaming,
moving or unlisting a traced function would silently drop its metrics.
Modules also share only a fixed, short list of private names.
"""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

import revmap
from revmap.cli import main
from samples import HALF_ADDER_BLIF

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_layers():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    return sorted({
        m["name"].rsplit(".", 1)[0]
        for m in metrics
        if m["name"].endswith((".self_s", ".calls"))
    })


def test_benchmark_traces_some_layers():
    assert "ir.validate_circuit" in traced_layers()


@pytest.mark.parametrize("layer", traced_layers())
def test_traced_layer_is_a_public_function(layer):
    module, func = layer.split(".")
    fn = getattr(importlib.import_module(f"revmap.{module}"), func)
    assert inspect.isfunction(fn)
    assert fn.__module__ == f"revmap.{module}"
    if layer != "cli.main":
        assert func in revmap.__all__
        assert getattr(revmap, func) is fn


def test_half_adder_commands_enter_every_traced_layer(tmp_path, capsys):
    # a speed-up that stops calling a traced layer leaves the benchmark's
    # trace without that layer's metrics; catch it here, by watching which
    # functions one convert and one verify really enter
    blif = tmp_path / "half_adder.blif"
    real = tmp_path / "half_adder.real"
    blif.write_text(HALF_ADDER_BLIF)
    entered = set()

    def record(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("revmap."):
            entered.add(f"{module[len('revmap.'):]}.{frame.f_code.co_name}")

    sys.setprofile(record)
    try:
        convert = main(["convert", str(blif), "-o", str(real)])
        verify = main(["verify", str(blif), str(real)])
    finally:
        sys.setprofile(None)
    assert (convert, verify) == (0, 0)
    assert [layer for layer in traced_layers() if layer not in entered] == []


SRC = Path(__file__).resolve().parents[1] / "src" / "revmap"


def private_imports():
    """(importing module, imported module, name) for each private import."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update(
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    return found


def test_modules_share_only_these_private_names():
    assert private_imports() == {
        ("fanout", "ir", "_fresh_names"),
        ("fanout", "ir", "_ir_circuit"),
        ("blif", "ir", "_ir_circuit"),
        ("sim", "ir", "_ir_circuit"),
        ("convert", "ir", "_fresh_names"),
        ("convert", "ir", "_rev_circuit"),
        ("realfmt", "ir", "_rev_circuit"),
        ("cli", "realfmt", "_output_labels"),
    }
