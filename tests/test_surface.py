"""The names the benchmark traces stay plain public functions.

The benchmark's tracer wraps only the functions listed in revmap.__all__
(and cli.main) and names each layer <module>.<function>, so renaming,
moving or unlisting a traced function would silently drop its metrics.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

import revmap

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
