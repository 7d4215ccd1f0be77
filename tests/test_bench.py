"""The benchmark's tracer against the package it wraps."""

import importlib.util
from pathlib import Path

import holonorm.metrics as mt

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name():
    # install looks every name of LAYERS up and fails on a missing one
    tracer = _load_tracer()
    upper = mt.kobayashi_upper
    t = tracer.Tracer()
    t.install()
    try:
        assert mt.kobayashi_upper is not upper
    finally:
        t.uninstall()
    assert mt.kobayashi_upper is upper
    for layer in tracer.LAYERS.values():
        for owner, names in layer:
            for name in names:
                assert not hasattr(owner.__dict__[name], "__wrapped__")
