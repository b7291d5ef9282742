"""The benchmark under bench/ wraps package functions by module attribute.
A rename must fail here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import grouptrain.cli as cli
import grouptrain.tuning as tuning

_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_name_the_benchmark_wraps_is_bound_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    # bench/hostspeed.py's TrainingTimer times `train` as cli and tuning bind it.
    names = [(m, name) for m, name, *_ in layers._WRAPS] + [(cli, "train"), (tuning, "train")]
    unbound = [f"{m.__name__}.{name}" for m, name in names
               if not callable(getattr(m, name, None))]
    assert unbound == []
