"""The benchmark under bench/ and the scripts under tools/ wrap or import
package functions by name. A rename must fail here, not only when the
benchmark or a tool runs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import grouptrain.cli as cli
import grouptrain.trainers as trainers
import grouptrain.tuning as tuning

_ROOT = Path(__file__).resolve().parents[1]
_LAYERS = _ROOT / "bench" / "layers.py"


def _load(path, name):
    """Run a script's top level (its imports and definitions) as a module."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_wraps_is_bound_to_a_callable():
    layers = _load(_LAYERS, "bench_layers")
    # bench/hostspeed.py's TrainingTimer times `train` as cli and tuning bind it.
    names = [(m, name) for m, name, *_ in layers._WRAPS] + [(cli, "train"), (tuning, "train")]
    unbound = [f"{m.__name__}.{name}" for m, name in names
               if not callable(getattr(m, name, None))]
    assert unbound == []


def test_the_private_names_ab_timer_swaps_are_bound_to_callables():
    # tools/ab_timer.py replaces them to count steps and orders and time the loop.
    assert callable(getattr(trainers, "_step", None))
    assert callable(getattr(trainers, "_weighted_sgd", None))
    assert callable(getattr(trainers, "_rng", None))


def test_training_digest_is_pinned(capsys):
    # Every training output bit: a change that alters any of them updates
    # this value and calls itself a behaviour change.
    _load(_ROOT / "tools" / "training_digest.py", "training_digest").main()
    assert capsys.readouterr().out == (
        "a9f5d66ddceb140e4145079ead69f139cde2475e4be971d64d6a0a6ace6c88ba  131 runs\n")


def test_ab_timer_runs_and_counts_the_lone_erm_steps():
    # One calibration round of the smallest workload: the A/B timer must
    # keep running, and counting steps, as the loop's internals move.
    done = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "ab_timer.py"), str(_ROOT), "--calibrate",
         "--rounds", "1", "--workload", "lone:erm"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    (row,) = [line for line in done.stdout.splitlines() if line.startswith("lone:erm")]
    # Steps, model rows, epoch orders and batch rows gathered (10 epochs
    # of 3000 rows).
    assert row.split()[-5:-1] == ["470/470", "470/470", "10/10", "30000/30000"]
