"""One sha256 over what training produces, for checking that a change to the
training code keeps every output bit.

It hashes the parameters of every trajectory model, the per-epoch history
and the extras (`aux`) of:

- the six `REFERENCE_GRIDS` sweeps at 10 epochs, each trained as one
  population, as `grid_sweep` trains it;
- a lone run of each of the 7 algorithms with hidden widths (), (5,) and
  (4, 3);
- a 6-lane ERM population with hidden widths (4, 3), the only case where a
  hidden layer's bias gradient sums several lanes' rows at once;
- a 6-lane LfF population with hidden widths (4, 3) and two gce_q values,
  the only case where the main and bias models of several lanes, with
  hidden layers, step in one stacked call;
- a 6-lane LfF population with batch sizes 64 and 100 and gce_q values
  0.0, 0.5 and 0.7, so that the lanes stepping together at each batch
  length weight their bias models at three different exponents at once.
- a 32-lane population of jtt configs with id_epochs 0-3, two learning
  rates and batch sizes 64 and 100, and the same configs as jtt-dynamic,
  so that configs of both algorithms read shared identification runs at
  every epoch, the initial model included.

Run it against two trees with the same script, and compare the lines:

    PYTHONPATH=<parent>/src python3 tools/training_digest.py
    PYTHONPATH=<change>/src python3 tools/training_digest.py

A few seconds on 2 vCPUs. It uses only `train_population`, the reference
benchmark and the result types, so older trees run it too.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from grouptrain.analysis import ErrorSet
from grouptrain.benchmark import (REFERENCE_GRIDS, REFERENCE_LEARNING_RATES,
                                  reference_config, reference_datasets,
                                  reference_grid_axes)
from grouptrain.models import Model
from grouptrain.trainers import ALGORITHMS, TrainConfig, train_population
from grouptrain.tuning import Grid

SWEEP_EPOCHS = 10
LONE_EPOCHS = 5
HIDDEN = ((), (5,), (4, 3))


def _feed(h, value) -> None:
    """Hash `value` with its type and shape, so that no two values collide."""
    if isinstance(value, Model):
        h.update(b"model")
        _feed(h, value.params)
    elif isinstance(value, ErrorSet):
        h.update(b"error-set %d" % value.source_epoch)
        _feed(h, value.indices)
    elif isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(b"dict %d" % len(value))
        for key in sorted(value, key=repr):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"seq %d" % len(value))
        for item in value:
            _feed(h, item)
    else:  # scalars and strings; repr keeps every float bit
        h.update(f"{type(value).__name__} {value!r}".encode())


def _lone_config(algorithm: str, hidden: tuple[int, ...]) -> TrainConfig:
    base = "jtt" if algorithm == "jtt-dynamic" else algorithm
    cfg = reference_config(base, seed=0)
    extra = {"refresh_every": 2} if algorithm == "jtt-dynamic" else {}
    return dataclasses.replace(cfg, algorithm=algorithm, epochs=LONE_EPOCHS,
                               hidden=hidden, **extra)


def populations() -> list[list[TrainConfig]]:
    """The config lists, each trained as one population."""
    out = []
    for algorithm in REFERENCE_GRIDS:
        base = dataclasses.replace(reference_config(algorithm, seed=0), epochs=SWEEP_EPOCHS)
        out.append(Grid(base, reference_grid_axes(algorithm)).configs())
    out += [[_lone_config(algorithm, hidden)] for algorithm in ALGORITHMS for hidden in HIDDEN]
    hidden_erm = dataclasses.replace(reference_config("erm", seed=0), epochs=LONE_EPOCHS,
                                     hidden=(4, 3))
    out.append(Grid(hidden_erm, {"learning_rate": REFERENCE_LEARNING_RATES,
                                 "l2": (1e-3, 1e-2)}).configs())
    hidden_lff = dataclasses.replace(reference_config("lff", seed=0), epochs=LONE_EPOCHS,
                                     hidden=(4, 3))
    out.append(Grid(hidden_lff, {"learning_rate": REFERENCE_LEARNING_RATES,
                                 "gce_q": (0.5, 0.7)}).configs())
    mixed_lff = dataclasses.replace(reference_config("lff", seed=0), epochs=LONE_EPOCHS)
    out.append(Grid(mixed_lff, {"batch_size": (64, 100), "gce_q": (0.0, 0.5, 0.7)}).configs())
    mixed_jtt = dataclasses.replace(reference_config("jtt", seed=0), epochs=LONE_EPOCHS)
    jtt_grid = Grid(mixed_jtt, {"id_epochs": (0, 1, 2, 3),
                                "learning_rate": REFERENCE_LEARNING_RATES[:2],
                                "batch_size": (64, 100)}).configs()
    out.append(jtt_grid + [dataclasses.replace(cfg, algorithm="jtt-dynamic", refresh_every=2)
                           for cfg in jtt_grid])
    return out


def main() -> None:
    train, val, _ = reference_datasets()
    h = hashlib.sha256()
    runs = 0
    for configs in populations():
        for cfg, result in zip(configs, train_population(train, val, configs)):
            _feed(h, repr(cfg))
            _feed(h, [list(entry) for entry in result.history])
            _feed(h, result.trajectory)
            _feed(h, result.aux)
            runs += 1
    print(f"{h.hexdigest()}  {runs} runs")


if __name__ == "__main__":
    main()
