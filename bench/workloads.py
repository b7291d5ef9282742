"""The workloads: the configs they write at set-up, the reference data, the
warm-up command and the commands of one pass.

Every path a command sees is relative to the workload's work directory, so
reports (which embed ``data/train``-style dataset names) are the same bytes
wherever the benchmark runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from grouptrain.benchmark import REFERENCE_GRIDS, reference_config
from grouptrain.config import parse_config
from grouptrain.trainers import ALGORITHMS, JTT, JTT_DYNAMIC

DATA = "data"

# Epochs of every sweep-ref and val-study training, cut from the reference
# 25 so that a run repeats each of their commands about six times.
TUNING_EPOCHS = 10


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `points` is the grid points it delivers."""

    label: str
    argv: tuple[str, ...]
    points: int


def _ini(sections: dict[str, dict]) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            if value is None or value == ():
                continue
            if isinstance(value, (tuple, list)):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _train_all_config(erm, algorithm: str):
    """configs/erm.ini's optimizer settings with the algorithm's fixed fields
    from REFERENCE_GRIDS; jtt-dynamic is jtt refreshed every 5 epochs."""
    fixed = dict(REFERENCE_GRIDS.get(algorithm, ({}, {}))[0])
    if algorithm == JTT_DYNAMIC:
        fixed = dict(REFERENCE_GRIDS[JTT][0], refresh_every=5)
    return dataclasses.replace(erm, algorithm=algorithm, **fixed)


def write_configs(repo: Path) -> dict[str, int]:
    """Write every config the workloads use into ./configs and return the
    grid points each sweep or study config delivers."""
    shipped = repo / "configs"
    out = Path("configs")
    out.mkdir()
    points = {}

    erm = parse_config(shipped / "erm.ini").require("train")
    for algorithm in ALGORITHMS:
        cfg = _train_all_config(erm, algorithm)
        (out / f"train-{algorithm}.ini").write_text(
            _ini({"train": dataclasses.asdict(cfg)}))

    for algorithm, (_, axes) in REFERENCE_GRIDS.items():
        path = out / f"sweep-{algorithm}.ini"
        base = dataclasses.replace(reference_config(algorithm, 0), epochs=TUNING_EPOCHS)
        path.write_text(_ini({"train": dataclasses.asdict(base),
                              "grid": axes, "sweep": {"criterion": "worst-group"}}))
        points[path.name] = len(parse_config(path).grid)

    study = parse_config(shipped / "val-study.ini")
    path = out / "val-study.ini"
    path.write_text(_ini({
        "train": dataclasses.asdict(dataclasses.replace(study.train, epochs=TUNING_EPOCHS)),
        "grid": study.grid.axes,
        "study": {"fractions": study.study.fractions, "seeds": study.study.seeds[:2]},
    }))
    parsed = parse_config(path)
    points[path.name] = len(parsed.grid) * len(parsed.study.fractions) * len(parsed.study.seeds)
    return points


def reference_data_argv(repo: Path) -> list[str]:
    return ["generate", "--config", str(repo / "configs" / "reference-data.ini"), "--out", DATA]


def pass_commands(workload: str, seed: int, points: dict[str, int]) -> list[Command]:
    """The commands of one pass; each gets --out appended when it runs."""
    s = str(seed)
    if workload == "train-all":
        return [Command(f"train:{alg}", ("train", "--config", f"configs/train-{alg}.ini",
                                         "--data", DATA, "--seed", s), 1)
                for alg in ALGORITHMS]
    if workload == "sweep-ref":
        return [Command(f"sweep:{alg}", ("sweep", "--config", f"configs/sweep-{alg}.ini",
                                         "--data", DATA, "--seed", s),
                        points[f"sweep-{alg}.ini"])
                for alg in REFERENCE_GRIDS]
    if workload == "val-study":
        return [Command("val-study", ("val-study", "--config", "configs/val-study.ini",
                                      "--data", DATA, "--seed", s), points["val-study.ini"])]
    raise KeyError(workload)


_WARMUP = {"train-all": "train:erm", "sweep-ref": "sweep:group-dro"}


def warmup_command(workload: str, seed: int, points: dict[str, int]) -> Command:
    """A short command of the workload's kind, run once before timing. The
    val-study warm-up trains the study's base config once."""
    if workload == "val-study":
        return Command("train:val-study", ("train", "--config", "configs/val-study.ini",
                                           "--data", DATA, "--seed", str(seed)), 1)
    return next(c for c in pass_commands(workload, seed, points)
                if c.label == _WARMUP[workload])
