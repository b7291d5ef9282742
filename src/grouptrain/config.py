"""Experiment configuration files.

The format is a flat key = value text file with one section per pipeline
stage, comments starting with '#', and values that are numbers, words, or
comma-separated lists::

    [train]
    algorithm = jtt
    epochs = 30            # trailing comments are fine
    ...

    [grid]
    upweight_factor = 5, 10, 20

Unknown sections or keys are rejected, missing required keys are reported
with the section name, and every error names the offending key and line.
Defaults (momentum 0.9, group_step_size 0.01, ...) are applied here and
echoed into run reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .analysis import REPLACE_MODES
from .data import GroupId, SyntheticSpec
from .errors import ConfigError
from .trainers import CRITERIA, WORST_GROUP, TrainConfig
from .tuning import Grid


@dataclass(frozen=True)
class GenerateSpec:
    spec: SyntheticSpec
    seed: int


@dataclass(frozen=True)
class SweepSpec:
    criterion: str = WORST_GROUP


@dataclass(frozen=True)
class StudySpec:
    fractions: tuple[float, ...]
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class AnalyzeSpec:
    run: str
    erm_report: str


@dataclass(frozen=True)
class AblateSpec:
    run: str
    mode: str
    group: GroupId | None = None
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class ParsedConfig:
    path: str
    generate: GenerateSpec | None = None
    train: TrainConfig | None = None
    grid: Grid | None = None
    sweep: SweepSpec = SweepSpec()
    study: StudySpec | None = None
    analyze: AnalyzeSpec | None = None
    ablate: AblateSpec | None = None

    def require(self, section: str):
        value = getattr(self, section)
        if value is None:
            raise ConfigError(f"{self.path}: missing required [{section}] section")
        return value


# ---------------------------------------------------------------------------
# Raw reader: sections of key -> (value, line number)

def _read_sections(path: Path) -> dict[str, dict[str, tuple[str, int]]]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read config file: {e}") from None
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"{path}: line {lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            current_name = name
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{path}: line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current:
            raise ConfigError(
                f"{path}: line {lineno}: duplicate key {key!r} in [{current_name}]")
        current[key] = (value.strip(), lineno)
    return sections


# ---------------------------------------------------------------------------
# Typed converters. Each raises ValueError with a human message; the section
# reader wraps that into a ConfigError naming the key and line.

def _int(v: str) -> int:
    try:
        return int(v)
    except ValueError:
        raise ValueError(f"expected an integer, got {v!r}") from None


def _float(v: str) -> float:
    try:
        x = float(v)
    except ValueError:
        raise ValueError(f"expected a number, got {v!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def _seed(v: str) -> int:
    n = _int(v)
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {v!r}")
    return n


def _int_or_inf(v: str):
    if v.lower() in ("inf", "none", ""):
        return None
    return _int(v)


def _float_list(v: str) -> tuple[float, ...]:
    return tuple(_float(p.strip()) for p in v.split(",") if p.strip())


def _int_list(v: str, convert=_int) -> tuple[int, ...]:
    return tuple(convert(p.strip()) for p in v.split(",") if p.strip())


def _fractions(v: str) -> tuple[float, ...]:
    fractions = _float_list(v)
    if not fractions or any(not (0.0 < f <= 1.0) for f in fractions):
        raise ValueError("expected at least one fraction, each in (0, 1]")
    return fractions


def _seeds(v: str) -> tuple[int, ...]:
    seeds = _int_list(v, _seed)
    if not seeds:
        raise ValueError("expected at least one seed")
    return seeds


def _criterion(v: str) -> str:
    if v not in CRITERIA:
        raise ValueError(f"expected 'worst-group' or 'average', got {v!r}")
    return v


def _mode(v: str) -> str:
    if v not in REPLACE_MODES:
        raise ValueError(f"expected one of {', '.join(REPLACE_MODES)}; got {v!r}")
    return v


def _group(v: str) -> GroupId:
    parts = _int_list(v)
    if len(parts) != 2:
        raise ValueError(f"expected 'attribute, label', got {v!r}")
    return GroupId(*parts)


class _Section:
    def __init__(self, path: Path, name: str, raw: dict[str, tuple[str, int]]):
        self.path, self.name, self.raw = path, name, raw
        self.used: set[str] = set()

    def get(self, key: str, convert, default=..., required=False):
        if key not in self.raw:
            if required:
                raise ConfigError(
                    f"{self.path}: [{self.name}] missing required key {key!r}")
            return None if default is ... else default
        self.used.add(key)
        value, lineno = self.raw[key]
        try:
            return convert(value)
        except ValueError as e:
            raise ConfigError(f"{self.path}: line {lineno}: key {key!r}: {e}") from None

    def line_of(self, key: str) -> int | None:
        return self.raw[key][1] if key in self.raw else None

    def error(self, e: Exception) -> ConfigError:
        """`e`, from checking the section's values together, located at the
        line of the key its message starts with (when the section has it)."""
        where = self.line_of(str(e).split(":", 1)[0])
        suffix = f" (line {where})" if where else ""
        return ConfigError(f"{self.path}: [{self.name}] {e}{suffix}")

    def reject_unknown(self):
        unknown = set(self.raw) - self.used
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(
                f"{self.path}: line {self.raw[key][1]}: unknown key {key!r} "
                f"in [{self.name}]")


# Per-key converters shared by [train] and [grid].
_TRAIN_KEYS = {
    "algorithm": str,
    "epochs": _int,
    "batch_size": _int,
    "learning_rate": _float,
    "seed": _int,
    "momentum": _float,
    "l2": _float,
    "hidden": _int_list,
    "id_epochs": _int,
    "upweight_factor": _int,
    "refresh_every": _int_or_inf,
    "alpha": _float,
    "gce_q": _float,
    "group_step_size": _float,
}

_TRAIN_REQUIRED = ("algorithm", "epochs", "batch_size", "learning_rate", "seed")


def _parse_train(sec: _Section) -> TrainConfig:
    kwargs = {}
    for key, convert in _TRAIN_KEYS.items():
        value = sec.get(key, convert, required=key in _TRAIN_REQUIRED)
        if value is not None:
            kwargs[key] = value
    sec.reject_unknown()
    try:
        return TrainConfig(**kwargs)
    except ConfigError as e:
        raise sec.error(e) from None


def _parse_grid(sec: _Section, base: TrainConfig) -> Grid:
    axes = {}
    for key in sorted(sec.raw):
        if key not in _TRAIN_KEYS:
            raise ConfigError(
                f"{sec.path}: line {sec.raw[key][1]}: unknown grid axis {key!r}")
        if key == "hidden":
            raise ConfigError(
                f"{sec.path}: line {sec.raw[key][1]}: 'hidden' cannot be swept")
        convert = _TRAIN_KEYS[key]
        if key == "algorithm":
            values = sec.get(key, lambda v: tuple(p.strip() for p in v.split(",") if p.strip()))
        elif key == "refresh_every":
            values = sec.get(key, lambda v: tuple(_int_or_inf(p.strip()) for p in v.split(",")))
        elif convert is _int:
            values = sec.get(key, _int_list)
        else:
            values = sec.get(key, _float_list)
        axes[key] = values
    try:
        grid = Grid(base, axes)
        grid.configs()  # every grid point must be a valid TrainConfig
        return grid
    except Exception as e:
        raise sec.error(e) from None


def _parse_generate(sec: _Section) -> GenerateSpec:
    kwargs = dict(
        n_train=sec.get("n_train", _int, required=True),
        n_val=sec.get("n_val", _int, required=True),
        n_test=sec.get("n_test", _int, required=True),
        majority_fraction=sec.get("majority_fraction", _float, required=True),
        label_balance=sec.get("label_balance", _float_list, default=(0.5, 0.5)),
        core_separation=sec.get("core_separation", _float, required=True),
        spurious_separation=sec.get("spurious_separation", _float, required=True),
        noise_dims=sec.get("noise_dims", _int, required=True),
        noise_sigma=sec.get("noise_sigma", _float, required=True),
    )
    seed = sec.get("seed", _seed, required=True)
    sec.reject_unknown()
    try:
        return GenerateSpec(SyntheticSpec(**kwargs), seed)
    except Exception as e:
        raise ConfigError(f"{sec.path}: [generate] {e}") from None


def parse_config(path) -> ParsedConfig:
    """Parse and validate a configuration file into typed sections."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    sections = _read_sections(path)
    known = {"generate", "train", "grid", "sweep", "study", "analyze", "ablate"}
    for name in sections:
        if name not in known:
            raise ConfigError(f"{path}: unknown section [{name}]")

    def section(name: str) -> _Section | None:
        return _Section(path, name, sections[name]) if name in sections else None

    out: dict = {"path": str(path)}
    if (sec := section("generate")) is not None:
        out["generate"] = _parse_generate(sec)
    if (sec := section("train")) is not None:
        out["train"] = _parse_train(sec)
    if (sec := section("grid")) is not None:
        if "train" not in out:
            raise ConfigError(f"{path}: [grid] requires a [train] section as its base")
        out["grid"] = _parse_grid(sec, out["train"])
    if (sec := section("sweep")) is not None:
        out["sweep"] = SweepSpec(sec.get("criterion", _criterion, default=WORST_GROUP))
        sec.reject_unknown()
    if (sec := section("study")) is not None:
        fractions = sec.get("fractions", _fractions, required=True)
        seeds = sec.get("seeds", _seeds, required=True)
        sec.reject_unknown()
        out["study"] = StudySpec(fractions, seeds)
    if (sec := section("analyze")) is not None:
        out["analyze"] = AnalyzeSpec(
            run=sec.get("run", str, required=True),
            erm_report=sec.get("erm_report", str, required=True),
        )
        sec.reject_unknown()
    if (sec := section("ablate")) is not None:
        out["ablate"] = AblateSpec(
            run=sec.get("run", str, required=True),
            mode=sec.get("mode", _mode, required=True),
            group=sec.get("group", _group),
            seed=sec.get("seed", _seed),
        )
        sec.reject_unknown()
    return ParsedConfig(**out)
