"""Experiment configuration files.

The format is a flat key = value text file with one section per pipeline
stage, comments starting with '#', and values that are numbers, words, or
comma-separated lists (empty list parts are skipped)::

    [train]
    algorithm = jtt
    epochs = 30            # trailing comments are fine
    ...

    [grid]
    upweight_factor = 5, 10, 20

Every section but [grid] is read through one table (`_SECTIONS`) that gives
its keys in reading order, each key's converter and default, and the object
the section builds. Each [grid] axis is a list of its [train] key's values.
Unknown sections or keys are rejected, missing required keys are reported
with the section name, and every error names the offending key and line.
Defaults (momentum 0.9, group_step_size 0.01, ...) are applied here and
echoed into run reports.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
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


def _list(convert):
    """The converter of a comma-separated list of `convert`'s values; empty
    parts are skipped."""
    return lambda v: tuple(convert(p.strip()) for p in v.split(",") if p.strip())


def _fractions(v: str) -> tuple[float, ...]:
    fractions = _list(_float)(v)
    if not fractions or any(not (0.0 < f <= 1.0) for f in fractions):
        raise ValueError("expected at least one fraction, each in (0, 1]")
    return fractions


def _seeds(v: str) -> tuple[int, ...]:
    seeds = _list(_seed)(v)
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
    parts = _list(_int)(v)
    if len(parts) != 2:
        raise ValueError(f"expected 'attribute, label', got {v!r}")
    return GroupId(*parts)


_REQUIRED = MISSING  # the default of a key that has none


class _Section:
    def __init__(self, path: Path, name: str, raw: dict[str, tuple[str, int]]):
        self.path, self.name, self.raw = path, name, raw

    def get(self, key: str, convert, default=_REQUIRED):
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(
                    f"{self.path}: [{self.name}] missing required key {key!r}")
            return default
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


# Per-key converters shared by [train] and [grid].
_TRAIN_KEYS = {
    "algorithm": str,
    "epochs": _int,
    "batch_size": _int,
    "learning_rate": _float,
    "seed": _int,
    "momentum": _float,
    "l2": _float,
    "hidden": _list(_int),
    "id_epochs": _int,
    "upweight_factor": _int,
    "refresh_every": _int_or_inf,
    "alpha": _float,
    "gce_q": _float,
    "group_step_size": _float,
}
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}

# Every section but [grid]: the object it builds, and its keys in reading
# order with each key's converter and default.
_SECTIONS = {
    "generate": (lambda seed, **spec: GenerateSpec(SyntheticSpec(**spec), seed), {
        "n_train": (_int, _REQUIRED),
        "n_val": (_int, _REQUIRED),
        "n_test": (_int, _REQUIRED),
        "majority_fraction": (_float, _REQUIRED),
        "label_balance": (_list(_float), (0.5, 0.5)),
        "core_separation": (_float, _REQUIRED),
        "spurious_separation": (_float, _REQUIRED),
        "noise_dims": (_int, _REQUIRED),
        "noise_sigma": (_float, _REQUIRED),
        "seed": (_seed, _REQUIRED),
    }),
    "train": (TrainConfig, {key: (convert, _TRAIN_DEFAULTS[key])
                            for key, convert in _TRAIN_KEYS.items()}),
    "sweep": (SweepSpec, {"criterion": (_criterion, WORST_GROUP)}),
    "study": (StudySpec, {"fractions": (_fractions, _REQUIRED), "seeds": (_seeds, _REQUIRED)}),
    "analyze": (AnalyzeSpec, {"run": (str, _REQUIRED), "erm_report": (str, _REQUIRED)}),
    "ablate": (AblateSpec, {"run": (str, _REQUIRED), "mode": (_mode, _REQUIRED),
                            "group": (_group, None), "seed": (_seed, None)}),
}


def _parse_section(sec: _Section):
    build, keys = _SECTIONS[sec.name]
    values = {key: sec.get(key, convert, default) for key, (convert, default) in keys.items()}
    unknown = sorted(set(sec.raw) - set(keys))
    if unknown:
        raise ConfigError(f"{sec.path}: line {sec.raw[unknown[0]][1]}: unknown key "
                          f"{unknown[0]!r} in [{sec.name}]")
    try:
        return build(**values)
    except ValueError as e:
        raise sec.error(e) from None


def _parse_grid(sec: _Section, base: TrainConfig | None) -> Grid:
    if base is None:
        raise ConfigError(f"{sec.path}: [grid] requires a [train] section as its base")
    axes = {}
    for key in sorted(sec.raw):
        if key not in _TRAIN_KEYS:
            raise ConfigError(
                f"{sec.path}: line {sec.raw[key][1]}: unknown grid axis {key!r}")
        if key == "hidden":
            raise ConfigError(
                f"{sec.path}: line {sec.raw[key][1]}: 'hidden' cannot be swept")
        axes[key] = sec.get(key, _list(_TRAIN_KEYS[key]))
    try:
        grid = Grid(base, axes)
        grid.configs()  # every grid point must be a valid TrainConfig
        return grid
    except Exception as e:
        raise sec.error(e) from None


def parse_config(path) -> ParsedConfig:
    """Parse and validate a configuration file into typed sections."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    sections = _read_sections(path)
    for name in sections:
        if name not in _SECTIONS and name != "grid":
            raise ConfigError(f"{path}: unknown section [{name}]")

    out: dict = {"path": str(path)}
    for name in _SECTIONS:
        if name in sections:
            out[name] = _parse_section(_Section(path, name, sections[name]))
        if name == "train" and "grid" in sections:  # [grid] sweeps its base, [train]
            out["grid"] = _parse_grid(_Section(path, "grid", sections["grid"]), out.get("train"))
    return ParsedConfig(**out)
