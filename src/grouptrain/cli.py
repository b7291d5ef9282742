"""Experiment runner.

Subcommands: generate, train, sweep, analyze, ablate, val-study. Every run
reads one config file, writes into a fresh output directory (report.json
plus CSV tables and checkpoints), and is deterministic: re-running with the
same config and data reproduces the report except for its "timing" block.
Exit codes: 0 success, 1 usage or config error, 2 runtime failure (including
a diverging run), 128 + signal number on SIGTERM. A run that fails or is
interrupted (Ctrl-C or SIGTERM) leaves no partial outputs behind. SIGTERM
ends the process wherever it lands: its handler removes `<out>.partial` and
exits, so no `finally` block or `atexit` hook runs and an in-process caller
of `main` is ended, not handed a `SystemExit`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import shutil
import signal
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import (_check_in_range, enrichment_table, error_set_stats, evaluate_groups,
                       loss_snapshots, replace_error_set, track_cvar_composition)
from .config import ParsedConfig, parse_config
from .data import Dataset, GroupId, generate_synthetic, load_csv, save_csv, save_twin
from .errors import ConfigError, InputError
from .reports import (
    fingerprint,
    group_metrics_to_dict,
    read_error_set_csv,
    read_loss_snapshots_csv,
    read_report,
    save_model,
    write_composition_csv,
    write_enrichment_csv,
    write_error_set_csv,
    write_history_csv,
    write_loss_snapshots_csv,
    write_report,
    write_study_csv,
    write_sweep_csv,
)
from .trainers import (AVERAGE, CRITERIA, CVAR, JTT, JTT_DYNAMIC, WORST_GROUP, TrainConfig,
                       train, train_upweighted)
from .tuning import Grid, grid_sweep, validation_size_study


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return seed


@functools.cache  # pure: every parse_args call makes its own namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouptrain",
        description="Run group-robustness training experiments from a config file.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("generate", "generate synthetic train/val/test CSV datasets"),
        ("train", "train one model and report its group metrics"),
        ("sweep", "grid-sweep hyperparameters with early stopping"),
        ("analyze", "error-set and top-loss-set diagnostics for a finished run"),
        ("ablate", "retrain with a manipulated error set and compare"),
        ("val-study", "tune on shrunken validation sets and compare"),
    ]:
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="path to the config file")
        sp.add_argument("--out", required=True, help="output directory (created fresh)")
        if name != "analyze":  # the only command without a seed to override
            sp.add_argument("--seed", type=_seed, default=None,
                            help="override the config's seed")
        if name != "generate":
            sp.add_argument("--data", required=True,
                            help="directory holding train.csv/val.csv/test.csv")
    return parser


class _OutputDir:
    """Stages all writes in a sibling directory and renames it into place on
    success, so failed runs leave no partial outputs behind. It also keeps
    what the report names: the config sections the command used, the splits
    it loaded or made, and its outputs by key."""

    def __init__(self, out: str):
        self.final = Path(out)
        if self.final.exists() and any(self.final.iterdir()):
            raise InputError(f"output directory {out!r} already exists and is not empty")
        self.staging = self.staging_path(out)
        if self.staging.exists():
            shutil.rmtree(self.staging)
        self.staging.mkdir(parents=True)
        self.config: dict = {}
        self.datasets: dict[str, Dataset] = {}
        self.outputs: dict[str, str] = {}

    @staticmethod
    def staging_path(out: str) -> Path:
        final = Path(out)
        return final.parent / (final.name + ".partial")

    def path(self, name: str) -> Path:
        return self.staging / name

    def output(self, key: str, name: str) -> Path:
        """The staging path of output file `name`, listed in the report as `key`."""
        self.outputs[key] = name
        return self.path(name)

    def finalize(self):
        if self.final.exists():
            self.final.rmdir()
        self.staging.rename(self.final)

    def abort(self):
        shutil.rmtree(self.staging, ignore_errors=True)


def _seeded(section, args):
    """A parsed section with --seed applied."""
    return section if args.seed is None else dataclasses.replace(section, seed=args.seed)


def _train_config(parsed: ParsedConfig, args, out: _OutputDir) -> TrainConfig:
    """The [train] section with --seed applied, recorded for the report."""
    out.config["train"] = cfg = _seeded(parsed.require("train"), args)
    return cfg


def _grid(parsed: ParsedConfig, cfg: TrainConfig, out: _OutputDir) -> Grid:
    grid = Grid(cfg, parsed.grid.axes if parsed.grid is not None else {})
    if min(grid.axes.get("epochs", (cfg.epochs,))) < 1:  # every grid point must train
        section = "grid" if "epochs" in grid.axes else "train"
        raise ConfigError(f"{parsed.path}: [{section}] epochs: sweeps need epochs >= 1")
    out.config["grid"] = grid.axes
    return grid


def _load_datasets(args, out: _OutputDir,
                   splits: tuple[str, ...] = ("train", "val", "test")) -> dict[str, Dataset]:
    """The named splits of the --data directory, by split name."""
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise InputError(f"data directory {args.data!r} does not exist")
    for split in splits:
        path = data_dir / f"{split}.csv"
        if not path.exists():
            raise InputError(f"missing dataset file {path}")
        out.datasets[split] = load_csv(path, name=f"{data_dir.name}/{split}")
    return out.datasets


def _dataset_block(datasets: dict[str, Dataset]) -> dict:
    block = {}
    for split, ds in datasets.items():
        entry = {"examples": len(ds), "features": ds.n_features,
                 "annotated": ds.has_group_annotations, "fingerprint": fingerprint(ds)}
        if ds.has_group_annotations:
            groups, _, counts = ds.group_index()
            entry["groups"] = [{"attribute": g.attribute, "label": g.label, "count": int(n)}
                               for g, n in zip(groups, counts)]
        block[split] = entry
    return block


def _metrics_block(result, val: Dataset, test: Dataset) -> dict:
    block = {}
    for criterion in CRITERIA:
        ckpt = result.checkpoints[criterion]
        block[criterion] = {
            "selected_epoch": ckpt.epoch,
            "val": group_metrics_to_dict(evaluate_groups(ckpt.model, val)),
            "test": group_metrics_to_dict(evaluate_groups(ckpt.model, test)),
        }
    block["final"] = {
        "val": group_metrics_to_dict(evaluate_groups(result.model, val)),
        "test": group_metrics_to_dict(evaluate_groups(result.model, test)),
    }
    return block


# ---------------------------------------------------------------------------
# Command handlers. Each returns its report's "results" block and records on
# `out` the config sections it used, the splits it loaded or made and the
# files it wrote; `main` builds the rest of the report from those records.

def _cmd_generate(parsed: ParsedConfig, args, out: _OutputDir) -> dict:
    gen = _seeded(parsed.require("generate"), args)
    out.config["generate"] = {**dataclasses.asdict(gen.spec), "seed": gen.seed}
    out.datasets.update(zip(("train", "val", "test"), generate_synthetic(gen.spec, gen.seed)))
    for split, ds in out.datasets.items():
        path = out.output(split, f"{split}.csv")
        save_csv(ds, path)
        out.output(f"{split}_twin", save_twin(ds, path).name)
    return {"names": {split: ds.name for split, ds in out.datasets.items()}}


def _train_diagnostics(result, train_ds: Dataset, out: _OutputDir) -> dict:
    """Error-set composition diagnostics, available when the stored training
    data carries group annotations."""
    error_set = result.aux.get("error_set")
    if error_set is None or not train_ds.has_group_annotations:
        return {}
    rows = enrichment_table(error_set, train_ds)
    write_enrichment_csv(out.output("enrichment", "enrichment.csv"), rows)
    return {
        "error_set_size": len(error_set),
        "error_set_source_epoch": error_set.source_epoch,
        "enrichment": [
            {"attribute": r.group.attribute, "label": r.group.label, "count": r.count,
             "empirical_rate": r.empirical_rate, "error_count": r.error_count,
             "error_set_share": r.error_set_share, "enrichment": r.enrichment}
            for r in rows
        ],
        "error_set_stats": [dataclasses.asdict(error_set_stats(error_set, train_ds, r.group))
                            for r in rows],
    }


def _cmd_train(parsed: ParsedConfig, args, out: _OutputDir) -> dict:
    cfg = _train_config(parsed, args, out)
    splits = _load_datasets(args, out)
    train_ds, val_ds, test_ds = splits["train"], splits["val"], splits["test"]
    result = train(train_ds, val_ds, cfg)

    write_history_csv(out.output("history", "history.csv"), result.history)
    save_model(result.model, out.output("model_final", "model_final.txt"))
    for key, criterion in (("model_best_worst_group", WORST_GROUP),
                           ("model_best_average", AVERAGE)):
        save_model(result.checkpoints[criterion].model, out.output(key, f"{key}.txt"))

    results: dict = {"metrics": _metrics_block(result, val_ds, test_ds)}
    if "identification_model" in result.aux:
        save_model(result.aux["identification_model"],
                   out.output("model_identification", "model_identification.txt"))
    if "error_set" in result.aux:
        write_error_set_csv(out.output("error_set", "error_set.csv"), result.aux["error_set"])
        results["refresh_epochs"] = result.aux["refresh_epochs"]
        results["refresh_sizes"] = result.aux["refresh_sizes"]
    if cfg.algorithm == CVAR:
        write_loss_snapshots_csv(out.output("loss_snapshots", "cvar_losses.csv"),
                                 loss_snapshots(result.trajectory, train_ds))
    if "group_weights" in result.aux:
        results["group_weights"] = [
            {"attribute": g.attribute, "label": g.label, "weight": w}
            for g, w in sorted(result.aux["group_weights"].items())
        ]
    if "minority_set" in result.aux:
        results["minority_set_size"] = len(result.aux["minority_set"])
    diagnostics = _train_diagnostics(result, train_ds, out)
    if diagnostics:
        results["diagnostics"] = diagnostics
    return results


def _cmd_sweep(parsed: ParsedConfig, args, out: _OutputDir) -> dict:
    cfg = _train_config(parsed, args, out)
    grid = _grid(parsed, cfg, out)
    out.config["sweep"] = parsed.sweep
    splits = _load_datasets(args, out)
    sweep = grid_sweep(grid, splits["train"], splits["val"], splits["test"])
    write_sweep_csv(out.output("sweep", "sweep.csv"), sweep)
    results = {"criterion": parsed.sweep.criterion, "n_configs": len(sweep.rows)}
    for key, by in (("best_by_worst_group", WORST_GROUP), ("best_by_average", AVERAGE)):
        index = sweep.best(by)
        row = sweep.rows[index]
        results[key] = {"index": index, "config": dataclasses.asdict(row.config),
                        "metrics": dataclasses.asdict(row.by_criterion[by])}
    return results


class _Report:
    """A report.json read back, for the commands that read finished runs."""

    def __init__(self, path):
        self.path = path
        self.data = read_report(path)

    def get(self, keys: str):
        """The value at dotted key path `keys`; a missing key raises an
        InputError naming the file and the key path."""
        value = self.data
        for key in keys.split("."):
            if not isinstance(value, dict) or key not in value:
                raise InputError(f"{self.path}: report has no key {keys!r}")
            value = value[key]
        return value

    def build(self, cls, keys: str):
        """`cls` from the fields at dotted key path `keys`; a field `cls`
        does not take or a value it rejects raises an InputError naming the
        file and the key path."""
        fields = self.get(keys)
        try:
            return cls(**fields)
        except (TypeError, ValueError) as e:
            raise InputError(f"{self.path}: {keys!r} is not a valid {cls.__name__}: {e}") from None

    def check_splits(self, fingerprints: dict[str, str], source: str | Path) -> None:
        """Each split named in `fingerprints` must be the one the run
        loaded: a fingerprint other than the report's raises an InputError
        naming the split, both fingerprints, this report and `source`."""
        for split, found in fingerprints.items():
            recorded = self.get(f"datasets.{split}.fingerprint")
            if found != recorded:
                raise InputError(f"{self.path}: the run's {split} split has fingerprint "
                                 f"{recorded}, but {source} has {found}")


def _cmd_analyze(parsed: ParsedConfig, args, out: _OutputDir) -> dict:
    out.config["analyze"] = spec = parsed.require("analyze")
    run_dir = Path(spec.run)
    run_report = _Report(run_dir / "report.json")
    reference = _Report(spec.erm_report)
    worst_key = f"results.metrics.{WORST_GROUP}.test.worst_group"
    pair = reference.get(worst_key)
    if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) is int for v in pair)):
        raise InputError(f"{reference.path}: {worst_key!r} is not an [attribute, label] pair")
    worst = GroupId(*pair)
    train_ds = _load_datasets(args, out, ("train",))["train"]
    # the analysis holds only for the run's own training split and the test
    # split that the reference's worst group was measured on
    run_report.check_splits({"train": fingerprint(train_ds)}, f"--data {args.data}")
    reference.check_splits({"test": run_report.get("datasets.test.fingerprint")},
                           run_report.path)
    if not train_ds.has_group_annotations:
        raise InputError(f"{Path(args.data) / 'train.csv'}: analyze needs a group-annotated "
                         "stored training set")

    results: dict = {"worst_group": list(worst),
                     "analyzed_run": str(run_dir),
                     "analyzed_algorithm": run_report.get("effective_config.train.algorithm")}
    error_set_file = run_dir / "error_set.csv"
    if error_set_file.exists():
        error_set = read_error_set_csv(error_set_file)
        _check_in_range(error_set, train_ds, str(error_set_file))
        rows = enrichment_table(error_set, train_ds)
        write_enrichment_csv(out.output("enrichment", "enrichment.csv"), rows)
        stats = error_set_stats(error_set, train_ds, worst)
        results["error_set_stats"] = dataclasses.asdict(stats)
        results["enrichment"] = [
            {"attribute": r.group.attribute, "label": r.group.label,
             "enrichment": r.enrichment, "error_set_share": r.error_set_share}
            for r in rows
        ]
    snapshots_file = run_dir / "cvar_losses.csv"
    if snapshots_file.exists():
        cfg = run_report.build(TrainConfig, "effective_config.train")
        if cfg.algorithm != CVAR:
            raise InputError(f"{run_report.path}: loss snapshots need a cvar run, "
                             f"not {cfg.algorithm!r}")
        if cfg.epochs == 0:  # its file holds only a header
            raise InputError(f"{snapshots_file}: the run trained 0 epochs, so it has no "
                             "loss snapshots to analyze")
        snapshots = read_loss_snapshots_csv(snapshots_file)
        if len(snapshots) != cfg.epochs:
            raise InputError(f"{snapshots_file}: {len(snapshots)} loss snapshots, but the run "
                             f"trained {cfg.epochs} epochs")
        try:
            points = track_cvar_composition(snapshots, cfg.alpha, train_ds, worst)
        except InputError as e:  # snapshots as wide as another training set
            raise InputError(f"{snapshots_file}: {e}") from None
        write_composition_csv(out.output("composition", "composition.csv"), points)
        results["composition"] = {
            "alpha": cfg.alpha,
            "epochs": len(points),
            "precision_min": min(p.precision for p in points),
            "precision_max": max(p.precision for p in points),
            "recall_min": min(p.recall for p in points),
            "recall_max": max(p.recall for p in points),
        }
    if not out.outputs:
        raise InputError(f"run {run_dir} has neither an error set nor loss snapshots")
    return results


def _cmd_ablate(parsed: ParsedConfig, args, out: _OutputDir) -> dict:
    out.config["ablate"] = spec = _seeded(parsed.require("ablate"), args)
    run_dir = Path(spec.run)
    run_report = _Report(run_dir / "report.json")
    out.config["train"] = cfg = run_report.build(TrainConfig, "effective_config.train")
    if cfg.algorithm not in (JTT, JTT_DYNAMIC):
        raise InputError(f"{run_report.path}: ablate needs a run of the two-stage trainer, "
                         f"not {cfg.algorithm!r}")
    error_set_file = run_dir / "error_set.csv"
    if not error_set_file.exists():
        raise InputError(f"run {run_dir} has no error_set.csv")
    wg_key = f"results.metrics.{WORST_GROUP}.test.worst_group_accuracy"
    original_wg = run_report.get(wg_key)
    if type(original_wg) not in (int, float):
        raise InputError(f"{run_report.path}: {wg_key!r} is not a number")
    splits = _load_datasets(args, out)
    run_report.check_splits({split: fingerprint(ds) for split, ds in splits.items()},
                            f"--data {args.data}")
    train_ds, val_ds, test_ds = splits["train"], splits["val"], splits["test"]
    original_set = read_error_set_csv(error_set_file)
    _check_in_range(original_set, train_ds, str(error_set_file))
    modified_set = replace_error_set(original_set, train_ds, spec.mode,
                                     group=spec.group, seed=spec.seed)
    result = train_upweighted(train_ds, val_ds, cfg, modified_set)
    write_error_set_csv(out.output("error_set_modified", "error_set_modified.csv"), modified_set)
    write_history_csv(out.output("history", "history.csv"), result.history)
    save_model(result.checkpoints[WORST_GROUP].model,
               out.output("model_best_worst_group", "model_best_worst_group.txt"))

    modified = _metrics_block(result, val_ds, test_ds)
    modified_wg = modified[WORST_GROUP]["test"]["worst_group_accuracy"]
    return {
        "mode": spec.mode,
        "group": spec.group,
        "seed": spec.seed,
        "original_error_set_size": len(original_set),
        "modified_error_set_size": len(modified_set),
        "original_test_worst_group_accuracy": original_wg,
        "modified_test_worst_group_accuracy": modified_wg,
        "delta": modified_wg - original_wg,
        "modified_metrics": modified,
    }


def _cmd_val_study(parsed: ParsedConfig, args, out: _OutputDir) -> dict:
    cfg = _train_config(parsed, args, out)
    out.config["study"] = study = parsed.require("study")
    grid = _grid(parsed, cfg, out)
    splits = _load_datasets(args, out)
    results = validation_size_study(study.fractions, grid, splits["train"], splits["val"],
                                    splits["test"], study.seeds)
    write_study_csv(out.output("study", "study.csv"), results)
    return {"rows": [
        {"fraction": r.fraction,
         "median_test_worst_group": r.median_test_worst_group,
         "per_seed": list(r.per_seed_test_worst_group)}
        for r in results
    ]}


_HANDLERS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "ablate": _cmd_ablate,
    "val-study": _cmd_val_study,
}


def _error_block(kind: str, exc: Exception) -> None:
    block = {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(block, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 0
        return 0 if code == 0 else 1

    try:
        parsed = parse_config(args.config)
    except ConfigError as e:
        _error_block("config", e)
        return 1

    out = None
    staging = _OutputDir.staging_path(args.out)

    def terminate(signum, _frame):
        # Ends the process here: an exception raised from a handler can land
        # in code that swallows it (a finalizer, an import) and be lost.
        shutil.rmtree(staging, ignore_errors=True)
        os._exit(128 + signum)

    previous_sigterm = signal.signal(signal.SIGTERM, terminate)
    try:
        out = _OutputDir(args.out)
        started = datetime.now(timezone.utc)
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = _HANDLERS[args.command](parsed, args, out)
            config = {name: dataclasses.asdict(section) if dataclasses.is_dataclass(section)
                      else section for name, section in out.config.items()}
            report = {"effective_config": config, "datasets": _dataset_block(out.datasets),
                      "results": results, "outputs": out.outputs}
        report["warnings"] = [str(w.message) for w in caught]
        report["artifact"] = {"name": "grouptrain", "version": __version__}
        report["command"] = args.command
        report["timing"] = {"started_utc": started.isoformat(),
                            "wall_seconds": round(time.perf_counter() - t0, 3)}
        write_report(out.path("report.json"), report)
        out.finalize()
        return 0
    except ConfigError as e:
        _error_block("config", e)
        return 1
    except Exception as e:
        _error_block("runtime", e)
        return 2
    finally:
        if out is not None:
            out.abort()  # no-op once finalize has renamed the staging directory
        signal.signal(signal.SIGTERM, previous_sigterm)


if __name__ == "__main__":
    sys.exit(main())
