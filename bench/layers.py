"""Which package functions the traced run wraps, and the per-layer metrics
computed from their spans.

A layer is a package module: cli, config, data, models, trainers, analysis,
tuning, reports. A span is named ``<layer>.<function>`` after the module that
defines the function, whichever module calls it. Every metric is given per
pass (one round of the workload's commands), so a count repeats exactly from
run to run and times do not grow with run length.
"""

from __future__ import annotations

import numpy as np

import grouptrain.cli as cli
import grouptrain.models as models
import grouptrain.trainers as trainers
import grouptrain.tuning as tuning
from grouptrain.trainers import ALGORITHMS

LAYERS = ("cli", "config", "data", "models", "trainers", "analysis", "tuning", "reports")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _len_arg(index, name):
    return lambda args, kwargs, result: len(_arg(args, kwargs, index, name))


def _len_result(args, kwargs, result):
    return len(result)


def _algorithm(args, kwargs):
    return _arg(args, kwargs, 2, "cfg").algorithm


# (calling module, name it looks up, span name, rows, tag). The defining
# module's functions are reached through every caller's binding: trainers
# calls forward_batch directly and models.predict calls it through models.
_WRAPS = [
    (cli, "parse_config", "config.parse_config", None, None),
    (cli, "load_csv", "data.load_csv", _len_result, None),
    (tuning, "subsample_validation", "data.subsample_validation", None, None),
    (trainers, "forward_batch", "models.forward_batch", _len_arg(1, "features"), None),
    (models, "forward_batch", "models.forward_batch", _len_arg(1, "features"), None),
    (trainers, "loss_values", "models.loss_values", _len_arg(1, "labels"), None),
    (trainers, "grad", "models.grad", _len_arg(2, "labels"), None),
    (trainers, "sgd_step", "models.sgd_step", None, None),
    (cli, "train", "trainers.train", None, _algorithm),
    (tuning, "train", "trainers.train", None, _algorithm),
    (trainers, "cvar_batch_weights", "trainers.cvar_batch_weights", None, None),
    (trainers, "lff_weight", "trainers.lff_weight", None, None),
    (trainers, "group_dro_update", "trainers.group_dro_update", None, None),
    (trainers, "compute_error_set", "trainers.compute_error_set", None, None),
    (trainers, "build_upsampled", "trainers.build_upsampled", None, None),
    (cli, "evaluate_groups", "analysis.evaluate_groups", _len_arg(1, "data"), None),
    (tuning, "evaluate_groups", "analysis.evaluate_groups", _len_arg(1, "data"), None),
    (trainers, "evaluate_groups", "analysis.evaluate_groups", _len_arg(1, "data"), None),
    (cli, "enrichment_table", "analysis.enrichment_table", None, None),
    (cli, "error_set_stats", "analysis.error_set_stats", None, None),
    (cli, "grid_sweep", "tuning.grid_sweep", None, None),
    (tuning, "grid_sweep", "tuning.grid_sweep", None, None),
    (cli, "validation_size_study", "tuning.validation_size_study", None, None),
    (cli, "fingerprint", "reports.fingerprint", _len_arg(0, "data"), None),
    (cli, "save_model", "reports.save_model", None, None),
] + [
    (cli, name, f"reports.{name}", None, None)
    for name in ("write_report", "write_history_csv", "write_error_set_csv",
                 "write_loss_snapshots_csv", "write_enrichment_csv", "write_sweep_csv",
                 "write_study_csv")
]

DIAGNOSTICS = ("analysis.enrichment_table", "analysis.error_set_stats")
REWEIGHT = ("trainers.cvar_batch_weights", "trainers.lff_weight", "trainers.group_dro_update")
ERROR_SET = ("trainers.compute_error_set", "trainers.build_upsampled")
ROOT = "cli.main"

# name -> (unit, better). The order is the order of the report.
METRICS: dict[str, tuple[str, str]] = {}


def _declare(name, unit, better="lower"):
    METRICS[name] = (unit, better)


for _fn in ("forward_batch", "loss_values", "grad"):
    _declare(f"models.{_fn}.calls", "count")
    _declare(f"models.{_fn}.s", "s")
    _declare(f"models.{_fn}.rows", "rows")
_declare("models.sgd_step.calls", "count")
_declare("models.sgd_step.s", "s")
_declare("models.forward_per_step", "ratio")
_declare("models.us_per_step", "us")
_declare("trainers.train.calls", "count")
_declare("trainers.train.s", "s")
_declare("trainers.train.self_s", "s")
for _alg in ALGORITHMS:
    _declare(f"trainers.train.{_alg}.s", "s")
_declare("trainers.steps", "count")
_declare("trainers.examples_per_s", "1/s", "higher")
_declare("trainers.reweight.s", "s")
_declare("trainers.error_set.s", "s")
_declare("analysis.evaluate_groups.calls", "count")
_declare("analysis.evaluate_groups.s", "s")
_declare("analysis.evaluate_groups.rows", "rows")
_declare("analysis.diagnostics.s", "s")
_declare("tuning.grid_sweep.calls", "count")
_declare("tuning.grid_sweep.s", "s")
_declare("tuning.validation_size_study.s", "s")
_declare("tuning.train_calls_per_cfg", "ratio")
_declare("data.load_csv.calls", "count")
_declare("data.load_csv.s", "s")
_declare("data.load_csv.rows", "rows")
_declare("data.subsample_validation.calls", "count")
_declare("data.subsample_validation.s", "s")
_declare("reports.fingerprint.calls", "count")
_declare("reports.fingerprint.s", "s")
_declare("reports.fingerprint.rows", "rows")
_declare("reports.save_model.calls", "count")
_declare("reports.save_model.s", "s")
_declare("reports.write_tables.s", "s")
_declare("config.parse_config.calls", "count")
_declare("config.parse_config.s", "s")
_declare("cli.main.calls", "count")
_declare("cli.main.s", "s")
_declare("cli.main.self_s", "s")
_declare("cli.cfg_delivered", "count", "higher")
for _layer in LAYERS[1:]:
    _declare(f"{_layer}.self_s", "s")
_declare("trace.spans", "count")


def install(tracer) -> None:
    """Wrap every function in _WRAPS; undo with tracer.unwrap_all()."""
    for module, attr, name, rows, tag in _WRAPS:
        tracer.wrap(module, attr, name, rows=rows, tag=tag)


def self_sum_gap(tracer) -> float:
    """Largest relative gap, over traced commands, between the sum of the
    self times of a command's spans and the duration of its cli.main span."""
    t = tracer.table()
    if not len(t["start"]):
        return 0.0
    n_commands = int(t["command"].max()) + 1
    self_sum = np.bincount(t["command"], weights=t["self"], minlength=n_commands)
    is_root = t["parent"] < 0
    root = np.bincount(t["command"][is_root], weights=t["duration"][is_root],
                       minlength=n_commands)
    return float(np.max(np.abs(self_sum - root) / root))


def metrics(tracer, passes: int, cfg_per_pass: int) -> dict[str, float]:
    """Every metric in METRICS, per pass, from the spans of `passes` passes.

    Bases: forward_per_step and us_per_step divide by models.sgd_step.calls;
    examples_per_s divides grad rows by trainers.train.s; train_calls_per_cfg
    divides trainers.train.calls by cli.cfg_delivered. A ratio whose base is
    0 reads 0.
    """
    t = tracer.table()
    name_ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(*names):
        ids = [name_ids[n] for n in names if n in name_ids]
        return np.isin(t["name_id"], ids)

    def calls(*names):
        return int(mask(*names).sum()) / passes

    def secs(*names):
        return float(t["duration"][mask(*names)].sum()) / passes

    def rows(*names):
        return int(t["rows"][mask(*names)].sum()) / passes

    def self_of(*names):
        return float(t["self"][mask(*names)].sum()) / passes

    def in_layer(name):
        return [n for n in tracer.names if n.split(".", 1)[0] == name]

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for fn in ("forward_batch", "loss_values", "grad"):
        name = f"models.{fn}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
        out[f"{name}.rows"] = rows(name)
    steps = calls("models.sgd_step")
    out["models.sgd_step.calls"] = steps
    out["models.sgd_step.s"] = secs("models.sgd_step")
    out["models.forward_per_step"] = ratio(calls("models.forward_batch") + calls("models.grad"),
                                           steps)
    models_s = secs(*in_layer("models"))
    out["models.us_per_step"] = ratio(models_s * 1e6, steps)

    train = mask("trainers.train")
    out["trainers.train.calls"] = calls("trainers.train")
    out["trainers.train.s"] = secs("trainers.train")
    out["trainers.train.self_s"] = self_of("trainers.train")
    tag_ids = {tag: i for i, tag in enumerate(tracer.tags)}
    for alg in ALGORITHMS:
        by_alg = train & (t["tag_id"] == tag_ids.get(alg, -1))
        out[f"trainers.train.{alg}.s"] = float(t["duration"][by_alg].sum()) / passes
    out["trainers.steps"] = steps
    out["trainers.examples_per_s"] = ratio(rows("models.grad"), secs("trainers.train"))
    out["trainers.reweight.s"] = secs(*REWEIGHT)
    out["trainers.error_set.s"] = secs(*ERROR_SET)

    out["analysis.evaluate_groups.calls"] = calls("analysis.evaluate_groups")
    out["analysis.evaluate_groups.s"] = secs("analysis.evaluate_groups")
    out["analysis.evaluate_groups.rows"] = rows("analysis.evaluate_groups")
    out["analysis.diagnostics.s"] = secs(*DIAGNOSTICS)

    out["tuning.grid_sweep.calls"] = calls("tuning.grid_sweep")
    out["tuning.grid_sweep.s"] = secs("tuning.grid_sweep")
    out["tuning.validation_size_study.s"] = secs("tuning.validation_size_study")
    out["tuning.train_calls_per_cfg"] = ratio(calls("trainers.train"), cfg_per_pass)

    out["data.load_csv.calls"] = calls("data.load_csv")
    out["data.load_csv.s"] = secs("data.load_csv")
    out["data.load_csv.rows"] = rows("data.load_csv")
    out["data.subsample_validation.calls"] = calls("data.subsample_validation")
    out["data.subsample_validation.s"] = secs("data.subsample_validation")

    out["reports.fingerprint.calls"] = calls("reports.fingerprint")
    out["reports.fingerprint.s"] = secs("reports.fingerprint")
    out["reports.fingerprint.rows"] = rows("reports.fingerprint")
    out["reports.save_model.calls"] = calls("reports.save_model")
    out["reports.save_model.s"] = secs("reports.save_model")
    out["reports.write_tables.s"] = secs(*(n for n in tracer.names if n.startswith("reports.write_")))

    out["config.parse_config.calls"] = calls("config.parse_config")
    out["config.parse_config.s"] = secs("config.parse_config")

    out["cli.main.calls"] = calls(ROOT)
    out["cli.main.s"] = secs(ROOT)
    out["cli.main.self_s"] = self_of(ROOT)
    out["cli.cfg_delivered"] = float(cfg_per_pass)
    for name in LAYERS[1:]:
        out[f"{name}.self_s"] = self_of(*in_layer(name))
    out["trace.spans"] = len(t["start"]) / passes
    return out
