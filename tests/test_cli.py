import collections
import contextlib
import csv
import dataclasses
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouptrain.data as data_module
from grouptrain import cli
from grouptrain.cli import main
from grouptrain.config import parse_config
from grouptrain.data import load_csv, save_csv, strip_group_annotations
from grouptrain.errors import IngestionError
from grouptrain.models import Architecture, init_model
from grouptrain.reports import (
    fingerprint,
    load_model,
    read_error_set_csv,
    read_loss_snapshots_csv,
    read_report,
    save_model,
    strip_timing,
    write_error_set_csv,
    write_loss_snapshots_csv,
)
from grouptrain.trainers import ErrorSet, TrainConfig, train

GENERATE = """
[generate]
n_train = 400
n_val = 160
n_test = 240
majority_fraction = 0.95
label_balance = 0.75, 0.25
core_separation = 2.0
spurious_separation = 4.0
noise_dims = 2
noise_sigma = 1.0
seed = 5
"""

TRAIN_COMMON = """
epochs = 6
batch_size = 32
learning_rate = 0.02
l2 = 0.001
seed = 0
"""

ERM = "[train]\nalgorithm = erm\n" + TRAIN_COMMON
JTT = "[train]\nalgorithm = jtt\n" + TRAIN_COMMON + "id_epochs = 1\nupweight_factor = 6\n"
CVAR = "[train]\nalgorithm = cvar\n" + TRAIN_COMMON + "alpha = 0.25\n"
GROUP_DRO = "[train]\nalgorithm = group-dro\n" + TRAIN_COMMON
UPSAMPLE = "[train]\nalgorithm = upsample-minority\n" + TRAIN_COMMON + "upweight_factor = 6\n"


def run(args):
    return main([str(a) for a in args])


def cvar_report(workspace, **change):
    """A cvar run's report on the workspace's data, as far as analyze reads
    it: its train config and the fingerprints of its splits."""
    train = {**dataclasses.asdict(TrainConfig("cvar", epochs=6, batch_size=32, learning_rate=0.02,
                                              seed=0, l2=0.001, alpha=0.25)), **change}
    datasets = read_report(workspace / "data" / "report.json")["datasets"]
    return {"effective_config": {"train": train}, "datasets": datasets}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated data plus finished ERM and JTT runs."""
    root = tmp_path_factory.mktemp("cli")
    (root / "gen.ini").write_text(GENERATE)
    (root / "erm.ini").write_text(ERM)
    (root / "jtt.ini").write_text(JTT)
    (root / "cvar.ini").write_text(CVAR)
    assert run(["generate", "--config", root / "gen.ini", "--out", root / "data"]) == 0
    assert run(["train", "--config", root / "erm.ini", "--out", root / "erm",
                "--data", root / "data"]) == 0
    assert run(["train", "--config", root / "jtt.ini", "--out", root / "jtt",
                "--data", root / "data"]) == 0
    return root


@pytest.fixture(scope="module")
def cvar_run(workspace):
    """A finished cvar run on the workspace's data."""
    assert run(["train", "--config", workspace / "cvar.ini", "--out", workspace / "cvar",
                "--data", workspace / "data"]) == 0
    return workspace / "cvar"


@pytest.fixture(scope="module")
def other_data(workspace):
    """The workspace's data generated with another seed."""
    assert run(["generate", "--config", workspace / "gen.ini", "--out", workspace / "other",
                "--seed", 8]) == 0
    return workspace / "other"


class TestGenerate:
    def test_writes_three_datasets_with_fingerprints(self, workspace):
        report = read_report(workspace / "data" / "report.json")
        for split in ("train", "val", "test"):
            assert (workspace / "data" / f"{split}.csv").exists()
            entry = report["datasets"][split]
            assert entry["fingerprint"].startswith("sha256:")
        assert report["effective_config"]["generate"]["majority_fraction"] == 0.95

    def test_regeneration_fingerprints_match(self, workspace, tmp_path):
        assert run(["generate", "--config", workspace / "gen.ini",
                    "--out", tmp_path / "data2"]) == 0
        a = read_report(workspace / "data" / "report.json")
        b = read_report(tmp_path / "data2" / "report.json")
        assert strip_timing(a) == strip_timing(b)

    def test_seed_override_changes_content(self, workspace, tmp_path):
        assert run(["generate", "--config", workspace / "gen.ini",
                    "--out", tmp_path / "data3", "--seed", "99"]) == 0
        report = read_report(tmp_path / "data3" / "report.json")
        assert report["effective_config"]["generate"]["seed"] == 99
        original = read_report(workspace / "data" / "report.json")
        assert (report["datasets"]["train"]["fingerprint"]
                != original["datasets"]["train"]["fingerprint"])


class TestTrain:
    def test_report_metrics_and_outputs(self, workspace):
        report = read_report(workspace / "erm" / "report.json")
        metrics = report["results"]["metrics"]
        for block in ("worst-group", "average", "final"):
            assert "val" in metrics[block] or block != "final"
        wg = metrics["worst-group"]
        assert 0.0 <= wg["test"]["worst_group_accuracy"] <= 1.0
        assert wg["test"]["worst_group_accuracy"] <= wg["test"]["average_accuracy"]
        for name in ("history.csv", "model_final.txt",
                     "model_best_worst_group.txt", "model_best_average.txt"):
            assert (workspace / "erm" / name).exists()

    def test_jtt_report_carries_diagnostics_and_both_models(self, workspace):
        report = read_report(workspace / "jtt" / "report.json")
        assert (workspace / "jtt" / "model_identification.txt").exists()
        assert (workspace / "jtt" / "error_set.csv").exists()
        diag = report["results"]["diagnostics"]
        assert diag["error_set_size"] > 0
        assert len(diag["error_set_stats"]) == 4
        assert len(diag["enrichment"]) == 4

    def test_end_to_end_determinism(self, workspace, tmp_path):
        assert run(["train", "--config", workspace / "jtt.ini", "--out",
                    tmp_path / "jtt2", "--data", workspace / "data"]) == 0
        a = read_report(workspace / "jtt" / "report.json")
        b = read_report(tmp_path / "jtt2" / "report.json")
        assert strip_timing(a) == strip_timing(b)
        assert (workspace / "jtt" / "model_final.txt").read_text() \
            == (tmp_path / "jtt2" / "model_final.txt").read_text()

    def test_effective_config_embeds_defaults(self, workspace):
        cfg = read_report(workspace / "erm" / "report.json")["effective_config"]["train"]
        assert cfg["momentum"] == 0.9
        assert cfg["group_step_size"] == 0.01
        assert cfg["alpha"] is None

    def test_cvar_losses_written(self, workspace, tmp_path):
        assert run(["train", "--config", workspace / "cvar.ini", "--out",
                    tmp_path / "cvar", "--data", workspace / "data"]) == 0
        assert (tmp_path / "cvar" / "cvar_losses.csv").exists()


class TestSweepAnalyzeAblateStudy:
    def test_sweep(self, workspace, tmp_path):
        (tmp_path / "sweep.ini").write_text(
            JTT + "\n[grid]\nupweight_factor = 1, 6\n\n[sweep]\ncriterion = worst-group\n")
        assert run(["sweep", "--config", tmp_path / "sweep.ini", "--out",
                    tmp_path / "sweep", "--data", workspace / "data"]) == 0
        report = read_report(tmp_path / "sweep" / "report.json")
        assert report["results"]["n_configs"] == 2
        best = report["results"]["best_by_worst_group"]
        other = report["results"]["best_by_average"]
        assert best["metrics"]["val_worst_group"] >= other["metrics"]["val_worst_group"] - 1e-12
        text = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert text[0].startswith("index,algorithm")
        assert "wg_selected_epoch" in text[0] and "avg_selected_epoch" in text[0]
        assert len(text) == 3

    def test_analyze(self, workspace, tmp_path):
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {workspace / 'jtt'}\n"
            f"erm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 0
        report = read_report(tmp_path / "an" / "report.json")
        stats = report["results"]["error_set_stats"]
        assert stats["error_set_size"] > 0
        assert 0 <= stats["precision"] <= 1
        assert (tmp_path / "an" / "enrichment.csv").exists()

    def test_analyze_reads_only_the_training_split(self, workspace, tmp_path):
        only_train = tmp_path / "only-train"
        only_train.mkdir()
        (only_train / "train.csv").write_bytes((workspace / "data" / "train.csv").read_bytes())
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {workspace / 'jtt'}\n"
            f"erm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", only_train]) == 0
        assert list(read_report(tmp_path / "an" / "report.json")["datasets"]) == ["train"]

    def test_analyze_cvar_composition(self, workspace, tmp_path):
        assert run(["train", "--config", workspace / "cvar.ini", "--out",
                    tmp_path / "cvar", "--data", workspace / "data"]) == 0
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {tmp_path / 'cvar'}\n"
            f"erm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 0
        report = read_report(tmp_path / "an" / "report.json")
        assert report["results"]["composition"]["epochs"] == 6
        lines = (tmp_path / "an" / "composition.csv").read_text().splitlines()
        assert lines[0] == "epoch,set_size,precision,recall"
        assert len(lines) == 7

    @pytest.mark.parametrize("extra", [-40, 50])
    def test_analyze_rejects_snapshots_of_another_width(self, workspace, tmp_path, capsys, extra):
        n_train = len(load_csv(workspace / "data" / "train.csv"))
        width = n_train + extra
        run_dir = tmp_path / "cvar"
        run_dir.mkdir()
        (run_dir / "report.json").write_text(json.dumps(cvar_report(workspace)))
        write_loss_snapshots_csv(run_dir / "cvar_losses.csv", np.ones((6, width)))
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {run_dir}\nerm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "InputError"
        assert err["message"] == (f"{run_dir / 'cvar_losses.csv'}: loss snapshot 0 has {width} "
                                  f"losses; the training set has {n_train} examples")

    def test_untrained_cvar_run_leaves_a_snapshot_header_that_analyze_rejects(
            self, workspace, tmp_path, capsys):
        (tmp_path / "cvar.ini").write_text(CVAR.replace("epochs = 6", "epochs = 0"))
        assert run(["train", "--config", tmp_path / "cvar.ini", "--out", tmp_path / "cvar",
                    "--data", workspace / "data"]) == 0
        n_train = len(load_csv(workspace / "data" / "train.csv"))
        header = ",".join(["epoch"] + [f"x{i}" for i in range(n_train)])
        assert (tmp_path / "cvar" / "cvar_losses.csv").read_text() == header + "\n"
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {tmp_path / 'cvar'}\n"
            f"erm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["message"] == (f"{tmp_path / 'cvar' / 'cvar_losses.csv'}: the run trained "
                                  "0 epochs, so it has no loss snapshots to analyze")
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("change, reason", [
        ({"alpha": "0.25"}, "'effective_config.train' is not a valid TrainConfig: "
                            "alpha: must be a number"),
        ({"algorithm": "erm"}, "loss snapshots need a cvar run, not 'erm'"),
    ], ids=["string-alpha", "not-cvar"])
    def test_analyze_names_the_report_whose_cvar_config_it_cannot_read(
            self, workspace, tmp_path, capsys, change, reason):
        run_dir = tmp_path / "cvar"
        run_dir.mkdir()
        (run_dir / "report.json").write_text(json.dumps(cvar_report(workspace, **change)))
        n_train = len(load_csv(workspace / "data" / "train.csv"))
        write_loss_snapshots_csv(run_dir / "cvar_losses.csv", np.ones((2, n_train)))
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {run_dir}\nerm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert (err["type"], err["message"]) == ("InputError",
                                                 f"{run_dir / 'report.json'}: {reason}")
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("edit, error", [
        (lambda lines: lines[:3] + lines[2:],
         ("IngestionError", "row 3, column 'epoch': expected epoch 2, found 1")),
        (lambda lines: lines + ["6" + lines[-1][1:]],
         ("InputError", "7 loss snapshots, but the run trained 6 epochs")),
        (lambda lines: lines[:-1], ("InputError", "5 loss snapshots, but the run trained 6 epochs")),
    ], ids=["duplicate-row", "extra-epoch", "missing-epoch"])
    def test_analyze_takes_the_snapshots_of_the_runs_epochs_only(
            self, workspace, cvar_run, tmp_path, capsys, edit, error):
        run_dir = tmp_path / "cvar"
        shutil.copytree(cvar_run, run_dir)
        lines = (run_dir / "cvar_losses.csv").read_bytes().decode().split("\r\n")[:-1]
        (run_dir / "cvar_losses.csv").write_bytes("".join(f"{line}\r\n" for line in edit(lines)).encode())
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {run_dir}\nerm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert (err["type"], err["message"]) == (error[0],
                                                 f"{run_dir / 'cvar_losses.csv'}: {error[1]}")
        assert not (tmp_path / "an").exists()

    def test_analyze_checks_the_data_before_reading_the_runs_files(
            self, workspace, other_data, tmp_path, capsys):
        run_dir = tmp_path / "cvar"
        run_dir.mkdir()
        report = cvar_report(workspace)
        (run_dir / "report.json").write_text(json.dumps(report))
        (run_dir / "cvar_losses.csv").write_text("epoch,x0\n0,abc\n")
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {run_dir}\nerm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", other_data]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        recorded = report["datasets"]["train"]["fingerprint"]
        found = fingerprint(load_csv(other_data / "train.csv"))
        assert (err["type"], err["message"]) == (
            "InputError", f"{run_dir / 'report.json'}: the run's train split has fingerprint "
                          f"{recorded}, but --data {other_data} has {found}")
        assert not (tmp_path / "an").exists()

    def test_analyze_of_a_run_without_a_train_config_names_report_and_key(
            self, workspace, tmp_path, capsys):
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {workspace / 'data'}\n"
            f"erm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "InputError"
        assert err["message"] == (f"{workspace / 'data' / 'report.json'}: report has no key "
                                  "'effective_config.train.algorithm'")
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("worst_group, message", [
        (None, "report has no key 'results.metrics.worst-group.test.worst_group'"),
        ([1], "'results.metrics.worst-group.test.worst_group' is not an [attribute, label] pair"),
    ], ids=["missing", "malformed"])
    def test_analyze_names_the_reference_reports_bad_worst_group(
            self, workspace, tmp_path, capsys, worst_group, message):
        test = {} if worst_group is None else {"worst_group": worst_group}
        reference = tmp_path / "erm.json"
        reference.write_text(json.dumps({"results": {"metrics": {"worst-group": {"test": test}}}}))
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {workspace / 'jtt'}\nerm_report = {reference}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert (err["type"], err["message"]) == ("InputError", f"{reference}: {message}")

    def test_ablate(self, workspace, tmp_path):
        (tmp_path / "ab.ini").write_text(
            f"[ablate]\nrun = {workspace / 'jtt'}\nmode = drop-y-neq-a\n")
        assert run(["ablate", "--config", tmp_path / "ab.ini", "--out",
                    tmp_path / "ab", "--data", workspace / "data"]) == 0
        report = read_report(tmp_path / "ab" / "report.json")
        res = report["results"]
        assert res["mode"] == "drop-y-neq-a"
        assert res["modified_error_set_size"] < res["original_error_set_size"]
        assert res["delta"] == pytest.approx(
            res["modified_test_worst_group_accuracy"]
            - res["original_test_worst_group_accuracy"])
        assert (tmp_path / "ab" / "error_set_modified.csv").exists()

    @pytest.mark.parametrize("change, reason", [
        ({"bogus": 1}, "unexpected keyword argument 'bogus'"),
        ({"epochs": "5"}, "epochs: must be an integer"),
        ({"epochs": True}, "epochs: must be an integer"),
        ({"epochs": -1}, "epochs: must be >= 0"),
    ], ids=["unknown-key", "wrong-type", "boolean", "out-of-range"])
    def test_ablate_names_the_report_whose_train_config_it_cannot_build(
            self, workspace, tmp_path, capsys, change, reason):
        report = json.loads((workspace / "jtt" / "report.json").read_text())
        report["effective_config"]["train"].update(change)
        run_dir = tmp_path / "jtt"
        run_dir.mkdir()
        (run_dir / "report.json").write_text(json.dumps(report))
        (tmp_path / "ab.ini").write_text(f"[ablate]\nrun = {run_dir}\nmode = drop-y-neq-a\n")
        assert run(["ablate", "--config", tmp_path / "ab.ini", "--out",
                    tmp_path / "ab", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["type"] == "InputError"
        prefix = f"{run_dir / 'report.json'}: 'effective_config.train' is not a valid TrainConfig: "
        assert err["message"].startswith(prefix)
        assert reason in err["message"]
        assert not (tmp_path / "ab").exists()

    def test_ablate_checks_the_runs_worst_group_accuracy_before_retraining(
            self, workspace, tmp_path, capsys, monkeypatch):
        report = json.loads((workspace / "jtt" / "report.json").read_text())
        report["results"]["metrics"]["worst-group"]["test"]["worst_group_accuracy"] = "0.5"
        run_dir = tmp_path / "jtt"
        run_dir.mkdir()
        (run_dir / "report.json").write_text(json.dumps(report))
        (run_dir / "error_set.csv").write_bytes((workspace / "jtt" / "error_set.csv").read_bytes())
        retrained = []
        monkeypatch.setattr(cli, "train_upweighted", lambda *a: retrained.append(a))
        (tmp_path / "ab.ini").write_text(f"[ablate]\nrun = {run_dir}\nmode = drop-y-neq-a\n")
        assert run(["ablate", "--config", tmp_path / "ab.ini", "--out",
                    tmp_path / "ab", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert (err["type"], err["message"]) == (
            "InputError", f"{run_dir / 'report.json'}: "
                          "'results.metrics.worst-group.test.worst_group_accuracy' is not a number")
        assert retrained == []
        assert not (tmp_path / "ab").exists()

    def test_ablate_of_a_one_stage_run_names_the_report(self, workspace, tmp_path, capsys):
        (tmp_path / "ab.ini").write_text(f"[ablate]\nrun = {workspace / 'erm'}\nmode = drop-y-neq-a\n")
        assert run(["ablate", "--config", tmp_path / "ab.ini", "--out",
                    tmp_path / "ab", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert (err["type"], err["message"]) == (
            "InputError", f"{workspace / 'erm' / 'report.json'}: ablate needs a run of the "
                          "two-stage trainer, not 'erm'")
        assert not (tmp_path / "ab").exists()

    def test_ablate_drop_majority_alignment(self, workspace, tmp_path):
        (tmp_path / "ab2.ini").write_text(
            f"[ablate]\nrun = {workspace / 'jtt'}\nmode = drop-y-eq-a\n")
        assert run(["ablate", "--config", tmp_path / "ab2.ini", "--out",
                    tmp_path / "ab2", "--data", workspace / "data"]) == 0
        res = read_report(tmp_path / "ab2" / "report.json")["results"]
        assert {"original_test_worst_group_accuracy",
                "modified_test_worst_group_accuracy"} <= set(res)

    @pytest.mark.parametrize("command", ["analyze", "ablate"])
    def test_run_readers_reject_another_dataset_before_retraining(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        other = tmp_path / "other"  # the workspace's data with another seed
        assert run(["generate", "--config", workspace / "gen.ini", "--out", other,
                    "--seed", 8]) == 0
        retrained = []
        monkeypatch.setattr(cli, "train_upweighted", lambda *a: retrained.append(a))
        (tmp_path / "cmd.ini").write_text(
            f"[analyze]\nrun = {workspace / 'jtt'}\n"
            f"erm_report = {workspace / 'erm' / 'report.json'}\n"
            if command == "analyze" else
            f"[ablate]\nrun = {workspace / 'jtt'}\nmode = drop-y-neq-a\n")
        assert run([command, "--config", tmp_path / "cmd.ini", "--out",
                    tmp_path / "out", "--data", other]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        recorded = read_report(workspace / "jtt" / "report.json")["datasets"]["train"]
        found = fingerprint(load_csv(other / "train.csv"))
        assert (err["type"], err["message"]) == (
            "InputError", f"{workspace / 'jtt' / 'report.json'}: the run's train split has "
                          f"fingerprint {recorded['fingerprint']}, but --data {other} has {found}")
        assert retrained == []
        assert not (tmp_path / "out").exists()

    def test_analyze_rejects_a_reference_measured_on_another_test_split(
            self, workspace, tmp_path, capsys):
        report = json.loads((workspace / "erm" / "report.json").read_text())
        report["datasets"]["test"]["fingerprint"] = "sha256:" + "0" * 64
        reference = tmp_path / "erm.json"
        reference.write_text(json.dumps(report))
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {workspace / 'jtt'}\nerm_report = {reference}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        run_report = workspace / "jtt" / "report.json"
        run_test = read_report(run_report)["datasets"]["test"]["fingerprint"]
        assert (err["type"], err["message"]) == (
            "InputError", f"{reference}: the run's test split has fingerprint "
                          f"sha256:{'0' * 64}, but {run_report} has {run_test}")
        assert not (tmp_path / "an").exists()

    def test_analyze_of_an_unannotated_training_split_names_the_file(
            self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for split in ("val", "test"):
            shutil.copy(workspace / "data" / f"{split}.csv", data)
        save_csv(strip_group_annotations(load_csv(workspace / "data" / "train.csv")),
                 data / "train.csv")
        assert run(["train", "--config", workspace / "jtt.ini", "--out", tmp_path / "jtt",
                    "--data", data]) == 0
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {tmp_path / 'jtt'}\n"
            f"erm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", data]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert (err["type"], err["message"]) == (
            "InputError", f"{data / 'train.csv'}: analyze needs a group-annotated "
                          "stored training set")
        assert not (tmp_path / "an").exists()

    def test_analyze_of_a_run_with_neither_error_set_nor_snapshots(
            self, workspace, tmp_path, capsys):
        (tmp_path / "an.ini").write_text(
            f"[analyze]\nrun = {workspace / 'erm'}\n"
            f"erm_report = {workspace / 'erm' / 'report.json'}\n")
        assert run(["analyze", "--config", tmp_path / "an.ini", "--out",
                    tmp_path / "an", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert (err["type"], err["message"]) == (
            "InputError", f"run {workspace / 'erm'} has neither an error set nor loss snapshots")
        assert not (tmp_path / "an").exists()

    def test_ablate_of_a_run_without_its_error_set(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "jtt"
        run_dir.mkdir()
        shutil.copy(workspace / "jtt" / "report.json", run_dir)
        (tmp_path / "ab.ini").write_text(f"[ablate]\nrun = {run_dir}\nmode = drop-y-neq-a\n")
        assert run(["ablate", "--config", tmp_path / "ab.ini", "--out",
                    tmp_path / "ab", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert (err["type"], err["message"]) == (
            "InputError", f"run {run_dir} has no error_set.csv")
        assert not (tmp_path / "ab").exists()

    @pytest.mark.parametrize("command", ["analyze", "ablate"])
    @pytest.mark.parametrize("index", [99999, -3])
    def test_bad_error_set_index_names_the_file(self, workspace, tmp_path, capsys, command,
                                                index):
        run_dir = tmp_path / "jtt"
        run_dir.mkdir()
        (run_dir / "report.json").write_bytes((workspace / "jtt" / "report.json").read_bytes())
        lines = (workspace / "jtt" / "error_set.csv").read_text().splitlines() + [str(index)]
        (run_dir / "error_set.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "cmd.ini").write_text(
            f"[analyze]\nrun = {run_dir}\nerm_report = {workspace / 'erm' / 'report.json'}\n"
            if command == "analyze" else f"[ablate]\nrun = {run_dir}\nmode = drop-y-neq-a\n")
        assert run([command, "--config", tmp_path / "cmd.ini", "--out",
                    tmp_path / "out", "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())["error"]
        path = run_dir / "error_set.csv"
        n_train = len(load_csv(workspace / "data" / "train.csv"))
        assert (err["type"], err["message"]) == (
            ("InputError", f"{path}: error-set index {index} is out of range for dataset "
                           f"'data/train' of {n_train} rows")
            if index > 0 else
            ("IngestionError", f"{path}: line {len(lines)}: negative index {index}"))
        assert not (tmp_path / "out").exists()

    def test_val_study(self, workspace, tmp_path):
        (tmp_path / "vs.ini").write_text(
            ERM + "\n[study]\nfractions = 1, 0.25\nseeds = 0, 1\n")
        assert run(["val-study", "--config", tmp_path / "vs.ini", "--out",
                    tmp_path / "vs", "--data", workspace / "data"]) == 0
        report = read_report(tmp_path / "vs" / "report.json")
        rows = report["results"]["rows"]
        assert [r["fraction"] for r in rows] == [1.0, 0.25]
        lines = (tmp_path / "vs" / "study.csv").read_text().splitlines()
        assert lines[0].startswith("fraction,median_test_worst_group")
        assert len(lines) == 3


def _train_config(**changes):
    cfg = {"algorithm": "erm", "epochs": 6, "batch_size": 32, "learning_rate": 0.02,
           "momentum": 0.9, "l2": 0.001, "seed": 0, "hidden": [], "id_epochs": None,
           "upweight_factor": None, "refresh_every": None, "alpha": None, "gce_q": None,
           "group_step_size": 0.01}
    return {**cfg, **changes}


@pytest.fixture(scope="module")
def commands(workspace):
    """A finished run of every command beyond the workspace's own, by name."""
    root = workspace
    data = ["--data", root / "data"]
    configs = {
        "sweep": (JTT + "\n[grid]\nupweight_factor = 1, 6\n\n[sweep]\ncriterion = average\n",
                  ["--seed", "3"] + data),
        "val-study": (ERM + "\n[study]\nfractions = 1, 0.5\nseeds = 0, 1\n", data),
        "analyze": (f"[analyze]\nrun = {root / 'jtt'}\n"
                    f"erm_report = {root / 'erm' / 'report.json'}\n", data),
        "ablate": (f"[ablate]\nrun = {root / 'jtt'}\nmode = drop-group\ngroup = 1, 0\n"
                   "seed = 4\n", ["--seed", "7"] + data),
        "generate": (GENERATE, ["--seed", "99"]),
        "cvar": (CVAR, data),
        "group-dro": (GROUP_DRO, data),
        "upsample-minority": (UPSAMPLE, data),
    }
    runs = {}
    for name, (text, extra) in configs.items():
        (root / f"cmd-{name}.ini").write_text(text)
        command = name if name in cli._HANDLERS else "train"
        runs[name] = root / f"cmd-{name}"
        assert run([command, "--config", root / f"cmd-{name}.ini", "--out", runs[name]]
                   + extra) == 0
    runs["analyze-cvar"] = root / "cmd-analyze-cvar"
    (root / "cmd-analyze-cvar.ini").write_text(
        f"[analyze]\nrun = {runs['cvar']}\nerm_report = {root / 'erm' / 'report.json'}\n")
    assert run(["analyze", "--config", root / "cmd-analyze-cvar.ini",
                "--out", runs["analyze-cvar"]] + data) == 0
    return runs


class TestReportAssembly:
    @pytest.mark.parametrize("name", [
        "data", "erm", "jtt", "cmd-sweep", "cmd-val-study", "cmd-analyze", "cmd-ablate",
        "cmd-generate", "cmd-cvar", "cmd-group-dro", "cmd-upsample-minority",
        "cmd-analyze-cvar"])
    def test_outputs_name_every_file_but_the_report(self, workspace, commands, name):
        out = workspace / name
        files = sorted(p.name for p in out.iterdir() if p.name != "report.json")
        assert sorted(read_report(out / "report.json")["outputs"].values()) == files

    def test_group_weights_and_minority_set_size_match_the_runs_aux(self, workspace, commands):
        train_ds = load_csv(workspace / "data" / "train.csv")
        val_ds = load_csv(workspace / "data" / "val.csv")

        def aux(name):
            return train(train_ds, val_ds, parse_config(workspace / f"cmd-{name}.ini").train).aux

        weights = aux("group-dro")["group_weights"]
        reported = read_report(commands["group-dro"] / "report.json")["results"]["group_weights"]
        assert [(r["attribute"], r["label"]) for r in reported] == sorted(weights)
        assert [r["weight"] for r in reported] == [weights[g] for g in sorted(weights)]
        minority = aux("upsample-minority")["minority_set"]
        report = read_report(commands["upsample-minority"] / "report.json")
        assert report["results"]["minority_set_size"] == len(minority)
        assert len(minority) == int((train_ds.attributes != train_ds.labels).sum())

    def test_effective_config_of_every_other_command(self, workspace, commands):
        jtt = _train_config(algorithm="jtt", id_epochs=1, upweight_factor=6)
        expected = {
            "cmd-sweep": {"train": {**jtt, "seed": 3}, "grid": {"upweight_factor": [1, 6]},
                          "sweep": {"criterion": "average"}},
            "cmd-val-study": {"train": _train_config(), "grid": {},
                              "study": {"fractions": [1.0, 0.5], "seeds": [0, 1]}},
            "cmd-analyze": {"analyze": {"run": str(workspace / "jtt"),
                                        "erm_report": str(workspace / "erm" / "report.json")}},
            "cmd-ablate": {"ablate": {"run": str(workspace / "jtt"), "mode": "drop-group",
                                      "group": [1, 0], "seed": 7},
                           "train": jtt},
            "cmd-generate": {"generate": {
                "n_train": 400, "n_val": 160, "n_test": 240, "majority_fraction": 0.95,
                "label_balance": [0.75, 0.25], "core_separation": 2.0,
                "spurious_separation": 4.0, "noise_dims": 2, "noise_sigma": 1.0, "seed": 99}},
        }
        for name, config in expected.items():
            assert read_report(workspace / name / "report.json")["effective_config"] == config
        ablate = read_report(commands["ablate"] / "report.json")["results"]
        assert (ablate["group"], ablate["seed"]) == ([1, 0], 7)


class TestFormatsEachSplitOnce:
    """A command formats each split's canonical CSV text once: the check of
    its array twin, `save_csv`, the split check of a run reader and the
    report's fingerprint share one digest."""

    @pytest.mark.parametrize("command, twins", [
        ("generate", True), ("analyze", True), ("analyze", False), ("ablate", True),
        ("ablate", False)])
    def test_one_formatting_pass_per_split(self, workspace, tmp_path, monkeypatch,
                                           command, twins):
        data = workspace / "data"
        if not twins:
            data = tmp_path / "csv-only"
            data.mkdir()
            for split in ("train", "val", "test"):
                shutil.copy(workspace / "data" / f"{split}.csv", data)
        configs = {
            "generate": GENERATE,
            "analyze": (f"[analyze]\nrun = {workspace / 'jtt'}\n"
                        f"erm_report = {workspace / 'erm' / 'report.json'}\n"),
            "ablate": f"[ablate]\nrun = {workspace / 'jtt'}\nmode = drop-y-neq-a\n",
        }
        (tmp_path / "cmd.ini").write_text(configs[command])
        passes, blocks = collections.Counter(), data_module.dataset_csv_blocks

        def counting(ds):
            passes[ds.name] += 1
            return blocks(ds)

        monkeypatch.setattr(data_module, "dataset_csv_blocks", counting)
        extra = [] if command == "generate" else ["--data", data]
        assert run([command, "--config", tmp_path / "cmd.ini", "--out", tmp_path / "out"]
                   + extra) == 0
        splits = read_report(tmp_path / "out" / "report.json")["datasets"]
        assert len(passes) == len(splits) == (1 if command == "analyze" else 3)
        assert set(passes.values()) == {1}


def test_back_to_back_commands_parse_independently(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; each `main` call still gets a
    namespace of its own command's arguments, and a bad argument list in
    between exits 1 and leaves the next call unaffected."""
    seen = []
    monkeypatch.setattr(cli, "parse_config", lambda path: None)
    monkeypatch.setattr(cli, "_HANDLERS", {
        name: lambda _parsed, args, _out: seen.append(vars(args)) or {}
        for name in cli._HANDLERS})
    calls = [
        ["train", "--config", "a.ini", "--out", tmp_path / "o1", "--data", "d", "--seed", "5"],
        ["analyze", "--config", "b.ini", "--out", tmp_path / "o2", "--data", "e"],
        ["train", "--config", "c.ini", "--out", tmp_path / "o3", "--data", "f"],
        ["generate", "--config", "g.ini", "--out", tmp_path / "o4", "--seed", "7"],
    ]
    assert [run(argv) for argv in calls[:2]] == [0, 0]
    assert run(["train", "--config", "x.ini"]) == 1  # --out and --data missing
    assert "required" in capsys.readouterr().err
    assert [run(argv) for argv in calls[2:]] == [0, 0]
    assert seen == [
        {"command": "train", "config": "a.ini", "out": str(tmp_path / "o1"), "data": "d",
         "seed": 5},
        {"command": "analyze", "config": "b.ini", "out": str(tmp_path / "o2"), "data": "e"},
        {"command": "train", "config": "c.ini", "out": str(tmp_path / "o3"), "data": "f",
         "seed": None},
        {"command": "generate", "config": "g.ini", "out": str(tmp_path / "o4"), "seed": 7},
    ]
    assert cli._build_parser() is cli._build_parser()


class TestFailureModes:
    def test_config_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(ERM + "bogus = 1\n")
        assert run(["train", "--config", bad, "--out", tmp_path / "o",
                    "--data", tmp_path]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "config"

    def test_missing_config_exits_1(self, tmp_path):
        assert run(["train", "--config", tmp_path / "none.ini",
                    "--out", tmp_path / "o", "--data", tmp_path]) == 1

    @pytest.mark.parametrize("name", ["", "latin1.ini"])  # a directory, a non-UTF-8 file
    def test_unreadable_config_exits_1(self, tmp_path, capsys, name):
        config = tmp_path / name
        if name:
            config.write_bytes(ERM.encode() + b"# caf\xe9\n")
        assert run(["train", "--config", config, "--out", tmp_path / "o",
                    "--data", tmp_path]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "config"
        assert err["error"]["message"].startswith(f"{config}: cannot read config file")

    def test_negative_seed_exits_1_before_loading_data(self, workspace, tmp_path, capsys):
        out = tmp_path / "neg"
        assert run(["train", "--config", workspace / "erm.ini", "--out", out,
                    "--data", workspace / "data", "--seed", "-3"]) == 1
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["fractions", "seeds"])
    def test_empty_study_list_exits_1_before_loading_data(self, tmp_path, capsys, key):
        study = {"fractions": "1, 0.5", "seeds": "0, 1", key: ""}
        config = tmp_path / "vs.ini"
        config.write_text(ERM + "\n[study]\n" + "".join(f"{k} = {v}\n" for k, v in study.items()))
        out = tmp_path / "vs"
        assert run(["val-study", "--config", config, "--out", out,
                    "--data", tmp_path / "no-data-here"]) == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["kind"] == "config"
        assert err["message"].startswith(f"{config}: line ")
        assert f"key {key!r}" in err["message"]
        assert not out.exists()

    def test_generate_with_a_split_too_small_for_its_groups_exits_1(self, tmp_path, capsys):
        config = tmp_path / "gen.ini"
        config.write_text(GENERATE.replace("n_val = 160", "n_val = 3"))
        out = tmp_path / "data"
        assert run(["generate", "--config", config, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["kind"] == "config"
        assert err["message"] == f"{config}: [generate] n_val: must be >= 4 (line 4)"
        assert not out.exists() and not (tmp_path / "data.partial").exists()

    @pytest.mark.parametrize("command", ["sweep", "val-study"])
    @pytest.mark.parametrize("section, config", [
        ("train", ERM.replace("epochs = 6", "epochs = 0")),
        ("grid", ERM + "\n[grid]\nepochs = 0, 2\n"),
    ], ids=["train-epochs-0", "grid-epochs-0"])
    def test_sweep_with_an_untrained_grid_point_exits_1_before_loading_data(
            self, tmp_path, capsys, command, section, config):
        path = tmp_path / "sweep.ini"
        path.write_text(config + "\n[study]\nfractions = 1, 0.5\nseeds = 0, 1\n")
        out = tmp_path / "o"
        assert run([command, "--config", path, "--out", out,
                    "--data", tmp_path / "no-data-here"]) == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["kind"] == "config"
        assert err["message"] == f"{path}: [{section}] epochs: sweeps need epochs >= 1"
        assert not out.exists() and not (tmp_path / "o.partial").exists()

    def test_runtime_error_exits_2_and_cleans_partial(self, workspace, tmp_path, capsys):
        out = tmp_path / "broken"
        assert run(["train", "--config", workspace / "erm.ini", "--out", out,
                    "--data", tmp_path / "missing"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["kind"] == "runtime"
        assert not out.exists()
        assert not (tmp_path / "broken.partial").exists()

    def test_usage_error_exits_1(self, capsys):
        assert run(["train"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command, config, extra", [
        ("generate", "gen.ini", ["--data", "nowhere"]),
        ("analyze", None, ["--seed", "5"]),
        ("train", "erm.ini", []),
    ], ids=["generate-with-data", "analyze-with-seed", "train-without-data"])
    def test_flag_a_command_does_not_take_or_lacks_is_a_usage_error(
            self, workspace, tmp_path, capsys, command, config, extra):
        if config is None:
            config = tmp_path / "an.ini"
            config.write_text(f"[analyze]\nrun = {workspace / 'jtt'}\n"
                              f"erm_report = {workspace / 'erm' / 'report.json'}\n")
            extra = extra + ["--data", workspace / "data"]
        out = tmp_path / "o"
        assert run([command, "--config", workspace / config, "--out", out] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "error: " in err
        assert not out.exists()

    def test_occupied_output_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run(["train", "--config", workspace / "erm.ini", "--out", out,
                    "--data", workspace / "data"]) == 2
        capsys.readouterr()

    def test_stale_partial_is_replaced(self, workspace, tmp_path):
        stale = tmp_path / "data.partial"
        stale.mkdir()
        (stale / "leftover.csv").write_text("x")
        out = tmp_path / "data"
        assert run(["generate", "--config", workspace / "gen.ini", "--out", out]) == 0
        assert not stale.exists()
        assert sorted(p.name for p in out.iterdir()) == [
            "report.json", "test.csv", "test.npy", "train.csv", "train.npy", "val.csv", "val.npy"]

    def test_empty_output_directory_is_filled(self, workspace, tmp_path):
        out = tmp_path / "data"
        out.mkdir()
        assert run(["generate", "--config", workspace / "gen.ini", "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "report.json", "test.csv", "test.npy", "train.csv", "train.npy", "val.csv", "val.npy"]
        assert not (tmp_path / "data.partial").exists()

    def test_interrupt_propagates_and_cleans_partial(self, workspace, tmp_path, monkeypatch):
        def interrupted(parsed, args, out):
            out.path("history.csv").write_text("epoch\n")
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "train", interrupted)
        out = tmp_path / "interrupted"
        with pytest.raises(KeyboardInterrupt):
            run(["train", "--config", workspace / "erm.ini", "--out", out,
                 "--data", workspace / "data"])
        assert not out.exists()
        assert not (tmp_path / "interrupted.partial").exists()

    def test_divergence_exits_2_and_cleans_partial(self, workspace, tmp_path, capsys):
        config = tmp_path / "diverge.ini"
        config.write_text(ERM.replace("learning_rate = 0.02", "learning_rate = 1e200"))
        out = tmp_path / "diverged"
        assert run(["train", "--config", config, "--out", out,
                    "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["type"] == "FloatingPointError"
        assert "non-finite" in err["error"]["message"]
        assert not out.exists()
        assert not (tmp_path / "diverged.partial").exists()

    def test_sweep_divergence_exits_2_with_the_first_diverging_points_error(
            self, workspace, tmp_path, capsys):
        lone = tmp_path / "lone.ini"
        lone.write_text(ERM.replace("learning_rate = 0.02", "learning_rate = 1e200"))
        assert run(["train", "--config", lone, "--out", tmp_path / "lone",
                    "--data", workspace / "data"]) == 2
        expected = json.loads(capsys.readouterr().err.strip())["error"]
        config = tmp_path / "diverge.ini"
        config.write_text(ERM + "\n[grid]\nlearning_rate = 0.05, 1e200, 1e300\n")
        out = tmp_path / "diverged"
        assert run(["sweep", "--config", config, "--out", out,
                    "--data", workspace / "data"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == expected
        assert not out.exists()
        assert not (tmp_path / "diverged.partial").exists()

    def test_sigterm_exits_143_and_cleans_partial(self, workspace, tmp_path):
        config = tmp_path / "long.ini"
        config.write_text(ERM.replace("epochs = 6", "epochs = 1000000"))
        out, partial = tmp_path / "terminated", tmp_path / "terminated.partial"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "grouptrain.cli", "train", "--config", str(config),
             "--out", str(out), "--data", str(workspace / "data")],
            env=env, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while not partial.exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        finally:
            proc.kill()
            proc.wait()
        assert not out.exists()
        assert not partial.exists()

    def test_sigterm_in_a_finalizer_still_exits_143_and_cleans_partial(self, workspace, tmp_path):
        # A handler that raised would raise inside __del__, where Python
        # prints the exception and carries on with the run.
        script = (
            "import signal, sys\n"
            "from grouptrain import cli\n"
            "class Finalizer:\n"
            "    def __del__(self):\n"
            "        signal.raise_signal(signal.SIGTERM)\n"
            "def train(*args):\n"
            "    Finalizer()\n"
            "    return real_train(*args)\n"
            "real_train, cli.train = cli.train, train\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        out = tmp_path / "terminated"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "train", "--config", str(workspace / "erm.ini"),
             "--out", str(out), "--data", str(workspace / "data")],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 128 + signal.SIGTERM, proc.stderr.decode()
        assert not out.exists()
        assert not (tmp_path / "terminated.partial").exists()

    def test_missing_data_files_exit_2(self, workspace, tmp_path, capsys):
        empty = tmp_path / "emptydir"
        empty.mkdir()
        assert run(["train", "--config", workspace / "erm.ini",
                    "--out", tmp_path / "o", "--data", empty]) == 2
        capsys.readouterr()


class TestPersistence:
    def test_checkpoint_roundtrip_exact(self, tmp_path):
        model = init_model(Architecture(5, (4,), 3), 123)
        save_model(model, tmp_path / "m.txt")
        again = load_model(tmp_path / "m.txt")
        assert again.arch == model.arch
        assert np.array_equal(again.params, model.params)

    def test_checkpoint_with_other_activation_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(init_model(Architecture(5, (4,), 3), 123), path)
        text = path.read_text()
        assert "\nactivation=tanh\n" in text
        path.write_text(text.replace("activation=tanh", "activation=relu"))
        with pytest.raises(IngestionError, match="activation 'relu'"):
            load_model(path)

    @pytest.mark.parametrize("edit, reason", [
        (lambda lines: ["grouptrain-model v2"] + lines[1:],
         "not a 'grouptrain-model v1' checkpoint"),
        (lambda lines: lines[:1] + ["input_dim=x"] + lines[2:],
         "malformed checkpoint header (invalid literal for int() with base 10: 'x')"),
        (lambda lines: lines[:3] + ["classes=2"] + lines[4:],
         "malformed checkpoint header ('n_classes')"),
        (lambda lines: lines[:-1], "expected 6 parameters, found 5"),
        (lambda lines: lines + ["1.5", "garbage"], "line 13: '1.5' after the 6 parameters"),
    ], ids=["magic", "input-dim", "no-n-classes", "short", "long"])
    def test_checkpoint_rejections_name_the_file(self, tmp_path, edit, reason):
        path = tmp_path / "m.txt"
        save_model(init_model(Architecture(2, (), 2), 0), path)
        lines = path.read_text().splitlines()
        assert lines[1:6] == ["input_dim=2", "hidden=", "n_classes=2", "activation=tanh",
                              "params=6"]
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(IngestionError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: {reason}"

    def test_checkpoint_params_that_do_not_fit_the_architecture_name_the_file(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(init_model(Architecture(2, (), 2), 0), path)
        lines = path.read_text().splitlines()
        assert lines[5] == "params=6"
        path.write_text("\n".join(lines[:5] + ["params=3"] + lines[6:9]) + "\n")
        with pytest.raises(IngestionError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: params=3 does not fit the architecture (6 expected)"

    def test_dataset_save_is_byte_stable(self, workspace, tmp_path):
        ds = load_csv(workspace / "data" / "train.csv")
        save_csv(ds, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() \
            == (workspace / "data" / "train.csv").read_bytes()

    def test_fingerprint_semantics(self, workspace):
        ds = load_csv(workspace / "data" / "train.csv")
        assert fingerprint(ds) == fingerprint(ds)
        flipped = type(ds)(ds.features, 1 - ds.labels, ds.attributes, ds.name)
        assert fingerprint(flipped) != fingerprint(ds)
        assert fingerprint(strip_group_annotations(ds)) != fingerprint(ds)

    def test_loss_snapshots_csv_is_csv_writer_bytes(self, tmp_path):
        snapshots = np.array([[0.0, -0.0, 5e-324, 1e-300, 1e300],
                              [1e300, 1e-300, 5e-324, -0.0, 0.0],
                              [0.1, 1 / 3, 2.5, 7.0, 123456789.123]])
        expected = tmp_path / "expected.csv"
        with expected.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch"] + [f"x{i}" for i in range(5)])
            writer.writerows([e] + ["%.17g" % v for v in row] for e, row in enumerate(snapshots))
        write_loss_snapshots_csv(tmp_path / "snapshots.csv", snapshots)
        assert (tmp_path / "snapshots.csv").read_bytes() == expected.read_bytes()

    def test_error_set_csv_roundtrip(self, tmp_path):
        e = ErrorSet(np.array([3, 1, 8]), source_epoch=2)
        write_error_set_csv(tmp_path / "e.csv", e)
        again = read_error_set_csv(tmp_path / "e.csv")
        assert again == e

    @pytest.mark.parametrize("cell", ["abc", "nan"])
    def test_checkpoint_bad_parameter_names_file_and_line(self, tmp_path, cell):
        path = tmp_path / "m.txt"
        save_model(init_model(Architecture(5, (4,), 3), 123), path)
        lines = path.read_text().splitlines()
        lines[8] = cell
        path.write_text("\n".join(lines) + "\n")
        kind = "non-numeric" if cell == "abc" else "non-finite"
        with pytest.raises(IngestionError, match=rf"m\.txt: line 9: {kind} parameter '{cell}'"):
            load_model(path)

    @pytest.mark.parametrize("line", ["x", "# source_epoch=two"])
    def test_error_set_bad_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "e.csv"
        path.write_text(f"index\n3\n{line}\n")
        with pytest.raises(IngestionError, match=rf"e\.csv: line 3: not an integer: '{line}'"):
            read_error_set_csv(path)

    @pytest.mark.parametrize("text, lineno", [
        ("index\n3\n# source_epoch=2\n1\n# source_epoch=5\n", 3),
        ("index\n# source_epoch=2\n1\n# source_epoch=5\n", 4),
        ("index\n# source_epoch=2\n# source_epoch=2\n", 3),
    ], ids=["after-an-index", "after-the-indices", "twice"])
    def test_error_set_source_epoch_comes_once_before_the_indices(self, tmp_path, text, lineno):
        # The last of several used to win, wherever it stood.
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(IngestionError, match=rf"e\.csv: line {lineno}: '# source_epoch=\d' "
                                                 rf"must come once, before the first index$"):
            read_error_set_csv(path)

    def test_error_set_source_epoch_below_minus_one_names_file_and_line(self, tmp_path):
        # -1 (not from a model) is the only value below an epoch count.
        path = tmp_path / "e.csv"
        path.write_text("index\n# source_epoch=-7\n3\n")
        with pytest.raises(IngestionError, match=r"e\.csv: line 2: '# source_epoch=-7': the "
                                                 r"source epoch must be >= -1$"):
            read_error_set_csv(path)

    def test_loss_snapshots_round_trip_bit_for_bit(self, tmp_path):
        snapshots = np.array([[0.0, -0.0, 5e-324, 1e-300, 1e300],
                              [1e300, 1e-300, 5e-324, -0.0, 0.0]])
        write_loss_snapshots_csv(tmp_path / "s.csv", snapshots)
        again = read_loss_snapshots_csv(tmp_path / "s.csv")
        assert again.flags.c_contiguous
        assert np.array_equal(again.view(np.int64), snapshots.view(np.int64))

    @pytest.mark.parametrize("row, message", [
        ("1,0.5\r\n", r"row 2 has 2 cells, expected 3"),
        ("1,0.5,0.5,0.5\r\n", r"row 2 has 4 cells, expected 3"),
        ("1,0.5,abc\r\n", r"row 2, column 'x1': non-numeric loss 'abc'"),
        ("\r\n", r"row 2 has 0 cells, expected 3"),
    ])
    def test_loss_snapshots_bad_row_names_file_row_and_column(self, tmp_path, row, message):
        path = tmp_path / "s.csv"
        path.write_bytes(f"epoch,x0,x1\r\n0,0.5,0.5\r\n{row}".encode())
        with pytest.raises(IngestionError, match=r"s\.csv: " + message):
            read_loss_snapshots_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ("0,nan\n", "row 1, column 'x0': non-finite loss nan"),
        ("0,0.5\n1,-1e400\n", "row 2, column 'x0': non-finite loss -inf"),
        ("0,0.5\n0,0.5\n", "row 2, column 'epoch': expected epoch 1, found 0"),
        ("1,0.5\n", "row 1, column 'epoch': expected epoch 0, found 1"),
        ("0,0.5\n-1,0.5\n", "row 2, column 'epoch': bad epoch '-1'"),
        ("0.0,0.5\n", "row 1, column 'epoch': bad epoch '0.0'"),
    ])
    def test_loss_snapshots_need_finite_losses_and_epochs_from_zero(self, tmp_path, rows, message):
        path = tmp_path / "s.csv"
        path.write_text("epoch,x0\n" + rows)
        with pytest.raises(IngestionError) as err:
            read_loss_snapshots_csv(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("header", ["", "epoch,x1", "epoch,x0,x0", "epoch, x0",
                                        "x0,epoch", '"epoch",x0'])
    def test_loss_snapshots_need_the_header_they_are_written_with(self, tmp_path, header):
        path = tmp_path / "s.csv"
        path.write_text(f"{header}\n0,0.5\n")
        with pytest.raises(IngestionError) as err:
            read_loss_snapshots_csv(path)
        assert str(err.value) == f"{path}: not a loss-snapshot file"

    def test_loss_snapshots_without_rows_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("epoch,x0\n")
        with pytest.raises(IngestionError, match="no data rows"):
            read_loss_snapshots_csv(path)

    @pytest.mark.parametrize("reader, good", [
        (load_csv, b"label,attribute,f0\n1,0,0.5\n0,1,1.5\n"),
        (read_loss_snapshots_csv, b"epoch,x0,x1\r\n0,0.5,1.5\r\n"),
        (read_error_set_csv, b"index\n# source_epoch=1\n3\n"),
        (load_model, None),
        (read_report, b'{"command": "train", "results": {}}\n'),
    ], ids=["load_csv", "read_loss_snapshots_csv", "read_error_set_csv", "load_model",
            "read_report"])
    def test_reader_of_undecodable_file_names_it(self, tmp_path, reader, good):
        path = tmp_path / "input"
        if good is None:
            save_model(init_model(Architecture(2, (), 2), 0), path)
            good = path.read_bytes()
        path.write_bytes(good[:11] + b"\xff" + good[11:])
        with pytest.raises(IngestionError) as err:
            reader(path)
        assert str(err.value).startswith(
            f"{path}: 'utf-8' codec can't decode byte 0xff in position 11")

    def test_truncated_report_names_the_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"command": "train", "results": {')
        with pytest.raises(IngestionError) as err:
            read_report(path)
        assert str(err.value).startswith(f"{path}: Expecting")


def _key_paths(value, prefix=()):
    """The key path of every entry of a JSON object, nested ones included."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield prefix + (key,)
            yield from _key_paths(inner, prefix + (key,))


# the parts of a report that analyze and ablate read
_READ_KEYS = [("effective_config",), ("datasets",), ("results", "metrics", "worst-group", "test")]


_CORRUPT_VALUES = [None, "x", "erm", -1, 0, 1.5, True, [], {}, "sha256:0"]
_CORRUPT_BYTES = [b"0", b"9", b"-", b".", b",", b"\n", b"\r", b" ", b'"', b"e", b"x", b"\xff"]


class TestCorruptRuns:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_run_readers_fail_cleanly_on_corrupt_runs(self, workspace, cvar_run, other_data,
                                                      tmp_path_factory, data):
        """analyze or ablate of a finished run with report keys dropped or
        altered, run files truncated or with bytes changed, or other data:
        exit 0 with a report, or one error block naming a file the command
        read (or --data) and no output left behind."""
        command, source = data.draw(st.sampled_from(
            [("analyze", workspace / "jtt"), ("analyze", cvar_run), ("ablate", workspace / "jtt")]))
        root = tmp_path_factory.mktemp("corrupt")
        run_dir = root / "run"
        shutil.copytree(source, run_dir)
        reference = root / "erm.json"
        shutil.copy(workspace / "erm" / "report.json", reference)
        reports = [run_dir / "report.json"] + ([reference] if command == "analyze" else [])
        tables = [run_dir / name for name in ("error_set.csv", "cvar_losses.csv")
                  if (run_dir / name).exists()]
        data_dir = workspace / "data" if data.draw(st.integers(0, 3)) else other_data
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(reports + tables))
            if path in reports:
                report = json.loads(path.read_text())
                keys = data.draw(st.sampled_from(sorted(
                    k for k in _key_paths(report) if any(k[:len(r)] == r for r in _READ_KEYS))))
                parent = report
                for key in keys[:-1]:
                    parent = parent[key]
                if data.draw(st.booleans()):
                    del parent[keys[-1]]
                else:
                    parent[keys[-1]] = data.draw(st.sampled_from(_CORRUPT_VALUES))
                path.write_text(json.dumps(report))
            else:
                content = path.read_bytes()
                at = data.draw(st.integers(0, max(len(content) - 1, 0)))
                if data.draw(st.booleans()):
                    content = content[:at]
                else:
                    content = content[:at] + data.draw(st.sampled_from(_CORRUPT_BYTES)) \
                        + content[at + 1:]
                path.write_bytes(content)
        config = root / "cmd.ini"
        config.write_text(
            f"[analyze]\nrun = {run_dir}\nerm_report = {reference}\n" if command == "analyze"
            else f"[ablate]\nrun = {run_dir}\nmode = drop-y-neq-a\n")
        out = root / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run([command, "--config", config, "--out", out, "--data", data_dir])
        assert code in (0, 1, 2)
        if code == 0:
            assert (out / "report.json").exists()
            return
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        read = reports + tables + [data_dir / f"{split}.csv" for split in ("train", "val", "test")]
        assert any(str(path) in message for path in read) or f"--data {data_dir}" in message, \
            message
        assert not out.exists() and not (root / "out.partial").exists()
