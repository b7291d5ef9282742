"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. All thresholds below were
calibrated once on the frozen reference benchmark (deterministic seeds) and
committed; every comparison here reproduces exactly on re-runs.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

import grouptrain as gt
import grouptrain.trainers as trainers_mod
from grouptrain.benchmark import (
    REFERENCE_SEEDS,
    reference_config,
    reference_grid_axes,
)
from grouptrain.cli import main as cli_main
from grouptrain.models import Architecture, grad, init_model
from grouptrain.reports import read_report, strip_timing
from grouptrain.trainers import AVERAGE, WORST_GROUP, TrainConfig, cvar_batch_weights
from grouptrain.tuning import Grid, grid_sweep, validation_size_study
from oracles import cvar_lp_optimum, finite_difference_grad, relative_grad_error

_SUITE_T0 = time.perf_counter()

ALGORITHMS = ("erm", "cvar", "lff", "jtt", "upsample-minority", "group-dro")


def _ok(n, message):
    print(f"\n[criterion {n:>2}] PASS — {message}")


@pytest.fixture(scope="module")
def bench_sweeps(reference_bench):
    """One tuned sweep per (algorithm, seed) on the reference benchmark."""
    train, val, test = reference_bench
    sweeps = {}
    for algorithm in ALGORITHMS:
        per_seed = []
        for seed in REFERENCE_SEEDS:
            grid = Grid(reference_config(algorithm, seed), reference_grid_axes(algorithm))
            per_seed.append(grid_sweep(grid, train, val, test))
        sweeps[algorithm] = per_seed
    return sweeps


def _median_wg(sweeps):
    return statistics.median(s.rows[s.best(WORST_GROUP)].by_criterion[WORST_GROUP].test_worst_group
                             for s in sweeps)


# ---------------------------------------------------------------------------

def test_criterion_01_gradient_oracle():
    """Analytic gradients match central finite differences (h = 1e-6) with
    relative error < 1e-5 over 100 random cases per architecture x loss."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for arch in (Architecture(6, (), 3), Architecture(6, (8,), 3)):
        for gce_q in (0.0, 0.7):
            for _ in range(100):
                model = init_model(arch, int(rng.integers(2**32)))
                x = rng.normal(size=(4, 6))
                y = rng.integers(0, 3, size=4)
                w = rng.uniform(0.1, 2.0, size=4)
                analytic = grad(model, x, y, w, gce_q)
                numeric = finite_difference_grad(model, x, y, w, gce_q)
                worst = max(worst, relative_grad_error(analytic, numeric))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 30.0
    _ok(1, f"max relative gradient error {worst:.2e} over 400 cases in {elapsed:.1f}s")


def test_criterion_02_cvar_weight_oracle():
    """Batch CVaR weights reach the capped-simplex LP optimum within 1e-6
    for 200 random batches of size <= 10."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        b = int(rng.integers(1, 11))
        losses = rng.uniform(0.0, 10.0, size=b)
        alpha = float(rng.uniform(0.02, 1.0))
        mine = float(cvar_batch_weights(losses, alpha) @ losses)
        oracle = cvar_lp_optimum(losses, alpha)
        worst = max(worst, abs(mine - oracle))
    assert worst < 1e-6
    _ok(2, f"max |weighted sum - LP optimum| = {worst:.2e} over 200 batches")


@contextmanager
def _capture_steps():
    log = []
    original = trainers_mod.sgd_step

    def wrapper(model, gradient, opt):
        out = original(model, gradient, opt)
        log.append(out[0].params)
        return out

    trainers_mod.sgd_step = wrapper
    try:
        yield log
    finally:
        trainers_mod.sgd_step = original


def test_criterion_03_exact_reductions(small_bench):
    """Bit-identical parameter trajectories for the reduction identities."""
    train, val, _ = small_bench
    base = dict(epochs=4, batch_size=32, learning_rate=0.05, l2=1e-3, seed=0)

    def trajectory(cfg, data=train):
        with _capture_steps() as log:
            result = gt.train(data, val, cfg)
        return log, result

    erm_steps, erm = trajectory(TrainConfig("erm", **base))

    jtt_steps, jtt = trajectory(TrainConfig("jtt", **base, id_epochs=2, upweight_factor=1))
    assert len(jtt_steps) > len(erm_steps)  # identification steps come first
    for a, b in zip(jtt_steps[-len(erm_steps):], erm_steps):
        assert np.array_equal(a, b)
    assert np.array_equal(jtt.model.params, erm.model.params)

    cvar_steps, cvar = trajectory(TrainConfig("cvar", **base, alpha=1.0))
    assert len(cvar_steps) == len(erm_steps)
    for a, b in zip(cvar_steps, erm_steps):
        assert np.array_equal(a, b)
    assert cvar.history == erm.history

    rng = np.random.default_rng(5)
    one_group = gt.Dataset(rng.normal(size=(200, train.n_features)),
                           np.zeros(200, dtype=int), np.zeros(200, dtype=int), "one")
    erm1_steps, erm1 = trajectory(TrainConfig("erm", **base), data=one_group)
    dro_steps, dro = trajectory(TrainConfig("group-dro", **base), data=one_group)
    assert len(dro_steps) == len(erm1_steps)
    for a, b in zip(dro_steps, erm1_steps):
        assert np.array_equal(a, b)
    assert np.array_equal(dro.model.params, erm1.model.params)

    jtt4_steps, jtt4 = trajectory(TrainConfig("jtt", **base, id_epochs=1, upweight_factor=4))
    dyn_steps, dyn = trajectory(TrainConfig("jtt-dynamic", **base, id_epochs=1,
                                            upweight_factor=4))
    assert len(dyn_steps) == len(jtt4_steps)
    for a, b in zip(dyn_steps, jtt4_steps):
        assert np.array_equal(a, b)
    assert dyn.aux["error_set"] == jtt4.aux["error_set"]
    _ok(3, "all four reduction identities are bit-identical step by step")


def test_criterion_04_benchmark_ordering(bench_sweeps, reference_bench):
    """Median-of-five tuned worst-group test accuracies reproduce the
    expected ordering across all six algorithms, with every individual run
    far inside its 60-second budget."""
    train, val, _ = reference_bench
    t0 = time.perf_counter()
    gt.train(train, val, reference_config("jtt", 0))
    assert time.perf_counter() - t0 < 60.0
    med = {alg: _median_wg(bench_sweeps[alg]) for alg in ALGORITHMS}
    # margins frozen from the calibration runs (all comparisons deterministic)
    assert med["jtt"] >= med["erm"] + 0.10
    assert med["cvar"] >= med["erm"] + 0.05
    assert med["jtt"] >= med["cvar"] + 0.05
    assert med["lff"] >= med["erm"] + 0.05
    assert med["jtt"] > med["lff"]
    assert med["upsample-minority"] >= med["erm"] + 0.05
    assert med["jtt"] >= med["upsample-minority"] + 0.02
    assert abs(med["jtt"] - med["group-dro"]) <= 0.10
    summary = ", ".join(f"{alg} {med[alg]:.3f}" for alg in ALGORITHMS)
    _ok(4, f"medians ordered as required: {summary}")


def test_criterion_05_error_set_enrichment(reference_bench):
    """Both attribute-minority groups are enriched well beyond 2x in the
    identification error set (median over the five training seeds)."""
    train, val, _ = reference_bench
    minima = []
    for seed in REFERENCE_SEEDS:
        result = gt.train(train, val, reference_config("jtt", seed))
        table = gt.enrichment_table(result.aux["error_set"], train)
        enrichment = {row.group: row.enrichment for row in table}
        minima.append(min(enrichment[(0, 1)], enrichment[(1, 0)]))
    median = statistics.median(minima)
    assert median > 2.0
    _ok(5, f"median minority-group enrichment {median:.1f}x (> 2x required)")


def test_criterion_06_dynamic_error_set_ablation(reference_bench):
    """Shrinking the refresh period K from infinity through {5, 1} never
    raises the median worst-group accuracy by more than the frozen noise
    tolerance, and the refreshed sets visibly oscillate at K=1."""
    train, val, test = reference_bench
    tolerance = 0.02
    medians = []
    for period in (None, 5, 1):
        values = []
        for seed in REFERENCE_SEEDS:
            algorithm = "jtt" if period is None else "jtt-dynamic"
            cfg = reference_config("jtt", seed)
            cfg = TrainConfig(algorithm, epochs=cfg.epochs, batch_size=cfg.batch_size,
                              learning_rate=cfg.learning_rate, seed=seed, l2=cfg.l2,
                              id_epochs=cfg.id_epochs,
                              upweight_factor=cfg.upweight_factor, refresh_every=period)
            result = gt.train(train, val, cfg)
            model = result.checkpoints[WORST_GROUP].model
            values.append(gt.evaluate_groups(model, test).worst_group_accuracy)
        medians.append(statistics.median(values))
    for larger_k, smaller_k in zip(medians, medians[1:]):
        assert smaller_k <= larger_k + tolerance

    cfg = reference_config("jtt", 0)
    cfg = TrainConfig("jtt-dynamic", epochs=cfg.epochs, batch_size=cfg.batch_size,
                      learning_rate=cfg.learning_rate, seed=0, l2=cfg.l2,
                      id_epochs=cfg.id_epochs, upweight_factor=cfg.upweight_factor,
                      refresh_every=1)
    dyn = gt.train(train, val, cfg)
    sizes = dyn.aux["refresh_sizes"]
    assert max(sizes) / min(sizes) > 1.5  # alternating error-set composition
    history = [h.val_worst_group for h in dyn.history]
    assert max(history) - min(history) > 0.3
    _ok(6, f"medians for K = inf, 5, 1: {', '.join(f'{m:.3f}' for m in medians)} "
           f"(non-increasing within {tolerance}); refresh sizes swing "
           f"{min(sizes)}..{max(sizes)}")


def test_criterion_07_tuning_criterion_comparison(bench_sweeps):
    """Worst-group-selected rows dominate average-selected rows: exactly on
    validation (argmax property, every sweep) and strictly on test
    worst-group accuracy (median over seeds)."""
    for sweeps in bench_sweeps.values():
        for sweep in sweeps:
            best = sweep.rows[sweep.best(WORST_GROUP)].by_criterion[WORST_GROUP]
            alt = sweep.rows[sweep.best(AVERAGE)].by_criterion[AVERAGE]
            assert best.val_worst_group >= alt.val_worst_group
    gaps = []
    for sweep in bench_sweeps["jtt"]:
        best = sweep.rows[sweep.best(WORST_GROUP)].by_criterion[WORST_GROUP]
        alt = sweep.rows[sweep.best(AVERAGE)].by_criterion[AVERAGE]
        gaps.append(best.test_worst_group - alt.test_worst_group)
    median_gap = statistics.median(gaps)
    assert median_gap >= 0.02
    _ok(7, f"argmax property exact on all sweeps; median test worst-group gap "
           f"(worst-group-tuned minus average-tuned) = {median_gap:+.3f}")


def test_criterion_08_validation_size_robustness(reference_bench):
    """Tuning on a tenth of the validation set keeps the median test
    worst-group accuracy within 5 points of full-validation tuning."""
    train, val, test = reference_bench
    grid = Grid(reference_config("jtt", 0),
                {"learning_rate": (0.01, 0.03), "upweight_factor": (10, 20, 50)})
    rows = validation_size_study((1.0, 0.2, 0.1, 0.05), grid, train, val, test,
                                 seeds=(11, 12, 13, 14, 15))
    by_fraction = {r.fraction: r.median_test_worst_group for r in rows}
    assert abs(by_fraction[0.1] - by_fraction[1.0]) <= 0.05
    _ok(8, "median worst-group accuracy by val fraction: "
           + ", ".join(f"{f:g}x -> {v:.3f}" for f, v in by_fraction.items()))


GENERATE_INI = """
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

JTT_INI = """
[train]
algorithm = jtt
epochs = 5
batch_size = 32
learning_rate = 0.02
l2 = 0.001
seed = 0
id_epochs = 1
upweight_factor = 6

[grid]
upweight_factor = 1, 6

[sweep]
criterion = worst-group
"""


def test_criterion_09_end_to_end_determinism(tmp_path):
    """Re-running any command on identical config and data reproduces the
    report except for wall-clock metadata."""
    (tmp_path / "gen.ini").write_text(GENERATE_INI)
    (tmp_path / "jtt.ini").write_text(JTT_INI)

    def run(cmd, out, extra=()):
        args = [cmd, "--config", str(tmp_path / ("gen.ini" if cmd == "generate" else "jtt.ini")),
                "--out", str(out), *extra]
        assert cli_main(args) == 0
        return read_report(out / "report.json")

    pairs = []
    gen_a = run("generate", tmp_path / "data_a")
    gen_b = run("generate", tmp_path / "data_b")
    pairs.append(("generate", gen_a, gen_b))
    data = ["--data", str(tmp_path / "data_a")]
    pairs.append(("train", run("train", tmp_path / "t1", data),
                  run("train", tmp_path / "t2", data)))
    pairs.append(("sweep", run("sweep", tmp_path / "s1", data),
                  run("sweep", tmp_path / "s2", data)))
    for command, a, b in pairs:
        assert strip_timing(a) == strip_timing(b), command
    _ok(9, "generate, train and sweep reports are identical after stripping timing")


def test_criterion_10_total_runtime():
    """The whole acceptance suite finishes within its ten-minute budget."""
    elapsed = time.perf_counter() - _SUITE_T0
    assert elapsed < 600.0
    _ok(10, f"acceptance suite wall time {elapsed:.0f}s (< 600s)")
