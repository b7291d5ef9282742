"""In-process A/B timing of two source trees' training, for checking a speed
change to the training code.

It imports both trees' `grouptrain` packages into one process, under two
names, and times `train_population` on the same workloads in interleaved
rounds:

- `sweep:<algorithm>`: each `REFERENCE_GRIDS` sweep at 10 epochs, trained
  as one population, as `grid_sweep` trains it;
- `lone:<algorithm>`: the lone reference run of each of those algorithms
  at 10 epochs.

Each round times every workload on both trees, back to back, and the tree
that goes first alternates from round to round. Per workload it reports
the median time of each tree, the median and quartiles of the per-round
ratios B / A and the rounds in which B was faster. A ratio below 1 means
B is faster.

Before the timed rounds it trains every workload with `trainers._step`,
`trainers._weighted_sgd` and `trainers._rng` wrapped: once per tree to
warm up, which it discards, then three times per tree, the two trees'
trainings interleaved as in the timed rounds. It reports the steps (`_step`
calls), the model rows they stepped (a step of k lanes of m models steps
k * m rows), the epoch orders drawn (shuffles by the generators `_rng`
makes), the batch rows gathered (the example rows of the steps' feature
batches: a step that gathers one b-row batch for all its lanes gathers b)
and the median of the loop's time outside `_step` (time in `_weighted_sgd`
less time in `_step`; the wrappers' own cost falls on both sides of that
split). The timed rounds run unwrapped.

    python3 tools/ab_timer.py <parent-tree> <change-tree> [--rounds 40]
    python3 tools/ab_timer.py <tree> --calibrate

A tree is a directory holding `src/grouptrain`. `--calibrate` times a tree
against a second import of itself: the spread of its ratios is the noise
that a real difference has to clear. `--workload sweep:jtt` (repeatable)
restricts the workloads, and `--json <file>` writes every round's times.

NumPy's BLAS runs on one thread unless the environment says otherwise: the
workload is small and bound by call overhead, so more threads only add
noise. Pinning the process to one CPU (`taskset -c 1 python3 ...`) steadies
the figures further. 40 rounds of every workload take about 4 minutes on
2 vCPUs.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

EPOCHS = 10
COUNT_RUNS = 3


def load_tree(tree: Path, alias: str) -> None:
    """Import the `grouptrain` package of `tree` as `alias` (its modules as
    `alias.<module>`), so that two trees live in one process."""
    package = tree / "src" / "grouptrain"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"{tree}: no src/grouptrain package")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)


class Side:
    """One tree's modules, data and workloads."""

    def __init__(self, tree: Path, alias: str, names: list[str] | None):
        load_tree(tree, alias)
        self.trainers = importlib.import_module(f"{alias}.trainers")
        benchmark = importlib.import_module(f"{alias}.benchmark")
        grid = importlib.import_module(f"{alias}.tuning").Grid
        self.train, self.val, _ = benchmark.reference_datasets()
        self.workloads = {}
        for algorithm in benchmark.REFERENCE_GRIDS:
            base = dataclasses.replace(benchmark.reference_config(algorithm, seed=0),
                                       epochs=EPOCHS)
            self.workloads[f"sweep:{algorithm}"] = grid(
                base, benchmark.reference_grid_axes(algorithm)).configs()
            self.workloads[f"lone:{algorithm}"] = [base]
        if names:
            unknown = set(names) - self.workloads.keys()
            if unknown:
                raise SystemExit(f"unknown workload(s) {sorted(unknown)}; "
                                 f"choose from {sorted(self.workloads)}")
            self.workloads = {name: self.workloads[name] for name in names}

    def run(self, name: str) -> float:
        """Seconds to train workload `name`."""
        configs = self.workloads[name]
        gc.collect()
        start = time.perf_counter()
        self.trainers.train_population(self.train, self.val, configs)
        return time.perf_counter() - start

    def count(self, name: str) -> dict[str, float]:
        """Steps, model rows stepped, epoch orders drawn, batch rows gathered
        and the loop's seconds outside `_step` in one training of workload
        `name`, the loop's functions wrapped."""
        trainers = self.trainers
        step, loop, rng = trainers._step, trainers._weighted_sgd, trainers._rng
        tally = dict(steps=0, rows=0, orders=0, gathered=0, step_s=0.0, loop_s=0.0)

        def counting_step(model, opt, state, rule, xb, *args):
            start = time.perf_counter()
            out = step(model, opt, state, rule, xb, *args)
            tally["step_s"] += time.perf_counter() - start
            tally["steps"] += 1
            tally["rows"] += len(model.params)
            tally["gathered"] += xb[..., 0].size
            return out

        def timed_loop(*args, **kwargs):
            start = time.perf_counter()
            loop(*args, **kwargs)
            tally["loop_s"] += time.perf_counter() - start

        class CountingGenerator:
            def __init__(self, generator):
                self.generator = generator

            def shuffle(self, order):
                tally["orders"] += 1
                self.generator.shuffle(order)

        trainers._step, trainers._weighted_sgd = counting_step, timed_loop
        trainers._rng = lambda *args: CountingGenerator(rng(*args))
        try:
            trainers.train_population(self.train, self.val, self.workloads[name])
        finally:
            trainers._step, trainers._weighted_sgd, trainers._rng = step, loop, rng
        return dict(steps=tally["steps"], rows=tally["rows"], orders=tally["orders"],
                    gathered=tally["gathered"], outside_step_s=tally["loop_s"] - tally["step_s"])


def counts(sides: tuple[Side, Side], names: list[str]) -> list[dict[str, dict[str, float]]]:
    """Per side and workload, `Side.count`'s counts, with the median of its
    seconds outside `_step` over `COUNT_RUNS` trainings. The sides train each
    workload in turns, the side that goes first alternating, after one
    warm-up training per side, which is discarded."""
    out: list[dict[str, dict[str, float]]] = [{}, {}]
    for name in names:
        runs: list[list[dict[str, float]]] = [[], []]
        for r in range(1 + COUNT_RUNS):
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                runs[i].append(sides[i].count(name))
        for i, (_, *kept) in enumerate(runs):
            out[i][name] = {**kept[0], "outside_step_s": statistics.median(
                run["outside_step_s"] for run in kept)}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path, nargs="?")
    parser.add_argument("--calibrate", action="store_true",
                        help="time tree_a against a second import of itself")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--json", type=Path, help="write every round's times here")
    args = parser.parse_args()
    if (args.tree_b is None) != args.calibrate:
        parser.error("give two trees, or one tree and --calibrate")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    tree_b = args.tree_a if args.calibrate else args.tree_b
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before either tree imports NumPy
    sides = (Side(args.tree_a, "_ab_tree_a", args.workloads),
             Side(tree_b, "_ab_tree_b", args.workloads))
    names = list(sides[0].workloads)

    counted = counts(sides, names)
    times: dict[str, list[list[float]]] = {name: [[], []] for name in names}
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for name in names:
            for i in order:
                times[name][i].append(sides[i].run(name))

    print(f"A = {args.tree_a}\nB = {tree_b}{' (calibration)' if args.calibrate else ''}\n"
          f"{args.rounds} rounds, {EPOCHS} epochs; times are medians, B/A the median "
          f"per-round ratio")
    header = (f"{'workload':<26}{'A ms':>9}{'B ms':>9}{'B/A':>7}{'q1-q3':>13}{'wins':>7}"
              f"{'steps A/B':>13}{'rows A/B':>15}{'orders A/B':>12}{'gathered A/B':>19}"
              f"{'out-of-step ms A/B':>20}")
    print(header)
    summary = {}
    for name in names:
        a, b = times[name]
        ratios = [tb / ta for ta, tb in zip(a, b)]
        q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        wins = sum(tb < ta for ta, tb in zip(a, b))
        ca, cb = counted[0][name], counted[1][name]
        summary[name] = dict(a_s=a, b_s=b, median_ratio=median,
                             ratio_quartiles=[q1, q3], wins=wins, counts_a=ca, counts_b=cb)
        cells = (f"{q1:.3f}-{q3:.3f}", f"{wins}/{args.rounds}",
                 *(f"{ca[key]}/{cb[key]}" for key in ("steps", "rows", "orders", "gathered")),
                 f"{1e3 * ca['outside_step_s']:.1f}/{1e3 * cb['outside_step_s']:.1f}")
        print(f"{name:<26}{1e3 * statistics.median(a):>9.1f}{1e3 * statistics.median(b):>9.1f}"
              f"{median:>7.3f}{cells[0]:>13}{cells[1]:>7}{cells[2]:>13}{cells[3]:>15}"
              f"{cells[4]:>12}{cells[5]:>19}{cells[6]:>20}")
    if args.json:
        args.json.write_text(json.dumps(dict(tree_a=str(args.tree_a), tree_b=str(tree_b),
                                             calibrate=args.calibrate, rounds=args.rounds,
                                             epochs=EPOCHS, workloads=summary), indent=1))


if __name__ == "__main__":
    main()
