"""Benchmark of the grouptrain command line.

One client drives ``grouptrain.cli.main(argv)`` in-process as a closed loop:
one command at a time, the next starting when the previous returns. A run
sets up a work directory under bench/work/<workload>/ (reference data,
configs, one warm-up command), then runs the workload's commands round-robin
until it has measured for --seconds and every command has run at least
MIN_REPS times. Every command's outputs are checked.

    python3 bench/run.py --workload train-all --seed 0 --seconds 32 --trace 0
    python3 bench/run.py --seconds 32      # every workload, each in a fresh process

On a shared host the core this process runs on slows to about half speed
for stretches of a tenth of a second to minutes. So each training a command
starts is timed between two probes (see hostspeed.py), which splits the
command's latency into its trainings and the rest (parsing, ingest,
evaluation outside training, outputs), and each piece's time is scaled to
the fastest speed the host gave the run. A command's latency is the sum over
its pieces of each piece's median scaled time over the run's repeats of the
command. result.json keeps the raw median latencies beside them.

End-to-end metrics (--trace 0), each over those command latencies:
  setup_s      import time plus the median of three set-ups of the work
               directory, each scaled like a piece
  cfg_per_s    grid points of one pass over the sum of its commands' latencies;
               a grid point is one train command, one sweep.csv row, or one
               (fraction x seed x grid point) of the study
  rows_per_s   dataset rows one pass parses or fingerprints over the same sum
  cmd_p50_s    median latency over the pass's commands
  cmd_tail_s   latency at the highest of p99/p95/p90/p75/p50 with at least ten
               commands beyond it; the slowest command when a pass has fewer
               than 20
  peak_rss_mb  peak resident set size of this process
The fail ratio is failed/attempted in the result line; it is 0 on correct code,
so it is printed but not a bounded metric.

--trace 1 measures untraced, then TRACED_PASSES whole passes (fewer if the
untraced run completed fewer) with every module boundary wrapped (see layers.py), and reports the
per-layer metrics per pass, the untraced end-to-end values and how much
tracing worsens each, in percent. Probes get spans of their own
(bench.probe), outside every layer. It also checks that the self times of
each command's spans sum to its cli.main span.
Spans go to bench/work/<workload>/spans.csv, the full result to result.json.

Output check: each command's report.json without its timing block, plus every
file it lists under "outputs", is hashed. At the default seed the digests must
equal bench/expected_digests.json (rewrite it with --record-digests after a
change that is meant to alter outputs); at other seeds every pass must equal
the run's first pass. A mismatch or a non-zero exit counts as a failed command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# The package is single-core by design; pin BLAS to one thread before NumPy
# loads it, here and in every process this script starts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

from hostspeed import Piece, Probe, TrainingTimer, scaled_median, timed_piece  # noqa: E402

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORK = BENCH / "work"
DIGESTS = BENCH / "expected_digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
OUT = "out"

WORKLOADS = ("train-all", "sweep-ref", "val-study")
# Runs of each command a measurement makes at least, however short --seconds.
MIN_REPS = 2
# Passes the traced run makes at most; per-layer metrics are per pass.
TRACED_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "cfg_per_s": "1/s",
    "rows_per_s": "1/s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Trace-mode metrics that are not per-layer: the untraced end-to-end value and
# how much tracing worsens it, in percent of that value.
OVERHEAD = ("cfg_per_s", "rows_per_s", "cmd_p50_s", "cmd_tail_s", "peak_rss_mb")
HIGHER_IS_BETTER = ("cfg_per_s", "rows_per_s")
PER_LAYER_EXTRA = {**{f"untraced.{n}": END_TO_END[n] for n in OVERHEAD},
                   **{f"overhead.{n}": "%" for n in OVERHEAD}}

TAIL_PERCENTILES = (99, 95, 90, 75, 50)
MIN_BEYOND = 10
MAX_SELF_SUM_GAP = 1e-6
PROBE_SPAN = "bench.probe"


class SetupError(RuntimeError):
    pass


def output_digest(out: Path, strip_timing) -> tuple[str, dict]:
    """sha256 over the report without timing and every file it lists."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    h = hashlib.sha256(json.dumps(strip_timing(report), sort_keys=True).encode("utf-8"))
    for key, name in sorted(report["outputs"].items()):
        h.update(f"\0{key}\0{name}\0".encode("utf-8"))
        h.update((out / name).read_bytes())
    return h.hexdigest(), report


class Runner:
    """Runs commands in the work directory, checks each one's outputs and
    counts the failures."""

    def __init__(self, cli_main, strip_timing, expected: dict | None, reference_rows: int,
                 timer: TrainingTimer | None = None):
        self.cli_main = cli_main
        self.timer = timer
        self.probe = timer.probe if timer else Probe()
        self.strip_timing = strip_timing
        self.expected = expected  # label -> digest at the default seed
        self.reference_rows = reference_rows
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, cmd, call=None) -> tuple[list[Piece], int]:
        """The pieces of one command's latency (the rest first, then each
        training it started) and the dataset rows it parsed or
        fingerprinted."""
        call = call or self.cli_main
        before = self.probe()
        if self.timer:
            self.timer.take()
        start = time.perf_counter()
        code = call([*cmd.argv, "--out", OUT])
        latency = time.perf_counter() - start
        after = self.probe()
        trainings, probe_seconds = self.timer.take() if self.timer else ([], 0.0)
        rest = Piece(latency - sum(p.seconds for p in trainings) - probe_seconds,
                     statistics.fmean([before, after, *(p.probe for p in trainings)]))
        pieces = [rest, *trainings]
        self.attempted += 1
        rows = 0
        if code != 0:
            problem = f"exit code {code}"
        else:
            problem, rows = self.check(cmd, Path(OUT))
        shutil.rmtree(OUT, ignore_errors=True)
        if problem:
            self.failures.append(f"{cmd.label}: {problem}")
        return pieces, rows

    def check(self, cmd, out: Path) -> tuple[str | None, int]:
        try:
            digest, report = output_digest(out, self.strip_timing)
        except (OSError, ValueError, KeyError, TypeError) as e:
            return f"unreadable outputs ({e!r})", 0
        # Every command parses the three reference splits and fingerprints
        # the datasets its report lists.
        rows = self.reference_rows + sum(d["examples"] for d in report["datasets"].values())
        if self.expected is not None:
            want = self.expected.get(cmd.label)
        else:
            want = self.first.setdefault(cmd.label, digest)
        if digest != want:
            return f"output digest {digest[:16]} != expected {str(want)[:16]}", rows
        return None, rows


@dataclass
class Phase:
    commands: list
    runs: dict[str, list[list[Piece]]]  # label -> latency pieces of each run
    rows: dict[str, int]  # label -> rows one run parses or fingerprints
    passes: int  # whole passes completed

    def raw(self, label: str) -> list[float]:
        """The unscaled latency of each run of the label."""
        return [sum(p.seconds for p in run) for run in self.runs[label]]


def measure(runner: Runner, commands, seconds: float, passes: int | None = None,
            call=None) -> Phase:
    """The commands round-robin until each ran MIN_REPS times and the next
    one, at its fastest raw latency so far, would end after `seconds`; or
    exactly `passes` whole passes when given."""
    phase = Phase(commands, {cmd.label: [] for cmd in commands}, {}, 0)
    start = time.perf_counter()

    def done(cmd) -> bool:
        if passes is not None:
            return phase.passes == passes
        return (min(map(len, phase.runs.values())) >= MIN_REPS
                and time.perf_counter() - start + min(phase.raw(cmd.label)) > seconds)

    while not done(commands[0]):
        for cmd in commands:
            if done(cmd):
                break
            pieces, phase.rows[cmd.label] = runner.run(cmd, call)
            phase.runs[cmd.label].append(pieces)
        else:
            phase.passes += 1
    return phase


def tail(latencies: list[float]) -> tuple[float, int]:
    """(latency, percentile) at the highest ladder percentile with at least
    MIN_BEYOND commands beyond it; the maximum (percentile 100) otherwise."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND:
            return statistics.quantiles(latencies, n=100, method="inclusive")[p - 1], p
    return max(latencies), 100


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase: Phase, setup_s: float, rss_mb: float, fastest: float
               ) -> tuple[dict, dict]:
    latency = {label: scaled_median(runs, fastest) for label, runs in phase.runs.items()}
    busy = sum(latency.values())
    points = sum(cmd.points for cmd in phase.commands)
    rows = sum(phase.rows.values())
    tail_s, tail_p = tail(list(latency.values()))
    values = {
        "setup_s": setup_s,
        "cfg_per_s": points / busy,
        "rows_per_s": rows / busy,
        "cmd_p50_s": statistics.median(latency.values()),
        "cmd_tail_s": tail_s,
        "peak_rss_mb": rss_mb,
    }
    reps = sorted(map(len, phase.runs.values()))
    runs = f"{reps[0]}" + (f" to {reps[-1]}" if reps[-1] != reps[0] else "") + " runs each"
    notes = {
        "cfg_per_s": f"{points} grid points per pass in {busy:.3f} s, {runs}",
        "rows_per_s": f"{rows} rows per pass in {busy:.3f} s, {runs}",
        "cmd_p50_s": f"median of {len(latency)} commands, {runs}",
        "cmd_tail_s": f"p{tail_p} of {len(latency)} commands, {runs}",
        "latency_s": latency,
    }
    return values, notes


def _blas_threads() -> int | str:
    """Threads OpenBLAS will use, asked from the library NumPy loaded."""
    import ctypes

    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return "unknown (OPENBLAS_NUM_THREADS=%s)" % os.environ["OPENBLAS_NUM_THREADS"]


def machine_record() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _run_setup_command(cli_main, argv) -> None:
    code = cli_main(list(argv))
    if code != 0:
        raise SetupError(f"set-up command {' '.join(argv)} exited with {code}")


def set_up(workload: str, seed: int, workspace: Path, cli_main, workloads) -> dict:
    """Build the work directory from nothing and run the warm-up command;
    return the grid points per config."""
    shutil.rmtree(workspace, ignore_errors=True)
    workspace.mkdir(parents=True)
    os.chdir(workspace)
    points = workloads.write_configs(REPO)
    _run_setup_command(cli_main, workloads.reference_data_argv(REPO))
    warmup = workloads.warmup_command(workload, seed, points)
    _run_setup_command(cli_main, [*warmup.argv, "--out", OUT])
    shutil.rmtree(OUT)
    return points


def run_workload(args) -> int:
    if not (REPO / "src" / "grouptrain" / "cli.py").is_file():
        print("bench: src/grouptrain is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(BENCH))
    import grouptrain.cli as cli
    import grouptrain.tuning as tuning
    from grouptrain.reports import strip_timing

    import layers
    import spans
    import workloads
    import_s = time.perf_counter() - start
    probe = Probe()
    imports = Piece(import_s, probe())

    workspace = WORK / args.workload
    try:
        setups = [timed_piece(probe, set_up, args.workload, args.seed, workspace, cli.main,
                              workloads) for _ in range(SETUP_REPEATS)]
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    points = setups[-1][0]
    reference_rows = sum(d["examples"] for d in
                         json.loads(Path(workloads.DATA, "report.json").read_text())
                         ["datasets"].values())

    expected = None
    if args.seed == DEFAULT_SEED and not args.record_digests:
        expected = (json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
                    ).get(args.workload, {})
    timed_modules = [cli, tuning]
    runner = Runner(cli.main, strip_timing, expected, reference_rows,
                    TrainingTimer(timed_modules, probe))
    commands = workloads.pass_commands(args.workload, args.seed, points)
    untraced = measure(runner, commands, args.seconds)

    def setup_s(fastest):
        return imports.scaled(fastest) + statistics.median(p.scaled(fastest) for _, p in setups)

    e2e, notes = end_to_end(untraced, setup_s(probe.fastest), peak_rss_mb(), probe.fastest)
    latencies = notes.pop("latency_s")
    notes["setup_s"] = (f"raw: imports {import_s:.3f} s + median of "
                        f"{[round(p.seconds, 3) for _, p in setups]} s")
    notes["probe"] = (f"{probe.count} probes, fastest {probe.fastest * 1e3:.4f} ms, "
                      f"{probe.seconds:.3f} s in all")
    problems = []

    if args.trace:
        # The training timer goes outside the traced wrappers and its probes
        # get spans of their own, so no layer's time includes a probe.
        runner.timer.remove()
        tracer = spans.Tracer()
        layers.install(tracer)
        runner.timer = TrainingTimer(timed_modules, probe,
                                     lambda p: tracer.call(PROBE_SPAN, p))
        try:
            traced = measure(runner, commands, args.seconds,
                             passes=min(TRACED_PASSES, max(1, untraced.passes)),
                             call=lambda argv: tracer.call(layers.ROOT, cli.main, (argv,)))
        finally:
            runner.timer.remove()
            tracer.unwrap_all()
        gap = layers.self_sum_gap(tracer)
        if gap > MAX_SELF_SUM_GAP:
            problems.append(f"self times of a command sum to cli.main.s only within {gap:.2e}")
        cfg_per_pass = sum(cmd.points for cmd in commands)
        per_layer = layers.metrics(tracer, traced.passes, cfg_per_pass)
        traced_e2e, _ = end_to_end(traced, setup_s(probe.fastest), peak_rss_mb(),
                                   probe.fastest)
        for name in OVERHEAD:
            worse = traced_e2e[name] - e2e[name]
            if name in HIGHER_IS_BETTER:
                worse = -worse
            per_layer[f"untraced.{name}"] = e2e[name]
            per_layer[f"overhead.{name}"] = 100.0 * worse / e2e[name]
        tracer.write_csv("spans.csv")
        units = {**{n: u for n, (u, _) in layers.METRICS.items()}, **PER_LAYER_EXTRA}
        metrics = {name: {"value": per_layer[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    failed = len(runner.failures)
    problems = runner.failures + problems
    result = {"correct": not problems, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    machine = machine_record()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "passes": untraced.passes,
              "notes": notes, "problems": problems, "end_to_end": e2e,
              "latency_s": latencies,
              "raw_median_latency_s": {label: statistics.median(untraced.raw(label))
                                       for label in untraced.runs},
              **result}
    Path("result.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.record_digests and not problems:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[args.workload] = dict(sorted(runner.first.items()))
        DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

    print(f"machine: {json.dumps(machine)}")
    print(f"workload: {args.workload}  seed: {args.seed}  passes: {untraced.passes}  "
          f"commands: {sum(map(len, untraced.runs.values()))}  closed loop, 1 client")
    for name, unit in END_TO_END.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<12} {e2e[name]:.6g} {unit}{note}")
    print(f"  fail_ratio   {failed / runner.attempted:.6g}  ({failed} of {runner.attempted} "
          f"commands failed)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, so each peak
    RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.record_digests:
            argv.append("--record-digests")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            code = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write this run's output digests to expected_digests.json")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests records the digests of seed {DEFAULT_SEED}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
