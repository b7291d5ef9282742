"""Which package code the benchmark runs: a line trace of its workloads.

In a temporary directory it writes the workloads' configs, runs `generate`
of configs/reference-data.ini, then the warm-up command and the commands
of one pass of each workload that BENCHMARK.json names, at seed 0, all
in-process through `grouptrain.cli.main`, as bench/run.py runs them. A
line tracer records which functions of src/grouptrain they enter and which
of those functions' lines run; module-level code (imports, class bodies)
is not traced. It prints, per module, the functions no workload entered and
the lines that did not run in the functions they did enter:

    python3 tools/bench_traffic.py

Lambdas and comprehensions count as part of the function they are written
in. A function that runs only at import, such as a decorator, shows as not
entered. About 3 s on 2 vCPUs.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "grouptrain"
SEED = 0
OUT = "out"


def _function_lines(path: Path) -> dict[tuple[str, int], set[int]]:
    """Per function of the module at `path`, keyed by (qualified name, first
    line): the lines of its code, its lambdas and comprehensions included."""
    functions = {}
    module = compile(path.read_text(), str(path), "exec")
    todo = [(c, None) for c in module.co_consts if inspect.iscode(c)]
    while todo:
        code, owner = todo.pop()
        lines = {line for *_, line in code.co_lines() if line is not None}
        comprehension = code.co_name in ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")
        if owner is not None and (comprehension or code.co_name == "<lambda>"):
            functions[owner] |= lines
        elif code.co_flags & inspect.CO_NEWLOCALS and not comprehension:
            # a function, not a class body or a comprehension that runs at import
            owner = (code.co_qualname, code.co_firstlineno)
            functions[owner] = lines
        todo += [(c, owner) for c in code.co_consts if inspect.iscode(c)]
    return functions


class LineTracer:
    """Records, per code object of a file under `root`, the lines run."""

    def __init__(self, root: Path):
        self.prefix = str(root) + os.sep
        self.lines: dict = {}  # code object: line numbers run

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        seen = self.lines.setdefault(code, {code.co_firstlineno})
        add = seen.add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def trace_workloads() -> LineTracer:
    """The trace of the reference data's generation and each workload's
    warm-up and pass commands."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]
    import grouptrain.cli as cli
    import workloads

    names = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as work, LineTracer(PACKAGE) as tracer:
        os.chdir(work)
        try:
            points = workloads.write_configs(REPO)
            argvs = [workloads.reference_data_argv(REPO)]
            for name in names:
                commands = [workloads.warmup_command(name, SEED, points),
                            *workloads.pass_commands(name, SEED, points)]
                argvs += [[*c.argv, "--out", OUT] for c in commands]
            for argv in argvs:
                if cli.main(list(argv)) != 0:
                    raise SystemExit(f"bench_traffic: {' '.join(argv)} failed")
                shutil.rmtree(OUT, ignore_errors=True)
        finally:
            os.chdir(home)
    return tracer


def _spans(lines: list[int]) -> str:
    """Sorted line numbers as runs: 3, 7-9."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(tracer: LineTracer) -> list[str]:
    """Per module: how many of its functions were entered, each function
    that was not, and the lines not run in each one that was."""
    entered, run = {}, {}
    for code, lines in tracer.lines.items():
        entered.setdefault(code.co_filename, set()).add((code.co_qualname, code.co_firstlineno))
        run.setdefault(code.co_filename, set()).update(lines)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        functions = _function_lines(path)
        taken = entered.get(str(path), set()) & functions.keys()
        out.append(f"{path.stem}: {len(taken)} of {len(functions)} functions entered")
        for key in sorted(functions, key=lambda k: k[1]):
            missed = sorted(functions[key] - run.get(str(path), set()))
            if key not in taken:
                out.append(f"  not entered  {key[0]}")
            elif missed:
                out.append(f"  {key[0]}  lines {_spans(missed)}")
    return out


def main() -> None:
    print("\n".join(report(trace_workloads())))


if __name__ == "__main__":
    main()
