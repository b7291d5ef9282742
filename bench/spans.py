"""Spans recorded from outside the package, at the boundaries between its
modules.

`Tracer.wrap` replaces a function under the name its caller looks it up by
(``from .models import grad`` binds ``grad`` in the importing module at import
time, so wrapping ``grouptrain.models.grad`` alone would miss the calls made
from ``grouptrain.trainers``). Each call records one span: name, start, end,
parent span and command id, plus an optional row count and tag. Spans stay in
flat arrays in memory until `write_csv` at the end of the run.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = [""]
        self._tag_ids: dict[str, int] = {"": 0}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.command = array("q")
        self.rows = array("q")
        self.tag = array("q")
        self._stack: list[int] = []
        self._command = -1
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _tag_id(self, tag: str) -> int:
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_ids[tag]

    def call(self, name: str, fn, args=(), kwargs=None, rows=None, tag=None):
        """Run fn(*args, **kwargs) inside a span called `name`.

        `rows(args, kwargs, result)` and `tag(args, kwargs)` fill the span's
        row count and tag. A call made with no span open starts a new command.
        """
        sid = len(self.start)
        if not self._stack:
            self._command += 1
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.command.append(self._command)
        kwargs = kwargs or {}
        self.tag.append(self._tag_id(tag(args, kwargs)) if tag else 0)
        self.rows.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()
        if rows is not None:
            self.rows[sid] = rows(args, kwargs, result)
        return result

    def wrap(self, module, attr: str, name: str, rows=None, tag=None):
        """Replace module.attr by a wrapper that records a span per call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, rows, tag)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def table(self) -> dict[str, np.ndarray]:
        """Columns of every span, with `self_s`: the span's duration minus
        the durations of its direct children (children never overlap in this
        single-threaded program)."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "command": np.array(self.command, dtype=np.int64),
            "rows": np.array(self.rows, dtype=np.int64),
            "tag_id": np.array(self.tag, dtype=np.int64),
            "duration": duration,
            "self": duration - child,
        }

    def write_csv(self, path) -> None:
        """One line per span: id, name, tag, start, end, parent, command, rows."""
        t0 = min(self.start, default=0.0)
        columns = zip(self.name_id, self.tag, self.start, self.end, self.parent,
                      self.command, self.rows)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,tag,start_s,end_s,parent,command,rows\n")
            for i, (name, tag, start, end, parent, command, rows) in enumerate(columns):
                fh.write(f"{i},{self.names[name]},{self.tags[tag]},{start - t0:.9f},"
                         f"{end - t0:.9f},{parent},{command},{rows}\n")
