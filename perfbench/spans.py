"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the schemamatch modules from the outside:
each wrapped call records one span (name, start, end, parent span, replicate
id) and may bump counters computed from its arguments and result. Nothing
under src/ is changed; a name is patched in every schemamatch module that
holds it, so calls made through a by-name import are traced too.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans are stored column-wise in plain lists and written out at the end."""

    active = True

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.replicates: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.replicate = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(math.nan)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.replicates.append(self.replicate)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self.ends[idx] = end
        return end - self.starts[idx]

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, count=None):
        """Return fn wrapped in a span. count(counters, args, kwargs, result,
        exc, seconds) runs after every call, also when fn raised."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                dt = self._close(idx)
                if count is not None:
                    count(self.counters, args, kwargs, out, exc, dt)

        return traced

    def install(self, table) -> None:
        """Patch every entry of `table`: (module, attribute path, span name,
        count hook). A path that no longer resolves is recorded as missing."""
        for module, path, name, count in table:
            owner = sys.modules.get(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(orig, name, count)
            if parents:  # a method: patch it on its class
                setattr(owner, attr, wrapped)
            else:
                patch_everywhere(orig, wrapped)

    def open_spans(self) -> int:
        """Spans opened and never closed; 0 once every wrapped call returned."""
        return sum(not math.isfinite(e) for e in self.ends)

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "replicate"],
                    "spans": [list(s) for s in zip(self.names, self.starts, self.ends,
                                                  self.parents, self.replicates)],
                    "missing": self.missing,
                },
                fh,
            )


def patch_everywhere(orig, wrapped) -> None:
    """Replace the function `orig` by `wrapped` in every schemamatch module
    that holds it, so calls through a by-name import see the wrapper too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("schemamatch"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def _children(parents) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    return children


def self_times(starts, ends, parents) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its children's intervals."""
    children = _children(parents)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted((max(starts[c], s), min(ends[c], e)) for c in children[i]):
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def subtree(parents, root: int) -> list[int]:
    """Indices of `root` and all its descendants."""
    children = _children(parents)
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(children[i])
    return out
