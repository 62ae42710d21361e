"""Span tracing of the ptscatter layers, installed from outside the package.

:class:`Tracer` replaces every public function of the seven layer modules
with a wrapper, at every place the function is bound: the defining module,
the ``from .x import f`` copies in other ``ptscatter`` modules and the
package namespace.  Each call records one span (function, start, end,
parent span) in flat in-memory arrays; :meth:`Tracer.dump` writes them at
the end.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("matrix2", "clifford", "symmetry", "extensions", "scattering",
          "verify", "cli")
LAYER_MODULES = tuple(f"ptscatter.{name}" for name in LAYERS)
# functions whose S(z) arguments are kept to count distinct (T, z) pairs
S_MATRIX = "ptscatter.scattering.s_matrix"


def public_functions(module) -> dict:
    """Public functions defined in ``module`` (not re-exported imports)."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ptscatter" or name.startswith("ptscatter."))]


class Tracer:
    """Records one span per call of a public layer function.

    Spans live in four parallel arrays: function id, parent span index
    (-1 at the top), and start/end in ``perf_counter_ns``.  A span's self
    time is its duration minus the durations of its direct children; see
    :func:`self_times`.
    """

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.s_args: list = []
        self.singular = 0
        self._stack = [-1]
        self._originals: list = []  # (namespace, attribute, original)

    def install(self):
        for modname in LAYER_MODULES + ("ptscatter", "ptscatter.__main__"):
            importlib.import_module(modname)
        wrappers = {}
        for modname in LAYER_MODULES:
            for name, fn in public_functions(sys.modules[modname]).items():
                wrappers[fn] = self._wrap(fn, len(self.names))
                self.names.append(f"{modname}.{name}")
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def _wrap(self, fn, fid):
        from ptscatter.errors import SingularMatrixError

        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        keep_args = f"{fn.__module__}.{fn.__name__}" == S_MATRIX
        s_args = self.s_args
        clock = time.perf_counter_ns
        counts_singular = fn.__module__ == "ptscatter.scattering"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep_args:
                s_args.append((args, kwargs))
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            except SingularMatrixError as exc:
                if counts_singular and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.singular += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def distinct_s_args(self) -> int:
        import ptscatter.scattering

        signature = inspect.signature(inspect.unwrap(ptscatter.scattering.s_matrix))
        keys = set()
        for args, kwargs in self.s_args:
            bound = signature.bind(*args, **kwargs).arguments
            keys.add((np.asarray(bound["t"], dtype=complex).tobytes(), complex(bound["z"])))
        return len(keys)

    def dump(self, path):
        np.savez(path, fid=np.frombuffer(self.fid, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 names=np.array(self.names),
                 counters=np.array(json.dumps({
                     "s_matrix_calls": len(self.s_args),
                     "s_matrix_distinct": self.distinct_s_args(),
                     "singular": self.singular,
                 })))


def self_times(parent, start, end) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    dur = (end - start).astype(np.int64)
    child_total = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child_total, parent[has_parent], dur[has_parent])
    return dur - child_total


def summarize(path) -> dict:
    """Per-function call counts and self seconds, plus the tracer counters."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        fid, parent = data["fid"], data["parent"]
        selfs = self_times(parent, data["start"], data["end"])
        counters = json.loads(str(data["counters"]))
    calls = np.bincount(fid, minlength=len(names))
    self_ns = np.bincount(fid, weights=selfs, minlength=len(names))
    return {
        "calls": {n: int(c) for n, c in zip(names, calls)},
        "self_s": {n: float(s) / 1e9 for n, s in zip(names, self_ns)},
        **counters,
    }
