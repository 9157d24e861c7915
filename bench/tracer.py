"""Spans around the public functions of hkl's layers, from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records one span per call: function, start, end,
parent span, instance id and whether it raised.  A module that imported
the function by name (``from .polycore import roots`` in ``factor``,
``geometry`` and ``kernel``) holds its own binding, so the wrapper is put
in place wherever the original is bound: in every ``hkl`` module and in
the extra modules the caller names.  References held in containers, such
as the CLI's command table, are not rebound; their time counts as their
caller's self time.

Spans stay in memory until ``layer_stats`` reduces them.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("polycore", "factor", "geometry", "numeric", "jsonio", "cli")


class Tracer:
    def __init__(self, extra_modules=()):
        self.names: list[str] = []        # "<module>.<function>", by index
        self.spans: list[tuple] = []      # (name, start, end, parent, instance, raised)
        self.root_inputs: list[tuple] = []  # coefficient tuples passed to roots
        self.instance = -1
        self._stack: list[int] = []
        self._extra = tuple(extra_modules)
        self._patches: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hkl.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        importers = [m for name, m in sys.modules.items()
                     if name == "hkl" or name.startswith("hkl.")]
        for mod in importers + list(self._extra):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        record_input = name == "polycore.roots"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_input:
                self.root_inputs.append(args[0].coeffs)
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            raised = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.instance,
                               raised)

        return wrapper

    def layer_stats(self, scales: list[float]) -> dict:
        """Per function: calls, self_s and errors; plus roots' input stats.

        Self time is multiplied by the host speed scale of its instance.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: {"calls": 0, "self_s": 0.0, "errors": 0}
                 for name in self.names}
        for i, (index, start, end, _, inst, raised) in enumerate(self.spans):
            s = stats[self.names[index]]
            s["calls"] += 1
            s["self_s"] += (end - start - child[i]) * scales[inst]
            s["errors"] += raised
        distinct = set(self.root_inputs)
        roots = stats["polycore.roots"]
        roots["distinct"] = len(distinct)
        roots["deg_mean"] = (sum(len(c) - 1 for c in distinct) / len(distinct)
                             if distinct else 0.0)
        return stats
