"""In-memory span tracer that wraps chitomo's public functions from outside.

Every public function of the traced modules is replaced, at every name a
chitomo module binds it under, by a wrapper that records one span
``(name, start, end, parent, run id)``.  The program itself is not edited:
``chitomo.harness.solve_likelihood`` and ``chitomo.ml_engine.solve_likelihood``
are the same function object, so both bindings get the same wrapper and a
call through either is seen.  ``remove()`` puts every original back.

Per-element helpers that run inside per-knot or per-row loops are left
unwrapped: a span costs about a microsecond, as much as the helper itself, and
it is charged to the caller's self time.  Their time stays inside the span of
the layer function that calls them.
"""

from __future__ import annotations

import inspect
import sys
import time
from pathlib import Path

import numpy as np

TRACED_MODULES = ("waveplate", "protocols", "ml_engine", "quantum_core", "harness", "cli")

PER_ELEMENT_HELPERS = {
    "waveplate": {
        "quartz_indices", "optical_thickness", "axis_from_orientation",
        "retarder_unitary", "plate_unitary", "su2_from_retarder",
    },
    "protocols": {"sample_poisson", "state_from_bloch", "bloch_vector"},
    "quantum_core": {"vectorize", "unvectorize"},
}


def _public_functions(module) -> dict:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Wraps the traced functions on ``install()`` and collects spans until
    ``remove()``.  Spans are rows ``[name_id, start, end, parent, run_id]``
    with times from ``time.perf_counter``; parent is a row index or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.run_id = 0
        self.solves: list[tuple[int, int, bool, bool]] = []  # run, iterations, converged, capped
        self.bn_calls: list[tuple[int, tuple]] = []  # run, arguments
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, func):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        spans, stack = self.spans, self._stack
        observe = {
            "ml_engine.solve_likelihood": self._observe_solve,
            "protocols.bn_state_protocol": self._observe_bn,
        }.get(span_name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            row = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = func(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.perfbench_span = span_name
        return wrapper

    def _observe_solve(self, args, kwargs, result) -> None:
        config = kwargs.get("config", args[1] if len(args) > 1 else None)
        capped = (not result.converged) and result.iterations >= config.max_iterations
        self.solves.append((self.run_id, result.iterations, result.converged, capped))

    def _observe_bn(self, args, kwargs, result) -> None:
        self.bn_calls.append((self.run_id, tuple(args) + tuple(sorted(kwargs.items()))))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "chitomo" or n.startswith("chitomo.")]
        for short in TRACED_MODULES:
            module = sys.modules[f"chitomo.{short}"]
            skip = PER_ELEMENT_HELPERS.get(short, set())
            for name, func in _public_functions(module).items():
                if name in skip:
                    continue
                wrapper = self._wrap(f"{short}.{name}", func)
                for holder in loaded:
                    if vars(holder).get(name) is func:
                        self._patched.append((holder, name, func))
                        setattr(holder, name, wrapper)

    def remove(self) -> None:
        for holder, name, func in reversed(self._patched):
            setattr(holder, name, func)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write every span as CSV: run, span, parent, name, start_s, end_s."""
        lines = ["run,span,parent,name,start_s,end_s"]
        for idx, (nid, start, end, parent, run) in enumerate(self.spans):
            lines.append(f"{run},{idx},{parent},{self.names[nid]},{start!r},{end!r}")
        path.write_text("\n".join(lines) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and the list
        of inclusive durations.  Self time is the duration minus the time of
        the direct children."""
        n = len(self.spans)
        child = np.zeros(n)
        dur = np.empty(n)
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            dur[idx] = end - start
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for idx, row in enumerate(self.spans):
            entry = out.setdefault(self.names[row[0]], {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["s"] += dur[idx]
            entry["self_s"] += dur[idx] - child[idx]
            entry["durations"].append(dur[idx])
        return out


def installed_wrappers() -> list[str]:
    """Names in chitomo's modules that still hold a span wrapper."""
    return [
        f"{n}.{name}"
        for n, module in sorted(sys.modules.items())
        if n == "chitomo" or n.startswith("chitomo.")
        for name, obj in vars(module).items()
        if hasattr(obj, "perfbench_span")
    ]
