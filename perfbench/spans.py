"""Span tracing for the benchmark's traced run.

The library carries no instrumentation, so spans are recorded from outside:
every public function of the measured modules is replaced, in every
``curveflow`` module that binds it, by a wrapper that records one span
(name, start, end, parent, run id).  Replacing the binding where the caller
looks the name up matters because ``harness`` imports operator names with
``from .operators import ...``; patching ``curveflow.operators`` alone would
miss those calls.  ``uninstall`` puts every original back.

A few wrappers also count work where it happens: kernel builds for
``carleson_apply`` (one per distinct modulation value on the input grid),
the shift parameters the domination experiment evaluates (from the
``covering_geometry`` outputs plus the experiment's tau range and m_cap),
and bytes moved by the grid-file functions.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from curveflow import cli, curves, dyadic, gridfn, harness, kernel, operators

# fixtures and errors do no measurable work and get no spans
LAYERS = {
    "curves": curves,
    "dyadic": dyadic,
    "gridfn": gridfn,
    "operators": operators,
    "kernel": kernel,
    "harness": harness,
    "cli": cli,
}

Span = Tuple[str, float, float, Optional[int], str]


def public_functions(layer: str) -> Dict[str, object]:
    """Public functions of a layer: its ``__all__`` functions, or ``main``."""
    mod = LAYERS[layer]
    names = getattr(mod, "__all__", None) or ["main"]
    return {
        n: getattr(mod, n)
        for n in names
        if inspect.isfunction(getattr(mod, n)) and getattr(mod, n).__module__ == mod.__name__
    }


def domination_sigmas(curve, geom, taus, m_cap: int) -> List[float]:
    """Shift parameters the domination experiment evaluates for one geometry.

    Mirrors the experiment's piece subsample and its expression for sigma,
    so the values are the ones the library computes.
    """
    stored = geom.m_indices
    if stored.size > m_cap:
        pick = np.unique(np.round(np.linspace(0, stored.size - 1, m_cap)).astype(int))
        m_sub = stored[pick]
    else:
        m_sub = stored
    ilen = geom.interval_length
    pos = geom.scale / 2.0 + m_sub * ilen
    g_pos = np.asarray(curve.deriv(pos, 0, check=False), dtype=float)
    g_next = np.asarray(curve.deriv(pos + ilen, 0, check=False), dtype=float)
    j_len = 1.0 + geom.v * (g_next - g_pos)
    return [
        abs((geom.v * g_pos[j] + tau) / j_len[j])
        for tau in taus
        for j in range(m_sub.size)
    ]


class Tracer:
    """In-memory span recorder; spans are written out by the caller."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.run_id = ""
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._kernels = set()
        self._sigmas = set()
        self._dom: List[dict] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "curveflow" or name.startswith("curveflow.")]
        hooks = {
            "operators.carleson_apply": self._on_carleson,
            "harness.domination_experiment": self._on_domination,
            "dyadic.project": self._on_project,
            "harness.covering_geometry": self._on_geometry,
            "gridfn.write_grid_function": self._on_write,
            "gridfn.read_grid_function": self._on_read,
        }
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                qual = f"{layer}.{name}"
                wrapper = self._wrap(qual, fn, hooks.get(qual))
                for mod in loaded:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, qual: str, fn, hook):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # hooks run outside the span's own interval; they still count
            # toward the traced wall time and so toward trace.overhead_s
            gen = None
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                gen = hook(bound.arguments)
                next(gen)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            done = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (qual, t0, t1, parent, self.run_id)
                if gen is not None and not done:
                    gen.close()
            if gen is not None:
                with contextlib.suppress(StopIteration):
                    gen.send(out)
            return out

        return wrapper

    # -- counting hooks (generators: code before the yield runs before the
    # call, code after it receives the result) ----------------------------

    def _on_carleson(self, a):
        f, u, curve, cfg = a["f"], a["u"], a["curve"], a["cfg"]
        values = np.unique(np.asarray(u.eval(f.xs()), dtype=float))
        self.counts["kernel_builds"] += int(values.size)
        for v in values:
            self._kernels.add((curve.label, float(v), cfg, f.step))
        yield

    def _on_domination(self, a):
        fam = a["family"]
        self._dom.append({
            "key": repr(fam.descriptor()),
            "taus": sorted(set(int(t) for t in a["tau_range"])),
            "m_cap": int(a["m_cap"]),
            "member": -1,
        })
        try:
            yield
        finally:
            self._dom.pop()

    def _on_project(self, a):
        # the experiment projects each member once, before its k loop
        if self._dom:
            self._dom[-1]["member"] += 1
        yield

    def _on_geometry(self, a):
        geom = yield
        if not self._dom:
            return
        ctx = self._dom[-1]
        sig = domination_sigmas(a["curve"], geom, ctx["taus"], ctx["m_cap"])
        self.counts["sigma_evals"] += len(sig)
        for s in sig:
            self._sigmas.add((ctx["key"], ctx["member"], float(s)))

    def _on_write(self, a):
        yield
        self.counts["grid_bytes"] += os.path.getsize(a["path"])

    def _on_read(self, a):
        self.counts["grid_bytes"] += os.path.getsize(a["path"])
        yield

    # -- summaries ----------------------------------------------------------

    @property
    def distinct_kernels(self) -> int:
        return len(self._kernels)

    @property
    def distinct_sigmas(self) -> int:
        return len(self._sigmas)

    def span_records(self) -> List[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "run": s[4]}
            for i, s in enumerate(self.spans)
            if s is not None
        ]

    def function_stats(self) -> Dict[str, dict]:
        """calls, inclusive seconds and self seconds per traced function.

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        Inclusive time counts only the outermost span of a name, so a
        function reached through itself is not counted twice.
        """
        spans = self.spans
        child = defaultdict(float)
        for s in spans:
            if s is not None and s[3] is not None:
                child[s[3]] += s[2] - s[1]
        stats: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, s in enumerate(spans):
            if s is None:
                continue
            name, t0, t1, parent = s[0], s[1], s[2], s[3]
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child[i]
            outer = True
            p = parent
            while p is not None:
                if spans[p][0] == name:
                    outer = False
                    break
                p = spans[p][3]
            if outer:
                st["s"] += t1 - t0
        return dict(stats)

