"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function, in every loaded
``waverg`` module that holds it, with a wrapper that records a span
(op, layer name, start, end, parent span).  Self time of a span is its
duration minus the time its child spans cover.  Counters (calls, dense map
bytes, oracle samples, cascade points, base dispersion points) are recorded
at the same boundaries.  ``uninstall`` restores the original functions.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from waverg.dispersion import Harmonic


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_dense_map(counts, fn, args, kwargs, out):
    N = _args(fn, args, kwargs)["N"]
    counts["filters.dense_map_mb"] += N * N * 8 / 1e6


def _count_profile(counts, fn, args, kwargs, out):
    a = _args(fn, args, kwargs)
    offsets = np.size(a["offsets"])
    if "regulated" in a:  # exact_q_profile adds offset 0 when regulated
        regulated = a["regulated"]
        if regulated is None:
            regulated = a["d"].gapless
        offsets += int(bool(regulated))
    # Richardson: one pass at n and one at 2n quadrature points
    counts["mera.exact_profile.samples"] += offsets * 3 * a["quad_points"]
    counts.maximum("mera.quad_error.max", out[1])


def _count_q_norm(counts, fn, args, kwargs, out):
    counts["mera.exact_profile.samples"] += 3 * _args(fn, args, kwargs)[
        "quad_points"]


def _count_cascade(counts, fn, args, kwargs, out):
    counts["continuum.cascade.points"] += out.values.size


# layer name -> ((waverg module, function, counter or None), ...)
TRACED = {
    "filters.multi_layer_map": (("filters", "multi_layer_map",
                                 _count_dense_map),),
    "mera.mera_covariance": (("mera", "mera_covariance", None),),
    "mera.operator_bound": (("mera", "stack_operator_bound", None),),
    "mera.exact_profile": (("mera", "exact_p_profile", _count_profile),
                           ("mera", "exact_q_profile", _count_profile),
                           ("mera", "q_difference_norm", _count_q_norm)),
    "mera.build_stack": (("mera", "build_stack", None),),
    "mera.amplitude_bound": (("mera", "stack_amplitude_bound", None),),
    "mera.error_report": (("mera", "error_report", None),),
    "dispersion.flow": (("dispersion", "flow", None),
                        ("dispersion", "flow_report", None),
                        ("dispersion", "fitted_mass", None)),
    "design.design_pair": (("design", "design_pair", None),),
    "design.epsilon_of": (("design", "epsilon_of", None),),
    "design.stability_spectrum": (("design", "stability_spectrum", None),),
    "circuit.decompose": (("circuit", "decompose", None),),
    "circuit.compose": (("circuit", "compose", None),),
    "circuit.to_lattice_symplectic": (("circuit", "to_lattice_symplectic",
                                       None),),
    "continuum.cascade": (("continuum", "cascade", _count_cascade),
                          ("continuum", "scaling_function", None),
                          ("continuum", "wavelet_function", None)),
    "continuum.superoperator_spectrum": (("continuum",
                                          "superoperator_spectrum", None),),
    "cli.main": (("cli", "main", None),),
}


class Counts(defaultdict):
    def __init__(self):
        super().__init__(float)

    def maximum(self, key: str, value: float):
        self[key] = max(self[key], float(value))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [op, layer, start, end, parent]
        self.counts = Counts()
        self.op = None
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, layer: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([self.op, layer, perf_counter(), None, parent])
            self._open.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][3] = perf_counter()
            if counter is not None:
                counter(self.counts, fn, args, kwargs, out)
            return out

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "waverg" or name.startswith("waverg.")]
        for layer, targets in TRACED.items():
            for module, attr, counter in targets:
                fn = getattr(importlib.import_module(f"waverg.{module}"), attr)
                wrapper = self._wrap(layer, fn, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, fn))

        base_call = Harmonic.__call__
        counts = self.counts

        def counted_call(h, k):
            counts["dispersion.base_points"] += np.size(k)
            return base_call(h, k)

        Harmonic.__call__ = counted_call
        self._patched.append((Harmonic, "__call__", base_call))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        return out

    def self_seconds(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (_, layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return out
