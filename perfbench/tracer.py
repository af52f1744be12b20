"""In-memory spans around the public functions of each chi2norm layer.

``Tracer.install`` replaces every public function of the layer modules, and
every reference to one that another chi2norm module imported, with a wrapper
that records a span: name, start, end, parent span and the exception type it
raised.  ``PiecewisePolyDensity.evaluate`` is the integrand hot path, so it is
counted only.  Nothing under ``src/`` changes; spans stay in memory until
``write`` dumps them at the end of the pass.

A span's self time is its duration minus the spans of *other* layers nested
directly inside it (through calls within its own layer), so a layer's self
time is the work done in that layer's code.  Integrand callbacks run inside
the quadrature span and count as quadrature self time, apart from the
Hermite rows, which have spans of their own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("hermite", "quadrature", "piecewise", "densities", "distances",
          "constants", "bounds", "subgaussian", "verify", "cli")
COUNT_ONLY = {"piecewise.evaluate"}
# spans whose result length is kept: step_constants returns one constant per
# level requested, the base of the memo hit ratio
SIZED = {"bounds.step_constants"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # span: [name index, start ns, end ns, parent span, error type, size]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = True

    # -- installation ----------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [idx, clock(), 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if sized:
                rec[5] = len(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every reference."""
        modules = {layer: importlib.import_module(f"chi2norm.{layer}")
                   for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._span_wrapper(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        package = importlib.import_module("chi2norm")
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = f"{layer}.{attr}"
            wrap = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            setattr(cls, attr, wrap(name, obj))

    # -- results ---------------------------------------------------------

    def write(self, path) -> None:
        """Dump the spans as JSON lines: a header, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent", "error", "size"],
                                 "counts": dict(self.counts)}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark, from the recorded spans."""
        names, spans = self.names, self.spans
        layer = [n.split(".", 1)[0] for n in names]
        self_ns = [rec[2] - rec[1] for rec in spans]
        for rec in spans:
            parent = rec[3]
            if parent < 0 or layer[spans[parent][0]] == layer[rec[0]]:
                continue
            # a span of another layer: subtract it from its parent and from
            # every enclosing span of the parent's layer
            outer = layer[spans[parent][0]]
            dur = rec[2] - rec[1]
            while parent >= 0 and layer[spans[parent][0]] == outer:
                self_ns[parent] -= dur
                parent = spans[parent][3]

        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        refused: Counter = Counter()
        for rec, ns in zip(spans, self_ns):
            name = names[rec[0]]
            calls[name] += 1
            self_s[name] += ns * 1e-9
            if rec[4] == "AccuracyError":
                refused[name] += 1

        def under(rec, ancestor: str) -> bool:
            parent = rec[3]
            while parent >= 0:
                if names[spans[parent][0]] == ancestor:
                    return True
                parent = spans[parent][3]
            return False

        misses = sum(1 for rec in spans if names[rec[0]] == "constants.C_of_p"
                     and under(rec, "bounds.step_constants"))
        levels = sum(rec[5] for rec in spans
                     if names[rec[0]] == "bounds.step_constants")
        escalations = sum(
            1 for rec in spans
            if names[rec[0]] == "distances.hermite_profile" and rec[3] >= 0
            and names[spans[rec[3]][0]] == "distances.profile_until_converged"
        ) - calls["distances.profile_until_converged"]

        return {
            "constants.C_of_p.calls": calls["constants.C_of_p"],
            "constants.C_of_p.self_s": self_s["constants.C_of_p"],
            "constants.h_series.calls": calls["constants.h_series"],
            "constants.constants_table.self_s": self_s["constants.constants_table"],
            "bounds.theorem_bound.self_s": self_s["bounds.theorem_bound"],
            "bounds.C_of_p_misses": misses,
            "bounds.memo_hit_ratio": (levels - misses) / levels if levels else 0.0,
            "quadrature.integrate.calls": calls["quadrature.integrate"],
            "quadrature.integrate.self_s": self_s["quadrature.integrate"],
            "quadrature.integrate.refused": refused["quadrature.integrate"],
            "quadrature.integrate_vector.calls": calls["quadrature.integrate_vector"],
            "quadrature.integrate_vector.self_s": self_s["quadrature.integrate_vector"],
            "quadrature.integrate_vector.refused": refused["quadrature.integrate_vector"],
            "piecewise.evaluate.calls": self.counts["piecewise.evaluate"],
            "piecewise.convolve.calls": calls["piecewise.convolve"],
            "piecewise.convolve.self_s": self_s["piecewise.convolve"],
            "densities.normalized_sum_density.self_s":
                self_s["densities.normalized_sum_density"],
            "hermite.row.calls": calls["hermite.hermite_row_normalized"],
            "hermite.row.self_s": self_s["hermite.hermite_row_normalized"],
            "distances.chi2_direct.self_s": self_s["distances.chi2_direct"],
            "distances.hermite_profile.calls": calls["distances.hermite_profile"],
            "distances.hermite_profile.self_s": self_s["distances.hermite_profile"],
            "distances.profile.escalations": escalations,
            "subgaussian.threshold.self_s": self_s["subgaussian.threshold"],
            "subgaussian.mgf.calls": calls["subgaussian.mgf"],
            "subgaussian.mgf.self_s": self_s["subgaussian.mgf"],
            "verify.run_suite.self_s": self_s["verify.run_suite"],
            "cli.run.self_s": self_s["cli.run"],
        }
