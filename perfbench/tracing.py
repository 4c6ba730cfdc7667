"""Per-layer tracing from outside the library.

Public functions and methods are wrapped where they are looked up: a name
brought in by ``from ... import`` is wrapped in the importing module
(``xxzchain.cli.classify_structure``), a method on its class
(``DressedSet.p_r``). A wrapper records a span (name, start, end, parent,
op) and/or bumps counters. Spans stay in memory until the run ends. A name
that is missing is skipped and reported, never fatal.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np


def _complex_size(arg):
    arr = np.asarray(arg)
    return int(np.count_nonzero(np.imag(arr))) if np.iscomplexobj(arr) else 0


def _solve_mode(a, k):
    params = a[0] if a else k.get("params")
    return "dressed.solve_h" if getattr(params, "h", None) is not None else "dressed.solve_q"


def _one(out, a, k):
    return 1


def _first_size(out, a, k):
    return np.size(a[0] if a else k["lam"])


def _first_complex(out, a, k):
    return _complex_size(a[0] if a else k["lam"])


def _store_bytes(out, a, k):
    directory = getattr(a[0], "dir", None)
    path = os.path.join(directory, f"{a[1]}.json") if directory else ""
    return os.path.getsize(path) if os.path.exists(path) else 0


# (module, attribute path, span name or None, {counter: fn(out, args, kwargs)})
# A callable span name picks the name from the arguments.
WRAPS = [
    ("xxzchain.cli", "run", "cli.run", {}),
    ("xxzchain.cli", "solve_dressed_set", _solve_mode, {}),
    ("xxzchain.dressed", "gauss_legendre", None,
     {"quadrature.gauss_legendre.calls": _one}),
    ("xxzchain.dressed", "find_root_bracketed", None,
     {"quadrature.find_root_bracketed.calls": _one}),
    ("xxzchain.saddles", "find_root_bracketed", None,
     {"quadrature.find_root_bracketed.calls": _one}),
    ("xxzchain.dressed", "kernel_k", None,
     {"kernels.kernel_k.elements": _first_size}),
    ("xxzchain.kernels", "kernel_k", None,
     {"kernels.kernel_k.elements": _first_size}),
    ("xxzchain.cli", "v_infinity", "saddles.v_infinity", {}),
    ("xxzchain.saddles", "v_infinity", "saddles.v_infinity", {}),
    ("xxzchain.cli", "fermi_velocity", "saddles.fermi_velocity", {}),
    ("xxzchain.saddles", "fermi_velocity", "saddles.fermi_velocity", {}),
    ("xxzchain.cli", "catalog", "strings.catalog", {}),
    ("xxzchain.cli", "classify_structure", "saddles.classify_structure", {}),
    ("xxzchain.saddles", "find_saddles", "saddles.find_saddles", {}),
    ("xxzchain.saddles", "u_r_d1", None,
     {"saddles.u_r_d1.points": _first_size}),
    ("xxzchain.dressed", "DressedSet.p_r", "dressed.p_r",
     {"dressed.p_r.complex_points": lambda o, a, k: _complex_size(a[1] if len(a) > 1 else k["lam"])}),
    ("xxzchain.dressed", "DressedSet.dressed_phase", "dressed.dressed_phase",
     {"dressed.dressed_phase.complex_calls":
      lambda o, a, k: _complex_size(a[2] if len(a) > 2 else k["mu"]) > 0}),
    ("xxzchain.dressed", "bare_phase_1", "kernels.bare_phase_1",
     {"kernels.bare_phase_1.complex_points": _first_complex}),
    ("xxzchain.kernels", "bare_phase_1", "kernels.bare_phase_1",
     {"kernels.bare_phase_1.complex_points": _first_complex}),
    ("xxzchain.cli", "enumerate_configs", "assembler.enumerate_configs", {}),
    ("xxzchain.cli", "assemble_term", "assembler.assemble_term", {}),
    ("xxzchain.cli", "rank_terms", "assembler.rank_terms", {}),
    ("xxzchain.cache", "SolveCache.store", "cache.store",
     {"cache.store.bytes": _store_bytes}),
    ("xxzchain.cache", "SolveCache.load", None,
     {"cache.load.calls": _one, "cache.load.hits": lambda o, a, k: o is not None}),
    ("xxzchain.contours", "eval_identity_n2", "contours.eval_identity_n2", {}),
    ("xxzchain.contours", "ContourSpec.discretize", None,
     {"contours.discretize.nodes": lambda o, a, k: len(o[0])}),
    ("xxzchain.contours", "certify_clearance", "contours.certify_clearance", {}),
    ("xxzchain.contours", "reduce_residue", "contours.reduce_residue", {}),
]

# per-layer metric -> (span or counter name, statistic); all are means per op
METRICS = {
    "dressed.solve_h.s": ("dressed.solve_h", "s"),
    "dressed.solve_h.calls": ("dressed.solve_h", "calls"),
    "quadrature.gauss_legendre.calls": ("quadrature.gauss_legendre.calls", "count"),
    "quadrature.find_root_bracketed.calls": ("quadrature.find_root_bracketed.calls", "count"),
    "kernels.kernel_k.elements": ("kernels.kernel_k.elements", "count"),
    "saddles.v_infinity.s": ("saddles.v_infinity", "s"),
    "saddles.fermi_velocity.s": ("saddles.fermi_velocity", "s"),
    "strings.catalog.s": ("strings.catalog", "s"),
    "dressed.solve_q.s": ("dressed.solve_q", "s"),
    "saddles.classify_structure.self_s": ("saddles.classify_structure", "self_s"),
    "saddles.find_saddles.s": ("saddles.find_saddles", "s"),
    "saddles.u_r_d1.points": ("saddles.u_r_d1.points", "count"),
    "dressed.p_r.s": ("dressed.p_r", "s"),
    "dressed.p_r.complex_points": ("dressed.p_r.complex_points", "count"),
    "dressed.dressed_phase.s": ("dressed.dressed_phase", "s"),
    "dressed.dressed_phase.complex_calls": ("dressed.dressed_phase.complex_calls", "count"),
    "kernels.bare_phase_1.s": ("kernels.bare_phase_1", "s"),
    "kernels.bare_phase_1.complex_points": ("kernels.bare_phase_1.complex_points", "count"),
    "assembler.enumerate_configs.s": ("assembler.enumerate_configs", "s"),
    "assembler.assemble_term.s": ("assembler.assemble_term", "s"),
    "assembler.assemble_term.calls": ("assembler.assemble_term", "calls"),
    "assembler.rank_terms.s": ("assembler.rank_terms", "s"),
    "cache.store.calls": ("cache.store", "calls"),
    "cache.store.bytes": ("cache.store.bytes", "count"),
    "cache.store.s": ("cache.store", "s"),
    "cache.load.calls": ("cache.load.calls", "count"),
    "cache.load.hits": ("cache.load.hits", "count"),
    "cli.run.self_s": ("cli.run", "self_s"),
    "cli.output.bytes": ("cli.output.bytes", "count"),
    "contours.eval_identity_n2.s": ("contours.eval_identity_n2", "s"),
    "contours.discretize.nodes": ("contours.discretize.nodes", "count"),
    "contours.certify_clearance.s": ("contours.certify_clearance", "s"),
    "contours.reduce_residue.s": ("contours.reduce_residue", "s"),
}


def unit(metric: str, stat: str) -> str:
    if stat in ("s", "self_s"):
        return "s/op"
    return "B/op" if metric.endswith(".bytes") else "count/op"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op]
        self.counts = defaultdict(float)
        self.op = -1
        self.missing = []
        self._stack = []
        self._undo = []

    def count(self, name, amount) -> None:
        self.counts[name] += amount

    def _wrap(self, fn, span_name, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span_name is None:
                out = fn(*args, **kwargs)
            else:
                name = span_name(args, kwargs) if callable(span_name) else span_name
                parent = tracer._stack[-1] if tracer._stack else -1
                span = [name, time.perf_counter(), None, parent, tracer.op]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    tracer._stack.pop()
            for cname, measure in counters.items():
                tracer.counts[cname] += measure(out, args, kwargs)
            return out

        return wrapper

    def install(self) -> None:
        for module_name, path, span_name, counters in WRAPS:
            owner_name, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, counters))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, as a mean per operation."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        stats = {"s": total, "self_s": own, "calls": calls, "count": self.counts}
        return {metric: {"value": stats[stat].get(source, 0.0) / ops, "unit": unit(metric, stat)}
                for metric, (source, stat) in METRICS.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, fh)
