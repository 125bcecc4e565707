"""Spans around the calls into each screwfn module, installed from outside.

`Tracer.install()` replaces every module binding of each traced function
(`from .algebra import roots` binds a second name in the importing module)
and the class attribute of each traced method with a wrapper that records a
span; `uninstall()` puts the originals back.  Spans and counts stay in
memory until `dump()`.  Self time is a span's duration minus the durations
of the traced spans nested directly inside it.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

TRACED = {
    "algebra": ("roots", "rational_roots", "hb_test", "solve_exact", "Polynomial.mul",
                "Polynomial.divmod", "RationalFunction.init"),
    "spectra": ("q_from_measure", "measure_from_q", "cayley_q_to_theta", "theta_to_e",
                "level_set_masses"),
    "screw": ("eval_screw", "kernel_g", "inner_product_Hg", "pd_check", "laplace_check", "phi1",
              "random_test_function", "aligned_test_function"),
    "debranges": ("HermiteBiehlerFrame.from_e", "inner_product", "moments", "gram_schmidt_basis",
                  "kernel_ab", "kernel_moment", "extension_eigenbasis", "s_theta_in_space"),
    "canonical": ("validate_transfer", "factorize", "peel_factor", "fundamental_solution",
                  "subspace_chain", "solution_rows_affine"),
    "weyl": ("screw_line_S", "diagram_check", "weyl_transform", "inverse_weyl", "l2h_inner",
             "phat", "E_times", "L0_map", "StepVector.from_row_values"),
    "classical": ("stieltjes_string", "idd_charfn_check", "mean_periodic_checks"),
    "paleywiener": ("pw_basis_gram", "pw_truncated_norm_defect", "pw_weyl_is_fourier",
                    "g_r_laplace_check"),
    "serialization": ("matrix_from_json", "hamiltonian_to_json"),
    "cli": ("run_g0_pipeline", "run_pw_pipeline", "main"),
}
METHOD_ATTR = {"mul": "__mul__", "init": "__init__"}
# arithmetic operators counted (without spans) on the exact scalar types
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__")
COUNTED_TYPES = (("exact", "ExactComplex"), ("exact", "PiScalar"))


def _kernel_entries(g, t, s):
    return np.broadcast(np.asarray(t), np.asarray(s)).size


def _screw_points(g, t):
    return np.size(t) * len(g.tau)


# work counts taken from the call arguments
WORK = {"screw.kernel_g": ("screw.kernel_g.entries", _kernel_entries),
        "screw.eval_screw": ("screw.eval_screw.points", _screw_points)}

MAX_SPANS = 100_000


def traced_names() -> list[str]:
    return [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]


def counter_names() -> list[str]:
    return [name for name, _ in WORK.values()] + [f"{m}.{c}.ops" for m, c in COUNTED_TYPES]


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in traced_names()}  # calls, total_s, self_s
        self.counts = dict.fromkeys(counter_names(), 0)
        self.spans = []      # (id, parent id, name, start, end), first MAX_SPANS only
        self.dropped = 0
        self._stack = []     # [span id, child seconds] per open span
        self._next_id = 0
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stats = self.stats[name]
        work = WORK.get(name)
        stack, spans, clock = self._stack, self.spans, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                self.counts[work[0]] += work[1](*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((frame[0], parent, name, start, end))
                else:
                    self.dropped += 1

        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "screwfn" or n.startswith("screwfn.")]
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"screwfn.{mod_name}")
            for name in names:
                key = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    attr = METHOD_ATTR.get(meth, meth)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        self._set(cls, attr, staticmethod(self._span(key, raw.__func__)))
                    else:
                        self._set(cls, attr, self._span(key, raw))
                    continue
                original = getattr(mod, name)
                wrapper = self._span(key, original)
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, binding, wrapper)
        for mod_name, cls_name in COUNTED_TYPES:
            cls = getattr(importlib.import_module(f"screwfn.{mod_name}"), cls_name)
            key = f"{mod_name}.{cls_name}.ops"
            for attr in OPERATORS:
                if attr in cls.__dict__:
                    self._set(cls, attr, self._counting(key, cls.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def per_layer(self, passes: int) -> dict:
        """Per-pass calls, self seconds and work counts."""
        out = {}
        for name, (calls, _total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s / passes
        for name, n in self.counts.items():
            out[name] = n / passes
        return out

    def dump(self, path, passes: int):
        body = {
            "passes": passes,
            "functions": {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in self.stats.items() if c},
            "counts": self.counts,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(body, fh)
