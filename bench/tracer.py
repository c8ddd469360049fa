"""Spans and counts at the boundaries of the linetherm modules, from outside.

The tracer replaces public functions of the package with timing wrappers
for the duration of a traced phase and restores them afterwards; nothing
under ``src/`` changes. A wrapper is installed under every name that refers
to the original function in any ``linetherm`` module, and inside the
module-level dicts that hold it (``cli._DECAY_FITS``), because consumers
that bound a function with ``from ... import`` never see a patch of the
defining module alone.

Residual evaluations are counted by wrapping the ``fun`` of each
``ResidualProblem`` that reaches ``lm_fit`` or ``joint_fit``: one call is
one dataset evaluation.

Spans are aggregated as they close (calls, time of the outermost span of
each name, self time = duration minus the time of direct child spans).
Raw spans (op, id, parent, name, start, end) are kept for the first
``KEEP_SPANS`` spans only, so memory stays bounded on long runs.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import time
from collections import Counter, defaultdict

KEEP_SPANS = 50_000
KEEP_FITS = 256

# (module, attribute, span name). Every span name starts with its layer.
TARGETS = (
    ("linetherm.cli", "main", "cli.main"),
    ("linetherm.cli", "build_parser", "cli.parser"),
    ("linetherm.dataio", "read_columns", "dataio.read"),
    ("linetherm.dataio", "read_json_doc", "dataio.read"),
    ("linetherm.dataio", "read_trace_csv", "dataio.read"),
    ("linetherm.dataio", "read_heatpulse_csv", "dataio.read"),
    ("linetherm.dataio", "read_fin_csv", "dataio.read"),
    ("linetherm.dataio", "read_iq_csv", "dataio.read"),
    ("linetherm.dataio", "read_phase_csv", "dataio.read"),
    ("linetherm.dataio", "write_columns", "dataio.write"),
    ("linetherm.dataio", "write_json_doc", "dataio.write"),
    ("linetherm.shotnoise", "dephasing_full", "shotnoise.forward"),
    ("linetherm.shotnoise", "photons_from_dephasing", "shotnoise.inverse"),
    ("linetherm.fitkit", "lm_fit", "fitkit.fit"),
    ("linetherm.fitkit", "joint_fit", "fitkit.fit"),
    ("linetherm.fitkit", "numeric_jacobian", "fitkit.jacobian"),
    ("linetherm.heatpulse", "fit_cooling", "heatpulse.fit"),
    ("linetherm.decoherence", "fit_relaxation", "decoherence.fit"),
    ("linetherm.decoherence", "fit_ramsey", "decoherence.fit"),
    ("linetherm.decoherence", "fit_echo", "decoherence.fit"),
    ("linetherm.fin", "extract_resistances", "fin.extract"),
    ("linetherm.fin", "invert_ratio", "fin.invert_ratio"),
    ("linetherm.iqtemp", "sweep_temperature", "iqtemp.sweep"),
    ("linetherm.iqtemp", "fit_mixture", "iqtemp.fit"),
    ("linetherm.resonator", "fit_phase_pair", "resonator.fit"),
)

# (module, attribute, count name): calls counted without a span, their time
# left in the caller's span. bose_einstein runs about 10k times per
# heat-pulse command, and a span costs a few microseconds.
COUNTED = (
    ("linetherm.shotnoise", "bose_einstein", "shotnoise.bose_einstein"),
)

# A call of the first span name made while the second is open is also
# counted under the third key.
NESTED = {
    "shotnoise.forward": ("shotnoise.inverse", "shotnoise.forward_in_inverse"),
    "fitkit.residual": ("fitkit.jacobian", "fitkit.residual_in_jacobian"),
}


def _after_read_columns(tracer, args, kwargs, out):
    columns = list(out.values())
    return (("dataio.rows_read", len(columns[0]) if columns else 0),)


def _after_write_columns(tracer, args, kwargs, out):
    columns = args[2] if len(args) > 2 else kwargs["columns"]
    return (("dataio.rows_written", len(columns[0]) if len(columns) else 0),)


def _after_fit(prefix, iterations):
    def after(tracer, args, kwargs, out):
        if len(tracer.fit_log) < KEEP_FITS:
            evals = tracer.calls["fitkit.residual"]
            tracer.fit_log.append((prefix, int(out.n_iterations), bool(out.converged),
                                   evals - tracer.evals_logged))
            tracer.evals_logged = evals
        return ((f"{prefix}.{iterations}", int(out.n_iterations)),
                (f"{prefix}.converged", int(bool(out.converged))))
    return after


AFTER = {
    ("linetherm.dataio", "read_columns"): _after_read_columns,
    ("linetherm.dataio", "write_columns"): _after_write_columns,
    ("linetherm.fitkit", "lm_fit"): _after_fit("fitkit", "lm_iterations"),
    ("linetherm.fitkit", "joint_fit"): _after_fit("fitkit", "lm_iterations"),
    ("linetherm.iqtemp", "fit_mixture"): _after_fit("iqtemp", "em_iterations"),
}


class Tracer:
    """Aggregated spans and counts; install() patches, uninstall() restores."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.fit_log = []           # first fits: (layer, iterations, converged, evaluations)
        self.evals_logged = 0       # dataset evaluations up to the last logged fit
        self.op = -1                # index of the traced command, set by the caller
        self._stack = []
        self._depth = Counter()
        self._ids = itertools.count(1)
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """fn inside a span called name; after(tracer, args, kwargs, out) yields counts."""
        stack, depth, calls, total_s, self_s = (self._stack, self._depth, self.calls,
                                                self.total_s, self.self_s)
        counts, spans, clock = self.counts, self.spans, time.perf_counter
        outer, nested_key = NESTED.get(name, (None, None))
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outer is not None and depth[outer]:
                counts[nested_key] += 1
            depth[name] += 1
            frame = [next(ids), clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[2]
                depth[name] -= 1
                if not depth[name]:
                    total_s[name] += duration
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((tracer.op, frame[0], parent[0] if parent else None, name,
                                  frame[1], end))
            if after is not None:
                for key, n in after(tracer, args, kwargs, out):
                    counts[key] += n
            return out

        return traced

    def count(self, key, fn):
        """fn with its calls counted under key, without a span."""
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_problem(self, problem):
        return dataclasses.replace(problem, fun=self.wrap("fitkit.residual", problem.fun))

    def _fit_wrapper(self, fn, joint):
        counted = self._counted_problem

        @functools.wraps(fn)
        def fit(problems, *args, **kwargs):
            if joint:
                problems = [counted(p) for p in problems]
            else:
                problems = counted(problems)
            return fn(problems, *args, **kwargs)

        return fit

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every binding of each target in the loaded linetherm modules."""
        replacement = {}
        for module, attr, span in TARGETS:
            fn = getattr(sys.modules[module], attr)
            inner = fn
            if module == "linetherm.fitkit" and attr in ("lm_fit", "joint_fit"):
                inner = self._fit_wrapper(fn, joint=attr == "joint_fit")
            replacement[id(fn)] = (fn, self.wrap(span, inner, AFTER.get((module, attr))))
        for module, attr, key in COUNTED:
            fn = getattr(sys.modules[module], attr)
            replacement[id(fn)] = (fn, self.count(key, fn))

        def swap(value):
            hit = replacement.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for name, module in list(sys.modules.items()):
            if name != "linetherm" and not name.startswith("linetherm."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                new = swap(value)
                if new is not None:
                    self._patched.append((namespace, key, value))
                    namespace[key] = new
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        new = swap(v)
                        if new is not None:
                            self._patched.append((value, k, v))
                            value[k] = new
        return self

    def uninstall(self):
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    def snapshot(self):
        """Calls and counts so far, for per-cycle determinism checks."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        return out
