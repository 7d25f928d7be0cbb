"""Per-layer tracing from outside the program.

The hooks wrap public (and a few private) functions of the nanorod modules
by rebinding module attributes, so no file of the program changes.  Every
module namespace that holds the original function object is rebound, which
covers the bindings callers actually resolve (``bvp.integrate`` for
``shoot``, ``charcurve.find_fold`` for ``_group_families``,
``reduction.eta_prime`` for ``reduction_coefficients``, ...).

Two kinds of hook:
  * span hooks record (name, start, end, parent, op id, failed) per call;
  * count hooks only count calls; they sit on functions called more than
    ~1e4 times per op, where a span per call would swamp the measurement.

Spans are kept in memory and written out when the traced run ends.  A hook
whose target no longer exists reports ``None`` for every stat, so that a
renamed function cannot look like a saving.
"""

import importlib
import json
import sys
import time
from collections import defaultdict

# (layer name, module, attribute path, kind)
HOOKS = (
    ("charcurve.residual", "nanorod.charcurve", "_residual", "count"),
    ("charcurve.char_partials", "nanorod.charcurve", "char_partials", "count"),
    ("charcurve.scan_roots", "nanorod.charcurve", "_scan_roots", "span"),
    ("charcurve.solve_lambda2", "nanorod.charcurve", "solve_lambda2", "span"),
    ("charcurve.trace_curve", "nanorod.charcurve", "trace_curve", "span"),
    ("charcurve.find_fold", "nanorod.charcurve", "find_fold", "span"),
    ("charcurve.find_branch_minimum", "nanorod.charcurve", "find_branch_minimum", "span"),
    ("charcurve.find_kappa_cr", "nanorod.charcurve", "find_kappa_cr", "span"),
    ("charcurve.eta_prime", "nanorod.charcurve", "eta_prime", "span"),
    ("modes.mode_shape", "nanorod.modes", "mode_shape", "span"),
    ("modes.adjoint_kernel", "nanorod.modes", "adjoint_kernel", "span"),
    ("reduction.reduction_coefficients", "nanorod.reduction", "reduction_coefficients", "span"),
    ("unfolding.unfolding_coefficients", "nanorod.unfolding", "unfolding_coefficients", "span"),
    ("quadrature.Grid.cumint_right", "nanorod.quadrature", "Grid.cumint_right", "count"),
    ("quadrature.Grid.inner", "nanorod.quadrature", "Grid.inner", "count"),
    ("bvp.solve_postbuckling", "nanorod.bvp", "solve_postbuckling", "span"),
    ("bvp.shoot", "nanorod.bvp", "shoot", "span"),
    ("bvp.integrate", "nanorod.bvp", "integrate", "span"),
    ("bvp.residual_M2", "nanorod.bvp", "residual_M2", "span"),
    ("bvp.linear_shooting_determinant", "nanorod.bvp", "linear_shooting_determinant", "span"),
    ("cli.main", "nanorod.cli", "main", "span"),
    ("cli.emit", "nanorod.cli", "_emit", "span"),
)
_HOOK_NAMES = {name for name, _m, _a, _k in HOOKS}

# Every per-layer metric the traced run reports: (name, unit, better).
LAYER_METRICS = (
    ("import.nanorod_s", "s", "lower"),
    ("import.modules_loaded", "count", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.emit.busy_s", "s", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("charcurve.residual.calls", "count", "lower"),
    ("charcurve.scan_roots.calls", "count", "lower"),
    ("charcurve.scan_roots.busy_s", "s", "lower"),
    ("charcurve.solve_lambda2.calls", "count", "lower"),
    ("charcurve.solve_lambda2.busy_s", "s", "lower"),
    ("charcurve.solve_lambda2.self_s", "s", "lower"),
    ("charcurve.solve_lambda2.failures", "count", "lower"),
    ("charcurve.residual_per_solve_lambda2", "ratio", "lower"),
    ("charcurve.trace_curve.calls", "count", "lower"),
    ("charcurve.trace_curve.busy_s", "s", "lower"),
    ("charcurve.trace_curve.self_s", "s", "lower"),
    ("charcurve.find_fold.calls", "count", "lower"),
    ("charcurve.find_fold.busy_s", "s", "lower"),
    ("charcurve.find_fold.failures", "count", "lower"),
    ("charcurve.find_fold.in_trace_calls", "count", "lower"),
    ("charcurve.find_fold.success_ratio", "ratio", "higher"),
    ("charcurve.find_branch_minimum.busy_s", "s", "lower"),
    ("charcurve.find_kappa_cr.busy_s", "s", "lower"),
    ("charcurve.eta_prime.calls", "count", "lower"),
    ("charcurve.eta_prime.busy_s", "s", "lower"),
    ("charcurve.char_partials.calls", "count", "lower"),
    ("modes.mode_shape.calls", "count", "lower"),
    ("modes.mode_shape.busy_s", "s", "lower"),
    ("modes.adjoint_kernel.calls", "count", "lower"),
    ("modes.adjoint_kernel.busy_s", "s", "lower"),
    ("reduction.reduction_coefficients.calls", "count", "lower"),
    ("reduction.reduction_coefficients.busy_s", "s", "lower"),
    ("unfolding.unfolding_coefficients.calls", "count", "lower"),
    ("unfolding.unfolding_coefficients.busy_s", "s", "lower"),
    ("quadrature.Grid.cumint_right.calls", "count", "lower"),
    ("quadrature.Grid.inner.calls", "count", "lower"),
    ("bvp.solve_postbuckling.calls", "count", "lower"),
    ("bvp.solve_postbuckling.busy_s", "s", "lower"),
    ("bvp.solve_postbuckling.self_s", "s", "lower"),
    ("bvp.solve_postbuckling.failures", "count", "lower"),
    ("bvp.shoot.calls", "count", "lower"),
    ("bvp.shoot.busy_s", "s", "lower"),
    ("bvp.shoot.self_s", "s", "lower"),
    ("bvp.shoot.failures", "count", "lower"),
    ("bvp.integrate.calls", "count", "lower"),
    ("bvp.integrate.busy_s", "s", "lower"),
    ("bvp.integrate_per_solve", "ratio", "lower"),
    ("bvp.shoot_per_solve", "ratio", "lower"),
    ("bvp.rk4_steps_per_s", "1/s", "higher"),
    ("bvp.residual_M2.busy_s", "s", "lower"),
    ("bvp.linear_shooting_determinant.calls", "count", "lower"),
    ("bvp.linear_shooting_determinant.busy_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_SPAN_STATS = ("calls", "busy_s", "self_s", "failures")
_RK4_DEFAULT_STEPS = 4096  # nanorod.quadrature.DEFAULT_N, used when integrate gets no grid


def _integrate_steps(args, kwargs):
    n_steps = kwargs.get("n_steps", args[4] if len(args) > 4 else None)
    if n_steps is not None:
        return n_steps
    grid = kwargs.get("grid", args[5] if len(args) > 5 else None)
    return grid.n if grid is not None else _RK4_DEFAULT_STEPS


class Tracer:
    """Installs the hooks and collects spans and counts in memory."""

    def __init__(self):
        self.active = False
        self.op_id = None
        self.spans = []       # [name, start, end, parent, op_id, failed, residuals_in, residuals_out]
        self.stack = []
        self.counts = defaultdict(int)
        self.missing = set()
        self._undo = []

    def install(self):
        for name, module_name, attr, kind in HOOKS:
            try:
                module = importlib.import_module(module_name)
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            wrapper = self._counter(name, original) if kind == "count" else self._spanner(name, original)
            targets = [owner] if owner is not module else [
                m for key, m in list(sys.modules.items())
                if m is not None and (key == "nanorod" or key.startswith("nanorod."))
            ]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._undo.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def _counter(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _spanner(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        steps = _integrate_steps if name == "bvp.integrate" else None

        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if steps is not None:
                counts["bvp.integrate.steps"] += steps(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, False,
                   counts["charcurve.residual"], 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                rec[7] = counts["charcurve.residual"]
                stack.pop()

        return wrapped

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def dump(self):
        """Spans and counts as plain data, for writing out at exit."""
        return {"spans": self.spans, "counts": dict(self.counts), "missing": sorted(self.missing)}


def write_jsonl(path, records):
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class LayerStats:
    """Per-layer totals accumulated over one or more traced processes."""

    def __init__(self):
        self.stats = defaultdict(int)
        self.missing = set()
        self.in_trace_folds = 0
        self.in_trace_fold_failures = 0
        self.residuals_in_solve = 0
        self.integrate_in_solve = 0
        self.shoot_in_solve = 0

    def add(self, dump):
        spans, counts = dump["spans"], dump["counts"]
        self.missing.update(dump["missing"])
        for key, value in counts.items():
            self.stats[key + ".calls" if key in _HOOK_NAMES else key] += value
        child_time = defaultdict(float)
        for rec in spans:
            if rec[3] is not None:
                child_time[rec[3]] += rec[2] - rec[1]
        for i, (name, start, end, parent, _op, failed, res_in, res_out) in enumerate(spans):
            ancestors = self._ancestors(spans, parent)
            self.stats[name + ".calls"] += 1
            self.stats[name + ".failures"] += failed
            self.stats[name + ".self_s"] += (end - start) - child_time[i]
            if name not in ancestors:
                self.stats[name + ".busy_s"] += end - start
                if name == "charcurve.solve_lambda2":
                    self.residuals_in_solve += res_out - res_in
            if name == "charcurve.find_fold" and "charcurve.trace_curve" in ancestors:
                self.in_trace_folds += 1
                self.in_trace_fold_failures += failed
            if "bvp.solve_postbuckling" in ancestors:
                self.integrate_in_solve += name == "bvp.integrate"
                self.shoot_in_solve += name == "bvp.shoot"

    @staticmethod
    def _ancestors(spans, parent):
        names = set()
        while parent is not None:
            names.add(spans[parent][0])
            parent = spans[parent][3]
        return names

    def metrics(self):
        """Every traced LAYER_METRICS value except import.* and trace.*."""
        out = {}
        for name, _unit, _better in LAYER_METRICS:
            if name.startswith(("import.", "trace.")):
                continue
            layer, _, stat = name.rpartition(".")
            if stat in _SPAN_STATS and layer in _HOOK_NAMES:
                out[name] = None if layer in self.missing else self.stats[name]
        s = self.stats

        def ratio(num, den, *needs):
            if any(n in self.missing for n in needs):
                return None
            return num / den if den else 0.0

        out["cli.emit.bytes"] = None if "cli.emit" in self.missing else s["cli.emit.bytes"]
        out["charcurve.residual_per_solve_lambda2"] = ratio(
            self.residuals_in_solve, s["charcurve.solve_lambda2.calls"],
            "charcurve.residual", "charcurve.solve_lambda2")
        out["charcurve.find_fold.in_trace_calls"] = (
            None if {"charcurve.find_fold", "charcurve.trace_curve"} & self.missing
            else self.in_trace_folds)
        out["charcurve.find_fold.success_ratio"] = ratio(
            self.in_trace_folds - self.in_trace_fold_failures, self.in_trace_folds,
            "charcurve.find_fold", "charcurve.trace_curve")
        out["bvp.integrate_per_solve"] = ratio(
            self.integrate_in_solve, s["bvp.solve_postbuckling.calls"],
            "bvp.integrate", "bvp.solve_postbuckling")
        out["bvp.shoot_per_solve"] = ratio(
            self.shoot_in_solve, s["bvp.solve_postbuckling.calls"],
            "bvp.shoot", "bvp.solve_postbuckling")
        out["bvp.rk4_steps_per_s"] = ratio(
            s["bvp.integrate.steps"], s["bvp.integrate.busy_s"], "bvp.integrate")
        return out

