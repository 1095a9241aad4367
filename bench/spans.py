"""Span tracing of the bandchol modules, from outside the package.

Tracer.install() wraps every public function of each layer module, and
the __post_init__ of each public dataclass defined there, in a function
that records one span per call: name, start, end, parent span, op id,
a work figure and whether the call raised. It then rebinds every
reference to the original inside the package, so that calls through
`from .x import f` copies, module-level tables such as
linalg.NORMS_BY_NAME, and default arguments all reach the wrapper.
Tracer.remove() puts every rebound name back, so an untraced run calls
the bare functions.

Spans stay in memory; layer_metrics() turns them into per-op figures.
"""

import importlib
import inspect
import os
import statistics
import sys
import time

import numpy as np

PACKAGE = "bandchol"
LAYERS = ("stats", "bandwidth", "bayes", "competitors", "mcd", "linalg", "simulate", "cli")

# functions whose call counts are reported one by one
COUNTED = (
    "stats.banded_regression",
    "stats.gram_matrix",
    "bandwidth.log_marginal_k",
    "competitors.bl_banded_estimator",
    "mcd.compose",
    "mcd.CholeskyFactor",
    "linalg.norm_l1",
    "linalg.norm_spectral",
)

# functions whose self times are reported one by one
TIMED = COUNTED + (
    "bayes.estimate_p_loss",
    "simulate.sample_gaussian",
    "cli.read_data_csv",
    "cli.write_matrix_csv",
)


def _gram_gflop(args):
    n, p = np.shape(args["x"])
    return 2.0 * n * p * p / 1e9


def _compose_mb(args):
    p = args["factor"].p
    return p * p * 8 / 1e6


def _file_mb(args):
    return os.path.getsize(args["path"]) / 1e6


def _is_reference_fit(args):
    # select_k_resampling fits its wide-band reference without a shared
    # Gram matrix, once per split attempt
    return 1.0 if args["gram"] is None else 0.0


def _splits(args):
    return float(args["splits"])


# work figure recorded with each span, computed from the bound arguments
# after the call returns (so written files have their final size)
WORK = {
    "stats.gram_matrix": _gram_gflop,
    "mcd.compose": _compose_mb,
    "cli.read_data_csv": _file_mb,
    "cli.write_matrix_csv": _file_mb,
    "competitors.bl_banded_estimator": _is_reference_fit,
    "bandwidth.select_k_resampling": _splits,
}

# span fields
NAME, START, END, PARENT, OP, WORK_FIELD, RAISED = range(7)


class Tracer:
    """Records spans of calls into the package while installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    hook = vars(obj)["__post_init__"]
                    self._setattr(obj, "__post_init__", self._wrap(f"{layer}.{name}", hook))
        for modname, module in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        self._setitem(namespace, key, wrappers[id(value)][1])
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if id(v) in wrappers and wrappers[id(v)][0] is v:
                                self._setitem(value, k, wrappers[id(v)][1])
        for original, _ in wrappers.values():
            defaults = original.__defaults__
            if defaults and any(id(d) in wrappers for d in defaults):
                swapped = tuple(
                    wrappers[id(d)][1] if id(d) in wrappers and wrappers[id(d)][0] is d else d
                    for d in defaults
                )
                self._setattr(original, "__defaults__", swapped)

    def remove(self):
        while self._undo:
            kind, target, key, old = self._undo.pop()
            if kind == "item":
                target[key] = old
            else:
                setattr(target, key, old)

    def _setitem(self, container, key, value):
        self._undo.append(("item", container, key, container[key]))
        container[key] = value

    def _setattr(self, target, name, value):
        self._undo.append(("attr", target, name, getattr(target, name)))
        setattr(target, name, value)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None
        tracer = self

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[WORK_FIELD] = work(bound.arguments)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def metric_names():
    """Every per-layer metric layer_metrics() reports, with its unit."""
    names = {}
    for layer in LAYERS:
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.errors"] = "count"
    for fn in COUNTED:
        names[f"{fn}.calls"] = "count"
    for fn in TIMED:
        names[f"{fn}.self_s"] = "s"
    names["stats.gram_matrix.gflop"] = "Gflop"
    names["mcd.compose.dense_mb"] = "MB"
    names["cli.read_data_csv.mb"] = "MB"
    names["cli.write_matrix_csv.mb"] = "MB"
    names["bandwidth.resampling.split_yield"] = "ratio"
    return names


def layer_metrics(spans, ops):
    """Per-op medians of the layer metrics over the given op ids.

    split_yield is pooled over all ops instead: splits requested divided
    by split attempts, 0 when no op ran the resampling selector.
    """
    selfs = self_times(spans)
    per_op = {op: {} for op in ops}
    requested = attempts = 0.0
    for span, self_s in zip(spans, selfs):
        totals = per_op.get(span[OP])
        if totals is None:
            continue
        name = span[NAME]
        layer = name.split(".", 1)[0]
        for key, value in (
            (f"{layer}.self_s", self_s),
            (f"{layer}.calls", 1),
            (f"{layer}.errors", 1 if span[RAISED] else 0),
            (f"{name}.calls", 1),
            (f"{name}.self_s", self_s),
            (f"{name}.work", span[WORK_FIELD]),
        ):
            totals[key] = totals.get(key, 0) + value
        if name == "bandwidth.select_k_resampling":
            requested += span[WORK_FIELD]
        elif (name == "competitors.bl_banded_estimator" and span[PARENT] >= 0
              and spans[span[PARENT]][NAME] == "bandwidth.select_k_resampling"):
            attempts += span[WORK_FIELD]
    derived = {
        "stats.gram_matrix.gflop": "stats.gram_matrix.work",
        "mcd.compose.dense_mb": "mcd.compose.work",
        "cli.read_data_csv.mb": "cli.read_data_csv.work",
        "cli.write_matrix_csv.mb": "cli.write_matrix_csv.work",
    }
    out = {}
    for name in metric_names():
        if name == "bandwidth.resampling.split_yield":
            out[name] = requested / attempts if attempts else 0.0
            continue
        key = derived.get(name, name)
        out[name] = statistics.median(per_op[op].get(key, 0) for op in ops) if ops else 0.0
    return out
