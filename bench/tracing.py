"""Layer spans recorded from outside the program.

``Tracer.install()`` rebinds, in every ``quatcalc`` module namespace, each
public function of the layer modules to a wrapper that records a span; it
also wraps the ``__call__`` of the function-model classes and
``numpy.linalg.{solve,svd,eig,eigvals}``.  Modules import names directly, so
every binding is replaced, not only the defining one.  ``uninstall()``
restores the originals.

A span is ``(job, parent, layer, name, start, end, info)``; spans of one job
share its id and the parent is the index of the enclosing span (-1 for the
job's root).  Spans are kept in memory; ``summarize`` reduces them to the
per-layer metrics and ``dump`` writes them out.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "quat_core", "func_model", "contour_calc", "slice_check", "real_op",
          "joint_op", "linalg")

#: numpy.linalg functions traced as the ``linalg`` layer, with their stat name.
LINALG = {"solve": "solve", "svd": "svd", "eig": "eig", "eigvals": "eig"}

#: Node-doubling quadratures whose node use is reported as ``useful_node_frac``.
QUADRATURES = {"cauchy_transform": "contour_calc", "op_calculus": "real_op"}


def _points(args):
    """Complex points in a function-model call ``f(z)`` or ``f(z1, z2)``."""
    return max(np.size(a) for a in args[1:]) if len(args) > 1 else 0


def _final_nodes(args, kwargs, result):
    """Final-level nodes per circle, read from the quadrature's diagnostics."""
    if isinstance(result, tuple) and hasattr(result[1], "nodes_per_circle"):
        return result[1].nodes_per_circle
    return 0


def _contour_circles(args, kwargs, result):
    gamma = args[2] if len(args) > 2 else kwargs.get("gamma")
    return len(gamma.circles)


def _martinelli_nodes(args, kwargs, result):
    return result[1]["nodes"] if isinstance(result, tuple) else 0


_INFO = {
    "cauchy_transform": lambda a, k, r: (_final_nodes(a, k, r), _contour_circles(a, k, r)),
    "op_calculus": lambda a, k, r: (
        _final_nodes(a, k, r),
        len(k["contour"].circles) if k.get("contour") is not None else None,
    ),
    "operator_contour": lambda a, k, r: len(r.circles),
    "martinelli_calculus": _martinelli_nodes,
    "solve": lambda a, k, r: int(np.prod(np.shape(a[0])[:-2], dtype=int)),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer, name, kind=None):
        spans, stack = self.spans, self._stack
        info_of = _INFO.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if kind == "model":
                    info = _points(args)
                elif info_of is not None and result is not None:
                    info = info_of(args, kwargs, result)
                else:
                    info = None
                spans[sid] = (tracer.job, parent, layer, name, start, end, info)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import quatcalc

        modules = {name: sys.modules[f"quatcalc.{name}"] for name in LAYERS[:-1]}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and "__call__" in vars(obj):
                    call = vars(obj)["__call__"]
                    self._set(obj, "__call__", call,
                              self._wrap(call, layer, f"{name}.__call__", kind="model"))
        namespaces = [quatcalc] + [m for n, m in sys.modules.items() if n.startswith("quatcalc.")]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, obj, wrappers[obj])
        for name, stat in LINALG.items():
            fn = getattr(np.linalg, name)
            self._set(np.linalg, name, fn, self._wrap(fn, "linalg", stat))

    def _set(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (job, parent, layer, name, start, end, info) in enumerate(self.spans):
                fh.write(json.dumps([sid, job, parent, layer, name, start, end, info]) + "\n")


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    own = [end - start for _, _, _, _, start, end, _ in spans]
    for _, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans):
    """Per-layer metrics (calls, self_s, total_s and the layer counters)."""
    own = self_times(spans)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.total_s"] = 0.0
    for stat in sorted(set(LINALG.values())):
        m[f"linalg.{stat}.calls"] = 0
        m[f"linalg.{stat}.self_s"] = 0.0
    m["linalg.solve.systems"] = 0
    m["func_model.points"] = 0
    m["joint_op.nodes"] = 0
    quad_points = {}  # quadrature span -> points evaluated beneath it
    child_circles = {}  # op_calculus span -> circles of its operator_contour child
    for sid, (job, parent, layer, name, start, end, info) in enumerate(spans):
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += own[sid]
        outermost = True
        inside_model = inside_layer_model = False
        quad = None
        p = parent
        while p >= 0:
            up = spans[p]
            outermost = outermost and up[2] != layer
            if up[3].endswith(".__call__"):
                inside_model = True
                inside_layer_model = inside_layer_model or up[2] == layer
            if quad is None and up[3] in QUADRATURES:
                quad = p
            p = up[1]
        if outermost:
            m[f"{layer}.total_s"] += end - start
        if layer == "linalg":
            m[f"linalg.{name}.calls"] += 1
            m[f"linalg.{name}.self_s"] += own[sid]
            if name == "solve" and info is not None:
                m["linalg.solve.systems"] += info
        elif name.endswith(".__call__"):
            if layer == "func_model" and not inside_layer_model:
                m["func_model.points"] += info
            # node use counts the outermost model call of any layer: the
            # integrand of op_calculus is a real_op model
            if quad is not None and not inside_model:
                quad_points[quad] = quad_points.get(quad, 0) + info
        elif name == "martinelli_calculus" and info:
            m["joint_op.nodes"] += info
        elif name == "operator_contour" and parent >= 0:
            child_circles[parent] = info
    for quad_name, layer in QUADRATURES.items():
        useful = evaluated = 0
        for sid, span in enumerate(spans):
            if span[3] != quad_name or span[6] is None:
                continue
            nodes, circles = span[6]
            circles = circles if circles is not None else child_circles.get(sid, 0)
            useful += nodes * circles
            evaluated += quad_points.get(sid, 0)
        m[f"{layer}.useful_node_frac"] = useful / evaluated if evaluated else 0.0
    return m


def job_self_sums(spans):
    """``{job: (sum of self times, root span duration)}`` for each traced job."""
    own = self_times(spans)
    out = {}
    for sid, (job, parent, _, _, start, end, _) in enumerate(spans):
        total, root = out.get(job, (0.0, 0.0))
        out[job] = (total + own[sid], root + (end - start if parent < 0 else 0.0))
    return out
