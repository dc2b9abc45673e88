"""Per-layer tracing of xplab from outside the program.

``Tracer.install()`` wraps every public function of each xplab module, and
``__init__`` plus the public methods of its public classes, at every name the
function is bound to: its own module, each module that took it with
``from ... import``, and the package namespace. Each call is a span on a
stack; a span's self time is its duration minus the time its child spans
cover. Spans are added up in memory as they end rather than stored (a
``campaign`` pass makes about half a million), and ``metrics()`` turns the
totals into per-pass numbers. ``uninstall()`` restores the original bindings.

A layer is one module of xplab. A group is a set of functions that one
per-layer metric follows; its time counts only outermost spans of the group,
so a norm called by another norm is not counted twice.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

LAYERS = {
    "space": "space",
    "_dense": "dense",
    "blocks": "blocks",
    "operators": "operators",
    "oracle": "oracle",
    "criteria": "criteria",
    "splitter": "splitter",
    "weights": "weights",
    "experiments": "experiments",
    "serialize": "serialize",
    "report": "report",
    "cli": "cli",
}

_GROUPS = {
    ("space", "WeightedSpace.__init__"): "space.construct",
    ("space", "SpVector.__init__"): "space.construct",
    **{("space", n): "space.norm" for n in ("norm_p", "norm_2w", "xp_norm", "ratio", "inner")},
    ("space", "omega"): "space.omega",
    ("space", "max_ratio"): "space.omega",
    ("dense", "col_norm"): "dense.col_norm",
    ("operators", "estimate_opnorm"): "operators.opnorm",
    ("operators", "estimate_r_sup"): "operators.extremum",
    ("operators", "estimate_h_inf"): "operators.extremum",
    **{("operators", n): "operators.projection" for n in (
        "project", "gram_project", "BlockProjection.apply", "BlockProjection.as_operator",
        "GramProjector.apply", "GramProjector.coefficients", "GramProjector.as_operator",
        "DenseOperator.apply")},
    ("criteria", "defect_of"): "criteria.defect",
    **{("criteria", n): "criteria.check" for n in ("check_thm13", "check_proof_bounds",
                                                   "check_prop24")},
    ("serialize", "load_json"): "serialize.load",
    ("serialize", "canonical_dumps"): "serialize.encode",
    ("serialize", "dump_json"): "serialize.encode",
}

_ESTIMATORS = ("operators.opnorm", "operators.extremum")


def _group(layer: str, qualname: str) -> str | None:
    g = _GROUPS.get((layer, qualname))
    if g is not None:
        return g
    if layer in ("oracle", "splitter", "weights"):
        return layer
    if layer == "serialize" and qualname.startswith("doc_to_"):
        return "serialize.decode"
    if layer == "serialize" and qualname.endswith("_to_doc"):
        return "serialize.encode"
    return None


class Tracer:
    def __init__(self):
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self.layer_calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.group_calls = defaultdict(int)
        self.group_time = defaultdict(float)
        self._depth = defaultdict(int)
        self.col_norm_columns = 0
        self.col_norm_bytes = 0
        self.objective_evals = 0
        self.bytes_out = 0
        self.spans = 0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        group = _group(layer, qualname)
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        is_col_norm = group == "dense.col_norm"
        is_estimator = group in _ESTIMATORS
        is_dumps = qualname == "canonical_dumps"
        by_driver = qualname == "run_experiment"

        def traced(*args, **kwargs):
            frame = [0.0, 0]  # child span time, col_norm children
            stack.append(frame)
            grp = f"experiments.{args[0] if args else kwargs['name']}" if by_driver else group
            if grp is not None:
                depth[grp] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.spans += 1
                self.layer_calls[layer] += 1
                self.layer_self[layer] += dt - frame[0]
                if grp is not None:
                    depth[grp] -= 1
                    self.group_calls[grp] += 1
                    if depth[grp] == 0:
                        self.group_time[grp] += dt
            if is_col_norm:
                X = args[0]
                mode = args[3] if len(args) > 3 else kwargs.get("mode")
                cols = X.shape[1] if X.ndim == 2 else 1
                self.col_norm_columns += cols
                self.col_norm_bytes += X.nbytes * (2 if mode == "xp" else 1) + 8 * cols
                if stack:
                    stack[-1][1] += 1
            elif is_estimator:
                # two col_norm calls per objective evaluation; the odd one out
                # in estimate_opnorm normalizes the witness
                self.objective_evals += frame[1] // 2
            elif is_dumps:
                self.bytes_out += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        return traced

    def _rebind(self, owner, name, new) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "xplab" or n.startswith("xplab."))]
        wrapped = {}
        for mod in modules:
            layer = LAYERS.get(mod.__name__.rpartition(".")[2])
            if layer is None:
                continue
            # run_experiment reads driver defaults through __code__, so the
            # drivers stay unwrapped and are timed by run_experiment's name
            drivers = {id(entry[0]) for entry in getattr(mod, "DRIVERS", {}).values()}
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or id(obj) in drivers
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = self._wrap(obj, layer, obj.__qualname__)
                elif isinstance(obj, type):
                    for attr, fn in list(vars(obj).items()):
                        public = attr == "__init__" or not attr.startswith("_")
                        if public and isinstance(fn, types.FunctionType):
                            self._rebind(obj, attr, self._wrap(fn, layer, fn.__qualname__))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                    self._rebind(mod, name, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)

    # -- results --------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-pass per-layer metrics as {name: (value, unit)}."""

        def per(v):
            q = v / passes
            return int(q) if isinstance(v, int) and v % passes == 0 else q

        gc, gt = self.group_calls, self.group_time
        m = {}
        for layer in LAYERS.values():
            m[f"{layer}.calls"] = (per(self.layer_calls[layer]), "count")
            m[f"{layer}.self_s"] = (per(self.layer_self[layer]), "s")
        for key in ("space.construct", "space.norm", "space.omega", "operators.opnorm",
                    "operators.extremum", "criteria.defect"):
            m[f"{key}_calls"] = (per(gc[key]), "count")
            m[f"{key}_s"] = (per(gt[key]), "s")
        m["dense.col_norm_calls"] = (per(gc["dense.col_norm"]), "count")
        m["dense.col_norm_columns"] = (per(self.col_norm_columns), "count")
        m["dense.col_norm_s"] = (per(gt["dense.col_norm"]), "s")
        m["dense.col_norm_bytes"] = (per(self.col_norm_bytes), "bytes")
        m["operators.objective_evals"] = (per(self.objective_evals), "count")
        m["operators.projection_s"] = (per(gt["operators.projection"]), "s")
        m["oracle.s"] = (per(gt["oracle"]), "s")
        m["criteria.check_s"] = (per(gt["criteria.check"]), "s")
        m["splitter.s"] = (per(gt["splitter"]), "s")
        m["weights.s"] = (per(gt["weights"]), "s")
        from xplab.experiments import DRIVERS

        for d in DRIVERS:
            m[f"experiments.{d}_s"] = (per(gt[f"experiments.{d}"]), "s")
        m["serialize.load_s"] = (per(gt["serialize.load"]), "s")
        m["serialize.decode_s"] = (per(gt["serialize.decode"]), "s")
        m["serialize.encode_s"] = (per(gt["serialize.encode"]), "s")
        m["serialize.bytes_out"] = (per(self.bytes_out), "bytes")
        m["trace.spans"] = (per(self.spans), "count")
        return m
