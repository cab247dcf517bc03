"""Outside-in tracing of the uce3 package.

The tracer wraps every public function of every ``uce3`` module, and the
public methods of its classes, from outside: the program's source is not
touched. A function is wrapped once and the wrapper is installed wherever
the function is bound, so ``uce3.uce.kernel`` and ``uce3.theorem.kernel``
(two bindings of ``uce3.linalg.kernel``) both record spans. Methods are
wrapped on the class attribute.

A span is (name, start, end, parent). Spans live in flat arrays in memory
and are written out once, when the run ends. ``summarize`` folds one
pass's spans into the per-layer metrics named in ``LAYERS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

# Modules whose classes are value types on the per-scalar hot path; their
# module-level functions are wrapped, their methods are not.
_NO_METHODS = ("errors", "fields")
_SKIP_MODULES = ("selftest",)
_DUNDERS = ("__matmul__",)

_SUBSPACE_SET_OPS = (
    "sum_with", "intersect", "is_subspace_of", "image_under", "equals",
    "contains",
)
_WITNESSES = (
    "alternating_witness", "leibniz_witness", "jacobi_witness",
    "lts_pair_witness", "lts_cyclic_witness", "lts_derivation_witness",
    "derived_mismatch_witness", "binary_morphism_witness",
    "ternary_morphism_witness", "central_slot_witness", "action_law_witness",
    "action_derivation_witness", "equivariance_witness",
)

# layer -> the wrapped functions whose spans it owns
LAYERS = {
    "linalg.fold": ("linalg.SpanAccumulator.add_pairs",),
    "linalg.project": (
        "linalg.QuotientSpace.project_pairs", "linalg.QuotientSpace.project",
    ),
    "linalg.dense": (
        "linalg.kernel", "linalg.rref", "linalg.quotient",
        "linalg.right_inverse", "linalg.solve_columns",
        "linalg.Matrix.__matmul__",
    ) + tuple(f"linalg.Subspace.{op}" for op in _SUBSPACE_SET_OPS),
    "tensorops.tensordot": ("tensorops.exact_tensordot",),
    "tensorops.witness": tuple(f"tensorops.{w}" for w in _WITNESSES),
    "algebra.check": ("algebra.check_binary", "algebra.check_ternary"),
    "algebra.build": (
        "algebra.derived_lts", "algebra.tensor_leibniz",
        "algebra.canonical_wedge_action", "algebra.equivariant_leibniz",
        "algebra.verify_action",
    ),
    "uce.lts": ("uce.lts_tensor_cube",),
    "uce.binary": ("uce.leibniz_uce", "uce.lie_uce"),
    "uce.universal_map": ("uce.universal_map",),
    "uce.extension_verify": ("uce.CentralExtension.verify",),
    "theorem.verify": ("theorem.verify_main_theorem",),
    "theorem.induced_leibniz": ("theorem.induced_leibniz_structure",),
    "theorem.doubling": ("theorem.verify_jacobiator_doubling",),
    "serialize.load": ("serialize.load_algebra",),
    "serialize.dump": ("serialize.algebra_to_dict",),
    "catalog.build": ("catalog.catalog",),
}

# the function whose truthy results count as useful work (a new pivot)
YIELD_FUNCTION = "linalg.SpanAccumulator.add_pairs"

# (metric, layer, statistic, unit, better); statistic is calls, s, self_s
# or yield. Every one of these is printed by a traced run.
LAYER_METRICS = (
    ("linalg.fold.calls", "linalg.fold", "calls", "count", "lower"),
    ("linalg.fold.s", "linalg.fold", "s", "s", "lower"),
    ("linalg.fold.yield", "linalg.fold", "yield", "ratio", "higher"),
    ("linalg.project.calls", "linalg.project", "calls", "count", "lower"),
    ("linalg.project.s", "linalg.project", "s", "s", "lower"),
    ("linalg.dense.s", "linalg.dense", "s", "s", "lower"),
    ("tensorops.tensordot.calls", "tensorops.tensordot", "calls", "count",
     "lower"),
    ("tensorops.tensordot.s", "tensorops.tensordot", "s", "s", "lower"),
    ("tensorops.witness.calls", "tensorops.witness", "calls", "count",
     "lower"),
    ("tensorops.witness.s", "tensorops.witness", "s", "s", "lower"),
    ("algebra.check.calls", "algebra.check", "calls", "count", "lower"),
    ("algebra.check.s", "algebra.check", "s", "s", "lower"),
    ("algebra.build.s", "algebra.build", "s", "s", "lower"),
    ("uce.lts.s", "uce.lts", "s", "s", "lower"),
    ("uce.lts.self_s", "uce.lts", "self_s", "s", "lower"),
    ("uce.binary.s", "uce.binary", "s", "s", "lower"),
    ("uce.binary.self_s", "uce.binary", "self_s", "s", "lower"),
    ("uce.universal_map.calls", "uce.universal_map", "calls", "count",
     "lower"),
    ("uce.universal_map.s", "uce.universal_map", "s", "s", "lower"),
    ("uce.universal_map.self_s", "uce.universal_map", "self_s", "s", "lower"),
    ("uce.extension_verify.calls", "uce.extension_verify", "calls", "count",
     "lower"),
    ("uce.extension_verify.s", "uce.extension_verify", "s", "s", "lower"),
    ("theorem.verify.s", "theorem.verify", "s", "s", "lower"),
    ("theorem.verify.self_s", "theorem.verify", "self_s", "s", "lower"),
    ("theorem.induced_leibniz.s", "theorem.induced_leibniz", "s", "s",
     "lower"),
    ("theorem.doubling.s", "theorem.doubling", "s", "s", "lower"),
    ("serialize.load.s", "serialize.load", "s", "s", "lower"),
    ("serialize.dump.s", "serialize.dump", "s", "s", "lower"),
    ("catalog.build.s", "catalog.build", "s", "s", "lower"),
)
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")

# counts that must repeat exactly between two traced passes
EXACT_COUNTS = tuple(
    name for name, _, stat, _, _ in LAYER_METRICS if stat == "calls"
) + ("linalg.fold.useful",)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self.reset()

    def reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.useful = 0
        self._stack = [-1]

    def take(self):
        """The spans recorded since the last reset, then reset."""
        spans = {
            "name_id": self.name_id, "parent": self.parent,
            "start": self.start, "end": self.end, "useful": self.useful,
        }
        self.reset()
        return spans

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        count_useful = name == YIELD_FUNCTION
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1
            if count_useful and out:
                tracer.useful += 1
            return out
        return wrapper

    def install(self, package):
        """Wrap the package's public functions and methods in place.

        Returns the number of bindings replaced.
        """
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name not in _SKIP_MODULES
        ]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and short not in _NO_METHODS:
                    self._wrap_methods(obj, f"{short}.{attr}")
        bindings = 0
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
                    bindings += 1
        return bindings

    def missing(self):
        """Layer members that no wrapper records (renamed or removed)."""
        have = set(self.names)
        return sorted(m for members in LAYERS.values() for m in members
                      if m not in have)

    def _wrap_methods(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(obj.__func__, name)))


def summarize(names, spans):
    """Per-layer statistics of one stretch of spans (one operation).

    For a layer: ``calls`` counts entries into the layer from outside it
    (a layer function called by another function of the same layer is not
    a new entry), ``s`` is the time the layer was on the stack, ``self_s``
    the time inside the layer's own spans minus their child spans.
    Returns (stats by layer, total self time of all spans, span count).
    """
    layer_of = {}
    for bit, (layer, members) in enumerate(LAYERS.items()):
        for m in members:
            layer_of[m] = bit
    layer_bit = [layer_of.get(n, -1) for n in names]
    nid, parent = spans["name_id"], spans["parent"]
    start, end = spans["start"], spans["end"]
    n = len(nid)
    child = [0.0] * n
    enclosing = [0] * n  # bitmask of layers on the stack above a span
    keys = list(LAYERS)
    calls = [0] * len(keys)
    busy = [0.0] * len(keys)
    self_s = [0.0] * len(keys)
    for i in range(n):
        p = parent[i]
        dur = end[i] - start[i]
        if p >= 0:
            child[p] += dur
            pb = layer_bit[nid[p]]
            enclosing[i] = enclosing[p] | ((1 << pb) if pb >= 0 else 0)
        b = layer_bit[nid[i]]
        if b >= 0 and not enclosing[i] >> b & 1:
            calls[b] += 1
            busy[b] += dur
    total_self = 0.0
    for i in range(n):
        own = end[i] - start[i] - child[i]
        total_self += own
        b = layer_bit[nid[i]]
        if b >= 0:
            self_s[b] += own
    stats = {
        k: {"calls": calls[b], "s": busy[b], "self_s": self_s[b]}
        for b, k in enumerate(keys)
    }
    stats["linalg.fold"]["useful"] = spans["useful"]
    return stats, total_self, n


def combine(stats_list):
    """Sum per-layer stats of disjoint stretches of work (operations) and
    add the fold's yield, useful calls over all calls."""
    out = {k: {"calls": 0, "s": 0.0, "self_s": 0.0} for k in LAYERS}
    useful = 0
    for stats in stats_list:
        for k in LAYERS:
            for stat in ("calls", "s", "self_s"):
                out[k][stat] += stats[k][stat]
        useful += stats["linalg.fold"]["useful"]
    fold = out["linalg.fold"]
    fold["useful"] = useful
    fold["yield"] = useful / fold["calls"] if fold["calls"] else 0.0
    return out


def layer_metrics(stats):
    """Flatten combine()'s stats into {metric name: value}."""
    out = {name: stats[layer][stat]
           for name, layer, stat, _, _ in LAYER_METRICS}
    out["linalg.fold.useful"] = stats["linalg.fold"]["useful"]
    return out
