"""Per-layer spans recorded from outside the package.

Each public function of a layer module is replaced, at every module
attribute that binds it, by a wrapper that records a span: name, start,
end and the span that was open when it was called.  A few public methods
are wrapped on their classes, among them MeasurableRV construction and
its arithmetic dunders.  `uninstall` restores every original, so untraced
passes run the package's own code.

Spans live in flat arrays that are cleared at the start of each pass, so
the spans held at any time share one run id: the pass they belong to.  A
span's self time is its duration minus the durations of its direct
children, and a layer's self time is the sum over its spans.  The
wrapper's own cost lands in the caller's self time.  Counts are exact, and
so are the table bytes, which are computed from the sizes of the tables
MeasurableRV stores, not measured.
"""

from __future__ import annotations

import inspect
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("lattice", "drivers", "fields", "solver", "comparison", "risk",
          "malliavin", "particles", "cli")

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__neg__", "map")
DRIVER_CLASSES = ("LinearDriver", "RiskDriver", "CustomDriver")
DRIVER_METHODS = ("f_values", "g_values", "partials")

# public methods wrapped on their classes, beside every public module function
CLASS_METHODS = {
    "lattice": {"MeasurableRV": ("__init__",) + ARITH + ("at", "max_abs")},
    "drivers": {**{c: DRIVER_METHODS for c in DRIVER_CLASSES},
                "ZPart": ("value", "deriv"), "TerminalSpec": ("value",)},
    "fields": {"AdaptedPath": ("__init__",), "VolterraKernel": ("__init__",)},
    "solver": {"Scenario": ("__init__",)},
    "comparison": {"FrozenMeanDriver": ("f_values", "g_values")},
    "risk": {"RiskSpec": ("__init__",)},
}

# span groups: a group's time is the union of its spans, so a member that
# runs inside another member (representation_row in m_extend) counts once
GROUPS = {
    "condexp": ("lattice", ("condexp",)),
    "lift": ("lattice", ("lift",)),
    "arith": ("lattice", tuple(f"MeasurableRV.{a}" for a in ARITH)),
    "driver_calls": ("drivers", tuple(f"{c}.{m}" for c in DRIVER_CLASSES
                                      for m in DRIVER_METHODS) + ("terminal_rv",)),
    "extend": ("fields", ("representation_row", "m_extend")),
    "norm": ("fields", ("m_beta_norm", "l_beta_norm", "pair_diff", "pair_sup_diff")),
    "validate": ("fields", ("AdaptedPath.__init__", "VolterraKernel.__init__")),
    "gamma_map": ("solver", ("gamma_map",)),
    "residual": ("solver", ("residual",)),
    "hypotheses": ("comparison", ("check_hypotheses",)),
    "audit": ("risk", ("audit_z_flags",)),
    "linearized": ("malliavin", ("build_linearized", "solve_linearized")),
    "linearized_solves": ("malliavin", ("solve_linearized",)),
    "io": ("cli", ("load_scenario_file", "write_csv", "write_summary")),
}


class Tracer:
    """Span recorder for the layers of one imported package."""

    def __init__(self, package):
        self.names: list[tuple[str, str]] = []    # span name id -> (layer, name)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self._alloc = _Allocations()
        self._patches: list[tuple[object, str, object, object]] = []
        prefix = package.__name__
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = self._wrap(fn, layer, name)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    if meth not in vars(cls):
                        continue
                    original = vars(cls)[meth]
                    if (cls_name, meth) == ("MeasurableRV", "__init__"):
                        wrapper = self._wrap_init(original, layer)
                    else:
                        wrapper = self._wrap(original, layer, f"{cls_name}.{meth}")
                    self._patches.append((cls, meth, original, wrapper))
        # every binding site: the defining module, each module that imported
        # the name, and the package namespace
        for name, mod in list(sys.modules.items()):
            if name == prefix or name.startswith(prefix + "."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and id(value) in wrappers:
                        self._patches.append((mod, attr, value, wrappers[id(value)]))

    def _wrap(self, fn, layer: str, name: str):
        self.names.append((layer, name))
        nid = len(self.names) - 1
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.stack)

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return traced

    def _wrap_init(self, init, layer: str):
        traced_init = self._wrap(init, layer, "MeasurableRV.__init__")
        alloc = self._alloc

        def traced(rv, *args, **kwargs):
            traced_init(rv, *args, **kwargs)
            alloc.add(rv.values)

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def begin_pass(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self._alloc.reset()

    def end_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since begin_pass."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - start
        layer_of = np.array([LAYERS.index(layer) for layer, _ in self.names])
        span_layer = layer_of[name]
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(span_layer, weights=dur - children, minlength=len(LAYERS))
        calls = np.bincount(name, minlength=len(self.names))

        def ids_of(layer, members):
            return [k for k, key in enumerate(self.names)
                    if key[0] == layer and key[1] in members]

        time, count = {}, {}
        for group, (layer, members) in GROUPS.items():
            ids = ids_of(layer, members)
            mask = np.isin(name, ids)
            time[group] = _union_time(start[mask], dur[mask])
            count[group] = int(calls[ids].sum())
        lift = np.isin(name, ids_of("lattice", ("lift",)))
        from_particles = np.zeros(len(dur), dtype=bool)
        from_particles[nested] = span_layer[parent[nested]] == LAYERS.index("particles")
        out = {f"{layer}.self_s": float(self_s[k]) for k, layer in enumerate(LAYERS)}
        out.update({
            "lattice.condexp_s": time["condexp"],
            "lattice.condexp_calls": count["condexp"],
            "lattice.lift_s": time["lift"],
            "lattice.lift_calls": count["lift"],
            "lattice.arith_s": time["arith"],
            "lattice.arith_calls": count["arith"],
            "lattice.rv_allocs": self._alloc.count,
            "lattice.table_bytes": self._alloc.total,
            "lattice.peak_table_bytes": self._alloc.peak,
            "lattice.largest_table_bytes": self._alloc.largest,
            "drivers.calls": count["driver_calls"],
            "fields.extend_s": time["extend"],
            "fields.norm_s": time["norm"],
            "fields.validate_s": time["validate"],
            "solver.gamma_map_s": time["gamma_map"],
            "solver.gamma_map_calls": count["gamma_map"],
            "solver.residual_s": time["residual"],
            "comparison.hypotheses_s": time["hypotheses"],
            "risk.audit_s": time["audit"],
            "malliavin.linearized_s": time["linearized"],
            "malliavin.linearized_calls": count["linearized_solves"],
            # lifts made by particle code itself: the six driver arguments
            # lifted to the joint field, and the mean-field solution lifted
            # onto particle 1's increments
            "particles.joint_lift_s": float(dur[lift & from_particles].sum()),
            "cli.io_s": time["io"],
        })
        return out


def _union_time(start: np.ndarray, dur: np.ndarray) -> float:
    """Length of the union of spans given in start order."""
    if not len(start):
        return 0.0
    covered = np.maximum.accumulate(start + dur)
    outermost = np.ones(len(start), dtype=bool)
    outermost[1:] = start[1:] >= covered[:-1]
    return float(dur[outermost].sum())


class _Allocations:
    """Count, total, largest and live peak of the tables MeasurableRV stores."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        # tables still alive from an earlier pass stop counting
        self._live: dict[int, weakref.ref] = {}
        self.count = self.total = self.live = self.peak = self.largest = 0

    def add(self, table: np.ndarray) -> None:
        self.count += 1
        key = id(table)
        if key in self._live:
            return  # shared with an earlier variable: no new table
        size = table.nbytes
        live = self._live

        def freed(_ref):
            if self._live is live:
                self.live -= size
                del live[key]

        live[key] = weakref.ref(table, freed)
        self.total += size
        self.live += size
        self.peak = max(self.peak, self.live)
        self.largest = max(self.largest, size)
