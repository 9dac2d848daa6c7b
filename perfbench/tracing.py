"""Span tracing around the public functions of each balg module.

Nothing in ``balg`` knows about tracing: ``Tracer.install`` swaps each traced
function, method and name binding for a wrapper that records one span per
call, and ``Tracer.uninstall`` puts the originals back.  Spans live in flat
arrays (name, parent, start, end, value) until the run ends; the per-layer
metrics are derived from them afterwards.

A span's self time is its duration minus the durations of its direct
children.  Calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array

# (module, attribute, span name) for every module-level binding that callers
# reach.  ``refine_partition`` is also bound by name in free_product and
# tensor, ``parse_element`` and ``rectform_from_grid`` in validation, and
# ``check_homomorphism`` and ``validate_certificate`` in suites.
FUNCTIONS = (
    ("algebra", "refine_partition", "algebra.refine"),
    ("free_product", "refine_partition", "algebra.refine"),
    ("tensor", "refine_partition", "algebra.refine"),
    ("algebra", "check_homomorphism", "algebra.hom_check"),
    ("suites", "check_homomorphism", "algebra.hom_check"),
    ("places", "canonicalize", "places.canonicalize"),
    ("places", "add_formula", "places.add_formula"),
    ("places", "add_refine", "places.add_refine"),
    ("places", "lattice", "places.lattice"),
    ("places", "leq", "places.leq"),
    ("tensor", "psi_terms", "tensor.psi"),
    ("tensor", "verify_T_onto_and_injective", "tensor.T"),
    ("tensor", "rational_rank", "tensor.rank"),
    ("tensor", "verify_bimorphism", "tensor.bimorphism"),
    ("bands", "compare_band_products", "bands.compare"),
    ("certificates", "improve_upper_bound_evens", "certificates.refute_step"),
    ("certificates", "improve_upper_bound_diagonal", "certificates.refute_step"),
    ("certificates", "check_finite_completeness", "certificates.exhaustive"),
    ("certificates", "check_model_dedekind_complete", "certificates.exhaustive"),
    ("validation", "validate_certificate", "validation.validate"),
    ("suites", "validate_certificate", "validation.validate"),
    ("expr", "elem_text", "expr.serialize"),
    ("expr", "rect_text", "expr.serialize"),
    ("expr", "element_text", "expr.serialize"),
    ("expr", "grid_dict", "expr.serialize"),
    ("expr", "place_text", "expr.serialize"),
    ("expr", "parse_element", "expr.parse"),
    ("expr", "parse_place", "expr.parse"),
    ("expr", "rectform_from_grid", "expr.parse"),
    ("validation", "parse_element", "expr.parse"),
    ("validation", "rectform_from_grid", "expr.parse"),
    ("config", "parse_config", "config.parse"),
)

# (module, class, methods, span name); methods are patched on the class.
METHODS = (
    ("free_product", "RectForm", ("__and__", "__or__", "__xor__", "__invert__", "leq"),
     "free_product.ops"),
    ("free_product", "FreeProduct", ("normalize",), "free_product.normalize"),
    ("free_product", "FreeProduct", ("joint_cells",), "free_product.joint_cells"),
    ("tensor", "TensorMap", ("apply", "as_matrix", "preimage"), "tensor.T"),
)

# Element operations split by backend kind at call time.
ELEM_OPS = ("__and__", "__or__", "__xor__", "__invert__", "leq")

# Spans whose inclusive time is reported (``<name>.ms``) rather than self time.
SUITE_PREFIX = "suites."

# The per-layer metrics, in report order, with their kinds.
COUNT_METRICS = (
    "algebra.refine.calls", "algebra.refine.cells",
    "algebra.powerset_ops.calls", "algebra.fincof_ops.calls",
    "free_product.ops.calls", "free_product.normalize.calls",
    "free_product.grid_cells_max",
    "places.canonicalize.calls", "tensor.psi.calls",
    "certificates.refute_step.calls", "validation.steps_checked",
)
SELF_SPANS = (
    "algebra.refine", "algebra.powerset_ops", "algebra.fincof_ops",
    "algebra.hom_check", "free_product.ops", "free_product.normalize",
    "free_product.joint_cells", "places.canonicalize", "places.add_formula",
    "places.add_refine", "places.lattice", "places.leq", "tensor.psi", "tensor.T",
    "tensor.rank", "tensor.bimorphism", "bands.compare", "certificates.refute_step",
    "certificates.exhaustive", "validation.validate", "expr.serialize", "expr.parse",
)
SUITE_NAMES = ("core_axioms", "homomorphisms", "free_product", "place_addition",
               "regularity", "tensor_iso", "universal_property", "bands",
               "completeness")
FP_SPANS = ("free_product.ops", "free_product.normalize", "free_product.joint_cells")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    names = list(COUNT_METRICS)
    names += [f"{s}.self_ms" for s in SELF_SPANS]
    names += [f"suites.{s}.ms" for s in SUITE_NAMES]
    names += ["suites.self_ms", "config.parse.ms"]
    return names


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, balg):
        self.balg = balg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -----------------------------------------------------------

    def _recorder(self, fn, pick_id, with_value=None):
        """Wrap ``fn``; ``pick_id(args)`` names the span, ``with_value``
        turns the result into the span's value."""
        names, parents, starts, ends, values = (self.name, self.parent, self.start,
                                                self.end, self.value)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(pick_id(args))
            parents.append(stack[-1])
            ends.append(0)
            values.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if with_value is not None:
                values[idx] = with_value(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, value: int = 0):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.intern(name), value)

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = self.balg
        value_of = {"algebra.refine": len,
                    "validation.validate": lambda r: r.steps_checked}
        for mod, attr, name in FUNCTIONS:
            owner = getattr(mods, mod)
            nid = self.intern(name)
            self._patch(owner, attr, self._recorder(
                getattr(owner, attr), lambda args, nid=nid: nid, value_of.get(name)))
        for mod, cls, methods, name in METHODS:
            owner = getattr(getattr(mods, mod), cls)
            nid = self.intern(name)
            for attr in methods:
                self._patch(owner, attr, self._recorder(
                    getattr(owner, attr), lambda args, nid=nid: nid))
        elem = mods.algebra.Elem
        powerset = mods.algebra.POWERSET
        pid = self.intern("algebra.powerset_ops")
        fid = self.intern("algebra.fincof_ops")
        for attr in ELEM_OPS:
            self._patch(elem, attr, self._recorder(
                getattr(elem, attr),
                lambda args: pid if args[0].alg.kind == powerset else fid))
        suites = mods.suites.SUITES
        for suite in SUITE_NAMES:
            nid = self.intern(SUITE_PREFIX + suite)
            self._patch_item(suites, suite, self._recorder(
                suites[suite], lambda args, nid=nid: nid))

    def _patch_item(self, table: dict, key: str, wrapper) -> None:
        self._saved.append((table, key, table[key]))
        table[key] = wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def truncate(self, n: int) -> None:
        """Drop every span recorded after the first ``n``."""
        for arr in (self.name, self.parent, self.start, self.end, self.value):
            del arr[n:]

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON object of parallel arrays."""
        payload = {"names": self.names, "name": self.name.tolist(),
                   "parent": self.parent.tolist(), "start_ns": self.start.tolist(),
                   "end_ns": self.end.tolist(), "value": self.value.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "nid", "val", "idx")

    def __init__(self, tracer: Tracer, nid: int, value: int):
        self.tracer, self.nid, self.val = tracer, nid, value

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.start)
        t.name.append(self.nid)
        t.parent.append(t._stack[-1])
        t.end.append(0)
        t.value.append(self.val)
        t._stack.append(self.idx)
        t.start.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.idx] = time.perf_counter_ns()
        t._stack.pop()
        return False


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans with indices in [lo, hi).

    Counts are call counts (or summed span values); ``*.self_ms`` is self
    time; ``suites.<suite>.ms`` and ``config.parse.ms`` are inclusive time.
    ``free_product.grid_cells_max`` is the largest product of the two
    refinements a free-product operation built.
    """
    names = tracer.names
    nid = {n: i for i, n in enumerate(names)}
    k = len(names)
    calls = [0] * k
    total = [0] * k
    value = [0] * k
    child = {}
    refine_sizes: dict[int, list[int]] = {}
    refine_id = nid.get("algebra.refine", -1)
    fp_ids = {nid[n] for n in FP_SPANS if n in nid}
    name_a, parent_a, start_a, end_a, value_a = (tracer.name, tracer.parent,
                                                 tracer.start, tracer.end, tracer.value)
    for i in range(lo, hi):
        n = name_a[i]
        d = end_a[i] - start_a[i]
        calls[n] += 1
        total[n] += d
        value[n] += value_a[i]
        p = parent_a[i]
        if p >= lo:
            child[p] = child.get(p, 0) + d
            if n == refine_id and name_a[p] in fp_ids:
                refine_sizes.setdefault(p, []).append(value_a[i])
    self_ns = [0] * k
    for i in range(lo, hi):
        n = name_a[i]
        self_ns[n] += end_a[i] - start_a[i] - child.get(i, 0)
    grid_max = 0
    for sizes in refine_sizes.values():
        if len(sizes) != 2:
            raise RuntimeError(f"free-product span with {len(sizes)} refinements")
        grid_max = max(grid_max, sizes[0] * sizes[1])

    def get(arr, name):
        return arr[nid[name]] if name in nid else 0

    out: dict[str, float] = {
        "algebra.refine.calls": get(calls, "algebra.refine"),
        "algebra.refine.cells": get(value, "algebra.refine"),
        "algebra.powerset_ops.calls": get(calls, "algebra.powerset_ops"),
        "algebra.fincof_ops.calls": get(calls, "algebra.fincof_ops"),
        "free_product.ops.calls": get(calls, "free_product.ops"),
        "free_product.normalize.calls": get(calls, "free_product.normalize"),
        "free_product.grid_cells_max": grid_max,
        "places.canonicalize.calls": get(calls, "places.canonicalize"),
        "tensor.psi.calls": get(calls, "tensor.psi"),
        "certificates.refute_step.calls": get(calls, "certificates.refute_step"),
        "validation.steps_checked": get(value, "validation.validate"),
    }
    for s in SELF_SPANS:
        out[f"{s}.self_ms"] = get(self_ns, s) / 1e6
    suite_self = 0
    for s in SUITE_NAMES:
        out[f"suites.{s}.ms"] = get(total, SUITE_PREFIX + s) / 1e6
        suite_self += get(self_ns, SUITE_PREFIX + s)
    out["suites.self_ms"] = suite_self / 1e6
    out["config.parse.ms"] = get(total, "config.parse") / 1e6
    return out


def combine_rounds(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Counts must repeat exactly round to round; times take the median."""
    out = {}
    for name in metric_names():
        vals = [r[name] for r in rounds]
        if name in COUNT_METRICS:
            if any(v != vals[0] for v in vals):
                raise RuntimeError(f"count {name} differs between rounds: {vals}")
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    return out
