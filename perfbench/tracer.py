"""Out-of-tree tracer: wraps the public functions of each magnon module.

Every wrapped call records one span ``[name, layer, start, end, parent,
child_s, size]`` in memory.  ``child_s`` accumulates the time covered by the
span's children, so a span's self time is ``end - start - child_s``.  Hot
functions are aggregated into a call count, a total time and a self time
instead; the outermost aggregated call is charged to the enclosing span's
children.  ``restore`` puts every original function back.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

LAYERS = (
    "lattice", "dispersion", "quadrature", "linalg", "fock",
    "spin_ed", "wick", "spinwave", "diagrams", "cli",
)

# Called up to hundreds of thousands of times per task: count and time, no
# spans.  An aggregated function may call only other aggregated functions.
AGGREGATED = {
    ("wick", "wick_expectation"),
    ("wick", "occupation_moment"),
    ("wick", "number_monomial"),
    ("fock", "monomial_matrix"),
}

# Classes whose construction is a unit of work of its own.
CLASS_INITS = {
    "fock": ("FockBasis", "SectorBasis"),
    "diagrams": ("PeriodicGrid",),
}


def _size(layer: str, name: str, args, result):
    """Work size recorded with a span, or 0."""
    if (layer, name) == ("linalg", "eigh"):
        return int(np.shape(args[0])[0])
    if layer == "spin_ed" and name in ("heisenberg_hamiltonian", "dirichlet_hamiltonian"):
        return int(result.shape[0])
    if (layer, name) == ("dispersion", "two_point"):
        return int(args[0].n_sites)
    if (layer, name) == ("quadrature", "tensor_integral"):
        return int(result[1])
    if (layer, name) == ("diagrams", "left_diagram"):
        return int(args[0].n_modes - 1)
    if name in ("FockBasis", "SectorBasis"):
        return int(args[0].dim)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.aggregates = {}
        self._agg_depth = 0
        self._agg_child = 0.0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def span(self, layer: str, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, clock(), 0.0, self.stack[-1] if self.stack else -1, 0.0, 0]
            idx = len(self.spans)
            self.spans.append(rec)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                rec[6] = _size(layer, name, args, result)
                return result
            finally:
                rec[3] = clock()
                self.stack.pop()
                if self.stack:
                    self.spans[self.stack[-1]][5] += rec[3] - rec[2]

        return wrapper

    def aggregate(self, layer: str, name: str, fn):
        clock = time.perf_counter
        slot = self.aggregates.setdefault(f"{layer}.{name}", [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_child, self._agg_child = self._agg_child, 0.0
            self._agg_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._agg_depth -= 1
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - self._agg_child
                self._agg_child = outer_child + dt
                if self._agg_depth == 0 and self.stack:
                    self.spans[self.stack[-1]][5] += dt

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, magnon):
        for layer in LAYERS:
            mod = getattr(magnon, layer)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                wrap = self.aggregate if (layer, name) in AGGREGATED else self.span
                self._saved.append((mod, name, obj))
                setattr(mod, name, wrap(layer, name, obj))
            for cls_name in CLASS_INITS.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._saved.append((cls, "__init__", cls.__init__))
                cls.__init__ = self.span(layer, cls_name, cls.__init__)

    def restore(self):
        for owner, name, obj in reversed(self._saved):
            setattr(owner, name, obj)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, t0, t1, parent, child, size) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer, "start": t0, "end": t1,
                    "parent": parent, "self_s": t1 - t0 - child, "size": size,
                }) + "\n")
            for key, (count, secs, self_s) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": key, "calls": count, "seconds": secs,
                                     "self_s": self_s}) + "\n")


# ---------------------------------------------------------------------------
# layer metrics


def _outermost(spans, layer: str, names) -> float:
    """Total duration of spans in ``names`` that have no ancestor in ``names``."""
    total = 0.0
    for name, lay, t0, t1, parent, _, _ in spans:
        if lay != layer or name not in names:
            continue
        p = parent
        while p >= 0 and not (spans[p][1] == layer and spans[p][0] in names):
            p = spans[p][4]
        if p < 0:
            total += t1 - t0
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``."""
    spans = tracer.spans
    agg = {k: tuple(v) for k, v in tracer.aggregates.items()}
    self_s = {layer: 0.0 for layer in LAYERS}
    for name, layer, t0, t1, _, child, _ in spans:
        if layer in self_s:
            self_s[layer] += t1 - t0 - child
    for key, (_, _, own) in agg.items():
        self_s[key.split(".")[0]] += own

    def named(layer, *names):
        return [s for s in spans if s[1] == layer and s[0] in names]

    def dur(rows):
        return sum(s[3] - s[2] for s in rows)

    eigh = named("linalg", "eigh")
    pairing = agg.get("wick.wick_expectation", (0, 0.0, 0.0))
    monomial = agg.get("fock.monomial_matrix", (0, 0.0, 0.0))
    fock_other = {"FockBasis", "SectorBasis", "build_basis", "gibbs_expectation_truncated"}
    assembly = sum(
        s[3] - s[2] - s[5] for s in spans if s[1] == "fock" and s[0] not in fock_other
    ) + monomial[1]
    bases = named("fock", "FockBasis", "SectorBasis")
    hamiltonians = named("spin_ed", "heisenberg_hamiltonian", "dirichlet_hamiltonian")
    apply_h = named("spin_ed", "apply_hamiltonian")
    wick_checks = {"cross_term_check", "remainder_check"}
    wick_bounds = {s[0] for s in spans if s[1] == "wick"} - wick_checks
    two_point = named("dispersion", "two_point")
    tensor = named("quadrature", "tensor_integral")
    left = named("diagrams", "left_diagram")
    left_s = dur(left)
    left_slices = sum(s[6] for s in left)
    m = {
        "linalg.eigh_calls": (len(eigh), "count"),
        "linalg.eigh_s": (dur(eigh), "s"),
        "linalg.eigh_n3_sum": (float(sum(float(s[6]) ** 3 for s in eigh)), "count"),
        "linalg.eigh_dim_max": (max((s[6] for s in eigh), default=0), "rows"),
        "linalg.gibbs_s": (_outermost(spans, "linalg", {
            "gibbs_log_trace", "gibbs_expectation", "gibbs_density", "gibbs_functional"}), "s"),
        "fock.assembly_s": (assembly, "s"),
        "fock.monomial_calls": (monomial[0], "count"),
        "fock.basis_s": (_outermost(spans, "fock", {"build_basis", "FockBasis", "SectorBasis"}), "s"),
        "fock.basis_rows": (sum(s[6] for s in bases), "rows"),
        "fock.sector_trace_s": (_outermost(spans, "fock", {"gibbs_expectation_truncated"}), "s"),
        "fock.sectors": (sum(1 for s in bases if s[0] == "SectorBasis" and s[6] > 0), "count"),
        "spin_ed.build_s": (_outermost(spans, "spin_ed", {
            "heisenberg_hamiltonian", "dirichlet_hamiltonian"}), "s"),
        "spin_ed.dim_sum": (sum(s[6] for s in hamiltonians), "rows"),
        "spin_ed.apply_calls": (len(apply_h), "count"),
        "spin_ed.apply_s": (dur(apply_h), "s"),
        "wick.pairing_calls": (pairing[0], "count"),
        "wick.pairing_s": (pairing[1], "s"),
        "wick.bounds_s": (_outermost(spans, "wick", wick_bounds), "s"),
        "wick.checks_s": (_outermost(spans, "wick", wick_checks), "s"),
        "dispersion.two_point_s": (dur(two_point), "s"),
        "dispersion.two_point_sites": (sum(s[6] for s in two_point), "sites"),
        "quadrature.tensor_calls": (len(tensor), "count"),
        "quadrature.tensor_s": (dur(tensor), "s"),
        "quadrature.evaluations": (sum(s[6] for s in tensor), "count"),
        "lattice.s": (self_s["lattice"], "s"),
        "spinwave.box_bound_s": (_outermost(spans, "spinwave", {"dirichlet_box_bound"}), "s"),
        "spinwave.theorem_s": (_outermost(spans, "spinwave", {"theorem_upper_bound"}), "s"),
        "spinwave.correction_s": (_outermost(spans, "spinwave", {
            "interaction_correction_lattice", "interaction_correction_bulk",
            "interaction_correction_continuum"}), "s"),
        "diagrams.left_s": (left_s, "s"),
        "diagrams.left_slice_s": (left_s / left_slices if left_slices else 0.0, "s"),
        "diagrams.right_s": (dur(named("diagrams", "right_diagram")), "s"),
        "diagrams.k3_s": (dur(named("diagrams", "k3_identity_residual")), "s"),
        "diagrams.grid_s": (dur(named("diagrams", "PeriodicGrid")), "s"),
    }
    for layer in LAYERS:
        if layer != "lattice":
            m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["trace.spans"] = (len(spans), "count")
    return m
