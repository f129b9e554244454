"""Layer spans for the traced run, recorded from outside the library.

The tracer replaces the module attributes through which kacoh calls each
layer with wrappers that record a span: name, start, end, parent span, query
id and two counts of the work the call did.  Spans stay in memory and are
written out when the run ends.  Nothing is wrapped in an untraced run.

Span names are ``layer.operation``, the layer named after the module;
``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter

QUERY = "query"

# (module, attribute, span name).  The module is the one whose code makes
# the call: kacoh imports layer functions by name into the calling module,
# so each calling module's attribute is wrapped.
WRAPPED = (
    ("cohomology", "h1_inner_form", "cohomology.h1_inner_form"),
    ("cohomology", "nth_root_classes", "cohomology.nth_root_classes"),
    ("cohomology", "h1_document", "cohomology.document"),
    ("cohomology", "roots_document", "cohomology.document"),
    ("cohomology", "phi", "cohomology.phi"),
    ("cohomology", "enumerate_Kn", "labelings.enumerate_Kn"),
    ("oracle", "enumerate_Kn", "labelings.enumerate_Kn"),
    ("cohomology", "filter_matching_q", "labelings.filter"),
    ("cohomology", "filter_for_central", "labelings.filter"),
    ("oracle", "filter_for_central", "labelings.filter"),
    ("cohomology", "orbit_decompose", "labelings.orbit_decompose"),
    ("oracle", "orbit_decompose", "labelings.orbit_decompose"),
    ("cohomology", "dual_subgroup", "lattice.dual_subgroup"),
    ("oracle", "dual_subgroup", "lattice.dual_subgroup"),
    ("cohomology", "check_central", "lattice.check_central"),
    ("oracle", "check_central", "lattice.check_central"),
    ("cohomology", "build_coweight_lattice", "oracle.build_coweight_lattice"),
    ("oracle", "build_coweight_lattice", "oracle.build_coweight_lattice"),
    ("oracle", "cross_check", "oracle.cross_check"),
    ("oracle", "enumerate_roots_of_z", "oracle.enumerate_roots_of_z"),
    ("oracle", "reduce_mod_basis", "exactalg.reduce_mod_basis"),
    ("oracle", "orbit_partition", "orbit.orbit_partition"),
    ("lattice", "GroupSpec.diagram", "diagram.build"),
    ("oracle", "CheckReport.as_document", "oracle.document"),
)

# Span name -> (count, second count) of the work one call did.
COUNTS = {
    "cohomology.h1_inner_form": lambda args, res: (len(res.classes), 0),
    "cohomology.nth_root_classes": lambda args, res: (len(res.classes), 0),
    "labelings.enumerate_Kn": lambda args, res: (len(res), 0),
    "labelings.filter": lambda args, res: (len(args[0]), len(res)),
    "labelings.orbit_decompose": lambda args, res: (len(res), 0),
    "oracle.enumerate_roots_of_z": lambda args, res: (len(res), 0),
    "orbit.orbit_partition": lambda args, res: (len(args[0]) * len(args[1]), len(res)),
}

FIELDS = ("name", "start", "end", "parent", "query", "count", "count2")


class Tracer:
    """Records the nested spans of one thread."""

    def __init__(self):
        self.spans = []     # one list per span, laid out as FIELDS; parent -1 at the root
        self.stack = []
        self.query = None
        self._saved = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        count = COUNTS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[5], rec[6] = count(args, result)
            return result

        return wrapper

    def install(self, kacoh):
        for module, attr, name in WRAPPED:
            owner = getattr(kacoh, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            # A class's __dict__ holds the plain function, not a bound method.
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run_query(self, qid, fn):
        """Run ``fn()`` inside a root span for query ``qid``."""
        self.query = qid
        try:
            return self.wrap(QUERY, fn)()
        finally:
            self.query = None

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(i)
    out = []
    for rec, kids in zip(spans, children):
        start, end = rec[1], rec[2]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans, speed=None) -> dict:
    """Per span name: calls, summed counts, busy seconds and self seconds.

    ``speed`` maps a query id to the factor that brings its seconds to
    reference host speed; spans of other queries are taken as measured.
    """
    speed = speed or {}
    out = {}
    for rec, own in zip(spans, self_times(spans)):
        factor = speed.get(rec[4], 1.0)
        row = out.setdefault(
            rec[0], {"calls": 0, "count": 0, "count2": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["count"] += rec[5]
        row["count2"] += rec[6]
        row["busy_s"] += (rec[2] - rec[1]) * factor
        row["self_s"] += own * factor
    return out


def layer_metrics(table: dict) -> dict:
    """The per-layer metrics of one traced pass, from a ``summarize`` table."""
    def get(name, key):
        return table.get(name, {}).get(key, 0)

    filtered = get("labelings.filter", "count")
    kept = get("labelings.filter", "count2")
    query_s = get(QUERY, "busy_s")
    self_sum = sum(row["self_s"] for row in table.values())
    return {
        "diagram.builds": get("diagram.build", "calls"),
        "diagram.build_s": get("diagram.build", "busy_s"),
        "lattice.dual_subgroup_calls": get("lattice.dual_subgroup", "calls"),
        "lattice.dual_subgroup_s": get("lattice.dual_subgroup", "busy_s"),
        "lattice.check_central_calls": get("lattice.check_central", "calls"),
        "lattice.check_central_s": get("lattice.check_central", "busy_s"),
        "labelings.enumerated": get("labelings.enumerate_Kn", "count"),
        "labelings.enumerate_s": get("labelings.enumerate_Kn", "busy_s"),
        "labelings.kept": kept,
        "labelings.kept_ratio": kept / filtered if filtered else 0.0,
        "labelings.filter_s": get("labelings.filter", "busy_s"),
        "labelings.orbits": get("labelings.orbit_decompose", "count"),
        "labelings.orbit_s": get("labelings.orbit_decompose", "busy_s"),
        "cohomology.witnesses": get("cohomology.h1_inner_form", "count")
        + get("cohomology.nth_root_classes", "count"),
        "cohomology.phi_s": get("cohomology.phi", "busy_s"),
        "cohomology.document_s": get("cohomology.document", "busy_s"),
        "cohomology.self_s": get("cohomology.h1_inner_form", "self_s")
        + get("cohomology.nth_root_classes", "self_s"),
        "oracle.lattice_builds": get("oracle.build_coweight_lattice", "calls"),
        "oracle.lattice_s": get("oracle.build_coweight_lattice", "busy_s"),
        "oracle.points": get("oracle.enumerate_roots_of_z", "count"),
        "oracle.roots_s": get("oracle.enumerate_roots_of_z", "busy_s"),
        "oracle.match_s": get("oracle.cross_check", "self_s"),
        "oracle.document_s": get("oracle.document", "busy_s"),
        "exactalg.reduce_calls": get("exactalg.reduce_mod_basis", "calls"),
        "exactalg.reduce_s": get("exactalg.reduce_mod_basis", "busy_s"),
        "orbit.images": get("orbit.orbit_partition", "count"),
        "orbit.torus_orbits": get("orbit.orbit_partition", "count2"),
        "orbit.closure_s": get("orbit.orbit_partition", "busy_s"),
        "trace.query_s": query_s,
        "trace.uncovered_s": get(QUERY, "self_s"),
        "trace.accounted_frac": self_sum / query_s if query_s else 0.0,
    }
