"""Top-level queries: cohomology class sets and root classification.

The answers are always orbit sets of Kac labelings together with explicit
witnesses: for twisted-form cohomology a barycentric cocycle vector per
class, for n-th roots a torus point per class.  Counts alone would hide the
constructive content, and the witnesses are what the torus-side checker
matches against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, sub

from .diagram import ExtendedDiagram
from .labelings import (
    KacLabeling,
    LabelingOrbit,
    compact_labeling,
    congruence_classes,
    enumerate_Kn,
    filter_for_central,
    filter_matching_q,
    format_labeling,
    orbit_decompose,
    residue_key,
)
from .lattice import (
    CentralElement,
    GroupSpec,
    _center,
    check_central,
    dual_subgroup,
    format_rational,
    spec_to_document,
    validate_spec,
)
from .oracle import CoweightLattice, TorusPoint, build_coweight_lattice
from .rootdata import InternalCheckError, LabelingError, SimpleType


@dataclass(frozen=True)
class H1Result:
    group_spec: GroupSpec
    twist: KacLabeling
    classes: tuple            # LabelingOrbit, ...
    witnesses: tuple          # per class, Fractions (halves) over the root vertices
    neutral_index: int


@dataclass(frozen=True)
class RootsResult:
    z: CentralElement
    n: int
    classes: tuple            # LabelingOrbit, ...
    torus_points: tuple       # per class, TorusPoint of the representative


def phi(p: KacLabeling, spec: GroupSpec, lattice: CoweightLattice | None = None) -> TorusPoint:
    """Torus point of a labeling: its alcove point modulo the coweight lattice."""
    if lattice is None:
        lattice = build_coweight_lattice(spec)
    return lattice.alcove_point(p)


def z_from_q(q: KacLabeling, n: int, spec: GroupSpec) -> CentralElement:
    """The central element that is the n-th power of the labeling's point."""
    diagram = spec.diagram()
    diagram.check_labeling(q.labels, n)
    if q.n != n:
        raise LabelingError(f"labeling has n={q.n}, expected {n}")
    return spec.derived(_center)[residue_key(spec, q.labels)]


# A witness entry is half the difference of two labels of 2-labelings, so it
# is one of five values; each is built once, with its document text.
_HALVES = {d: Fraction(d, 2) for d in range(-2, 3)}
_HALF_TEXTS = {d: format_rational(x) for d, x in _HALVES.items()}


def _label_differences(q: KacLabeling, orbits, neutral: int, diagram: ExtendedDiagram) -> list:
    """Per class, its labels minus the twist's over the root vertices.

    Taken at the representative, and for the neutral class at the twist
    itself, so that class's differences are all zero.
    """
    slots = diagram.pi_slots()
    pick = itemgetter(*slots) if len(slots) > 1 else lambda labels: (labels[slots[0]],)
    base = pick(q.labels)
    return [
        tuple(map(sub, pick((q if i == neutral else o.representative).labels), base))
        for i, o in enumerate(orbits)
    ]


def h1_inner_form(spec: GroupSpec, q: KacLabeling) -> H1Result:
    """Cohomology classes of the inner form twisted by a Kac 2-labeling.

    The orbits of the coweight classes of X on the 2-labelings congruent to
    q, looked up in the spec's class table, with the cocycle vector
    (labels - q labels)/2 of each class.  The class containing q is the
    neutral one; its witness is taken at q itself, so it is exactly zero.
    """
    diagram = spec.diagram()
    diagram.check_labeling(q.labels, q.n)
    if q.n != 2:
        raise LabelingError(f"twisting labelings must have n=2, got n={q.n}")
    orbits = congruence_classes(
        spec,
        2,
        residue_key(spec, q.labels),
        lambda all2: orbit_decompose(
            filter_matching_q(all2, spec, q, diagram), dual_subgroup(spec)
        ),
        enumerate_Kn,
    )
    neutral = next(i for i, o in enumerate(orbits) if q in o.members)
    witnesses = tuple(
        tuple(map(_HALVES.__getitem__, d))
        for d in _label_differences(q, orbits, neutral, diagram)
    )
    return H1Result(
        group_spec=spec,
        twist=q,
        classes=orbits,
        witnesses=witnesses,
        neutral_index=neutral,
    )


def h1_adjoint(types) -> H1Result:
    """Cohomology of the adjoint form: orbits of the full coweight-class group.

    Computed both directly on all 2-labelings and as the twisted-form query
    of the adjoint lattice at the trivial twist; the two must agree exactly.
    """
    comps = tuple(
        t if isinstance(t, SimpleType) else SimpleType.parse(t) for t in types
    )
    spec = validate_spec(comps, [])
    diagram = spec.diagram()
    direct = orbit_decompose(enumerate_Kn(diagram, 2), diagram.full_group)
    result = h1_inner_form(spec, compact_labeling(diagram))
    if tuple(direct) != result.classes:
        raise InternalCheckError(
            "direct adjoint orbit decomposition disagrees with the "
            "twisted-form specialization"
        )
    return result


def nth_root_classes(spec: GroupSpec, z: CentralElement, n: int) -> RootsResult:
    """Conjugacy classes of n-th roots of a central element.

    Orbits of the congruence-filtered n-labelings under the coweight classes
    of X, looked up in the spec's class table, with the torus point of each
    representative as witness.
    """
    key = check_central(spec, z)
    diagram = spec.diagram()
    lattice = build_coweight_lattice(spec)
    orbits = congruence_classes(
        spec,
        n,
        key,
        lambda all_n: orbit_decompose(
            filter_for_central(all_n, spec, z, diagram), dual_subgroup(spec)
        ),
        enumerate_Kn,
    )
    points = tuple(phi(o.representative, spec, lattice) for o in orbits)
    return RootsResult(z=z, n=n, classes=orbits, torus_points=points)


def real_form_table(typ: SimpleType) -> tuple:
    """The menu of inner twists: adjoint classes with their representatives."""
    return h1_adjoint([typ]).classes


# ---------------------------------------------------------------------------
# Structured documents


def _orbit_doc(orbit: LabelingOrbit, diagram: ExtendedDiagram) -> dict:
    """The document of one class; label lists are the labelings' own tuples."""
    return {
        "representative": orbit.representative.labels,
        "representative_display": format_labeling(diagram, orbit.representative),
        "members": [m.labels for m in orbit.members],
        "size": len(orbit.members),
        "stabilizer_order": orbit.stabilizer_order,
    }


def h1_document(result: H1Result) -> dict:
    """The document of an H^1 result.

    Each witness entry is written from its integer label difference through
    the texts of the five halves, so it reads as the entry of
    ``result.witnesses``.
    """
    diagram = result.group_spec.diagram()
    differences = _label_differences(
        result.twist, result.classes, result.neutral_index, diagram
    )
    classes = []
    for orbit, d in zip(result.classes, differences):
        doc = _orbit_doc(orbit, diagram)
        doc["witness"] = list(map(_HALF_TEXTS.__getitem__, d))
        classes.append(doc)
    return {
        "spec": spec_to_document(result.group_spec),
        "twist": result.twist.labels,
        "twist_display": format_labeling(diagram, result.twist),
        "class_count": len(result.classes),
        "neutral_index": result.neutral_index,
        "classes": classes,
    }


def roots_document(result: RootsResult, spec: GroupSpec) -> dict:
    diagram = spec.diagram()
    lattice = spec.derived(CoweightLattice)
    classes = []
    for orbit, point in zip(result.classes, result.torus_points):
        doc = _orbit_doc(orbit, diagram)
        doc["torus_point"] = lattice.point_texts(point)
        classes.append(doc)
    return {
        "spec": spec_to_document(spec),
        "z": [format_rational(v) for v in result.z.values],
        "n": result.n,
        "class_count": len(result.classes),
        "classes": classes,
    }
