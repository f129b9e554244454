"""Kac n-labelings: enumeration, congruence filters, orbit decomposition.

The queries look their classes up in one class table per spec: per n, the
n-labelings not yet classified, bucketed by congruence class, and the orbits
of each congruence class asked for so far.

A labeling assigns a nonnegative integer to every vertex of the extended
diagram so that on each component the mark-weighted sum equals n.  The flat
machine order is component-major with local order 1..rank, 0; the human
format mirrors the usual way these are printed, reading along the diagram
with slashes between rows/groups (for E7: three then the branch pair then
the tail, so the all-zero labeling with 2 at the extra vertex is
``000/00/002``).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    ExtendedDiagram,
    FundamentalGroup,
    FundamentalGroupElement,
    permuted_labels,
)
from .lattice import CentralElement, GroupSpec, _frac_mod1, central_key, generator_rows
from .rootdata import InternalCheckError, LabelingError


@dataclass(frozen=True, order=True, slots=True)
class KacLabeling:
    labels: tuple
    n: int


@dataclass(frozen=True, slots=True)
class LabelingOrbit:
    representative: KacLabeling
    members: tuple
    stabilizer_order: int


def _component_solutions(diagram: ExtendedDiagram, k: int, n: int) -> list:
    """All solutions of the weighted sum on one component, lexicographic.

    One label list is filled in place and copied into a tuple once per
    solution, so the work is linear in the output.  A call places the next
    nonzero label: the further right it sits, the more leading zeros and
    the earlier the solution, and the extra vertex, last in slot order with
    mark 1, takes whatever weight remains.  The recursion is as deep as the
    solution has nonzero labels, not as the diagram is long.
    """
    marks = [diagram.marks[s] for s in diagram.component_slots(k)]
    last = len(marks) - 1
    labels = [0] * len(marks)
    out = []

    def fill(start: int, remaining: int) -> None:
        # Invariant: labels[start:] are 0 on entry and on return.
        labels[last] = remaining
        out.append(tuple(labels))
        labels[last] = 0
        for j in range(last - 1, start - 1, -1):
            m = marks[j]
            for value in range(1, remaining // m + 1):
                labels[j] = value
                rest = remaining - m * value
                if rest:
                    fill(j + 1, rest)
                else:
                    out.append(tuple(labels))
            labels[j] = 0

    fill(0, n)
    return out


def enumerate_Kn(diagram: ExtendedDiagram, n: int) -> list:
    """Every Kac n-labeling, in lexicographic order of the flat label tuple.

    Each component's solutions are lexicographic over its own block of
    slots and the blocks are laid out in component order, so their product
    is already lexicographic.
    """
    if n < 1:
        raise LabelingError(f"n must be positive, got {n}")
    per_component = [
        _component_solutions(diagram, k, n) for k in range(len(diagram.components))
    ]
    return [
        KacLabeling(labels=sum(combo, ()), n=n)
        for combo in itertools.product(*per_component)
    ]


def labeling_weight(spec: GroupSpec, diagram: ExtendedDiagram, generator, labeling: KacLabeling) -> Fraction:
    """Sum of generator coefficients against the labels at the root vertices.

    The exact reference for the integer rows of :func:`_congruence_rows`.
    """
    total = Fraction(0)
    for coeff, slot in zip(generator, diagram.pi_slots()):
        total += coeff * labeling.labels[slot]
    return _frac_mod1(total)


def _congruence_rows(spec: GroupSpec) -> tuple:
    """``(m, rows)``: the generator rows mod ``m`` placed on the diagram.

    ``m`` and the integer generators are those of :func:`generator_rows`;
    each row lists the pairs ``(slot, c)`` with nonzero ``c`` over the root
    vertices, so ``labeling_weight`` times ``m`` is the row's dot product
    mod ``m``.
    """
    m, gens = generator_rows(spec)
    slots = spec.diagram().pi_slots()
    rows = tuple(
        tuple((slot, c) for slot, c in zip(slots, gen) if c) for gen in gens
    )
    return m, rows


def residue_key(spec: GroupSpec, labels) -> tuple:
    """The congruence class of a labeling: its row sums mod ``m``."""
    m, rows = spec.derived(_congruence_rows)
    return tuple(sum(c * labels[s] for s, c in row) % m for row in rows)


def _congruent(labelings, spec: GroupSpec, key) -> list:
    """Keep labelings whose row sums are congruent mod ``m`` to ``key``."""
    m, rows = spec.derived(_congruence_rows)
    checks = tuple(zip(rows, key))
    return [
        p
        for p in labelings
        if all(sum(c * p.labels[s] for s, c in row) % m == t for row, t in checks)
    ]


def filter_for_central(labelings, spec: GroupSpec, z: CentralElement, diagram: ExtendedDiagram) -> list:
    """Keep labelings whose generator sums match the central element's values."""
    key = central_key(spec, z)
    return [] if key is None else _congruent(labelings, spec, key)


def filter_matching_q(labelings, spec: GroupSpec, q: KacLabeling, diagram: ExtendedDiagram) -> list:
    """Keep labelings congruent to q against every generator of X/Q."""
    diagram.check_labeling(q.labels, q.n)
    return _congruent(labelings, spec, residue_key(spec, q.labels))


def act_on_labeling(g: FundamentalGroupElement, p: KacLabeling) -> KacLabeling:
    """Left action by diagram automorphism: new label at i is old at sigma^-1(i)."""
    return KacLabeling(labels=permuted_labels(g.sigma, p.labels), n=p.n)


def orbit_decompose(labelings, group: FundamentalGroup) -> list:
    """Partition into orbits of the group action.

    The input must be closed under the action; a labeling escaping the set
    signals an inconsistency between a filter and the action and is reported
    as an internal error rather than patched over.  The action runs on the
    label tuples through the group's ``label_actions``, and the orbits list
    the input's own labelings.
    """
    by_labels = {p.labels: p for p in labelings}
    if len(by_labels) != len(labelings):
        raise LabelingError("duplicate labelings in orbit input")
    # The first action is the identity's, which moves nothing.
    actions = group.label_actions[1:]
    done = set()
    orbits = []
    for p in labelings:
        if p.labels in done:
            continue
        orbit = {p.labels}
        frontier = [p.labels]
        while frontier:
            cur = frontier.pop()
            for act in actions:
                image = act(cur)
                if image not in by_labels:
                    raise InternalCheckError(
                        f"action moved {cur} to {image}, "
                        "which is outside the filtered set"
                    )
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        if group.order % len(orbit):
            raise InternalCheckError("orbit size does not divide the group order")
        done |= orbit
        members = tuple(by_labels[labels] for labels in sorted(orbit))
        orbits.append(
            LabelingOrbit(
                representative=members[0],
                members=members,
                stabilizer_order=group.order // len(members),
            )
        )
    orbits.sort(key=lambda o: o.representative.labels)
    return orbits


def _class_tables(spec: GroupSpec) -> dict:
    """Per n: the n-labelings not yet classified, bucketed by congruence
    class, and the orbits of each congruence class asked for so far.

    Filled in by :func:`congruence_classes`, the only code that touches it.
    """
    return {}


def congruence_classes(spec: GroupSpec, n: int, key, classify, enumerate_all) -> tuple:
    """The orbits of the n-labelings in one congruence class, by table lookup.

    ``key`` names the class: the :func:`residue_key` of its labelings, or
    the :func:`kacoh.lattice.central_key` of their central element.  The
    first call for ``(spec, n)`` enumerates K_n with
    ``enumerate_all(diagram, n)`` and splits it, in one pass, into buckets
    by :func:`residue_key`.  The first call for a key keeps
    ``classify(bucket)``, which must be the orbits of the bucket's
    labelings under the coweight classes of X, and drops the bucket.  The
    orbits must cover the bucket exactly; anything else is an internal
    inconsistency between the caller's filter and the key.  Later calls
    repeat none of that work.

    Callers pass the layer functions they import, so that the perfbench
    tracer, which wraps the calling module's attributes, sees each layer
    run inside the query that ran it.
    """
    tables = spec.derived(_class_tables)
    try:
        buckets, classes = tables[n]
    except KeyError:
        buckets = {}
        for p in enumerate_all(spec.diagram(), n):
            buckets.setdefault(residue_key(spec, p.labels), []).append(p)
        buckets, classes = tables.setdefault(n, (buckets, {}))
    try:
        return classes[key]
    except KeyError:
        pass
    bucket = buckets.get(key, [])
    orbits = tuple(classify(bucket))
    covered = sorted(m.labels for o in orbits for m in o.members)
    if covered != sorted(p.labels for p in bucket):
        raise InternalCheckError(
            f"the orbits of class {key} at n={n} cover {len(covered)} "
            f"labelings, not the {len(bucket)} of the class"
        )
    classes[key] = orbits
    buckets.pop(key, None)
    return orbits


def compact_labeling(diagram: ExtendedDiagram, n: int = 2) -> KacLabeling:
    """The labeling with everything on the extra vertices; the trivial twist."""
    labels = [0] * diagram.num_vertices
    for k, typ in enumerate(diagram.components):
        labels[diagram.slot(k, 0)] = n
    return KacLabeling(labels=tuple(labels), n=n)


# ---------------------------------------------------------------------------
# Text formats


def format_labeling(diagram: ExtendedDiagram, p: KacLabeling, style: str = "display") -> str:
    """Render a labeling; ``display`` is the slashed digit form, ``flat`` the
    comma-separated machine form (always round-trippable)."""
    if style == "flat":
        return ",".join(str(x) for x in p.labels)
    if style != "display":
        raise ValueError(f"unknown labeling style {style!r}")
    return diagram.display_template % diagram.display_getter(p.labels)


# Labels and command-line integers are ASCII digits: str.isdigit() passes
# "²", and int() reads "٢" as 2 and "1_0" as 10.
_ASCII_INT = re.compile(r"\s*[+-]?[0-9]+\s*")
_DIGITS = re.compile(r"[0-9]+")


def parse_labeling(diagram: ExtendedDiagram, text: str) -> KacLabeling:
    """Parse either labeling format; n is inferred from the weighted sums.

    The digit form only covers labels 0..9; use the flat form beyond that.
    """
    text = text.strip()
    if "," in text:
        tokens = text.replace(";", ",").split(",")
        if not all(_ASCII_INT.fullmatch(x) for x in tokens):
            raise LabelingError(f"bad flat labeling {text!r}")
        try:
            labels = tuple(int(x) for x in tokens)
        except ValueError as exc:  # more digits than int() converts
            raise LabelingError(f"bad flat labeling {text!r}") from exc
    else:
        comps = [c for c in text.replace(";", " ").split() if c]
        if len(comps) != len(diagram.components):
            raise LabelingError(
                f"labeling {text!r} has {len(comps)} component groups, "
                f"expected {len(diagram.components)}"
            )
        labels = [0] * diagram.num_vertices
        for k, (groups, comp) in enumerate(zip(diagram.display_slots, comps)):
            digits = comp.replace("/", "")
            order = [s for group in groups for s in group]
            if not _DIGITS.fullmatch(digits) or len(digits) != len(order):
                raise LabelingError(
                    f"component {k} of {text!r} needs {len(order)} digits"
                )
            for s, ch in zip(order, digits):
                labels[s] = int(ch)
        labels = tuple(labels)
    if len(labels) != diagram.num_vertices:
        raise LabelingError(
            f"labeling {text!r} has {len(labels)} labels, "
            f"expected {diagram.num_vertices}"
        )
    sums = set()
    for k in range(len(diagram.components)):
        sums.add(
            sum(diagram.marks[s] * labels[s] for s in diagram.component_slots(k))
        )
    if len(sums) != 1:
        raise LabelingError(
            f"components of {text!r} have different weighted sums {sorted(sums)}"
        )
    n = sums.pop()
    p = KacLabeling(labels=labels, n=n)
    diagram.check_labeling(p.labels, n)
    return p
