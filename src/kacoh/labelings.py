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

import gc
import os
import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul

from .diagram import (
    ExtendedDiagram,
    FundamentalGroup,
    FundamentalGroupElement,
    permuted_labels,
)
from .lattice import (
    CentralElement,
    GroupSpec,
    _frac_mod1,
    _weight_generators,
    central_key,
)
from .rootdata import BudgetError, InternalCheckError, LabelingError


@dataclass(frozen=True, order=True, slots=True)
class KacLabeling:
    labels: tuple
    n: int


@dataclass(frozen=True, slots=True)
class LabelingOrbit:
    representative: KacLabeling
    members: tuple
    stabilizer_order: int


def _component_solutions(diagram: ExtendedDiagram, k: int, n: int, columns, m: int) -> list:
    """All ``(labels, key)`` solutions of the weighted sum on one component, lexicographic.

    One label list is filled in place and copied into a tuple once per
    solution, so the work is linear in the output.  A call places the next
    nonzero label: the further right it sits, the more leading zeros and
    the earlier the solution, and the extra vertex, last in slot order with
    mark 1, takes whatever weight remains.  The recursion is as deep as the
    solution has nonzero labels, not as the diagram is long.  ``key`` holds
    the component's row sums mod ``m``: each unit placed on a slot adds the
    slot's ``columns`` entry once, and the extra vertex adds nothing.
    """
    slots = diagram.component_slots(k)
    marks = [diagram.marks[s] for s in slots]
    steps = [columns[s] if any(columns[s]) else None for s in slots]
    last = len(marks) - 1
    labels = [0] * len(marks)
    out = []

    def fill(start: int, remaining: int, key: tuple) -> None:
        # Invariant: labels[start:] are 0 on entry and on return.
        labels[last] = remaining
        out.append((tuple(labels), key))
        labels[last] = 0
        for j in range(last - 1, start - 1, -1):
            mark, step = marks[j], steps[j]
            placed = key
            for value in range(1, remaining // mark + 1):
                labels[j] = value
                if step is not None:
                    placed = tuple([(a + b) % m for a, b in zip(placed, step)])
                rest = remaining - mark * value
                if rest:
                    fill(j + 1, rest, placed)
                else:
                    out.append((tuple(labels), placed))
            labels[j] = 0

    fill(0, n, (0,) * len(columns[0]))
    return out


MAX_LABELINGS = 10 ** 6
_BUDGET_VARIABLE = "KACOH_MAX_LABELINGS"


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        if _ASCII_INT.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise BudgetError(f"{name} must be an integer, got {text!r}")


def count_Kn(diagram: ExtendedDiagram, n: int) -> int:
    """|K_n| without enumerating it.

    Per component the coefficient of ``t^n`` in the product of
    ``1 / (1 - t^mark)`` over its vertices, multiplied over the components.
    """
    total = 1
    for k in range(len(diagram.components)):
        ways = [1] + [0] * n
        for s in diagram.component_slots(k):
            mark = diagram.marks[s]
            for w in range(mark, n + 1):
                ways[w] += ways[w - mark]
        total *= ways[n]
    return total


def _check_budget(diagram: ExtendedDiagram, n: int) -> None:
    """Refuse a K_n larger than the budget, before anything is enumerated.

    The labelings with one nonzero root label number ``sum floor(n / mark)``
    per component, so when their product already exceeds the budget, K_n
    is refused without running :func:`count_Kn`, whose work grows with n.
    """
    budget = _env_int(_BUDGET_VARIABLE, MAX_LABELINGS)
    floor = 1
    for k in range(len(diagram.components)):
        floor *= 1 + sum(n // diagram.marks[s] for s in diagram.component_slots(k)[:-1])
    if floor > budget:
        size = f"at least {floor}"
    else:
        size = count_Kn(diagram, n)
        if size <= budget:
            return
    raise BudgetError(
        f"refusing to enumerate K_{n}: {size} labelings, above the budget of "
        f"{budget} ({_BUDGET_VARIABLE})"
    )


@cache
def _kn_table(diagram: ExtendedDiagram, n: int) -> tuple:
    """K_n in lexicographic order, the index of each labeling's P-class, in
    an ``array``, and the labels of each P-class's first labeling.

    Built once per root system and n and kept for the life of the process,
    like the diagram that every lattice of the root system shares
    (:func:`kacoh.lattice._shared_diagram`).  Each component's solutions
    are lexicographic over its own block of slots and the blocks are laid
    out in component order, so extending every solution so far by each
    solution of the next component, in order, keeps the list
    lexicographic.  The enumeration carries the congruence key of X = P
    (:func:`_weight_columns`), added mod ``m`` across components, and
    numbers the keys in order of first appearance.  The cyclic garbage
    collector is paused for the build: the tuples and labelings it makes
    hold no cycle, and each collection would walk all of them made so far.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        m, columns = _weight_columns(diagram)
        solutions = _component_solutions(diagram, 0, n, columns, m)
        for k in range(1, len(diagram.components)):
            more = _component_solutions(diagram, k, n, columns, m)
            solutions = [
                (labels + tail, tuple([(a + b) % m for a, b in zip(key, step)]))
                for labels, key in solutions
                for tail, step in more
            ]
        firsts = {}
        for labels, key in solutions:
            firsts.setdefault(key, labels)
        index = {key: i for i, key in enumerate(firsts)}
        classes = array("I", [index[key] for _, key in solutions])
        labelings = [KacLabeling(labels, n) for labels, _ in solutions]
        return labelings, classes, tuple(firsts.values())
    finally:
        if enabled:
            gc.enable()


def enumerate_Kn(diagram: ExtendedDiagram, n: int, congruence=None) -> list:
    """Every Kac n-labeling, in lexicographic order of the flat label tuple.

    K_n is enumerated once per root system and n (:func:`_kn_table`); each
    call returns a new list of the same :class:`KacLabeling` objects.  With
    ``congruence``, the ``(m, columns)`` of :func:`_slot_columns`, the list
    holds ``(key, labeling)`` pairs, each key the labeling's
    :func:`residue_key`.  The lattice X of the columns lies between Q and
    P, so a labeling's key is a function of its key for X = P: it is
    computed once per P-class, from the class's first labeling.  A K_n of
    more than ``KACOH_MAX_LABELINGS`` labelings (default 10**6) raises
    BudgetError on every call, before the table is read or built.
    """
    if n < 1:
        raise LabelingError(f"n must be positive, got {n}")
    _check_budget(diagram, n)
    labelings, classes, firsts = _kn_table(diagram, n)
    if congruence is None:
        return list(labelings)
    m, columns = congruence
    rows = tuple(zip(*columns))
    keys = [tuple([sum(map(mul, labels, row)) % m for row in rows]) for labels in firsts]
    return [(keys[c], p) for c, p in zip(classes, labelings)]


def labeling_weight(diagram: ExtendedDiagram, generator, labeling: KacLabeling) -> Fraction:
    """Sum of generator coefficients against the labels at the root vertices.

    The exact reference for the integer columns of :func:`_slot_columns`.
    """
    total = Fraction(0)
    for coeff, slot in zip(generator, diagram.pi_slots):
        total += coeff * labeling.labels[slot]
    return _frac_mod1(total)


def _on_slots(diagram: ExtendedDiagram, m: int, rows) -> tuple:
    """``(m, columns)``: per slot of the diagram, its coefficient in each of
    the integer ``rows`` over the simple roots, zero at the extra vertices."""
    columns = [(0,) * len(rows)] * diagram.num_vertices
    for slot, column in zip(diagram.pi_slots, zip(*rows)):
        columns[slot] = column
    return m, tuple(columns)


def _slot_columns(spec: GroupSpec) -> tuple:
    """The spec's rows on the diagram slots; the ``congruence`` of
    :func:`enumerate_Kn`."""
    return _on_slots(spec.diagram(), spec.den, spec.rows)


@cache
def _weight_columns(diagram: ExtendedDiagram) -> tuple:
    """The congruence of X = P, from fundamental weights that generate P/Q."""
    return _on_slots(diagram, *_weight_generators(diagram.components))


def _slot_rows(spec: GroupSpec) -> tuple:
    """``(m, rows)``: the generator rows laid out on the diagram slots, the
    transpose of the columns of :func:`_slot_columns`."""
    m, columns = spec.derived(_slot_columns)
    return m, tuple(zip(*columns))


def residue_key(spec: GroupSpec, labels) -> tuple:
    """The congruence class of a labeling: its row sums mod ``m``.

    Each entry is one dot product of the labels with a row of
    :func:`_slot_rows`, which is zero at the extra vertices.
    """
    m, rows = spec.derived(_slot_rows)
    return tuple([sum(map(mul, labels, row)) % m for row in rows])


def filter_for_central(labelings, spec: GroupSpec, z: CentralElement) -> list:
    """Keep labelings whose generator sums match the central element's values."""
    key = central_key(spec, z)
    return [] if key is None else [p for p in labelings if residue_key(spec, p.labels) == key]


def filter_matching_q(labelings, spec: GroupSpec, q: KacLabeling, diagram: ExtendedDiagram) -> list:
    """Keep labelings congruent to q against every generator of X/Q."""
    diagram.check_labeling(q.labels, q.n)
    key = residue_key(spec, q.labels)
    return [p for p in labelings if residue_key(spec, p.labels) == key]


def act_on_labeling(g: FundamentalGroupElement, p: KacLabeling) -> KacLabeling:
    """Left action by diagram automorphism: new label at i is old at sigma^-1(i)."""
    return KacLabeling(labels=permuted_labels(g.sigma, p.labels), n=p.n)


def orbit_decompose(labelings, group: FundamentalGroup) -> list:
    """Partition into orbits of the group action.

    The input must be closed under the action; a labeling escaping the set
    signals an inconsistency between a filter and the action and is reported
    as an internal error rather than patched over.  The action runs on the
    label tuples through the group's ``label_actions``, one per element of
    the group, so an orbit is the set of images of one labeling, found in
    one pass; the orbits list the input's own labelings.
    """
    by_labels = {p.labels: p for p in labelings}
    if len(by_labels) != len(labelings):
        raise LabelingError("duplicate labelings in orbit input")
    if group.order == 1:
        return [LabelingOrbit(p, (p,), 1) for _, p in sorted(by_labels.items())]
    # The first action is the identity's, which moves nothing.
    actions = group.label_actions[1:]
    inside = by_labels.keys()
    done = set()
    orbits = []
    for p in labelings:
        labels = p.labels
        if labels in done:
            continue
        orbit = {act(labels) for act in actions}
        if not inside >= orbit:
            raise InternalCheckError(
                f"action moved {labels} to {min(orbit - inside)}, "
                "which is outside the filtered set"
            )
        orbit.add(labels)
        if group.order % len(orbit):
            raise InternalCheckError("orbit size does not divide the group order")
        done |= orbit
        members = tuple(map(by_labels.__getitem__, sorted(orbit)))
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
    first call for ``(spec, n)`` asks for K_n with
    ``enumerate_all(diagram, n, congruence)`` and splits it, in one pass,
    into buckets by the :func:`residue_key` that comes with each labeling.
    :func:`enumerate_Kn` enumerates K_n once per root system and n, so the
    buckets of every lattice of a root system hold the same labeling
    objects.  The first call for a key keeps
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
        for residue, p in enumerate_all(spec.diagram(), n, spec.derived(_slot_columns)):
            buckets.setdefault(residue, []).append(p)
        buckets, classes = tables.setdefault(n, (buckets, {}))
    try:
        return classes[key]
    except KeyError:
        pass
    bucket = buckets.get(key, [])
    orbits = tuple(classify(bucket))
    # The bucket's labelings are distinct, so equal counts and equal sets
    # mean the orbits cover each of them exactly once.
    covered = [m.labels for o in orbits for m in o.members]
    stray = {p.labels for p in bucket}.symmetric_difference(covered)
    if stray or len(covered) != len(bucket):
        raise InternalCheckError(
            f"the orbits of class {key} at n={n} cover {len(covered)} "
            f"labelings, not the {len(bucket)} of the class"
            + (f"; {min(stray)} is in one and not the other" if stray else "")
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
