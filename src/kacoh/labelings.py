"""Kac n-labelings: enumeration, congruence filters, orbit decomposition.

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
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    ExtendedDiagram,
    FundamentalGroup,
    FundamentalGroupElement,
    permuted_labels,
)
from .exactalg import lcm_denominators
from .lattice import CentralElement, GroupSpec, _frac_mod1
from .rootdata import InternalCheckError, LabelingError, SimpleType


@dataclass(frozen=True, order=True)
class KacLabeling:
    labels: tuple
    n: int


@dataclass(frozen=True)
class LabelingOrbit:
    representative: KacLabeling
    members: tuple
    stabilizer_order: int


def _component_solutions(diagram: ExtendedDiagram, k: int, n: int) -> list:
    """All solutions of the weighted sum on one component, lexicographic."""
    slots = list(diagram.component_slots(k))
    marks = [diagram.marks[s] for s in slots]

    def rec(pos: int, remaining: int):
        if pos == len(slots) - 1:
            # The extra vertex sits last in slot order and has mark 1.
            yield (remaining,)
            return
        m = marks[pos]
        for value in range(remaining // m + 1):
            for rest in rec(pos + 1, remaining - m * value):
                yield (value,) + rest

    return [sol for sol in rec(0, n)]


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
    out = []
    for combo in itertools.product(*per_component):
        flat = tuple(itertools.chain.from_iterable(combo))
        out.append(KacLabeling(labels=flat, n=n))
    return out


def labeling_weight(spec: GroupSpec, diagram: ExtendedDiagram, generator, labeling: KacLabeling) -> Fraction:
    """Sum of generator coefficients against the labels at the root vertices.

    The exact reference for the integer rows of :func:`_congruence_rows`.
    """
    total = Fraction(0)
    for coeff, slot in zip(generator, diagram.pi_slots()):
        total += coeff * labeling.labels[slot]
    return _frac_mod1(total)


def _congruence_rows(spec: GroupSpec) -> tuple:
    """``(m, rows)``: the generators scaled to integers mod ``m``.

    ``m`` is the lcm of the generator denominators and each row lists the
    pairs ``(slot, c * m mod m)`` with nonzero entry over the root vertices,
    so ``labeling_weight`` times ``m`` is the row's dot product mod ``m``.
    """
    m = lcm_denominators(x for gen in spec.generators for x in gen)
    slots = spec.diagram().pi_slots()
    rows = tuple(
        tuple(
            (slot, c.numerator * (m // c.denominator) % m)
            for slot, c in zip(slots, map(Fraction, gen))
            if c.denominator != 1
        )
        for gen in spec.generators
    )
    return m, rows


def _congruent(labelings, spec: GroupSpec, targets) -> list:
    """Keep labelings whose row sums are congruent mod ``m`` to ``targets``."""
    m, rows = spec.derived(_congruence_rows)
    checks = tuple(zip(rows, targets))
    return [
        p
        for p in labelings
        if all(sum(c * p.labels[s] for s, c in row) % m == t for row, t in checks)
    ]


def filter_for_central(labelings, spec: GroupSpec, z: CentralElement, diagram: ExtendedDiagram) -> list:
    """Keep labelings whose generator sums match the central element's values."""
    m, _ = spec.derived(_congruence_rows)
    targets = [v * m for v in z.values]
    if any(t.denominator != 1 for t in targets):
        return []  # no labeling weight has a denominator beyond m
    return _congruent(labelings, spec, [t.numerator for t in targets])


def filter_matching_q(labelings, spec: GroupSpec, q: KacLabeling, diagram: ExtendedDiagram) -> list:
    """Keep labelings congruent to q against every generator of X/Q."""
    diagram.check_labeling(q.labels, q.n)
    m, rows = spec.derived(_congruence_rows)
    targets = [sum(c * q.labels[s] for s, c in row) % m for row in rows]
    return _congruent(labelings, spec, targets)


def act_on_labeling(g: FundamentalGroupElement, p: KacLabeling) -> KacLabeling:
    """Left action by diagram automorphism: new label at i is old at sigma^-1(i)."""
    return KacLabeling(labels=permuted_labels(g.sigma, p.labels), n=p.n)


def orbit_decompose(labelings, group: FundamentalGroup) -> list:
    """Partition into orbits of the group action.

    The input must be closed under the action; a labeling escaping the set
    signals an inconsistency between a filter and the action and is reported
    as an internal error rather than patched over.
    """
    pool = {p: None for p in labelings}
    if len(pool) != len(labelings):
        raise LabelingError("duplicate labelings in orbit input")
    orbits = []
    for p in labelings:
        if pool[p] is not None:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            cur = frontier.pop()
            for g in group.elements:
                image = act_on_labeling(g, cur)
                if image not in pool:
                    raise InternalCheckError(
                        f"action moved {cur.labels} to {image.labels}, "
                        "which is outside the filtered set"
                    )
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        members = tuple(sorted(orbit))
        if group.order % len(members):
            raise InternalCheckError("orbit size does not divide the group order")
        for m in members:
            pool[m] = members[0]
        orbits.append(
            LabelingOrbit(
                representative=members[0],
                members=members,
                stabilizer_order=group.order // len(members),
            )
        )
    orbits.sort(key=lambda o: o.representative)
    return orbits


def compact_labeling(diagram: ExtendedDiagram, n: int = 2) -> KacLabeling:
    """The labeling with everything on the extra vertices; the trivial twist."""
    labels = [0] * diagram.num_vertices
    for k, typ in enumerate(diagram.components):
        labels[diagram.slot(k, 0)] = n
    return KacLabeling(labels=tuple(labels), n=n)


# ---------------------------------------------------------------------------
# Text formats


def _layout(typ: SimpleType) -> list:
    """Reading order of one component as groups of local vertex ids."""
    r = typ.rank
    if typ.family == "A":
        return [list(range(1, r + 1)), [0]]
    if typ.family == "B":
        return [[0, 1], list(range(2, r + 1))]
    if typ.family == "C":
        return [list(range(r + 1))]
    if typ.family == "D":
        groups = [[0, 1], list(range(2, r - 1)), [r - 1, r]]
        return [g for g in groups if g]
    if typ.family == "E" and r == 6:
        return [[1, 2, 3, 4, 5], [6], [0]]
    if typ.family == "E" and r == 7:
        return [[1, 2, 3], [4, 7], [5, 6, 0]]
    if typ.family == "E" and r == 8:
        return [[0, 1, 2, 3, 4], [5, 8], [6, 7]]
    if typ.family == "F":
        return [[0, 1, 2, 3, 4]]
    return [[0, 2, 1]]  # G2


def format_labeling(diagram: ExtendedDiagram, p: KacLabeling, style: str = "display") -> str:
    """Render a labeling; ``display`` is the slashed digit form, ``flat`` the
    comma-separated machine form (always round-trippable)."""
    if style == "flat":
        return ",".join(str(x) for x in p.labels)
    if style != "display":
        raise ValueError(f"unknown labeling style {style!r}")
    parts = []
    for k, typ in enumerate(diagram.components):
        groups = []
        for group in _layout(typ):
            groups.append(
                "".join(str(p.labels[diagram.slot(k, v)]) for v in group)
            )
        parts.append("/".join(groups))
    return ";".join(parts)


def parse_labeling(diagram: ExtendedDiagram, text: str) -> KacLabeling:
    """Parse either labeling format; n is inferred from the weighted sums.

    The digit form only covers labels 0..9; use the flat form beyond that.
    """
    text = text.strip()
    if "," in text:
        try:
            labels = tuple(int(x) for x in text.replace(";", ",").split(","))
        except ValueError as exc:
            raise LabelingError(f"bad flat labeling {text!r}") from exc
    else:
        comps = [c for c in text.replace(";", " ").split() if c]
        if len(comps) != len(diagram.components):
            raise LabelingError(
                f"labeling {text!r} has {len(comps)} component groups, "
                f"expected {len(diagram.components)}"
            )
        labels = [0] * diagram.num_vertices
        for k, (typ, comp) in enumerate(zip(diagram.components, comps)):
            digits = comp.replace("/", "")
            if not digits.isdigit() or len(digits) != typ.rank + 1:
                raise LabelingError(
                    f"component {k} of {text!r} needs {typ.rank + 1} digits"
                )
            order = [v for group in _layout(typ) for v in group]
            for v, ch in zip(order, digits):
                labels[diagram.slot(k, v)] = int(ch)
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
