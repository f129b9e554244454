"""Extended Dynkin diagrams and the vertex action of the coweight classes.

One extra vertex (written 0) is appended to every simple component; global
vertex order is component-major with the local order 1, ..., rank, 0.  The
finite abelian group of coweight classes modulo coroots acts on each
component by diagram automorphisms permuting the mark-1 vertices simply
transitively.  That action is implemented twice:

* :func:`fundamental_group_table` returns the hardcoded per-type
  permutations;
* :func:`sigma_geometric` recomputes one generator from first principles,
  as the affine isometry y -> w_j w_0 y + omega_j of the fundamental
  alcove, matching images of alcove vertices exactly.

A test asserts the two agree everywhere; disagreement would mean a typo in
the tables or a convention bug in the geometry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exactalg import mat_vec, vec_add
from .rootdata import (
    CartanData,
    InternalCheckError,
    SimpleType,
    SpecError,
    cartan_data,
    fundamental_coweight,
    longest_element,
    norms,
)


@lru_cache(maxsize=None)
def _extended_cartan(typ: SimpleType) -> tuple:
    """Pairing matrix over the vertices 1..rank, 0 (local slot order).

    Entry [a][b] pairs the root at slot a with the coroot at slot b; the
    extra vertex carries the lowest root.  All entries are integers.
    """
    data = cartan_data(typ)
    rank = data.rank
    d = norms(data)
    # (alpha_i, alpha_j) = cartan[i][j] * d_j
    bil = [[data.cartan[i][j] * d[j] for j in range(rank)] for i in range(rank)]
    low = data.lowest_root
    low_i = [sum(low[k] * bil[i][k] for k in range(rank)) for i in range(rank)]
    low_low = sum(low[i] * low_j for i, low_j in zip(range(rank), (
        sum(low[k] * bil[i][k] for k in range(rank)) for i in range(rank)
    )))
    ext = [[0] * (rank + 1) for _ in range(rank + 1)]
    for i in range(rank):
        for j in range(rank):
            ext[i][j] = data.cartan[i][j]
        col = 2 * low_i[i] / low_low          # <alpha_i, alpha_0^vee>
        row = 2 * low_i[i] / (2 * d[i])       # <alpha_0, alpha_i^vee>
        if col.denominator != 1 or row.denominator != 1:
            raise InternalCheckError(f"non-integral extended pairing for {data.type}")
        ext[i][rank] = int(col)
        ext[rank][i] = int(row)
    ext[rank][rank] = 2
    return tuple(tuple(r) for r in ext)


@dataclass(frozen=True)
class ExtendedDiagram:
    components: tuple

    # Derived, filled in __post_init__.
    marks: tuple = field(default=(), compare=False, repr=False)
    ext_cartan: tuple = field(default=(), compare=False, repr=False)
    _offsets: tuple = field(default=(), compare=False, repr=False)    # first slot per component
    _pi_slots: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not self.components:
            raise SpecError("empty component list")
        object.__setattr__(self, "components", tuple(self.components))
        marks = []
        for typ in self.components:
            marks.extend(cartan_data(typ).marks)
        object.__setattr__(self, "marks", tuple(marks))
        blocks = [_extended_cartan(t) for t in self.components]
        total = len(marks)
        ext = [[0] * total for _ in range(total)]
        off = 0
        for block in blocks:
            k = len(block)
            for i in range(k):
                for j in range(k):
                    ext[off + i][off + j] = block[i][j]
            off += k
        object.__setattr__(self, "ext_cartan", tuple(tuple(r) for r in ext))
        offsets = tuple(itertools.accumulate((len(b) for b in blocks[:-1]), initial=0))
        pi_slots = tuple(s for off, b in zip(offsets, blocks) for s in range(off, off + len(b) - 1))
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_pi_slots", pi_slots)

    @property
    def num_vertices(self) -> int:
        return len(self.marks)

    @property
    def total_rank(self) -> int:
        return sum(t.rank for t in self.components)

    def slot(self, k: int, vertex: int) -> int:
        """Global slot of a local vertex (1..rank, or 0 for the extra one)."""
        rank = self.components[k].rank
        if vertex == 0:
            return self._offsets[k] + rank
        if not 1 <= vertex <= rank:
            raise ValueError(f"vertex {vertex} out of range for {self.components[k]}")
        return self._offsets[k] + vertex - 1

    def local(self, slot: int) -> tuple[int, int]:
        """Inverse of :meth:`slot`: global slot -> (component, local vertex)."""
        off = 0
        for k, typ in enumerate(self.components):
            size = typ.rank + 1
            if slot < off + size:
                v = slot - off + 1
                return k, 0 if v == size else v
            off += size
        raise ValueError(f"slot {slot} out of range")

    def component_slots(self, k: int) -> range:
        off = self._offsets[k]
        return range(off, off + self.components[k].rank + 1)

    def pi_slots(self) -> tuple:
        """Slots of the non-extra vertices, in global root order."""
        return self._pi_slots

    def edges(self) -> tuple:
        """Global edges as (slot_a, slot_b, multiplicity, arrow_to) tuples.

        ``arrow_to`` is the slot on the short side for multiplicity > 1, or
        None for a single (or, for rank-1 components, doubly infinite) bond.
        """
        out = []
        ext = self.ext_cartan
        for a in range(self.num_vertices):
            for b in range(a + 1, self.num_vertices):
                if ext[a][b] == 0:
                    continue
                mult = max(abs(ext[a][b]), abs(ext[b][a]))
                arrow = None
                if abs(ext[a][b]) > abs(ext[b][a]):
                    arrow = a  # alpha_a pairs larger: alpha_a is shorter
                elif abs(ext[b][a]) > abs(ext[a][b]):
                    arrow = b
                out.append((a, b, mult, arrow))
        return tuple(out)

    def check_labeling(self, labels, n: int) -> None:
        from .rootdata import LabelingError

        if len(labels) != self.num_vertices:
            raise LabelingError(
                f"expected {self.num_vertices} labels, got {len(labels)}"
            )
        if any((not isinstance(x, int)) or x < 0 for x in labels):
            raise LabelingError("labels must be nonnegative integers")
        for k in range(len(self.components)):
            total = sum(self.marks[s] * labels[s] for s in self.component_slots(k))
            if total != n:
                raise LabelingError(
                    f"component {k} has weighted label sum {total}, expected {n}"
                )


def build_extended_diagram(types) -> ExtendedDiagram:
    return ExtendedDiagram(components=tuple(types))


# ---------------------------------------------------------------------------
# Fundamental group action


@dataclass(frozen=True)
class FundamentalGroupElement:
    tags: tuple    # per component: 0 for the identity coset, else a mark-1 vertex
    sigma: tuple   # global vertex permutation, sigma[slot] = image slot


@dataclass(frozen=True)
class FundamentalGroup:
    diagram: ExtendedDiagram = field(compare=False)
    elements: tuple = ()
    iso_tag: str = ""

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> FundamentalGroupElement:
        return self.elements[0]

    def subgroup(self, elements) -> "FundamentalGroup":
        sigmas = {e.sigma for e in elements}
        sigmas.add(self.identity().sigma)
        for g in sigmas:
            for h in sigmas:
                if _compose(g, h) not in sigmas:
                    raise InternalCheckError("element set is not closed under product")
        ordered = tuple(e for e in self.elements if e.sigma in sigmas)
        return FundamentalGroup(
            diagram=self.diagram, elements=ordered, iso_tag=_iso_tag(ordered)
        )


def _compose(g: tuple, h: tuple) -> tuple:
    """The sigma of ``g * h`` from the sigmas of ``g`` and ``h``: first ``h``, then ``g``."""
    return tuple(map(g.__getitem__, h))


def _cycle_sigma(rank: int, mapping: dict) -> tuple:
    """Local permutation (slot order 1..rank, 0) from a vertex mapping."""
    perm = [0] * (rank + 1)
    for v in list(range(1, rank + 1)) + [0]:
        img = mapping.get(v, v)
        src = rank if v == 0 else v - 1
        dst = rank if img == 0 else img - 1
        perm[src] = dst
    return tuple(perm)


def _component_sigmas(typ: SimpleType) -> dict:
    """Hardcoded action: mark-1 vertex j -> local permutation taking 0 to j."""
    rank = typ.rank
    fam = typ.family
    out = {}
    if fam == "A":
        n = rank + 1
        for j in range(1, rank + 1):
            mapping = {v: (v + j) % n for v in range(n)}
            out[j] = _cycle_sigma(rank, mapping)
    elif fam == "B":
        out[1] = _cycle_sigma(rank, {0: 1, 1: 0})
    elif fam == "C":
        out[rank] = _cycle_sigma(rank, {v: rank - v for v in range(rank + 1)})
    elif fam == "D":
        flip = {i: rank - i for i in range(2, rank - 1)}
        sig1 = {0: 1, 1: 0, rank - 1: rank, rank: rank - 1}
        sig_pre = {0: rank - 1, rank - 1: 1, 1: rank, rank: 0, **flip}
        sig_last = {0: rank, rank: 1, 1: rank - 1, rank - 1: 0, **flip}
        if rank % 2 == 0:
            sig_pre = {0: rank - 1, rank - 1: 0, 1: rank, rank: 1, **flip}
            sig_last = {0: rank, rank: 0, 1: rank - 1, rank - 1: 1, **flip}
        out[1] = _cycle_sigma(rank, sig1)
        out[rank - 1] = _cycle_sigma(rank, sig_pre)
        out[rank] = _cycle_sigma(rank, sig_last)
    elif fam == "E" and rank == 6:
        out[1] = _cycle_sigma(rank, {0: 1, 1: 5, 5: 0, 2: 4, 4: 6, 6: 2})
        out[5] = _cycle_sigma(rank, {0: 5, 5: 1, 1: 0, 2: 6, 6: 4, 4: 2})
    elif fam == "E" and rank == 7:
        out[1] = _cycle_sigma(rank, {0: 1, 1: 0, 2: 6, 6: 2, 3: 5, 5: 3})
    # E8, F4, G2: trivial group, no generators.
    return out


def fundamental_group_table(typ: SimpleType) -> FundamentalGroup:
    """The full coweight-class group of a single component, from the tables."""
    return fundamental_group(build_extended_diagram([typ]))


def fundamental_group(diagram: ExtendedDiagram) -> FundamentalGroup:
    """Direct product of the per-component groups, on global vertex slots."""
    per_component = []
    for k, typ in enumerate(diagram.components):
        sigmas = _component_sigmas(typ)
        rank = typ.rank
        ident = tuple(range(rank + 1))
        items = [(0, ident)] + [(j, sigmas[j]) for j in sorted(sigmas)]
        per_component.append(items)
    elements = []
    for combo in itertools.product(*per_component):
        sigma = [0] * diagram.num_vertices
        tags = []
        off = 0
        for (tag, local), typ in zip(combo, diagram.components):
            size = typ.rank + 1
            for i in range(size):
                sigma[off + i] = off + local[i]
            tags.append(tag)
            off += size
        elements.append(
            FundamentalGroupElement(tags=tuple(tags), sigma=tuple(sigma))
        )
    group = FundamentalGroup(diagram=diagram, elements=tuple(elements), iso_tag=_iso_tag(elements))
    # The tables must give diagram automorphisms preserving marks.
    for g in group.elements:
        for a in range(diagram.num_vertices):
            if diagram.marks[g.sigma[a]] != diagram.marks[a]:
                raise InternalCheckError(f"{typ}: action does not preserve marks")
            for b in range(diagram.num_vertices):
                if (
                    diagram.ext_cartan[g.sigma[a]][g.sigma[b]]
                    != diagram.ext_cartan[a][b]
                ):
                    raise InternalCheckError(
                        f"tabulated action is not a diagram automorphism"
                    )
    return group


def _staircase(elements, zero, add) -> list:
    """Greedy cyclic decomposition of the finite abelian group ``elements``.

    Repeatedly picks the first element, in the order of ``elements``, of
    maximal order relative to the span built so far.  Returns a list of
    ``(generator, relative_order, combo)`` where ``combo`` expresses
    ``relative_order * generator`` in normal form over the earlier
    generators: a tuple of ``(index, multiple)`` pairs.  The homomorphism
    constraints these encode generate all relations of the group, since the
    normal forms already exhaust it.  ``zero`` is the neutral element and
    ``add`` the group law; elements must be hashable.
    """
    order = len(elements)
    span = {zero: ()}
    stairs = []
    while len(span) < order:
        best = None
        for e in elements:
            if e in span:
                continue
            d, cur = 1, e
            while cur not in span:
                cur = add(cur, e)
                d += 1
            if best is None or d > best[1]:
                best = (e, d, cur)
                if d == order // len(span):
                    break  # no relative order is larger
        gen, d, multiple = best
        stairs.append((gen, d, span[multiple]))
        idx = len(stairs) - 1
        new_span = {}
        for vec, coeffs in span.items():
            cur = vec
            for k in range(d):
                new_span[cur] = coeffs + ((idx, k),) if k else coeffs
                cur = add(cur, gen)
        span = new_span
    return stairs


def _iso_tag(elements) -> str:
    """Invariant-factor label like '1', 'Z2', 'Z4', 'Z2xZ2'.

    The relative orders of the :func:`_staircase` of the elements' sigmas;
    the first element is the identity.
    """
    sigmas = [e.sigma for e in elements]
    stairs = _staircase(sigmas, sigmas[0], _compose)
    return "x".join(f"Z{d}" for _, d, _ in stairs) or "1"


def sigma_geometric(data: CartanData, j: int) -> tuple:
    """Recompute the permutation for the coset of the j-th coweight.

    Works entirely in coroot coordinates: alcove vertices are the scaled
    fundamental coweights plus the origin; the affine map is
    y -> (w_j w_0)(y) + omega_j.  Every image must land exactly on an
    alcove vertex, otherwise a convention bug is flagged.
    Returns the local permutation in slot order (1..rank, 0).
    """
    rank = data.rank
    if data.marks[j - 1] != 1:
        raise ValueError(f"vertex {j} of {data.type} does not have mark 1")
    w0 = longest_element(data).matrix
    wj = longest_element(data, excluded=j).matrix
    from .exactalg import mat_mul

    m = mat_mul(wj, w0)
    omega_j = fundamental_coweight(data, j)

    vertices = {}
    for i in range(1, rank + 1):
        cw = fundamental_coweight(data, i)
        v = tuple(Fraction(x, data.marks[i - 1]) for x in cw)
        vertices[v] = i - 1
    vertices[tuple(Fraction(0) for _ in range(rank))] = rank  # origin <-> slot of 0

    perm = [None] * (rank + 1)
    for v, src in vertices.items():
        img = vec_add(mat_vec(m, v), omega_j)
        img = tuple(Fraction(x) for x in img)
        if img not in vertices:
            raise InternalCheckError(
                f"{data.type}, vertex {j}: alcove vertex image {img} "
                "is not an alcove vertex"
            )
        perm[src] = vertices[img]
    return tuple(perm)


def permuted_labels(sigma: tuple, labels) -> tuple:
    """Push labels forward along a vertex permutation: out[sigma(i)] = in[i]."""
    out = [0] * len(labels)
    for i, lab in enumerate(labels):
        out[sigma[i]] = lab
    return tuple(out)


# ---------------------------------------------------------------------------
# Plain-text rendering


def _component_lines(diagram: ExtendedDiagram, k: int, labels=None) -> list[str]:
    typ = diagram.components[k]
    rank = typ.rank

    def node(v):
        if labels is None:
            return str(v)
        return f"{v}:{labels[diagram.slot(k, v)]}"

    fam = typ.family
    if fam == "A" and rank == 1:
        return [f"{node(1)} <=> {node(0)}"]
    if fam == "A":
        chain = " - ".join(node(v) for v in range(1, rank + 1))
        return [f"(cycle) {node(0)} - {chain} - {node(0)}"]
    if fam == "B":
        if rank == 2:
            return [f"{node(0)} => {node(2)} <= {node(1)}"]
        chain = " - ".join(node(v) for v in range(2, rank))
        return [
            f"{node(0)} \\",
            f"    {chain} => {node(rank)}",
            f"{node(1)} /",
        ]
    if fam == "C":
        middle = " - ".join(node(v) for v in range(1, rank))
        return [f"{node(0)} => {middle} <= {node(rank)}"]
    if fam == "D":
        middle = " - ".join(node(v) for v in range(2, rank - 1))
        return [
            f"{node(0)} \\{' ' * max(0, len(middle))}/ {node(rank - 1)}",
            f"    {middle}",
            f"{node(1)} /{' ' * max(0, len(middle))}\\ {node(rank)}",
        ]
    if fam == "E" and rank == 6:
        row = " - ".join(node(v) for v in (1, 2, 3, 4, 5))
        pad = len(" - ".join(node(v) for v in (1, 2))) + 3
        return [row, " " * pad + "|", " " * pad + node(6), " " * pad + "|", " " * pad + node(0)]
    if fam == "E" and rank == 7:
        row = " - ".join(node(v) for v in (1, 2, 3, 4, 5, 6, 0))
        pad = len(" - ".join(node(v) for v in (1, 2, 3))) + 3
        return [row, " " * pad + "|", " " * pad + node(7)]
    if fam == "E" and rank == 8:
        row = " - ".join(node(v) for v in (0, 1, 2, 3, 4, 5, 6, 7))
        pad = len(" - ".join(node(v) for v in (0, 1, 2, 3, 4))) + 3
        return [row, " " * pad + "|", " " * pad + node(8)]
    if fam == "F":
        return [f"{node(0)} - {node(1)} - {node(2)} => {node(3)} - {node(4)}"]
    return [f"{node(0)} - {node(2)} =>> {node(1)}"]  # G2, triple edge


def render_diagram(diagram: ExtendedDiagram, labels=None) -> str:
    """ASCII picture of the extended diagram, optionally with labels."""
    lines = []
    for k, typ in enumerate(diagram.components):
        lines.append(f"[{typ}]")
        lines.extend(_component_lines(diagram, k, labels))
    return "\n".join(lines)
