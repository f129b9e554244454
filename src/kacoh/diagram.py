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
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .exactalg import block_diag, mat_mul, mat_vec, vec_add
from .rootdata import (
    CartanData,
    InternalCheckError,
    LabelingError,
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
    extra vertex carries the lowest root.  All entries are integers, and so
    is the arithmetic: the norms are scaled by the lcm of their
    denominators, which cancels from every ratio below.
    """
    data = cartan_data(typ)
    rank = data.rank
    d = norms(data)
    scale = lcm(*(x.denominator for x in d))
    d = [x.numerator * (scale // x.denominator) for x in d]
    # low_i[i] = (alpha_i, alpha_0), with (alpha_i, alpha_j) = cartan[i][j] * d_j
    low_d = [c * dk for c, dk in zip(data.lowest_root, d)]
    low_i = [sum(a * low_d[k] for k, a in enumerate(row) if a) for row in data.cartan]
    low_low = sum(c * x for c, x in zip(data.lowest_root, low_i))
    ext = [list(row) + [0] for row in data.cartan] + [[0] * rank + [2]]
    for i in range(rank):
        col, col_rem = divmod(2 * low_i[i], low_low)    # <alpha_i, alpha_0^vee>
        row, row_rem = divmod(low_i[i], d[i])           # <alpha_0, alpha_i^vee>
        if col_rem or row_rem:
            raise InternalCheckError(f"non-integral extended pairing for {data.type}")
        ext[i][rank] = col
        ext[rank][i] = row
    return tuple(tuple(r) for r in ext)


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


@dataclass(frozen=True)
class ExtendedDiagram:
    components: tuple

    def __post_init__(self):
        if not self.components:
            raise SpecError("empty component list")
        object.__setattr__(self, "components", tuple(self.components))

    @cached_property
    def marks(self) -> tuple:
        return tuple(m for typ in self.components for m in cartan_data(typ).marks)

    @cached_property
    def ext_cartan(self) -> tuple:
        return block_diag([_extended_cartan(t) for t in self.components])

    @cached_property
    def _offsets(self) -> tuple:
        """First slot of each component."""
        return tuple(itertools.accumulate((t.rank + 1 for t in self.components[:-1]), initial=0))

    @cached_property
    def _pi_slots(self) -> tuple:
        return tuple(
            s for off, t in zip(self._offsets, self.components) for s in range(off, off + t.rank)
        )

    @cached_property
    def display_slots(self) -> tuple:
        """Per component, the slot groups of the display format, in reading order."""
        return tuple(
            tuple(tuple(self.slot(k, v) for v in group) for group in _layout(typ))
            for k, typ in enumerate(self.components)
        )

    @cached_property
    def display_template(self) -> str:
        """The display format as ``display_template % display_getter(labels)``."""
        return ";".join(
            "/".join("%d" * len(group) for group in groups) for groups in self.display_slots
        )

    @cached_property
    def display_getter(self):
        return operator.itemgetter(
            *(s for groups in self.display_slots for group in groups for s in group)
        )

    @cached_property
    def full_group(self) -> "FundamentalGroup":
        """The :func:`fundamental_group` of this diagram, built on first use."""
        return fundamental_group(self)

    @property
    def num_vertices(self) -> int:
        return len(self.marks)

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
    """A new diagram; :meth:`kacoh.lattice.GroupSpec.diagram` shares one per component tuple."""
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

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> FundamentalGroupElement:
        return self.elements[0]

    @cached_property
    def iso_tag(self) -> str:
        """Invariant-factor label like '1', 'Z2', 'Z4', 'Z2xZ2'.

        The relative orders of the :func:`_staircase` of the elements'
        sigmas; the first element is the identity.
        """
        sigmas = [e.sigma for e in self.elements]
        stairs = _staircase(sigmas, sigmas[0], _compose)
        return "x".join(f"Z{d}" for _, d in stairs) or "1"

    @cached_property
    def label_actions(self) -> tuple:
        """Per element, an ``itemgetter`` over the inverse of its sigma.

        Applied to a label tuple it returns :func:`permuted_labels` of the
        element's sigma on it; built on first use.
        """
        actions = []
        for e in self.elements:
            inverse = [0] * len(e.sigma)
            for i, image in enumerate(e.sigma):
                inverse[image] = i
            actions.append(operator.itemgetter(*inverse))
        return tuple(actions)

    def subgroup(self, elements) -> "FundamentalGroup":
        sigmas = {e.sigma for e in elements}
        sigmas.add(self.identity().sigma)
        for g in sigmas:
            for h in sigmas:
                if _compose(g, h) not in sigmas:
                    raise InternalCheckError("element set is not closed under product")
        ordered = tuple(e for e in self.elements if e.sigma in sigmas)
        return FundamentalGroup(diagram=self.diagram, elements=ordered)


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
    for typ in diagram.components:
        sigmas = _component_sigmas(typ)
        ident = tuple(range(typ.rank + 1))
        per_component.append([(0, ident)] + [(j, sigmas[j]) for j in sorted(sigmas)])
    offsets = diagram._offsets
    elements = [
        FundamentalGroupElement(
            tags=tuple(tag for tag, _ in combo),
            sigma=tuple(off + i for (_, local), off in zip(combo, offsets) for i in local),
        )
        for combo in itertools.product(*per_component)
    ]
    # The tables must give diagram automorphisms preserving marks, checked
    # before the group law is run on them.  A bijection that keeps every
    # nonzero pairing keeps the zeros too, so after the bijection check the
    # nonzero entries are the only ones compared.
    marks = diagram.marks
    ext = diagram.ext_cartan
    nonzero = [(a, b, x) for a, row in enumerate(ext) for b, x in enumerate(row) if x]
    for g in elements:
        sigma = g.sigma
        broken = next((s for s, image in enumerate(sigma) if marks[image] != marks[s]), None)
        if broken is not None:
            typ = diagram.components[diagram.local(broken)[0]]
            raise InternalCheckError(f"{typ}: action does not preserve marks")
        if len(set(sigma)) != len(sigma) or any(
            ext[sigma[a]][sigma[b]] != x for a, b, x in nonzero
        ):
            raise InternalCheckError("tabulated action is not a diagram automorphism")
    return FundamentalGroup(diagram=diagram, elements=tuple(elements))


def _staircase(elements, zero, add) -> list:
    """Greedy cyclic decomposition of the finite abelian group ``elements``.

    Repeatedly picks the first element, in the order of ``elements``, of
    maximal order relative to the span built so far.  Returns a list of
    ``(generator, relative_order)``.  ``zero`` is the neutral element and
    ``add`` the group law; elements must be hashable.
    """
    order = len(elements)
    span = {zero}
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
                best = (e, d)
                if d == order // len(span):
                    break  # no relative order is larger
        gen, d = best
        stairs.append(best)
        coset = span
        for _ in range(d - 1):
            coset = {add(v, gen) for v in coset}
            span |= coset
    return stairs


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


def _chain(vertices) -> str:
    return " - ".join(map(str, vertices))


def _component_lines(typ: SimpleType) -> list[str]:
    rank = typ.rank
    fam = typ.family
    if fam == "A" and rank == 1:
        return ["1 <=> 0"]
    if fam == "A":
        return [f"(cycle) 0 - {_chain(range(1, rank + 1))} - 0"]
    if fam == "B":
        if rank == 2:
            return ["0 => 2 <= 1"]
        return ["0 \\", f"    {_chain(range(2, rank))} => {rank}", "1 /"]
    if fam == "C":
        return [f"0 => {_chain(range(1, rank))} <= {rank}"]
    if fam == "D":
        middle = _chain(range(2, rank - 1))
        gap = " " * len(middle)
        return [f"0 \\{gap}/ {rank - 1}", f"    {middle}", f"1 /{gap}\\ {rank}"]
    if fam == "E":
        # The row, the vertices before the branch point, and the branch below it.
        row, before, branch = {
            6: ((1, 2, 3, 4, 5), (1, 2), ("6", "|", "0")),
            7: ((1, 2, 3, 4, 5, 6, 0), (1, 2, 3), ("7",)),
            8: ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4), ("8",)),
        }[rank]
        indent = " " * (len(_chain(before)) + 3)
        return [_chain(row)] + [indent + x for x in ("|",) + branch]
    if fam == "F":
        return ["0 - 1 - 2 => 3 - 4"]
    return ["0 - 2 =>> 1"]  # G2, triple edge


def render_diagram(diagram: ExtendedDiagram) -> str:
    """ASCII picture of the extended diagram, vertices named by local number."""
    lines = []
    for typ in diagram.components:
        lines.append(f"[{typ}]")
        lines.extend(_component_lines(typ))
    return "\n".join(lines)
