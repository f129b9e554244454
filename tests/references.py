"""Reference constructions that the package does not carry, kept for the tests.

Each recomputes from first principles something that :mod:`kacoh` holds in
a faster or tabulated form, so a test can compare the two:

* the Weyl group side of :mod:`kacoh.rootdata`: simple reflections on
  coroot coordinates, the fundamental coweights as Fractions, reduced
  words of longest elements, and the roots by closure under reflections;
* :func:`sigma_geometric`, the diagram action of a coweight class as the
  affine isometry y -> w_j w_0 y + omega_j of the fundamental alcove,
  against the tables of :func:`kacoh.diagram.fundamental_group`;
* :func:`permuted_labels` and :func:`act_on_labeling`, the action on
  labelings that ``FundamentalGroup.label_actions`` applies as itemgetters;
* :func:`labeling_weight` and :func:`pairing`, the exact ``Fraction``
  sums behind the integer congruence columns and keys;
* :func:`canonical_point`, :func:`contains` and :func:`index_over_coroots`
  of a :class:`kacoh.oracle.CoweightLattice` on rational coordinates.

All arithmetic is exact: ints and Fractions, never floats.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm

from kacoh.exactalg import mat_vec, reduce_mod_basis
from kacoh.labelings import KacLabeling
from kacoh.lattice import _frac_mod1
from kacoh.oracle import TorusPoint
from kacoh.rootdata import InternalCheckError, SimpleType, SpecError, cartan_data


# ---------------------------------------------------------------------------
# Small matrix helpers


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def mat_mul(a, b) -> tuple:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# Weyl group and roots


@dataclass(frozen=True)
class WeylElement:
    word: tuple      # simple-reflection indices, 1-based, leftmost applied last
    matrix: tuple    # action on coroot coordinates


def reflection_matrix(data, i: int) -> tuple:
    """Matrix of the simple reflection s_i on coroot coordinates."""
    if not 1 <= i <= data.rank:
        raise ValueError(f"vertex {i} out of range for {data.type}")
    row = data.cartan[i - 1]
    return tuple(
        tuple(int(k == j) - int(k == i - 1) * row[j] for j in range(data.rank))
        for k in range(data.rank)
    )


def fundamental_coweight(data, j: int) -> tuple:
    """The j-th fundamental coweight in simple-coroot coordinates."""
    if not 1 <= j <= data.rank:
        raise ValueError(f"vertex {j} out of range for {data.type}")
    return tuple(Fraction(row[j - 1], data.det) for row in data.adjugate)


def longest_element(data, excluded: int | None = None) -> WeylElement:
    """Longest element of the Weyl group, or of the parabolic omitting a vertex.

    Greedy descent: start from a vector strictly dominant for the allowed
    simple roots, keep applying the first reflection with positive pairing
    until the vector is anti-dominant.  The accumulated reflections form a
    reduced word for the longest element.
    """
    allowed = [i for i in range(1, data.rank + 1) if i != excluded]
    y = [Fraction(0)] * data.rank
    for j in allowed:
        y = [a + b for a, b in zip(y, fundamental_coweight(data, j))]
    applied = []
    while True:
        pair = mat_vec(data.cartan, y)
        i = next((i for i in allowed if pair[i - 1] > 0), None)
        if i is None:
            break
        y[i - 1] -= pair[i - 1]  # s_i(y) = y - <alpha_i, y> alpha_i^vee
        applied.append(i)
    word = tuple(reversed(applied))
    mats = [reflection_matrix(data, i) for i in word]
    return WeylElement(word=word, matrix=reduce(mat_mul, mats, identity(data.rank)))


def reflect_root(data, i: int, root: tuple) -> tuple:
    """Simple reflection s_i applied to a root in simple-root coordinates."""
    coeff = sum(data.cartan[j][i - 1] * root[j] for j in range(data.rank))
    return tuple(root[j] - coeff * int(j == i - 1) for j in range(data.rank))


@lru_cache(maxsize=None)
def all_roots(typ: SimpleType) -> tuple:
    """Every root in simple-root coordinates, by closure under reflections."""
    data = cartan_data(typ)
    simple = [tuple(int(k == j) for k in range(data.rank)) for j in range(data.rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(1, data.rank + 1):
                image = reflect_root(data, i, root)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return tuple(sorted(seen))


def positive_roots(typ: SimpleType) -> tuple:
    return tuple(r for r in all_roots(typ) if sum(r) > 0)


def highest_root(typ: SimpleType) -> tuple:
    return max(positive_roots(typ), key=sum)


# ---------------------------------------------------------------------------
# The diagram action, geometrically


def sigma_geometric(data, j: int) -> tuple:
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
        vertices[tuple(Fraction(x, data.marks[i - 1]) for x in cw)] = i - 1
    vertices[tuple(Fraction(0) for _ in range(rank))] = rank  # origin <-> slot of 0

    perm = [None] * (rank + 1)
    for v, src in vertices.items():
        img = tuple(Fraction(x) for x in vec_add(mat_vec(m, v), omega_j))
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


def act_on_labeling(g, p: KacLabeling) -> KacLabeling:
    """Left action by diagram automorphism: new label at i is old at sigma^-1(i)."""
    return KacLabeling(labels=permuted_labels(g.sigma, p.labels), n=p.n)


# ---------------------------------------------------------------------------
# Exact pairings


def labeling_weight(diagram, generator, labeling: KacLabeling) -> Fraction:
    """Sum of generator coefficients against the labels at the root vertices, mod 1.

    The exact reference for the integer columns of
    :func:`kacoh.labelings._slot_columns`.
    """
    total = Fraction(0)
    for coeff, slot in zip(generator, diagram.pi_slots):
        total += coeff * labeling.labels[slot]
    return _frac_mod1(total)


def pairing(lambda_coeffs, j_slot_vertex, diagram, component: int = 0) -> Fraction:
    """Pairing of a weight class with the coweight class of a mark-1 vertex.

    The weight is given by root coefficients over the whole diagram; the
    coweight class by (component, vertex).  Equals the vertex coefficient
    mod Z, by duality of the two bases.
    """
    typ = diagram.components[component]
    data = cartan_data(typ)
    if j_slot_vertex == 0:
        return Fraction(0)
    if data.marks[j_slot_vertex - 1] != 1:
        raise SpecError(
            f"vertex {j_slot_vertex} of {typ} has mark "
            f"{data.marks[j_slot_vertex - 1]}, not 1"
        )
    offset = sum(t.rank for t in diagram.components[:component])
    return _frac_mod1(lambda_coeffs[offset + j_slot_vertex - 1])


# ---------------------------------------------------------------------------
# Rational points of a coweight lattice


def canonical_point(lattice, coords) -> TorusPoint:
    """The reduced point of rational simple-coroot coordinates."""
    denominator = lcm(lattice.scale, *(x.denominator for x in coords))
    scaled = [x.numerator * (denominator // x.denominator) for x in coords]
    return TorusPoint(
        reduce_mod_basis(scaled, lattice.triangular, denominator // lattice.scale), denominator
    )


def contains(lattice, coords) -> bool:
    return canonical_point(lattice, coords).is_identity


def index_over_coroots(lattice) -> int:
    covolume = 1
    for i, col in enumerate(lattice.hnf):
        covolume *= col[i]
    index, rem = divmod(lattice.scale ** lattice.rank, covolume)
    if rem:
        raise InternalCheckError("non-integral lattice index")
    return index
