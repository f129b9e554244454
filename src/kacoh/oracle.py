"""Brute-force torus-side verifier for the labeling pipeline.

The torus is the rational span of the coroots modulo the cocharacter
lattice of X.  This module realizes that lattice concretely from the
annihilator condition: the coroots and the coweight classes whose pairings
with the generator rows of X/Q vanish, found from the marks of
:func:`kacoh.rootdata.cartan_data` and deliberately not from the coset
computation of :mod:`kacoh.lattice`.  :func:`cross_check` closes the n-th
roots of a central element under the simple reflections, compares class
counts with the labeling pipeline, and maps each labeling class's
representative into its torus orbit, which must be a bijection.

The torus side runs in integers.  A torus point is an integer vector over
one denominator (:class:`TorusPoint`).  The reflection closure (the hot
loop, :mod:`kacoh._orbit`) builds no torus point at all: the n-th roots
are ``zeta + sum_j c_j h_j`` over the lattice basis ``h``, indexed by their
coefficients ``c`` mod n, and each simple reflection acts on those indices
through integer rows the lattice derives on first use, so a witness query
that runs no closure never builds them.  Each reflection's index
permutation of the fiber is built a whole column at a time, with one byte
per coefficient, so the closure takes ``n <= 256``.  A run is budgeted on
its ``n ** rank`` points: :func:`cross_check` and :func:`weyl_orbit_count`
refuse, with BudgetError and before any work, an n above 256, and they and
:func:`enumerate_roots_of_z` refuse more points than
``KACOH_ORACLE_MAX_POINTS`` (default :data:`MAX_POINTS`, 65,536).  The
closure gives the orbit number of every index and the size of every
orbit, and the lattice keeps it per ``n`` and central coweight mod ``n``.
A labeling representative is matched by solving its alcove point for its
coefficients (:meth:`CoweightLattice.root_index`), and its torus orbit is
read from the orbit numbers by index.  Only :func:`enumerate_roots_of_z` (and
:func:`weyl_orbit_count`, which regroups its points by orbit number) builds
the root points, reduced in the lattice's integer scaling by
:func:`kacoh.exactalg.reduce_mod_basis`, which walks only the nonzero
entries of the lattice basis (its :func:`kacoh.exactalg.triangular_form`);
the alcove points of witnesses are reduced the same way.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm, prod
from operator import add, mul

from ._orbit import MAX_N, orbit_partition
from .diagram import ExtendedDiagram
from .exactalg import (
    basis_coefficients,
    block_diag,
    grow,
    hermite_mod,
    mat_vec,
    mod_adder,
    reduce_mod_basis,
    triangular_form,
)
from .labelings import (
    KacLabeling,
    _env_int,
    congruence_classes,
    enumerate_Kn,
    filter_for_central,  # not called here: perfbench/spans.py wraps this attribute
    orbit_decompose,
)
from .lattice import CentralElement, GroupSpec, check_central, dual_subgroup, format_rational, spec_to_document
from .rootdata import BudgetError, InternalCheckError, LabelingError, cartan_data


@dataclass(frozen=True)
class TorusPoint:
    """A torus element as canonically reduced simple-coroot coordinates.

    The coordinates are the integers ``numerators`` over one ``denominator``,
    kept in lowest terms, so equal points compare equal whatever scaling
    they were built in.
    """

    numerators: tuple
    denominator: int = 1

    def __post_init__(self):
        g = gcd(self.denominator, *self.numerators)
        if g != 1:
            object.__setattr__(self, "numerators", tuple(x // g for x in self.numerators))
            object.__setattr__(self, "denominator", self.denominator // g)

    @property
    def coords(self) -> tuple:
        """The coordinates as Fractions."""
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @property
    def is_identity(self) -> bool:
        return not any(self.numerators)


# The default budget on the n**rank points of one run: the range of the
# closure's 2-byte orbit numbers.
MAX_POINTS = 1 << 16
_POINTS_VARIABLE = "KACOH_ORACLE_MAX_POINTS"


@cache
def _root_data(diagram: ExtendedDiagram) -> tuple:
    """``(cartan, scale, scaled_inverse, coweights, slot_coweights, classes)``
    of a root system, read by every coweight lattice of it.

    The block-diagonal Cartan matrix; ``scale``, the lcm of the
    denominators of its inverse; ``scale`` times that inverse and its
    columns, the scaled fundamental coweights; the coweight of each label
    slot, None at the extra vertices, whose labels do not enter; and the
    coweight classes modulo the coroots in tag order (per component none or
    a mark-1 vertex), each as the root indices of its tags, the identity's
    ``()`` first.  Built from :func:`kacoh.rootdata.cartan_data` alone, not
    from the coset data of :mod:`kacoh.lattice`, and kept for the life of
    the process per shared diagram, like K_n (:func:`kacoh.labelings._kn_table`).
    """
    blocks = [cartan_data(t) for t in diagram.components]
    # The inverse Cartan matrix of a block is adjugate / det; its entries
    # share the denominator det / gcd(det, adjugate entries).
    scale = lcm(
        *(d.det // gcd(d.det, *itertools.chain.from_iterable(d.adjugate)) for d in blocks)
    )
    scaled_inverse = block_diag(
        [[[x * scale // d.det for x in row] for row in d.adjugate] for d in blocks]
    )
    coweights = tuple(zip(*scaled_inverse))
    slots = [None] * diagram.num_vertices
    for slot, coweight in zip(diagram.pi_slots, coweights):
        slots[slot] = coweight
    offsets = itertools.accumulate((d.rank for d in blocks), initial=0)
    choices = [
        [()] + [(off + j,) for j, mark in enumerate(d.marks[:-1]) if mark == 1]
        for off, d in zip(offsets, blocks)
    ]
    classes = tuple(sum(tags, ()) for tags in itertools.product(*choices))
    cartan = block_diag([d.cartan for d in blocks])
    return cartan, scale, scaled_inverse, coweights, tuple(slots), classes


class CoweightLattice:
    """The cocharacter lattice of X inside the coweight lattice.

    Carries a triangular basis in coroot coordinates (columns, positive
    diagonal) supporting a canonical reduction into the half-open
    fundamental box and the solving of a point for its basis coefficients
    (:meth:`root_index`).  The basis is held in integers:
    ``hnf`` is ``scale`` times the basis, where ``scale`` is the lcm of the
    denominators of the inverse Cartan matrix, so every coweight has
    integer coordinates once multiplied by ``scale``.  Points are reduced in
    that scaling, times ``n`` for the n-th roots, against
    ``triangular``, the :func:`kacoh.exactalg.triangular_form` of ``hnf``.
    ``cartan``, ``scale`` and ``scaled_inverse`` depend on the components
    alone and are the objects of :func:`_root_data`, shared by every lattice
    of the root system.

    For the reflection closure it also derives, per simple root ``alpha_i``,
    the integer rows ``root_pairings[i][j] = <alpha_i, hnf_j / scale>`` and
    ``coroot_coefficients[i]``, the coefficients of ``alpha_i^vee`` in the
    basis (see :mod:`kacoh._orbit`).  Both are built on first use, so a
    query that only needs witnesses never builds them.

    What the closure derives from a central element is kept for the
    lattice's lifetime, which is the spec's (:func:`build_coweight_lattice`):
    the ``(t, zeta)`` of :meth:`_central` per central key; the
    reflection permutations per ``(n, i, a_i mod n)``, as lane bytes
    (``orbit_partition``'s ``store``); and the closures of
    :func:`_root_orbits` per ``(n, t mod n)``, each the orbit number of
    every point as an ``array`` of 2-byte entries up to 65,536 points and
    4-byte entries above, with the tuple of orbit sizes.  Since ``a_i`` is
    the coordinate ``t_i`` of a central coweight, a lattice holds per n at
    most ``rank * min(n, |Z|)`` permutations of ``n ** rank`` lanes and at
    most one closure per central key.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.rank = spec.total_rank
        (
            self.cartan,
            self.scale,
            self.scaled_inverse,
            coweights,
            self._slot_coweights,
            classes,
        ) = _root_data(spec.diagram())
        hnf = self._coroot_hermite(coweights, classes)
        for i, col in enumerate(hnf):
            if any(col[:i]) or col[i] <= 0:
                raise InternalCheckError("lattice basis is not triangular")
        self.hnf = tuple(hnf)
        self._box = self._coweight_box()
        self._centrals = {}     # central key -> (t, zeta)
        self._permutations = {}  # orbit_partition's store
        self._closures = {}     # (n, t mod n) -> (orbit numbers, orbit sizes)
        self._texts = {}        # denominator -> point_texts table

    @cached_property
    def triangular(self) -> tuple:
        return triangular_form(self.hnf)

    @cached_property
    def _reflection_rows(self) -> tuple:
        return _reflection_coefficients(self.cartan, self.hnf, self.scale, self.triangular)

    @property
    def root_pairings(self) -> tuple:
        return self._reflection_rows[0]

    @property
    def coroot_coefficients(self) -> tuple:
        return self._reflection_rows[1]

    def _alcove_vector(self, p: KacLabeling) -> list:
        """``n * scale`` times the alcove point of ``p``, unreduced.

        Only the nonzero labels are walked, each adding ``label`` times its
        slot's coweight.
        """
        x = [0] * self.rank
        for label, coweight in itertools.compress(zip(p.labels, self._slot_coweights), p.labels):
            if coweight is not None:
                if label != 1:
                    coweight = map(mul, coweight, itertools.repeat(label))
                x = list(map(add, x, coweight))
        return x

    def alcove_point(self, p: KacLabeling) -> TorusPoint:
        """The torus point of a labeling: its alcove point modulo the lattice.

        The alcove point is 1/n times the sum of the root-vertex labels
        against the fundamental coweights; the extra-vertex labels are
        determined by the others and do not enter.  It is built scaled by
        ``n * scale`` and reduced against ``n * hnf``.
        """
        x = self._alcove_vector(p)
        return TorusPoint(reduce_mod_basis(x, self.triangular, p.n), p.n * self.scale)

    def root_index(self, p: KacLabeling, zeta) -> int | None:
        """Position of the alcove point of ``p`` in :func:`enumerate_roots_of_z`.

        ``zeta`` is ``scale`` times the coroot coordinates of the central
        element's :meth:`central_coweight`.  The point is a root exactly
        when ``n * scale`` times it, minus ``zeta``, is an integer
        combination ``sum_j d_j hnf_j``; its position is then spelled by the
        digits ``d mod n``.  None when the point is no root.
        """
        diff = [x - y for x, y in zip(self._alcove_vector(p), zeta)]
        coefficients = basis_coefficients(diff, self.triangular)
        if coefficients is None:
            return None
        index = 0
        for d in coefficients:
            index = index * p.n + d % p.n
        return index

    def point_texts(self, point: TorusPoint) -> list:
        """``num/den`` of each coordinate of a reduced point, in lowest terms.

        Read from a table of the texts of ``0/d .. (d-1)/d``, built once per
        denominator ``d``: the reduced numerators lie in ``[0, d)``.
        """
        d = point.denominator
        texts = self._texts.get(d)
        if texts is None:
            texts = self._texts[d] = [f"{x // g}/{d // g}" for x in range(d) for g in [gcd(x, d)]]
        return list(map(texts.__getitem__, point.numerators))

    def central_coweight(self, z: CentralElement) -> tuple:
        """Integer coweight coordinates of a coweight realizing ``z``.

        The ``t`` of :meth:`_central` for the key that ``check_central``
        returns for ``z``; it rejects values that are not homomorphisms.
        """
        return self._central(check_central(self.spec, z))[0]

    def _central(self, key: tuple) -> tuple:
        """``(t, zeta)`` of central key ``key``, searched once per key.

        ``t`` holds the integer coweight coordinates of the first coweight,
        over the finitely many coweight classes modulo this lattice, whose
        sums ``row . t`` over the scaled generator rows are ``key`` mod
        ``modulus``; ``zeta`` is ``scale`` times its coroot coordinates."""
        found = self._centrals.get(key)
        if found is None:
            t = self._search_coweight(key)
            found = self._centrals[key] = (t, mat_vec(self.scaled_inverse, t))
        return found

    def _coroot_hermite(self, coweights, classes) -> list:
        """The scaled Hermite basis of X^vee, from the coroots and a few coweight classes.

        X^vee is spanned by the coroots, ``scale * e_i`` in this scaling,
        and the coweight classes whose pairings with the generators of X/Q
        vanish.  ``classes`` names each class by the root indices of its
        tags (:func:`_root_data`): its coweight is the sum of the scaled
        fundamental ``coweights`` there, and its pairings are the sums of
        the generator rows there.  The classes are tried by number of tags,
        then in tag order, until the basis spans as many classes as vanish,
        and a class is kept only when it enlarges the basis, so a cyclic
        X^vee / Q^vee costs one column (:func:`kacoh.exactalg.hermite_mod`)
        and a product whose single-tag classes vanish costs one per
        component.
        """
        modulus, rows, scale, rank = self.spec.den, self.spec.rows, self.scale, self.rank
        vanishing = sorted(
            (
                slots
                for slots in classes
                if not any(sum(row[s] for s in slots) % modulus for row in rows)
            ),
            key=len,
        )
        hnf = hermite_mod([], scale, rank)
        columns, spanned = [], 1
        for slots in vanishing[1:]:  # the first is the identity's
            if spanned == len(vanishing):
                break
            column = [sum(x) for x in zip(*(coweights[s] for s in slots))]
            grown = hermite_mod(columns + [column], scale, rank)
            order = prod(scale // col[i] for i, col in enumerate(grown))
            if order > spanned:
                columns.append(column)
                hnf, spanned = grown, order
        if spanned != len(vanishing):
            raise InternalCheckError("coweight classes do not span the cocharacter lattice")
        return hnf

    def _coweight_box(self) -> tuple:
        """Per coweight coordinate ``i``, the range of ``t_i`` in :meth:`_search_coweight`.

        The order of column ``i`` of the generator rows in ``(Z/m)^k``
        modulo the subgroup that the later columns generate, by which column
        ``i`` grows it (:func:`kacoh.exactalg.grow`), last column first.
        Every coweight class modulo X^vee has exactly one ``t`` in the box.
        """
        add = mod_adder(self.spec.den)
        spanned = {(0,) * len(self.spec.rows)}
        box = []
        for column in reversed(list(zip(*self.spec.rows)) or [()] * self.rank):
            grown = grow(spanned, column, add)
            box.append(len(grown) // len(spanned))
            spanned = grown
        return tuple(reversed(box))

    def _search_coweight(self, key: tuple) -> tuple:
        modulus, rows = self.spec.den, self.spec.rows
        free = [i for i, d in enumerate(self._box) if d > 1]
        checks = tuple(([row[i] for i in free], target) for row, target in zip(rows, key))
        for values in itertools.product(*(range(self._box[i]) for i in free)):
            if all(
                (sum(c * v for c, v in zip(row, values)) - target) % modulus == 0
                for row, target in checks
            ):
                t = [0] * self.rank
                for i, v in zip(free, values):
                    t[i] = v
                return tuple(t)
        raise InternalCheckError("central element has no representative coweight")


def _reflection_coefficients(cartan, hnf, scale, triangular=None) -> tuple:
    """``(w, v)`` of the reflection closure on the lattice basis ``hnf / scale``.

    ``w[i][j] = <alpha_i, hnf_j> / scale`` pairs each simple root with each
    basis vector and ``v[i]`` holds the coefficients of the coroot
    ``alpha_i^vee`` (``scale`` times the i-th unit vector) in ``hnf``.  Both
    are integral exactly when the lattice sits between the coroots and the
    coweights; a division that is not exact raises InternalCheckError.
    Both walk the nonzero entries of ``hnf`` only, as its
    :func:`kacoh.exactalg.triangular_form` (``triangular``, when the caller
    holds it): a pairing adds, per nonzero entry ``hnf_j[k]``, the nonzero
    entries of Cartan column ``k``.
    """
    rank = len(cartan)
    if triangular is None:
        triangular = triangular_form(hnf)
    v = []
    for i in range(rank):
        coroot = [0] * rank
        coroot[i] = scale
        coefficients = basis_coefficients(coroot, triangular)
        if coefficients is None:
            raise InternalCheckError("coroot lattice not contained in basis")
        v.append(coefficients)
    columns = [[(i, a) for i, a in enumerate(col) if a] for col in zip(*cartan)]
    pairings = []
    for j, (pivot, below) in enumerate(triangular):
        col = [0] * rank
        for k, x in itertools.chain([(j, pivot)], below):
            for i, a in columns[k]:
                col[i] += a * x
        if any(x % scale for x in col):
            raise InternalCheckError("basis vector outside the coweights")
        pairings.append([x // scale for x in col])
    w = tuple(zip(*pairings))
    return w, tuple(v)


def build_coweight_lattice(spec: GroupSpec) -> CoweightLattice:
    """The spec's lattice, built on first use and shared afterwards."""
    return spec.derived(CoweightLattice)


def enumerate_roots_of_z(lattice: CoweightLattice, z: CentralElement, n: int) -> list:
    """All torus points whose n-th power is the central element.

    These are (zeta + mu)/n with mu running over lattice representatives
    modulo n; there are exactly n**rank of them.  They are built in
    integers scaled by ``n * lattice.scale``, where the lattice is spanned by
    ``n * lattice.hnf``, with mu's coefficients in ``itertools.product``
    order: point k is ``zeta + sum_j c_j hnf_j`` for the digits ``c`` of k
    in base n, the first column most significant; ``zeta`` is the scaled
    :meth:`CoweightLattice.central_coweight` of ``z``.  More points than
    ``KACOH_ORACLE_MAX_POINTS`` (:func:`_check_point_budget`) are refused
    with BudgetError before any is built.
    """
    if n < 1:
        raise LabelingError(f"n must be positive, got {n}")
    _check_point_budget(lattice.rank, n)
    points = [mat_vec(lattice.scaled_inverse, lattice.central_coweight(z))]
    for col in lattice.hnf:
        points = [
            tuple(a + c * b for a, b in zip(pt, col))
            for pt in points
            for c in range(n)
        ]
    reduced = [reduce_mod_basis(pt, lattice.triangular, n) for pt in points]
    if len(set(reduced)) != len(reduced):
        raise InternalCheckError("duplicate root of the central element")
    denominator = n * lattice.scale
    return [TorusPoint(pt, denominator) for pt in reduced]


def _check_points(rank: int, n: int) -> None:
    """Refuse a run of the torus closure before any of its work.

    The closure holds one byte per coefficient, so an ``n`` above
    :data:`kacoh._orbit.MAX_N` is refused whatever the budget; then the
    points are budgeted by :func:`_check_point_budget`.
    """
    if n > MAX_N:
        raise BudgetError(
            f"refusing brute-force run: n {n} exceeds the torus closure's cap of {MAX_N}"
        )
    _check_point_budget(rank, n)


def _check_point_budget(rank: int, n: int) -> None:
    """Refuse ``n ** rank`` points above ``KACOH_ORACLE_MAX_POINTS``
    (default :data:`MAX_POINTS`).  An ``n`` below 1 is left to the callee
    that rejects it."""
    budget = _env_int(_POINTS_VARIABLE, MAX_POINTS)
    if n > 0 and n ** rank > budget:
        raise BudgetError(
            f"refusing brute-force run: rank {rank}, n {n} would enumerate {n ** rank} "
            f"torus points, above the budget of {budget} ({_POINTS_VARIABLE})"
        )


def _root_orbits(lattice: CoweightLattice, t, n: int) -> tuple:
    """Weyl orbits on the n-th roots of the central element of coweight ``t``.

    Closure under the simple reflections, run on the roots' lattice
    coefficients mod n (:func:`kacoh._orbit.orbit_partition`); the group
    itself is never enumerated.  Returns ``(numbers, sizes)``: the orbit
    number of each position in :func:`enumerate_roots_of_z`, as an
    ``array``, and the tuple of orbit sizes, the orbits ordered by their
    smallest member.  The partition depends only on the lattice, ``n`` and
    ``t mod n``, so the lattice keeps it under ``(n, t mod n)`` and runs
    the closure once per key.  Callers run :func:`_check_points` first.
    """
    key = (n, tuple([a % n for a in t]))
    closure = lattice._closures.get(key)
    if closure is None:
        size = n ** lattice.rank
        reflections = list(zip(t, lattice.root_pairings, lattice.coroot_coefficients))
        numbers = []
        sizes = orbit_partition(range(size), reflections, n, lattice._permutations, numbers)
        closure = lattice._closures[key] = (
            array("H" if size <= 1 << 16 else "I", numbers),
            tuple(sizes),
        )
    return closure


def weyl_orbit_count(lattice: CoweightLattice, z: CentralElement, n: int) -> list:
    """Orbits of the Weyl group on the n-th roots of a central element.

    Returns orbits as tuples of the TorusPoints of
    :func:`enumerate_roots_of_z`, in their order there, the orbits ordered
    by first appearance; the points are regrouped by the orbit numbers of
    :func:`_root_orbits`.  A run :func:`_check_points` refuses is refused
    before any root is built.
    """
    _check_points(lattice.rank, n)
    t = lattice.central_coweight(z)
    points = enumerate_roots_of_z(lattice, z, n)
    numbers, sizes = _root_orbits(lattice, t, n)
    orbits = [[] for _ in sizes]
    for point, number in zip(points, numbers):
        orbits[number].append(point)
    return [tuple(orbit) for orbit in orbits]


@dataclass(frozen=True)
class CheckReport:
    spec: GroupSpec
    z: CentralElement
    n: int
    kac_class_count: int
    torus_class_count: int
    kac_orbit_sizes: tuple
    torus_orbit_sizes: tuple
    matching: tuple         # per labeling class, index of its torus orbit
    ok: bool
    failure: str | None = None

    def as_document(self) -> dict:
        return {
            "spec": spec_to_document(self.spec),
            "z": [format_rational(v) for v in self.z.values],
            "n": self.n,
            "kac_class_count": self.kac_class_count,
            "torus_class_count": self.torus_class_count,
            "kac_orbit_sizes": list(self.kac_orbit_sizes),
            "torus_orbit_sizes": list(self.torus_orbit_sizes),
            "matching": list(self.matching),
            "ok": self.ok,
            "failure": self.failure,
        }


def cross_check(spec: GroupSpec, z: CentralElement, n: int) -> CheckReport:
    """Compare the labeling pipeline against the torus brute force.

    Both sides classify the n-th roots of z.  Beyond equal counts, the
    labeling representatives are mapped through their alcove points into the
    torus orbits and that assignment must be a bijection of orbit sets; the
    first class that fails is identified in the report.  A run
    :func:`_check_points` refuses is refused before K_n is enumerated.
    """
    _check_points(spec.total_rank, n)

    # The labeling side is the class-table lookup of nth_root_classes.  The
    # bucket of ``key`` is keyed by the enumeration already, so it is
    # classified as it is; the table checks that the orbits cover it.
    key = check_central(spec, z)
    kac_orbits = congruence_classes(
        spec,
        n,
        key,
        lambda bucket: orbit_decompose(bucket, dual_subgroup(spec)),
        enumerate_Kn,
    )

    lattice = build_coweight_lattice(spec)
    t, zeta = lattice._central(key)
    orbit_of, torus_sizes = _root_orbits(lattice, t, n)

    kac_sizes = tuple(len(o.members) for o in kac_orbits)

    matching = []
    failure = None
    used = {}
    for ci, orbit in enumerate(kac_orbits):
        index = lattice.root_index(orbit.representative, zeta)
        if index is None:
            failure = (
                f"class {ci} (representative {orbit.representative.labels}) "
                "maps outside the root set"
            )
            break
        target = orbit_of[index]
        if target in used:
            failure = (
                f"classes {used[target]} and {ci} both map to torus orbit "
                f"{target}; matching is not injective"
            )
            break
        used[target] = ci
        matching.append(target)
    if failure is None and len(kac_orbits) != len(torus_sizes):
        failure = (
            f"class counts differ: {len(kac_orbits)} labeling classes, "
            f"{len(torus_sizes)} torus classes"
        )

    return CheckReport(
        spec=spec,
        z=z,
        n=n,
        kac_class_count=len(kac_orbits),
        torus_class_count=len(torus_sizes),
        kac_orbit_sizes=kac_sizes,
        torus_orbit_sizes=torus_sizes,
        matching=tuple(matching),
        ok=failure is None,
        failure=failure,
    )

