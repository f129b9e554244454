"""Brute-force torus-side verifier for the labeling pipeline.

The torus is the rational span of the coroots modulo the cocharacter
lattice of X.  This module realizes that lattice concretely from the
annihilator condition: the coroots and the coweight classes whose pairings
with the generator rows of X/Q vanish, found from the marks of
:func:`kacoh.rootdata.cartan_data` and deliberately not from the coset
computation of :mod:`kacoh.lattice`.  It then enumerates the n-th roots of a central element exactly, closes them under
the simple reflections, and compares class counts and representatives with
the labeling pipeline point by point.

The torus side runs in integers.  A torus point is an integer vector over
one denominator (:class:`TorusPoint`); the root points and the alcove points
of labelings are reduced in the lattice's integer scaling by
:func:`kacoh.exactalg.reduce_mod_basis`, which walks only the nonzero entries
of the lattice basis (its :func:`kacoh.exactalg.triangular_form`).  The
reflection closure (the hot loop, :mod:`kacoh._orbit`) builds no torus point
at all: the n-th roots are ``zeta + sum_j c_j h_j`` over the lattice basis
``h``, indexed by their coefficients ``c`` mod n, and each simple reflection
acts on those indices through integer rows the lattice derives on first use,
so a witness query that runs no closure never builds them.  Each
reflection's index permutation of the fiber is built a whole column at a
time, with one byte per coefficient, so the closure takes ``n <= 256`` and
refuses a larger n with BudgetError whatever the budget.  A labeling
representative is matched by solving its alcove point for its
coefficients.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from ._orbit import MAX_N, orbit_partition
from .exactalg import (
    basis_coefficients,
    block_diag,
    hermite_mod,
    mat_vec,
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
from .lattice import CentralElement, GroupSpec, check_central, dual_subgroup, format_rational, generator_rows, spec_to_document
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


@dataclass(frozen=True)
class Budget:
    """Size guard for brute-force runs; the point count grows as n**rank."""

    max_rank: int = 7
    max_n: int = 3

    @classmethod
    def from_env(cls) -> "Budget":
        return cls(
            max_rank=_env_int("KACOH_ORACLE_MAX_RANK", cls.max_rank),
            max_n=_env_int("KACOH_ORACLE_MAX_N", cls.max_n),
        )


class CoweightLattice:
    """The cocharacter lattice of X inside the coweight lattice.

    Carries a triangular basis in coroot coordinates (columns, positive
    diagonal) supporting exact membership tests and a canonical reduction
    into the half-open fundamental box.  The basis is held in integers:
    ``hnf`` is ``scale`` times the basis, where ``scale`` is the lcm of the
    denominators of the inverse Cartan matrix, so every coweight has
    integer coordinates once multiplied by ``scale``.  Points are reduced in
    that scaling, times a factor where their denominators need one, against
    ``triangular``, the :func:`kacoh.exactalg.triangular_form` of ``hnf``.

    For the reflection closure it also derives, per simple root ``alpha_i``,
    the integer rows ``root_pairings[i][j] = <alpha_i, hnf_j / scale>`` and
    ``coroot_coefficients[i]``, the coefficients of ``alpha_i^vee`` in the
    basis (see :mod:`kacoh._orbit`).  Both are built on first use, so a
    query that only needs witnesses never builds them.

    What the closure derives from a central element is kept for the
    lattice's lifetime: the :meth:`key_coweight` of each central key with
    its ``zeta``, and the reflection permutations per ``(n, i, a_i mod n)``,
    as lane bytes (``orbit_partition``'s ``store``).  Since ``a_i`` is a
    coordinate of a central coweight, a lattice holds per n at most
    ``rank * min(n, |Z|)`` permutations of ``n ** rank`` lanes.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.rank = spec.total_rank
        blocks = [cartan_data(t) for t in spec.components]
        self.cartan = block_diag([d.cartan for d in blocks])
        # The inverse Cartan matrix of a block is adjugate / det; its entries
        # share the denominator det / gcd(det, adjugate entries).
        scale = lcm(
            *(d.det // gcd(d.det, *itertools.chain.from_iterable(d.adjugate)) for d in blocks)
        )
        self.scale = scale
        self.scaled_inverse = block_diag(
            [[[x * scale // d.det for x in row] for row in d.adjugate] for d in blocks]
        )
        # (label slot, scale * fundamental coweight) per simple coroot.
        self._coweights = tuple(zip(spec.diagram().pi_slots(), zip(*self.scaled_inverse)))

        self._modulus, self._rows = generator_rows(spec)
        hnf = self._coroot_hermite(blocks)
        for i, col in enumerate(hnf):
            if any(col[:i]) or col[i] <= 0:
                raise InternalCheckError("lattice basis is not triangular")
        self.hnf = tuple(hnf)
        self._box = self._coweight_box()
        self._centrals = {}     # central key -> (t, zeta)
        self._permutations = {}  # orbit_partition's store
        self._texts = {}        # denominator -> point_texts table

    @cached_property
    def triangular(self) -> tuple:
        return triangular_form(self.hnf)

    @cached_property
    def _reflection_rows(self) -> tuple:
        return _reflection_coefficients(self.cartan, self.hnf, self.scale)

    @property
    def root_pairings(self) -> tuple:
        return self._reflection_rows[0]

    @property
    def coroot_coefficients(self) -> tuple:
        return self._reflection_rows[1]

    def canonical_point(self, coords) -> TorusPoint:
        """The reduced point of rational simple-coroot coordinates."""
        denominator = lcm(self.scale, *(x.denominator for x in coords))
        scaled = [x.numerator * (denominator // x.denominator) for x in coords]
        return TorusPoint(
            reduce_mod_basis(scaled, self.triangular, denominator // self.scale), denominator
        )

    def canonicalize(self, coords) -> tuple:
        return self.canonical_point(coords).coords

    def contains(self, coords) -> bool:
        return self.canonical_point(coords).is_identity

    def _alcove_vector(self, p: KacLabeling) -> list:
        """``n * scale`` times the alcove point of ``p``, unreduced."""
        x = [0] * self.rank
        for slot, coweight in self._coweights:
            label = p.labels[slot]
            if label:
                x = [a + label * b for a, b in zip(x, coweight)]
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

    def index_over_coroots(self) -> int:
        covolume = 1
        for i, col in enumerate(self.hnf):
            covolume *= col[i]
        index, rem = divmod(self.scale ** self.rank, covolume)
        if rem:
            raise InternalCheckError("non-integral lattice index")
        return index

    def central_coweight(self, z: CentralElement) -> tuple:
        """Integer coweight coordinates of a coweight realizing ``z``.

        The :meth:`key_coweight` of the key that ``check_central`` returns
        for ``z``; it rejects values that are not homomorphisms.
        """
        return self.key_coweight(check_central(self.spec, z))

    def key_coweight(self, key: tuple) -> tuple:
        """Integer coweight coordinates of a coweight of central key ``key``.

        Searched over the finitely many coweight classes modulo this
        lattice, for the first ``t`` whose sums ``row . t`` over the scaled
        generator rows are ``key`` mod ``modulus``; once per key.
        """
        return self._central(key)[0]

    def _central(self, key: tuple) -> tuple:
        """``(t, zeta)``: the :meth:`key_coweight` ``t`` of ``key`` and
        ``zeta``, ``scale`` times its coroot coordinates."""
        found = self._centrals.get(key)
        if found is None:
            t = self._search_coweight(key)
            found = self._centrals[key] = (t, mat_vec(self.scaled_inverse, t))
        return found

    def _coroot_hermite(self, blocks) -> list:
        """The scaled Hermite basis of X^vee, from the coroots and a few coweight classes.

        X^vee is spanned by the coroots, ``scale * e_i`` in this scaling,
        and the coweight classes whose pairings with the generators of X/Q
        vanish.  A class is named by its tags (per component none or a
        mark-1 vertex), its coweight is the sum of the tagged fundamental
        coweights, and its pairings are the sums of the generator rows at
        the tags.  The classes are tried in tag order until the basis spans
        as many classes as vanish, and a class is kept only when it enlarges
        the basis, so a cyclic X^vee / Q^vee costs one column
        (:func:`kacoh.exactalg.hermite_mod`).
        """
        modulus, rows, scale, rank = self._modulus, self._rows, self.scale, self.rank
        offsets = itertools.accumulate((d.rank for d in blocks), initial=0)
        choices = [
            [None] + [off + j for j, mark in enumerate(d.marks[:-1]) if mark == 1]
            for off, d in zip(offsets, blocks)
        ]
        classes = [
            slots
            for tags in itertools.product(*choices)
            for slots in [[s for s in tags if s is not None]]
            if not any(sum(row[s] for s in slots) % modulus for row in rows)
        ]
        hnf = hermite_mod([], scale, rank)
        columns, spanned = [], 1
        for slots in classes[1:]:  # the first is the identity's
            if spanned == len(classes):
                break
            column = [sum(x) for x in zip(*(self._coweights[s][1] for s in slots))]
            grown = hermite_mod(columns + [column], scale, rank)
            order = prod(scale // col[i] for i, col in enumerate(grown))
            if order > spanned:
                columns.append(column)
                hnf, spanned = grown, order
        if spanned != len(classes):
            raise InternalCheckError("coweight classes do not span the cocharacter lattice")
        return hnf

    def _coweight_box(self) -> tuple:
        """Per coweight coordinate ``i``, the range of ``t_i`` in :meth:`_search_coweight`.

        The order of column ``i`` of the generator rows in ``(Z/m)^k``
        modulo the subgroup that the later columns generate, found from the
        last column to the first.  Every coweight class modulo X^vee has
        exactly one ``t`` in the box.
        """
        modulus, rows = self._modulus, self._rows
        zero = (0,) * len(rows)
        spanned = {zero}
        box = []
        for column in reversed(list(zip(*rows)) or [zero] * self.rank):
            order, multiple = 1, column
            while multiple not in spanned:
                order += 1
                multiple = tuple([(a + b) % modulus for a, b in zip(multiple, column)])
            if order > 1:
                spanned = {
                    tuple([(a + k * b) % modulus for a, b in zip(v, column)])
                    for v in spanned
                    for k in range(order)
                }
            box.append(order)
        return tuple(reversed(box))

    def _search_coweight(self, key: tuple) -> tuple:
        modulus = self._modulus
        free = [i for i, d in enumerate(self._box) if d > 1]
        checks = tuple(([row[i] for i in free], target) for row, target in zip(self._rows, key))
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

    def central_representative(self, z: CentralElement) -> tuple:
        """The coweight of :meth:`central_coweight` in coroot coordinates."""
        zeta = self._central(check_central(self.spec, z))[1]
        return tuple(Fraction(x, self.scale) for x in zeta)


def _reflection_coefficients(cartan, hnf, scale) -> tuple:
    """``(w, v)`` of the reflection closure on the lattice basis ``hnf / scale``.

    ``w[i][j] = <alpha_i, hnf_j> / scale`` pairs each simple root with each
    basis vector and ``v[i]`` holds the coefficients of the coroot
    ``alpha_i^vee`` (``scale`` times the i-th unit vector) in ``hnf``.  Both
    are integral exactly when the lattice sits between the coroots and the
    coweights; a division that is not exact raises InternalCheckError.
    """
    rank = len(cartan)
    triangular = triangular_form(hnf)
    v = []
    for i in range(rank):
        coefficients = basis_coefficients([scale * int(k == i) for k in range(rank)], triangular)
        if coefficients is None:
            raise InternalCheckError("coroot lattice not contained in basis")
        v.append(coefficients)
    pairings = [mat_vec(cartan, col) for col in hnf]
    if any(x % scale for col in pairings for x in col):
        raise InternalCheckError("basis vector outside the coweights")
    w = tuple(tuple(col[i] // scale for col in pairings) for i in range(rank))
    return w, tuple(v)


def build_coweight_lattice(spec: GroupSpec) -> CoweightLattice:
    """The spec's lattice, built on first use and shared afterwards."""
    return spec.derived(CoweightLattice)


def _check_n(n: int) -> None:
    if n < 1:
        raise LabelingError(f"n must be positive, got {n}")


def enumerate_roots_of_z(lattice: CoweightLattice, z: CentralElement, n: int, t=None) -> list:
    """All torus points whose n-th power is the central element.

    These are (zeta + mu)/n with mu running over lattice representatives
    modulo n; there are exactly n**rank of them.  They are built in
    integers scaled by ``n * lattice.scale``, where the lattice is spanned by
    ``n * lattice.hnf``, with mu's coefficients in ``itertools.product``
    order: point k is ``zeta + sum_j c_j hnf_j`` for the digits ``c`` of k
    in base n, the first column most significant.  ``t`` is the
    :meth:`CoweightLattice.central_coweight` of ``z``, searched for when
    not given.
    """
    _check_n(n)
    if t is None:
        t = lattice.central_coweight(z)
    points = [mat_vec(lattice.scaled_inverse, t)]
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


def _refuse_above_cap(n: int) -> None:
    if n > MAX_N:
        raise BudgetError(
            f"refusing brute-force run: n {n} exceeds the torus closure's cap of {MAX_N}"
        )


def _root_orbits(lattice: CoweightLattice, t, n: int) -> list:
    """Weyl orbits on the n-th roots of the central element of coweight ``t``.

    Closure under the simple reflections, run on the roots' lattice
    coefficients mod n (:func:`kacoh._orbit.orbit_partition`); the group
    itself is never enumerated.  Orbits are sorted lists of positions in
    :func:`enumerate_roots_of_z`, ordered by their smallest member.  The
    closure holds one byte per coefficient, so ``n`` above
    :data:`kacoh._orbit.MAX_N` raises BudgetError whatever the budget.
    """
    _refuse_above_cap(n)
    reflections = list(zip(t, lattice.root_pairings, lattice.coroot_coefficients))
    return orbit_partition(range(n ** lattice.rank), reflections, n, lattice._permutations)


def weyl_orbit_count(lattice: CoweightLattice, z: CentralElement, n: int) -> list:
    """Orbits of the Weyl group on the n-th roots of a central element.

    Returns orbits as tuples of the TorusPoints of
    :func:`enumerate_roots_of_z`, ordered by first appearance there.
    """
    _check_n(n)
    _refuse_above_cap(n)
    t = lattice.central_coweight(z)
    points = enumerate_roots_of_z(lattice, z, n, t)
    partition = _root_orbits(lattice, t, n)
    return [tuple(points[k] for k in orbit) for orbit in partition]


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


def cross_check(
    spec: GroupSpec,
    z: CentralElement,
    n: int,
    budget: Budget | None = None,
) -> CheckReport:
    """Compare the labeling pipeline against the torus brute force.

    Both sides classify the n-th roots of z.  Beyond equal counts, the
    labeling representatives are mapped through their alcove points into the
    torus orbits and that assignment must be a bijection of orbit sets; the
    first class that fails is identified in the report.
    """
    budget = budget if budget is not None else Budget.from_env()
    rank = spec.total_rank
    if rank > budget.max_rank or n > budget.max_n:
        raise BudgetError(
            f"refusing brute-force run: rank {rank}, n {n} exceeds budget "
            f"(max_rank {budget.max_rank}, max_n {budget.max_n}); "
            f"this run would enumerate {n ** rank} torus points"
        )

    _refuse_above_cap(n)

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
    torus_partition = _root_orbits(lattice, t, n)

    kac_sizes = tuple(len(o.members) for o in kac_orbits)
    torus_sizes = tuple(len(o) for o in torus_partition)

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
        target = _orbit_containing(torus_partition, index)
        if target in used:
            failure = (
                f"classes {used[target]} and {ci} both map to torus orbit "
                f"{target}; matching is not injective"
            )
            break
        used[target] = ci
        matching.append(target)
    if failure is None and len(kac_orbits) != len(torus_partition):
        failure = (
            f"class counts differ: {len(kac_orbits)} labeling classes, "
            f"{len(torus_partition)} torus classes"
        )

    return CheckReport(
        spec=spec,
        z=z,
        n=n,
        kac_class_count=len(kac_orbits),
        torus_class_count=len(torus_partition),
        kac_orbit_sizes=kac_sizes,
        torus_orbit_sizes=torus_sizes,
        matching=tuple(matching),
        ok=failure is None,
        failure=failure,
    )


def _orbit_containing(partition: list, k: int) -> int:
    """Position in ``partition`` (sorted orbits, by smallest member) of the orbit of ``k``."""
    for oi, orbit in enumerate(partition):
        if orbit[0] > k:
            break
        j = bisect_left(orbit, k)
        if j < len(orbit) and orbit[j] == k:
            return oi
    raise InternalCheckError(f"root {k} lies in no torus orbit")
