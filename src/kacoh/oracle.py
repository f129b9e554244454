"""Brute-force torus-side verifier for the labeling pipeline.

The torus is the rational span of the coroots modulo the cocharacter
lattice of X.  This module realizes that lattice concretely from the
annihilator condition (by integer linear algebra on the congruence system,
deliberately not reusing the coset computation of :mod:`kacoh.lattice`),
enumerates the n-th roots of a central element exactly, closes them under
the simple reflections, and compares class counts and representatives with
the labeling pipeline point by point.

The torus side runs in integers.  A torus point is an integer vector over
one denominator (:class:`TorusPoint`); the lattice basis, the root points and
the alcove points of labelings are reduced in the lattice's integer scaling
by :func:`kacoh.exactalg.reduce_mod_basis`.  The reflection closure (the hot
loop, :mod:`kacoh._orbit`) builds no torus point at all: the n-th roots are
``zeta + sum_j c_j h_j`` over the lattice basis ``h``, indexed by their
coefficients ``c`` mod n, and each simple reflection acts on those indices
through integer rows the lattice computes once.  A labeling representative
is matched by solving its alcove point for its coefficients.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ._orbit import orbit_partition
from .exactalg import (
    basis_coefficients,
    block_diag,
    column_style_hermite,
    congruence_lattice,
    mat_vec,
    reduce_mod_basis,
)
from .labelings import (
    KacLabeling,
    central_key,
    congruence_classes,
    enumerate_Kn,
    filter_for_central,
    orbit_decompose,
)
from .lattice import CentralElement, GroupSpec, check_central, dual_subgroup, generator_rows, spec_to_document
from .rootdata import BudgetError, InternalCheckError, SpecError, cartan_data


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


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise BudgetError(f"{name} must be an integer, got {text!r}") from None


class CoweightLattice:
    """The cocharacter lattice of X inside the coweight lattice.

    Carries a triangular basis in coroot coordinates (columns, positive
    diagonal) supporting exact membership tests and a canonical reduction
    into the half-open fundamental box.  The basis is held in integers:
    ``hnf`` is ``scale`` times the basis, where ``scale`` is the lcm of the
    denominators of the inverse Cartan matrix, so every coweight has
    integer coordinates once multiplied by ``scale``.  Points are reduced in
    that scaling, times a factor where their denominators need one.

    For the reflection closure it also keeps, per simple root ``alpha_i``,
    the integer rows ``root_pairings[i][j] = <alpha_i, hnf_j / scale>`` and
    ``coroot_coefficients[i]``, the coefficients of ``alpha_i^vee`` in the
    basis (see :mod:`kacoh._orbit`).
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        rank = spec.total_rank
        self.rank = rank
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

        # {t integer : sum_j c_j t_j in Z for all generators c}, in the
        # coordinates of the coweight basis.
        self._modulus, self._rows = generator_rows(spec)
        tbasis = congruence_lattice(self._rows, self._modulus, rank)
        self.coweight_basis = tuple(tbasis)  # columns, coweight coordinates

        hnf = column_style_hermite([mat_vec(self.scaled_inverse, t) for t in tbasis])
        if len(hnf) != rank:
            raise InternalCheckError("cocharacter lattice is not full rank")
        for i, col in enumerate(hnf):
            if any(col[k] != 0 for k in range(i)) or col[i] <= 0:
                raise InternalCheckError("lattice basis is not triangular")
        self.hnf = tuple(hnf)
        self.root_pairings, self.coroot_coefficients = _reflection_coefficients(
            self.cartan, self.hnf, scale
        )

    def _scaled_hnf(self, factor: int) -> tuple:
        """The basis at ``factor * scale``: the columns of ``factor * hnf``."""
        return tuple(tuple(factor * x for x in col) for col in self.hnf)

    def canonical_point(self, coords) -> TorusPoint:
        """The reduced point of rational simple-coroot coordinates."""
        denominator = lcm(self.scale, *(x.denominator for x in coords))
        scaled = [x.numerator * (denominator // x.denominator) for x in coords]
        box = self._scaled_hnf(denominator // self.scale)
        return TorusPoint(reduce_mod_basis(scaled, box), denominator)

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
        return TorusPoint(reduce_mod_basis(x, self._scaled_hnf(p.n)), p.n * self.scale)

    def root_index(self, p: KacLabeling, zeta) -> int | None:
        """Position of the alcove point of ``p`` in :func:`enumerate_roots_of_z`.

        ``zeta`` is ``scale`` times the coroot coordinates of the central
        element's :meth:`central_coweight`.  The point is a root exactly
        when ``n * scale`` times it, minus ``zeta``, is an integer
        combination ``sum_j d_j hnf_j``; its position is then spelled by the
        digits ``d mod n``.  None when the point is no root.
        """
        diff = [x - y for x, y in zip(self._alcove_vector(p), zeta)]
        coefficients = basis_coefficients(diff, self.hnf)
        if coefficients is None:
            return None
        index = 0
        for d in coefficients:
            index = index * p.n + d % p.n
        return index

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

        Searched over the finitely many coweight classes modulo this
        lattice, for the first ``t`` with ``row . t == value * modulus``
        (mod ``modulus``) on every scaled generator row; rejects value
        tuples that are not homomorphisms.
        """
        check_central(self.spec, z)
        modulus = self._modulus
        targets = [v * modulus for v in z.values]
        if all(x.denominator == 1 for x in targets):
            checks = tuple(zip(self._rows, (int(x) for x in targets)))
            diag = [int(col[i]) for i, col in enumerate(self.coweight_basis)]
            for t in itertools.product(*(range(d) for d in diag)):
                if all(
                    (sum(c * ti for c, ti in zip(row, t)) - target) % modulus == 0
                    for row, target in checks
                ):
                    return t
        raise SpecError("central element has no representative coweight")

    def central_representative(self, z: CentralElement) -> tuple:
        """The coweight of :meth:`central_coweight` in coroot coordinates."""
        t = self.central_coweight(z)
        return tuple(Fraction(x, self.scale) for x in mat_vec(self.scaled_inverse, t))


def _reflection_coefficients(cartan, hnf, scale) -> tuple:
    """``(w, v)`` of the reflection closure on the lattice basis ``hnf / scale``.

    ``w[i][j] = <alpha_i, hnf_j> / scale`` pairs each simple root with each
    basis vector and ``v[i]`` holds the coefficients of the coroot
    ``alpha_i^vee`` (``scale`` times the i-th unit vector) in ``hnf``.  Both
    are integral exactly when the lattice sits between the coroots and the
    coweights; a division that is not exact raises InternalCheckError.
    """
    rank = len(cartan)
    v = []
    for i in range(rank):
        coefficients = basis_coefficients([scale * int(k == i) for k in range(rank)], hnf)
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


def enumerate_roots_of_z(lattice: CoweightLattice, z: CentralElement, n: int) -> list:
    """All torus points whose n-th power is the central element.

    These are (zeta + mu)/n with mu running over lattice representatives
    modulo n; there are exactly n**rank of them.  They are built in
    integers scaled by ``n * lattice.scale``, where the lattice is spanned by
    ``n * lattice.hnf``, with mu's coefficients in ``itertools.product``
    order: point k is ``zeta + sum_j c_j hnf_j`` for the digits ``c`` of k
    in base n, the first column most significant.
    """
    points = [mat_vec(lattice.scaled_inverse, lattice.central_coweight(z))]
    for col in lattice.hnf:
        points = [
            tuple(a + c * b for a, b in zip(pt, col))
            for pt in points
            for c in range(n)
        ]
    box = lattice._scaled_hnf(n)
    reduced = [reduce_mod_basis(pt, box) for pt in points]
    if len(set(reduced)) != len(reduced):
        raise InternalCheckError("duplicate root of the central element")
    denominator = n * lattice.scale
    return [TorusPoint(pt, denominator) for pt in reduced]


def _root_orbits(lattice: CoweightLattice, t, n: int) -> list:
    """Weyl orbits on the n-th roots of the central element of coweight ``t``.

    Closure under the simple reflections, run on the roots' lattice
    coefficients mod n (:func:`kacoh._orbit.orbit_partition`); the group
    itself is never enumerated.  Orbits are sorted lists of positions in
    :func:`enumerate_roots_of_z`, ordered by their smallest member.
    """
    reflections = list(zip(t, lattice.root_pairings, lattice.coroot_coefficients))
    return orbit_partition(range(n ** lattice.rank), reflections, n)


def weyl_orbit_count(lattice: CoweightLattice, z: CentralElement, n: int) -> list:
    """Orbits of the Weyl group on the n-th roots of a central element.

    Returns orbits as tuples of the TorusPoints of
    :func:`enumerate_roots_of_z`, ordered by first appearance there.
    """
    points = enumerate_roots_of_z(lattice, z, n)
    partition = _root_orbits(lattice, lattice.central_coweight(z), n)
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
            "z": [f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in self.z.values],
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

    # The labeling side is the class-table lookup of nth_root_classes.
    diagram = spec.diagram()
    kac_orbits = congruence_classes(
        spec,
        n,
        central_key(spec, z),
        lambda all_n: orbit_decompose(
            filter_for_central(all_n, spec, z, diagram), dual_subgroup(spec)
        ),
        enumerate_Kn,
    )

    lattice = build_coweight_lattice(spec)
    t = lattice.central_coweight(z)
    torus_partition = _root_orbits(lattice, t, n)
    orbit_of = {}
    for oi, orbit in enumerate(torus_partition):
        orbit_of.update(dict.fromkeys(orbit, oi))
    zeta = mat_vec(lattice.scaled_inverse, t)

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
        target = orbit_of[index]
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
