import itertools
import math
import random
from fractions import Fraction as F

import pytest

from conftest import simple_types
from kacoh.lattice import (
    CentralElement,
    all_intermediate_specs,
    enumerate_center,
    preset_spec,
    trivial_central,
    validate_spec,
)
from kacoh.oracle import (
    Budget,
    build_coweight_lattice,
    cross_check,
    enumerate_roots_of_z,
    weyl_orbit_count,
)
from kacoh.rootdata import BudgetError, InternalCheckError, SimpleType, SpecError


def test_lattice_bases_a1():
    # The basis is hnf / scale: the coroot lattice for sc, half of it for ad.
    sc = build_coweight_lattice(preset_spec("sc:A1"))
    assert (sc.hnf, sc.scale) == (((2,),), 2)
    assert sc.index_over_coroots() == 1
    ad = build_coweight_lattice(preset_spec("ad:A1"))
    assert (ad.hnf, ad.scale) == (((1,),), 2)
    assert ad.index_over_coroots() == 2


def test_lattice_halfspin_membership():
    lattice = build_coweight_lattice(preset_spec("halfspin:D6"))
    assert lattice.index_over_coroots() == 2
    from kacoh.rootdata import cartan_data, fundamental_coweight

    data = cartan_data(SimpleType("D", 6))
    assert lattice.contains(fundamental_coweight(data, 5))
    assert not lattice.contains(fundamental_coweight(data, 1))
    assert not lattice.contains(fundamental_coweight(data, 6))


def test_lattice_sandwich_and_index(types_rank6):
    # Q-vee inside X-vee inside P-vee, with the right index everywhere.
    from kacoh.lattice import dual_subgroup

    for typ in types_rank6:
        for spec in all_intermediate_specs((typ,)):
            lattice = build_coweight_lattice(spec)
            assert lattice.index_over_coroots() == dual_subgroup(spec).order, spec


def test_canonicalize_idempotent_and_consistent():
    lattice = build_coweight_lattice(preset_spec("halfspin:D6"))
    vecs = [
        (F(1, 3), F(5, 2), F(-7, 4), F(0), F(9, 8), F(-1, 6)),
        (F(11, 2), F(0), F(1), F(2), F(-3, 2), F(5, 4)),
    ]
    for v in vecs:
        c = lattice.canonicalize(v)
        assert lattice.canonicalize(c) == c
        diff = tuple(a - b for a, b in zip(v, c))
        assert lattice.contains(diff)


def test_roots_counts_and_values():
    spec = preset_spec("sc:A1")
    lattice = build_coweight_lattice(spec)
    trivial, nontrivial = enumerate_center(spec)
    pts = enumerate_roots_of_z(lattice, trivial, 2)
    assert [p.coords for p in pts] == [(F(0),), (F(1, 2),)]
    pts = enumerate_roots_of_z(lattice, nontrivial, 2)
    assert sorted(p.coords for p in pts) == [(F(1, 4),), (F(3, 4),)]
    assert [p.coords for p in enumerate_roots_of_z(lattice, trivial, 1)] == [(F(0),)]


def test_roots_count_is_n_to_rank(types_rank6):
    for typ in types_rank6[:9]:
        spec = preset_spec(f"sc:{typ}")
        lattice = build_coweight_lattice(spec)
        for z in enumerate_center(spec)[:2]:
            for n in (1, 2, 3):
                assert len(enumerate_roots_of_z(lattice, z, n)) == n ** typ.rank


def test_inconsistent_central_rejected():
    spec = preset_spec("sc:E7")
    lattice = build_coweight_lattice(spec)
    with pytest.raises(SpecError):
        lattice.central_representative(CentralElement(values=(F(1, 3),)))


def test_weyl_orbits_a1():
    spec = preset_spec("sc:A1")
    lattice = build_coweight_lattice(spec)
    trivial, nontrivial = enumerate_center(spec)
    orbits = weyl_orbit_count(lattice, trivial, 2)
    assert sorted(len(o) for o in orbits) == [1, 1]
    assert [o[0].coords for o in orbits] == [(F(0),), (F(1, 2),)]
    orbits = weyl_orbit_count(lattice, nontrivial, 2)
    assert [len(o) for o in orbits] == [2]


def test_weyl_orbits_adjoint_e7():
    spec = preset_spec("ad:E7")
    lattice = build_coweight_lattice(spec)
    orbits = weyl_orbit_count(lattice, trivial_central(spec), 2)
    assert sum(len(o) for o in orbits) == 2 ** 7
    assert len(orbits) == 4


def test_weyl_orbit_requires_closed_set():
    # The fiber of n-th roots is closed under the reflections only when the
    # lattice holds every coroot and sits inside the coweights; the integer
    # rows of the closure are exact divisions that check both.
    from kacoh.oracle import _reflection_coefficients

    lattice = build_coweight_lattice(preset_spec("sc:A2"))
    assert lattice.root_pairings == lattice.cartan
    assert lattice.coroot_coefficients == ((1, 0), (0, 1))
    cartan, hnf, scale = lattice.cartan, lattice.hnf, lattice.scale
    missing_coroot = (tuple(2 * x for x in hnf[0]), hnf[1])
    with pytest.raises(InternalCheckError, match="coroot lattice not contained"):
        _reflection_coefficients(cartan, missing_coroot, scale)
    ad = build_coweight_lattice(preset_spec("ad:A2"))
    beyond_coweights = ((1, 0), ad.hnf[1])
    with pytest.raises(InternalCheckError, match="outside the coweights"):
        _reflection_coefficients(ad.cartan, beyond_coweights, ad.scale)


def test_cross_check_e7():
    for preset, expected in (("sc:E7", [4, 2]), ("ad:E7", [4])):
        spec = preset_spec(preset)
        counts = []
        for z in enumerate_center(spec):
            report = cross_check(spec, z, 2)
            assert report.ok, report.failure
            assert report.kac_class_count == report.torus_class_count
            counts.append(report.kac_class_count)
        assert counts == expected, preset


def test_cross_check_halfspin_d6():
    spec = preset_spec("halfspin:D6")
    trivial, nontrivial = enumerate_center(spec)
    assert cross_check(spec, trivial, 2).kac_class_count == 5
    assert cross_check(spec, nontrivial, 2).kac_class_count == 3


def test_cross_check_d4_everything():
    for spec in all_intermediate_specs((SimpleType.parse("D4"),)):
        for z in enumerate_center(spec):
            for n in (1, 2, 3):
                report = cross_check(spec, z, n)
                assert report.ok, (spec, n, report.failure)


def test_cross_check_product_with_diagonal_center():
    spec = validate_spec(["A1", "A1"], [(F(1, 2), F(1, 2))])
    for z in enumerate_center(spec):
        for n in (1, 2, 3):
            report = cross_check(spec, z, n)
            assert report.ok, report.failure


def test_cross_check_report_fields():
    spec = preset_spec("sc:A2")
    report = cross_check(spec, trivial_central(spec), 2)
    doc = report.as_document()
    assert doc["ok"] is True
    assert doc["kac_class_count"] == doc["torus_class_count"] == 2
    assert sum(doc["torus_orbit_sizes"]) == 4  # n**rank points
    assert sorted(doc["matching"]) == list(range(doc["kac_class_count"]))


def test_budget_refusal():
    spec = preset_spec("sc:A8")
    with pytest.raises(BudgetError):
        cross_check(spec, trivial_central(spec), 2)
    small = preset_spec("sc:A2")
    with pytest.raises(BudgetError):
        cross_check(small, trivial_central(small), 4)
    # explicit budget overrides the default
    report = cross_check(small, trivial_central(small), 4, budget=Budget(max_n=4))
    assert report.ok


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("KACOH_ORACLE_MAX_RANK", "2")
    budget = Budget.from_env()
    assert budget.max_rank == 2
    spec = preset_spec("sc:A3")
    with pytest.raises(BudgetError):
        cross_check(spec, trivial_central(spec), 2, budget=Budget.from_env())


def _dense_reflections(spec):
    """Every simple reflection of the spec as a full matrix on coroot coordinates."""
    from kacoh.exactalg import block_diag, identity
    from kacoh.rootdata import cartan_data, reflection_matrix

    mats = []
    for k, typ in enumerate(spec.components):
        for i in range(1, typ.rank + 1):
            blocks = [identity(t.rank) for t in spec.components]
            blocks[k] = reflection_matrix(cartan_data(typ), i)
            mats.append(block_diag(blocks))
    return mats


def _dense_partition(points, mats, lattice):
    """Orbit partition by plain Fraction matrix products and reduction."""
    from kacoh.exactalg import mat_vec

    index = {p.coords: i for i, p in enumerate(points)}
    orbit_of = {}
    orbits = []
    for start in range(len(points)):
        if start in orbit_of:
            continue
        orbit_of[start] = len(orbits)
        orbit, frontier = [start], [start]
        while frontier:
            coords = points[frontier.pop()].coords
            for mat in mats:
                j = index[lattice.canonicalize(mat_vec(mat, coords))]
                if j not in orbit_of:
                    orbit_of[j] = len(orbits)
                    orbit.append(j)
                    frontier.append(j)
        orbits.append(sorted(orbit))
    return orbits


def _kernel_cases():
    cases = [
        (preset_spec(preset), (n,))
        for preset, n in (
            ("sc:B3", 3), ("sc:C3", 3), ("sc:F4", 2), ("sc:G2", 3),
            ("halfspin:D6", 2), ("sc:A3xA1", 3),
        )
    ]
    for typ in simple_types(4):
        cases.extend((spec, (1, 2, 3)) for spec in all_intermediate_specs((typ,)))
    a1_cubed = all_intermediate_specs(("A1", "A1", "A1"))
    assert len(a1_cubed) == 16
    cases.extend((spec, (1, 2, 3)) for spec in a1_cubed)
    return cases


def test_orbit_kernel_matches_dense_reflections():
    # The closure runs on lattice coefficients mod n; the reference applies
    # full Fraction reflection matrices to the enumerated points and reduces
    # the images.  Non-simply-laced types have an asymmetric Cartan matrix,
    # so pairings taken from the wrong side of it change the partition.
    from kacoh.oracle import _root_orbits

    for spec, ns in _kernel_cases():
        lattice = build_coweight_lattice(spec)
        mats = _dense_reflections(spec)
        for z in enumerate_center(spec):
            t = lattice.central_coweight(z)
            for n in ns:
                points = enumerate_roots_of_z(lattice, z, n)
                expected = _dense_partition(points, mats, lattice)
                assert _root_orbits(lattice, t, n) == expected, (spec, z, n)
                assert weyl_orbit_count(lattice, z, n) == [
                    tuple(points[i] for i in orbit) for orbit in expected
                ], (spec, z, n)


def test_root_index_locates_alcove_points():
    # Every labeling of the class, mapped by its alcove point, lands on the
    # position of that point in the enumerated fiber.
    from kacoh.exactalg import mat_vec
    from kacoh.labelings import enumerate_Kn, filter_for_central

    for preset in ("sc:B3", "halfspin:D6", "so:D5", "ad:A3"):
        spec = preset_spec(preset)
        d = spec.diagram()
        lattice = build_coweight_lattice(spec)
        for z in enumerate_center(spec):
            zeta = mat_vec(lattice.scaled_inverse, lattice.central_coweight(z))
            for n in (1, 2, 3):
                points = enumerate_roots_of_z(lattice, z, n)
                for p in filter_for_central(enumerate_Kn(d, n), spec, z, d):
                    index = lattice.root_index(p, zeta)
                    assert points[index] == lattice.alcove_point(p), (preset, p)
        if len(enumerate_center(spec)) > 1:
            # A labeling of another central element is no root of z.
            z0, z1 = enumerate_center(spec)[:2]
            p = filter_for_central(enumerate_Kn(d, 2), spec, z1, d)[0]
            zeta = mat_vec(lattice.scaled_inverse, lattice.central_coweight(z0))
            assert lattice.root_index(p, zeta) is None


def _reference_central_coweight(lattice, z):
    """The Fraction search that central_coweight replaced."""
    from kacoh.lattice import _frac_mod1, check_central

    check_central(lattice.spec, z)
    diag = [int(col[i]) for i, col in enumerate(lattice.coweight_basis)]
    for t in itertools.product(*(range(d) for d in diag)):
        if all(
            _frac_mod1(sum(c * ti for c, ti in zip(gen, t))) == val
            for gen, val in zip(lattice.spec.generators, z.values)
        ):
            return t
    raise SpecError("central element has no representative coweight")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SpecError as exc:
        return ("SpecError", str(exc))


def test_central_coweight_matches_fraction_search(types_rank6):
    from kacoh.exactalg import block_diag
    from kacoh.rootdata import cartan_data

    rng = random.Random(7)
    specs = [s for typ in types_rank6 for s in all_intermediate_specs((typ,))]
    specs += all_intermediate_specs(("A1", "A1", "A1"))
    specs += [preset_spec(p) for p in ("sc:A3xA1", "sc:E7", "halfspin:D6", "so:D5")]
    for spec in specs:
        lattice = build_coweight_lattice(spec)
        inverse = block_diag([
            [[F(x, d.det) for x in row] for row in d.adjugate]
            for d in map(cartan_data, spec.components)
        ])
        scale = lattice.scale
        assert scale == math.lcm(*(x.denominator for row in inverse for x in row))
        assert lattice.scaled_inverse == tuple(
            tuple(x * scale for x in row) for row in inverse
        )
        values = [z.values for z in enumerate_center(spec)]
        for _ in range(3):
            values.append(tuple(
                F(rng.randrange(12), rng.choice((1, 2, 3, 4, 6))) for _ in spec.generators
            ))
        for vals in values:
            z = CentralElement(values=vals)
            got = _outcome(lattice.central_coweight, z)
            assert got == _outcome(_reference_central_coweight, lattice, z), (spec, vals)
            if got[0] != "SpecError":
                assert lattice.central_representative(z) == tuple(
                    sum(a * b for a, b in zip(row, got)) for row in inverse
                )


def test_phi_is_equivariant():
    # Labelings in one orbit of the dual classes map into one Weyl orbit.
    from kacoh.cohomology import phi
    from kacoh.labelings import act_on_labeling, enumerate_Kn, filter_for_central
    from kacoh.lattice import dual_subgroup

    for preset in ("halfspin:D6", "so:D5", "sc:A3"):
        spec = preset_spec(preset)
        d = spec.diagram()
        lattice = build_coweight_lattice(spec)
        sub = dual_subgroup(spec)
        for z in enumerate_center(spec):
            labelings = filter_for_central(enumerate_Kn(d, 2), spec, z, d)
            orbit_of = {}
            for oi, orbit in enumerate(weyl_orbit_count(lattice, z, 2)):
                for pt in orbit:
                    orbit_of[pt] = oi
            for p in labelings:
                base = orbit_of[phi(p, spec, lattice)]
                for g in sub.elements:
                    moved = act_on_labeling(g, p)
                    assert orbit_of[phi(moved, spec, lattice)] == base
