import itertools
import math
import random
from fractions import Fraction as F

import pytest

from conftest import rank5_products, simple_types, sweep_lattices
from dense_lattice import dense_coweight_hnf
from references import (
    act_on_labeling,
    canonical_point,
    contains,
    fundamental_coweight,
    identity,
    index_over_coroots,
    reflection_matrix,
)
from kacoh import oracle
from kacoh.cohomology import h1_inner_form, real_form_table, z_from_q
from kacoh.lattice import (
    CentralElement,
    all_intermediate_specs,
    check_central,
    enumerate_center,
    preset_spec,
    trivial_central,
    validate_spec,
)
from kacoh.oracle import (
    build_coweight_lattice,
    cross_check,
    enumerate_roots_of_z,
    weyl_orbit_count,
)
from kacoh.rootdata import BudgetError, InternalCheckError, LabelingError, SimpleType, SpecError


def test_lattice_bases_a1():
    # The basis is hnf / scale: the coroot lattice for sc, half of it for ad.
    sc = build_coweight_lattice(preset_spec("sc:A1"))
    assert (sc.hnf, sc.scale) == (((2,),), 2)
    assert index_over_coroots(sc) == 1
    ad = build_coweight_lattice(preset_spec("ad:A1"))
    assert (ad.hnf, ad.scale) == (((1,),), 2)
    assert index_over_coroots(ad) == 2


def test_lattice_halfspin_membership():
    lattice = build_coweight_lattice(preset_spec("halfspin:D6"))
    assert index_over_coroots(lattice) == 2
    from kacoh.rootdata import cartan_data

    data = cartan_data(SimpleType("D", 6))
    assert contains(lattice, fundamental_coweight(data, 5))
    assert not contains(lattice, fundamental_coweight(data, 1))
    assert not contains(lattice, fundamental_coweight(data, 6))


def test_lattice_sandwich_and_index(types_rank6):
    # Q-vee inside X-vee inside P-vee, with the right index everywhere.
    from kacoh.lattice import dual_subgroup

    for typ in types_rank6:
        for spec in all_intermediate_specs((typ,)):
            lattice = build_coweight_lattice(spec)
            assert index_over_coroots(lattice) == dual_subgroup(spec).order, spec


def test_canonicalize_idempotent_and_consistent():
    lattice = build_coweight_lattice(preset_spec("halfspin:D6"))
    vecs = [
        (F(1, 3), F(5, 2), F(-7, 4), F(0), F(9, 8), F(-1, 6)),
        (F(11, 2), F(0), F(1), F(2), F(-3, 2), F(5, 4)),
    ]
    for v in vecs:
        c = canonical_point(lattice, v).coords
        assert canonical_point(lattice, c).coords == c
        diff = tuple(a - b for a, b in zip(v, c))
        assert contains(lattice, diff)


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
        lattice.central_coweight(CentralElement(values=(F(1, 3),)))


def test_unmatched_central_key_is_internal(monkeypatch):
    # The key (0, 1) is no key of the center: the second generator of X/Q
    # has order 2, so its row sums are 0 or 2 mod 4.  Reaching the end of
    # the search is an internal inconsistency, not a bad spec.
    spec = preset_spec("sc:A3xA1")
    lattice = build_coweight_lattice(spec)
    monkeypatch.setattr(oracle, "check_central", lambda s, z: (0, 1))
    with pytest.raises(InternalCheckError, match="no representative coweight"):
        lattice.central_coweight(trivial_central(spec))


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


def test_witness_path_builds_no_closure_rows():
    from kacoh.cohomology import nth_root_classes
    from kacoh.oracle import _reflection_coefficients

    spec = preset_spec("sc:A40")
    nth_root_classes(spec, trivial_central(spec), 2)
    assert "_reflection_rows" not in vars(build_coweight_lattice(spec))
    spec = preset_spec("halfspin:D6")
    for z in enumerate_center(spec):
        assert cross_check(spec, z, 2).ok
    lattice = build_coweight_lattice(spec)
    assert "_reflection_rows" in vars(lattice)
    assert (lattice.root_pairings, lattice.coroot_coefficients) == _reflection_coefficients(
        lattice.cartan, lattice.hnf, lattice.scale
    )


def test_one_root_data_per_root_system():
    """Every coweight lattice of a root system reads one table of root data."""
    oracle._root_data.cache_clear()
    a1 = SimpleType.parse("A1")
    lattices = [build_coweight_lattice(spec) for spec in all_intermediate_specs((a1, a1, a1))]
    assert len(lattices) == 16
    assert oracle._root_data.cache_info().misses == 1
    first = lattices[0]
    for lattice in lattices:
        assert lattice.cartan is first.cartan
        assert lattice.scaled_inverse is first.scaled_inverse
        assert lattice._slot_coweights is first._slot_coweights


def test_queries_build_no_central_elements(monkeypatch):
    # central_key reads the keys alone; the CentralElements of _center are
    # for enumerate_center and z_from_q.
    from kacoh import lattice as lattice_module
    from kacoh.cohomology import nth_root_classes
    from kacoh.labelings import enumerate_Kn

    def no_center(spec):
        raise AssertionError("a query built the central elements")

    for preset in ("sc:A3xA1", "halfspin:D6", "sc:E6", "so:D5"):
        center = enumerate_center(preset_spec(preset))
        spec = preset_spec(preset)
        with monkeypatch.context() as patched:
            patched.setattr(lattice_module, "_center", no_center)
            for z in center:
                check_central(spec, z)
                assert cross_check(spec, z, 2).ok
                nth_root_classes(spec, z, 3)
            for twist in enumerate_Kn(spec.diagram(), 2)[::7]:
                h1_inner_form(spec, twist)
        assert enumerate_center(spec) == center


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


def test_halfspin_real_forms_on_the_torus():
    # The paper's result: every real form of the half-spin group of D_2k has
    # k//2 + 4 classes in H^1 when its twist squares to the trivial central
    # element and (k+1)//2 + 1 otherwise.  Up to D16 the torus checks each
    # one at n = 2, at most 2**16 points.
    forms = 0
    for k in range(2, 9):
        spec = preset_spec(f"halfspin:D{2 * k}")
        for form in real_form_table(SimpleType("D", 2 * k)):
            q = form.representative
            z = z_from_q(q, 2, spec)
            report = cross_check(spec, z, 2)
            assert report.ok, (k, q, report.failure)
            count = len(h1_inner_form(spec, q).classes)
            assert count == report.kac_class_count == report.torus_class_count, (k, q)
            assert count == (k // 2 + 4 if z.is_trivial else (k + 1) // 2 + 1), (k, q)
            forms += 1
    assert forms == 56


def test_e7_real_forms_on_the_torus():
    # Criteria 1-3 on the torus: each of the four real forms of E7, through
    # the square z of its twist, at n = 2 (2**7 points).  sc:E7 splits the
    # forms into counts 4 and 2 by z; on ad:E7 every z is trivial.
    for preset, expected in (("sc:E7", (4, 2, 4, 2)), ("ad:E7", (4, 4, 4, 4))):
        spec = preset_spec(preset)
        counts = []
        for form in real_form_table(SimpleType.parse("E7")):
            q = form.representative
            report = cross_check(spec, z_from_q(q, 2, spec), 2)
            assert report.ok, (preset, q, report.failure)
            count = len(h1_inner_form(spec, q).classes)
            assert count == report.kac_class_count == report.torus_class_count, (preset, q)
            counts.append(count)
        assert tuple(counts) == expected, preset


def test_cross_check_ranks_7_and_8():
    # Every lattice of the simple types of rank 7 and 8, every z, n = 1..4:
    # the n = 4 runs of rank 8 are 4**8 = 2**16 points, the default budget.
    runs = 0
    for name in ("A7", "A8", "B7", "B8", "C7", "C8", "D7", "D8", "E7", "E8"):
        for spec in all_intermediate_specs((SimpleType.parse(name),)):
            for z in enumerate_center(spec):
                for n in (1, 2, 3, 4):
                    report = cross_check(spec, z, n)
                    assert report.ok, (spec, z, n, report.failure)
                    runs += 1
    assert runs == 248


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


def test_budget_refusal(monkeypatch):
    # The budget is on the n**rank points of a run, 2**16 by default.
    for preset, n in (("sc:A8", 2), ("sc:A2", 4), ("sc:A16", 2)):
        spec = preset_spec(preset)
        assert cross_check(spec, trivial_central(spec), n).ok, preset
    spec = preset_spec("sc:A17")
    monkeypatch.setattr(oracle, "enumerate_Kn", lambda *args: pytest.fail("K_n enumerated"))
    with pytest.raises(BudgetError, match="131072 torus points, above the budget of 65536"):
        cross_check(spec, trivial_central(spec), 2)


def test_budget_env_override(monkeypatch):
    # sc:A3 at n = 2 is 8 points: a budget of 8 answers, 7 refuses.
    spec = preset_spec("sc:A3")
    z = trivial_central(spec)
    lattice = build_coweight_lattice(spec)
    monkeypatch.setenv("KACOH_ORACLE_MAX_POINTS", "8")
    assert cross_check(spec, z, 2).ok
    assert len(enumerate_roots_of_z(lattice, z, 2)) == 8
    monkeypatch.setenv("KACOH_ORACLE_MAX_POINTS", "7")
    refusal = r"8 torus points, above the budget of 7 \(KACOH_ORACLE_MAX_POINTS\)"
    with pytest.raises(BudgetError, match=refusal):
        cross_check(spec, z, 2)
    with pytest.raises(BudgetError, match=refusal):
        weyl_orbit_count(lattice, z, 2)
    with pytest.raises(BudgetError, match=refusal):
        enumerate_roots_of_z(lattice, z, 2)


def test_weyl_orbit_count_refuses_above_the_budget(monkeypatch):
    # 2**40 points: refused before any root is built.
    spec = preset_spec("sc:A40")
    lattice = build_coweight_lattice(spec)
    monkeypatch.setattr(
        oracle, "enumerate_roots_of_z", lambda *args: pytest.fail("roots enumerated")
    )
    with pytest.raises(BudgetError, match=f"{2 ** 40} torus points"):
        weyl_orbit_count(lattice, trivial_central(spec), 2)
    # The public enumeration refuses them too, before it builds a point.
    monkeypatch.setattr(lattice, "central_coweight", lambda z: pytest.fail("point built"))
    with pytest.raises(BudgetError, match=f"{2 ** 40} torus points"):
        enumerate_roots_of_z(lattice, trivial_central(spec), 2)


def test_closure_refuses_n_above_byte_cap(monkeypatch):
    # The closure holds one byte per coefficient: n = 256 is the last n it
    # takes, whatever the budget allows.  The refusal comes before the
    # labeling side enumerates K_n, and before weyl_orbit_count enumerates
    # the roots.
    spec = preset_spec("sc:A1")
    z = trivial_central(spec)
    assert cross_check(spec, z, 256).ok
    monkeypatch.setattr(oracle, "enumerate_Kn", lambda *args: pytest.fail("K_n enumerated"))
    monkeypatch.setattr(
        oracle, "enumerate_roots_of_z", lambda *args: pytest.fail("roots enumerated")
    )
    with pytest.raises(BudgetError, match="cap of 256"):
        cross_check(spec, z, 257)
    with pytest.raises(BudgetError, match="cap of 256"):
        weyl_orbit_count(build_coweight_lattice(spec), z, 257)


def _per_point_permutation(a, w, v, n):
    """Image index of every point of (Z/n)^rank under c -> c - (a + w.c) v mod n."""
    images = []
    for c in itertools.product(range(n), repeat=len(w)):
        u = a + sum(x * y for x, y in zip(w, c))
        index = 0
        for cj, vj in zip(c, v):
            index = index * n + (cj - u * vj) % n
        images.append(index)
    return images


def _regrouped(numbers, count):
    """The orbits as lists of indices, regrouped from each index's orbit number."""
    orbits = [[] for _ in range(count)]
    for k, number in enumerate(numbers):
        orbits[number].append(k)
    return orbits


def _built_and_read_back(a, w, v, n, monkeypatch):
    """The permutation of one reflection as built into a store, checked equal
    to what a second call reads back from that store alone."""
    from kacoh import _orbit

    store = {}
    built = [list(perm) for perm in _orbit._permutations([(a, w, v)], n, store)]
    (lanes,) = store.values()
    assert lanes is None or type(lanes) is bytes
    with monkeypatch.context() as m:
        m.setattr(_orbit, "_reflection_lanes", lambda *args: pytest.fail("built twice"))
        assert [list(perm) for perm in _orbit._permutations([(a, w, v)], n, store)] == built
    return built


def test_reflection_permutation_matches_per_point_reference(monkeypatch):
    from kacoh._orbit import _Fiber, _reflection_lanes, orbit_partition

    rng = random.Random(13)
    entry = lambda n: rng.choice((0, rng.randint(-3 * n, 3 * n)))
    checked = 0
    for n in (2, 3, 4, 5, 7, 16, 255, 256):
        for rank in range(1, 5):
            if n ** rank > 70_000:
                continue
            fiber = _Fiber(n, rank)
            for _ in range(2):
                a = rng.randint(-2 * n, 2 * n)
                w = [entry(n) for _ in range(rank)]
                v = [entry(n) for _ in range(rank)]
                v[rng.randrange(rank)] = rng.choice((-1, 1)) * rng.randint(1, n - 1)
                assert _built_and_read_back(a, w, v, n, monkeypatch) == [
                    _per_point_permutation(a, w, v, n)
                ], (n, a, w, v)
                checked += 1
            # A coroot that vanishes mod n moves no point.
            v = [n, 0, -2 * n, 0][:rank]
            assert _reflection_lanes(1, [1] * rank, v, fiber) is None
            assert _built_and_read_back(1, [1] * rank, v, n, monkeypatch) == []
    assert checked == 56
    # Past 65,536 points each index takes a 4-byte lane.
    fiber = _Fiber(17, 4)
    assert (fiber.size, fiber.width) == (83_521, 4)
    for a, w, v in [(5, [1, -2, 0, 3], [0, 1, -1, 0]), (-3, [16, 0, 2, -40], [2, 0, 0, 33])]:
        assert _built_and_read_back(a, w, v, 17, monkeypatch) == [
            _per_point_permutation(a, w, v, 17)
        ]
    numbers = []
    sizes = orbit_partition(range(1), [(1, (1, 2), (1, -1)), (0, (2, 1), (3, 0))], 1, {}, numbers)
    assert sizes == [1]
    assert _regrouped(numbers, len(sizes)) == [[0]]
    assert numbers == [0]


def test_closure_set_up_is_shared_and_order_independent(monkeypatch):
    # The lattice keeps each reflection permutation per (n, i, a_i mod n):
    # the answers do not depend on which query built it, and no key is
    # built twice on one lattice.
    from kacoh import _orbit
    from kacoh.lattice import spec_from_document, spec_to_document

    builds = []
    build = _orbit._reflection_lanes

    def counting(a, w, v, fiber):
        builds.append(fiber.n)
        return build(a, w, v, fiber)

    monkeypatch.setattr(_orbit, "_reflection_lanes", counting)
    a1_cubed = all_intermediate_specs(("A1", "A1", "A1"))
    assert len(a1_cubed) == 16
    specs = [preset_spec("sc:A3"), *a1_cubed, preset_spec("sc:E7")]
    runs = [
        (k, j, n)
        for k, spec in enumerate(specs)
        for j in range(len(enumerate_center(spec)))
        for n in (1, 2, 3)
    ]

    def sweep(specs, order):
        return {
            (k, j, n): cross_check(specs[k], enumerate_center(specs[k])[j], n).as_document()
            for k, j, n in order
        }

    forward = sweep(specs, runs)
    expected = 0
    for spec in specs:
        lattice = build_coweight_lattice(spec)
        keys = {
            (n, i, a % n)
            for z in enumerate_center(spec)
            for i, a in enumerate(lattice.central_coweight(z))
            for n in (1, 2, 3)
        }
        assert set(lattice._permutations) == keys, spec
        expected += len(keys)
    assert len(builds) == expected
    assert sweep(specs, runs[::-1]) == forward
    assert len(builds) == expected
    fresh = [spec_from_document(spec_to_document(spec)) for spec in specs]
    assert sweep(fresh, runs[::-1]) == forward
    assert len(builds) == 2 * expected


def _listed_orbits(points, reflections, n, store, numbers):
    """A reference closure that lists every orbit and sorts it.

    Returns the orbits as sorted lists of indices into ``points``, ordered by
    their smallest member, and sets ``numbers`` to each point's orbit number.
    The reference for the orbit numbers and sizes the closure now returns.
    """
    from kacoh._orbit import _permutations

    perms = _permutations(reflections, n, store)
    numbers[:] = [None] * len(points)
    orbits = []
    for start in points:
        if numbers[start] is not None:
            continue
        number = numbers[start] = len(orbits)
        orbit = [start]
        for k in orbit:
            for perm in perms:
                j = perm[k]
                if numbers[j] is None:
                    numbers[j] = number
                    orbit.append(j)
        orbit.sort()
        orbits.append(orbit)
    return orbits


def _rank4_lattices():
    """Every lattice of a simple type of rank <= 4 and of a product of
    ``rank5_products`` of total rank <= 4, each on a spec of its own."""
    from kacoh.lattice import spec_from_document, spec_to_document

    groups = [(typ,) for typ in simple_types(4)]
    groups += [comps for comps in rank5_products() if sum(t.rank for t in comps) <= 4]
    return [
        spec_from_document(spec_to_document(spec))
        for comps in groups
        for spec in all_intermediate_specs(comps)
    ]


def test_closures_are_kept_per_level_and_central_coweight_mod_n(monkeypatch):
    # A lattice keeps one closure per (n, t mod n): it equals a closure run on
    # a freshly built lattice with an empty store, its orbit numbers regroup
    # into the sorted orbit lists, central keys whose coweights agree mod n
    # share it, and no closure answers another n or another lattice.
    from kacoh.oracle import CoweightLattice, _root_orbits

    calls = []
    closure = oracle.orbit_partition

    def counting(points, reflections, n, store, numbers):
        calls.append(n)
        return closure(points, reflections, n, store, numbers)

    monkeypatch.setattr(oracle, "orbit_partition", counting)
    specs = _rank4_lattices()
    runs = shared = 0
    seen = set()
    for spec in specs:
        lattice = build_coweight_lattice(spec)
        fresh = CoweightLattice(spec)
        entries = {}
        for z in enumerate_center(spec):
            t = lattice.central_coweight(z)
            for n in (1, 2, 3):
                size = n ** lattice.rank
                numbers, sizes = _root_orbits(lattice, t, n)
                reflections = list(zip(t, fresh.root_pairings, fresh.coroot_coefficients))
                expected = []
                expected_sizes = closure(range(size), reflections, n, {}, expected)
                assert (list(numbers), sizes) == (expected, tuple(expected_sizes)), (spec, z, n)
                assert numbers.typecode == "H" and len(numbers) == size
                orbits = _listed_orbits(range(size), reflections, n, {}, [])
                assert _regrouped(numbers, len(sizes)) == orbits, (spec, z, n)
                key = (n, tuple(a % n for a in t))
                if key in entries:
                    shared += 1
                    assert entries[key][0] is numbers and entries[key][1] is sizes
                entries[key] = (numbers, sizes)
                runs += 1
        assert lattice._closures == entries, spec
        assert not fresh._closures
        assert len({n for n, _ in entries}) == 3
        for numbers, sizes in entries.values():
            assert id(numbers) not in seen
            seen.add(id(numbers))
    assert len(calls) == len(seen)
    assert (len(specs), runs, len(seen), shared) == (199, 1983, 1470, 513)
    # A closure at n=2 never answers n=3, even where t mod 2 and t mod 3 agree.
    spec = preset_spec("sc:A2")
    lattice = build_coweight_lattice(spec)
    t = lattice.central_coweight(trivial_central(spec))
    two, three = _root_orbits(lattice, t, 2), _root_orbits(lattice, t, 3)
    assert (len(two[0]), len(three[0])) == (4, 9)
    assert set(lattice._closures) >= {(2, (0, 0)), (3, (0, 0))}
    # Past 65,536 points the orbit numbers take 4-byte entries.
    spec = preset_spec("sc:B4")
    lattice = build_coweight_lattice(spec)
    t = lattice.central_coweight(trivial_central(spec))
    numbers, sizes = _root_orbits(lattice, t, 17)
    reflections = list(zip(t, lattice.root_pairings, lattice.coroot_coefficients))
    expected = []
    assert closure(range(17 ** 4), reflections, 17, {}, expected) == list(sizes)
    assert numbers.typecode == "I" and list(numbers) == expected


def test_closure_refuses_n_below_one():
    spec = preset_spec("sc:A2")
    lattice = build_coweight_lattice(spec)
    z = trivial_central(spec)
    # (-300)**2 is above the point budget, but a nonpositive n is no run.
    for n in (0, -1, -300):
        with pytest.raises(LabelingError, match=f"n must be positive, got {n}"):
            weyl_orbit_count(lattice, z, n)
        with pytest.raises(LabelingError, match=f"n must be positive, got {n}"):
            enumerate_roots_of_z(lattice, z, n)
    assert not lattice._permutations


def test_product_sweep_rank5():
    # Every product of two or more simple types of total rank <= 5 but A1^5,
    # every lattice, every z.
    products = rank5_products()
    assert len(products) == 44
    assert sweep_lattices(products) == (462, 5379)


def test_product_sweep_a1_5():
    # Every lattice of A1^5, one per subgroup of (Z/2)^5, every z.
    assert sweep_lattices([(SimpleType("A", 1),) * 5]) == (374, 7353)


def _dense_reflections(spec):
    """Every simple reflection of the spec as a full matrix on coroot coordinates."""
    from kacoh.exactalg import block_diag
    from kacoh.rootdata import cartan_data

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
                j = index[canonical_point(lattice, mat_vec(mat, coords)).coords]
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
                numbers, sizes = _root_orbits(lattice, t, n)
                assert _regrouped(numbers, len(sizes)) == expected, (spec, z, n)
                assert sizes == tuple(len(orbit) for orbit in expected), (spec, z, n)
                assert all(numbers[k] == oi for oi, orbit in enumerate(expected) for k in orbit)
                assert len(numbers) == n ** lattice.rank
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
                for p in filter_for_central(enumerate_Kn(d, n), spec, z):
                    index = lattice.root_index(p, zeta)
                    assert points[index] == lattice.alcove_point(p), (preset, p)
        if len(enumerate_center(spec)) > 1:
            # A labeling of another central element is no root of z.
            z0, z1 = enumerate_center(spec)[:2]
            p = filter_for_central(enumerate_Kn(d, 2), spec, z1)[0]
            zeta = mat_vec(lattice.scaled_inverse, lattice.central_coweight(z0))
            assert lattice.root_index(p, zeta) is None


def _reference_central_coweight(lattice, z):
    """The Fraction search that central_coweight replaced."""
    from kacoh.lattice import _frac_mod1

    check_central(lattice.spec, z)
    _, coweight_basis = dense_coweight_hnf(lattice)
    diag = [int(col[i]) for i, col in enumerate(coweight_basis)]
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
                zeta = lattice._central(check_central(spec, z))[1]
                assert tuple(F(x, scale) for x in zeta) == tuple(
                    sum(a * b for a, b in zip(row, got)) for row in inverse
                )


def test_phi_is_equivariant():
    # Labelings in one orbit of the dual classes map into one Weyl orbit.
    from kacoh.cohomology import phi
    from kacoh.labelings import enumerate_Kn, filter_for_central
    from kacoh.lattice import dual_subgroup

    for preset in ("halfspin:D6", "so:D5", "sc:A3"):
        spec = preset_spec(preset)
        d = spec.diagram()
        lattice = build_coweight_lattice(spec)
        sub = dual_subgroup(spec)
        for z in enumerate_center(spec):
            labelings = filter_for_central(enumerate_Kn(d, 2), spec, z)
            orbit_of = {}
            for oi, orbit in enumerate(weyl_orbit_count(lattice, z, 2)):
                for pt in orbit:
                    orbit_of[pt] = oi
            for p in labelings:
                base = orbit_of[phi(p, spec, lattice)]
                for g in sub.elements:
                    moved = act_on_labeling(g, p)
                    assert orbit_of[phi(moved, spec, lattice)] == base


# The lattices on which the basis from the coroots is checked against the
# dense Hermite route: every lattice of these types and products, and the
# presets of each family to rank 12.
_HERMITE_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "A7", "B3", "C4", "D4", "D5", "D6", "E6", "E7", "E8",
    "F4", "G2", "A1xA1xA1", "A3xA1", "A3xA3", "D4xD4", "C3xA1", "A2xG2xA1",
)


def _hermite_presets():
    for rank in range(1, 13):
        yield f"sc:A{rank}"
        yield f"ad:A{rank}"
        for family, lo in (("B", 2), ("C", 2), ("D", 4)):
            if rank >= lo:
                yield f"sc:{family}{rank}"
                yield f"ad:{family}{rank}"
        if rank >= 3:
            yield f"so:{'D' if rank >= 4 else 'B'}{rank}"
            yield f"so:B{rank}"
        if rank >= 4 and rank % 2 == 0:
            yield f"halfspin:D{rank}"


def test_coroot_basis_matches_dense_hermite_form():
    # hnf is built from the coroots and a few coweight classes, the search
    # box from the orders of the generator-row columns; the dense route
    # builds both from the congruence lattice of the generator rows.
    specs = [s for t in _HERMITE_TYPES for s in all_intermediate_specs(t.split("x"))]
    assert len(specs) == 156
    specs += [preset_spec(p) for p in sorted(set(_hermite_presets()))]
    for spec in specs:
        lattice = build_coweight_lattice(spec)
        hnf, coweight_basis = dense_coweight_hnf(lattice)
        assert lattice.hnf == hnf, spec
        assert lattice._box == tuple(col[i] for i, col in enumerate(coweight_basis)), spec


def test_coroot_basis_of_a_product_takes_one_column_per_factor(monkeypatch):
    # X^vee of ad:A1^k is spanned by its k single-tag coweight classes,
    # which are tried first: at most k + 1 Hermite forms, where trying all
    # 2**k classes in tag order takes 2**(k - 1) + 1.
    real = oracle.hermite_mod
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(oracle, "hermite_mod", counting)
    for k in (1, 4, 8, 12):
        spec = preset_spec("ad:" + "x".join(["A1"] * k))
        calls = 0
        lattice = oracle.CoweightLattice(spec)
        assert calls <= k + 1, (k, calls)
        assert index_over_coroots(lattice) == 2 ** k


def test_coroot_basis_at_high_rank_skips_redundant_classes():
    # ad:A400 needs one coweight class (X^vee / Q^vee is cyclic of order 401),
    # sc:A400 none; both hnf are read off without any dense elimination.
    ad = build_coweight_lattice(preset_spec("ad:A400"))
    assert ad.hnf[0] == tuple(range(1, 402))[:400] and index_over_coroots(ad) == 401
    assert all(col == (0,) * i + (401,) + (0,) * (399 - i) for i, col in enumerate(ad.hnf[1:], 1))
    assert ad._box == (1,) * 400
    sc = build_coweight_lattice(validate_spec(["A400"], [tuple(F(400 - i, 401) for i in range(400))]))
    assert index_over_coroots(sc) == 1 and sc._box == (1,) * 399 + (401,)
