from fractions import Fraction as F

import pytest

from kacoh import cohomology
from kacoh.cohomology import (
    h1_adjoint,
    h1_document,
    h1_inner_form,
    nth_root_classes,
    phi,
    real_form_table,
    roots_document,
    z_from_q,
)
from kacoh.labelings import (
    KacLabeling,
    act_on_labeling,
    compact_labeling,
    enumerate_Kn,
    format_labeling,
    parse_labeling,
)
from kacoh.lattice import (
    all_intermediate_specs,
    check_central,
    dual_subgroup,
    enumerate_center,
    preset_spec,
    trivial_central,
)
from kacoh.oracle import build_coweight_lattice
from kacoh.rootdata import LabelingError, SimpleType


def E7(text):
    return parse_labeling(preset_spec("sc:E7").diagram(), text)


def test_phi_identity_point():
    spec = preset_spec("sc:A1")
    d = spec.diagram()
    assert phi(compact_labeling(d, 2), spec).is_identity
    assert phi(compact_labeling(d, 3), spec).is_identity


def test_phi_a1_split_point():
    spec = preset_spec("sc:A1")
    p = KacLabeling(labels=(1, 1), n=2)
    point = phi(p, spec)
    assert point.coords == (F(1, 4),)
    lattice = build_coweight_lattice(spec)
    # Its square is central but nontrivial: twice the point is not in the
    # lattice, four times is.
    assert not lattice.contains((F(1, 2),))
    assert lattice.contains((F(1),))


def test_phi_e7_single_label():
    spec = preset_spec("sc:E7")
    from kacoh.rootdata import cartan_data, fundamental_coweight

    q6 = E7("000/01/000")
    expected = tuple(
        x / 2 for x in fundamental_coweight(cartan_data(SimpleType("E", 7)), 7)
    )
    lattice = build_coweight_lattice(spec)
    assert phi(q6, spec) == lattice.canonical_point(expected)


def test_phi_matches_fraction_alcove_point():
    # The integer witness against the alcove point summed in Fractions.
    from kacoh.rootdata import cartan_data, fundamental_coweight

    cases = (("halfspin:D6", 2), ("sc:E7", 2), ("sc:A3xA1", 3), ("sc:G2", 3), ("sc:F4", 3))
    for preset, n in cases:
        spec = preset_spec(preset)
        d = spec.diagram()
        lattice = build_coweight_lattice(spec)
        coweights = []
        offset = 0
        for typ in spec.components:
            data = cartan_data(typ)
            for j in range(1, typ.rank + 1):
                cw = [F(0)] * spec.total_rank
                cw[offset:offset + typ.rank] = fundamental_coweight(data, j)
                coweights.append(cw)
            offset += typ.rank
        for p in enumerate_Kn(d, n):
            labels = [p.labels[s] for s in d.pi_slots]
            point = tuple(
                sum((l * cw[i] for l, cw in zip(labels, coweights)), F(0)) / n
                for i in range(spec.total_rank)
            )
            assert phi(p, spec).coords == lattice.canonical_point(point).coords, (preset, p)


def test_z_from_q_e7():
    spec = preset_spec("sc:E7")
    assert z_from_q(E7("000/00/002"), 2, spec).is_trivial
    assert z_from_q(E7("010/00/000"), 2, spec).is_trivial
    assert z_from_q(E7("000/01/000"), 2, spec).values == (F(1, 2),)
    assert z_from_q(E7("100/00/001"), 2, spec).values == (F(1, 2),)


def test_z_from_q_adjoint_always_trivial():
    spec = preset_spec("ad:E7")
    d = spec.diagram()
    for q in enumerate_Kn(d, 2):
        assert z_from_q(q, 2, spec).is_trivial


def test_h1_adjoint_counts():
    assert len(h1_adjoint(["E7"]).classes) == 4
    assert len(h1_adjoint(["A1"]).classes) == 2
    # Trivial class group: one class per 2-labeling.
    e8 = h1_adjoint(["E8"])
    assert len(e8.classes) == len(enumerate_Kn(preset_spec("ad:E8").diagram(), 2)) == 3


def test_h1_adjoint_partition_e7():
    result = h1_adjoint(["E7"])
    d = result.group_spec.diagram()
    partition = {
        frozenset(format_labeling(d, m) for m in o.members) for o in result.classes
    }
    assert partition == {
        frozenset({"000/00/002", "200/00/000"}),
        frozenset({"100/00/001"}),
        frozenset({"010/00/000", "000/00/010"}),
        frozenset({"000/01/000"}),
    }
    assert result.neutral_index == 0
    assert result.witnesses[0] == (F(0),) * 7


def test_h1_sc_e7_even_and_odd():
    spec = preset_spec("sc:E7")
    d = spec.diagram()
    evens = {"000/00/002", "200/00/000", "010/00/000", "000/00/010"}
    odds = {"100/00/001", "000/01/000"}
    for q_text in ("000/00/002", "010/00/000"):
        result = h1_inner_form(spec, E7(q_text))
        assert len(result.classes) == 4
        covered = {format_labeling(d, m) for o in result.classes for m in o.members}
        assert covered == evens
    for q_text in ("000/01/000", "100/00/001"):
        result = h1_inner_form(spec, E7(q_text))
        assert len(result.classes) == 2
        covered = {format_labeling(d, m) for o in result.classes for m in o.members}
        assert covered == odds


def test_h1_neutral_class_and_witness():
    spec = preset_spec("sc:E7")
    q = E7("000/00/010")
    result = h1_inner_form(spec, q)
    neutral = result.classes[result.neutral_index]
    assert q in neutral.members
    assert all(x == 0 for x in result.witnesses[result.neutral_index])
    # Non-neutral witnesses are the halved label differences of the reps.
    for i, (orbit, witness) in enumerate(zip(result.classes, result.witnesses)):
        if i == result.neutral_index:
            continue
        d = spec.diagram()
        expected = tuple(
            F(orbit.representative.labels[s] - q.labels[s], 2) for s in d.pi_slots
        )
        assert witness == expected


def test_h1_rejects_bad_twist():
    spec = preset_spec("sc:E7")
    with pytest.raises(LabelingError):
        h1_inner_form(spec, KacLabeling(labels=(1,) * 8, n=2))
    d = spec.diagram()
    with pytest.raises(LabelingError):
        h1_inner_form(spec, next(iter(enumerate_Kn(d, 3))))


def test_h1_halfspin_formulas():
    for k in range(2, 7):
        ell = 2 * k
        spec = preset_spec(f"halfspin:D{ell}")
        d = spec.diagram()
        even = h1_inner_form(spec, compact_labeling(d))
        assert len(even.classes) == k // 2 + 4, ell
        odd_q_labels = [0] * d.num_vertices
        odd_q_labels[d.slot(0, 0)] = 1
        odd_q_labels[d.slot(0, 1)] = 1
        odd = h1_inner_form(spec, KacLabeling(labels=tuple(odd_q_labels), n=2))
        assert len(odd.classes) == (k + 1) // 2 + 1, ell


def test_h1_so_counts():
    for ell in range(4, 9):
        spec = preset_spec(f"so:D{ell}")
        result = h1_inner_form(spec, compact_labeling(spec.diagram()))
        assert len(result.classes) == ell + 1, ell


def test_h1_twist_independence_within_orbit(types_rank6):
    # Twisting by labelings in one orbit gives identical class structure.
    for typ in types_rank6[:6] + [SimpleType.parse("D4")]:
        for spec in all_intermediate_specs((typ,)):
            d = spec.diagram()
            sub = dual_subgroup(spec)
            for q in enumerate_Kn(d, 2):
                base = h1_inner_form(spec, q)
                for g in sub.elements[1:]:
                    other = h1_inner_form(spec, act_on_labeling(g, q))
                    assert len(other.classes) == len(base.classes)
                    assert sorted(len(o.members) for o in other.classes) == sorted(
                        len(o.members) for o in base.classes
                    )


def test_h1_adjoint_specialization(types_rank6):
    for typ in types_rank6[:8]:
        spec = preset_spec(f"ad:{typ}")
        d = spec.diagram()
        expected = len(h1_adjoint([typ]).classes)
        for q in enumerate_Kn(d, 2):
            assert len(h1_inner_form(spec, q).classes) == expected


def test_roots_a1():
    spec = preset_spec("sc:A1")
    trivial, nontrivial = enumerate_center(spec)
    r = nth_root_classes(spec, trivial, 2)
    assert len(r.classes) == 2
    assert [p.coords for p in r.torus_points] == [(F(0),), (F(1, 2),)]
    r = nth_root_classes(spec, nontrivial, 2)
    assert len(r.classes) == 1
    assert r.torus_points[0].coords == (F(1, 4),)


def test_roots_n1_trivial_single_class(types_rank6):
    for typ in types_rank6[:8]:
        for spec in all_intermediate_specs((typ,)):
            r = nth_root_classes(spec, trivial_central(spec), 1)
            assert len(r.classes) == 1
            assert r.torus_points[0].is_identity


def test_roots_points_are_nth_roots(types_rank6):
    # n times each witness point lands on the central element's coweight.
    for typ in types_rank6[:6]:
        spec = preset_spec(f"sc:{typ}")
        lattice = build_coweight_lattice(spec)
        for z in enumerate_center(spec):
            zeta = [F(x, lattice.scale) for x in lattice._central(check_central(spec, z))[1]]
            for n in (1, 2):
                result = nth_root_classes(spec, z, n)
                for point in result.torus_points:
                    scaled = tuple(n * x - zc for x, zc in zip(point.coords, zeta))
                    assert lattice.contains(scaled)


def test_roots_match_h1_partition(types_rank6):
    # Classifying square roots of the twist's central square must partition
    # the labelings identically to the twisted-form query.
    for typ in types_rank6[:6] + [SimpleType.parse("D4")]:
        for spec in all_intermediate_specs((typ,)):
            d = spec.diagram()
            for q in enumerate_Kn(d, 2):
                z = z_from_q(q, 2, spec)
                roots = nth_root_classes(spec, z, 2)
                coh = h1_inner_form(spec, q)
                assert roots.classes == coh.classes, (typ, q)


def test_real_form_table():
    e7 = real_form_table(SimpleType.parse("E7"))
    assert len(e7) == 4
    g2 = real_form_table(SimpleType.parse("G2"))
    assert len(g2) == 2
    a1 = real_form_table(SimpleType.parse("A1"))
    assert len(a1) == 2


def test_documents_use_exact_rationals():
    spec = preset_spec("sc:E7")
    result = h1_inner_form(spec, E7("000/01/000"))
    doc = h1_document(result)
    assert doc["class_count"] == 2
    assert doc["classes"][0]["witness"] == ["0/1"] * 7
    for cls in doc["classes"]:
        for w in cls["witness"]:
            num, _, den = w.partition("/")
            int(num), int(den)
    rdoc = roots_document(nth_root_classes(spec, trivial_central(spec), 2), spec)
    assert rdoc["n"] == 2
    for cls in rdoc["classes"]:
        for c in cls["torus_point"]:
            num, _, den = c.partition("/")
            int(num), int(den)


def test_roots_share_one_lattice(monkeypatch):
    spec = preset_spec("sc:E7")
    built = []

    def recording(s):
        built.append(build_coweight_lattice(s))
        return built[-1]

    monkeypatch.setattr(cohomology, "build_coweight_lattice", recording)
    z = enumerate_center(spec)[1]
    first = nth_root_classes(spec, z, 2)
    assert nth_root_classes(spec, z, 2) == first
    assert len(built) == 2 and built[0] is built[1]
