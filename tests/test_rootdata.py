from fractions import Fraction

import pytest

from conftest import iso_tag
from kacoh.diagram import ExtendedDiagram, fundamental_group
from kacoh.exactalg import mat_vec
from kacoh.rootdata import SimpleType, SpecError, cartan_data
from references import (
    all_roots,
    fundamental_coweight,
    highest_root,
    identity,
    longest_element,
    mat_mul,
    positive_roots,
    reflect_root,
    reflection_matrix,
)


def test_rank_constraints():
    for bad in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3)]:
        with pytest.raises(SpecError):
            SimpleType(*bad)
    # Low-rank coincidences are allowed as aliases.
    assert SimpleType("B", 2).alias_of == "C2"
    assert SimpleType("D", 3).alias_of == "A3"
    assert SimpleType("D", 4).alias_of is None


def test_alias_table(types_rank8):
    # An alias and its target share the determinant, the marks up to order,
    # the number of roots and the fundamental group.
    def invariants(typ):
        data = cartan_data(typ)
        group = fundamental_group(ExtendedDiagram([typ]))
        return data.det, tuple(sorted(data.marks)), len(all_roots(typ)), iso_tag(group)

    aliases = {}
    for typ in types_rank8:
        if typ.alias_of is not None:
            aliases[str(typ)] = typ.alias_of
            assert invariants(typ) == invariants(SimpleType.parse(typ.alias_of)), typ
    assert aliases == {"B2": "C2", "D3": "A3"}
    assert invariants(SimpleType("B", 2)) == (2, (1, 1, 2), 8, "Z2")
    assert invariants(SimpleType("D", 3)) == (4, (1, 1, 1, 1), 12, "Z4")


def test_parse():
    assert SimpleType.parse("e7") == SimpleType("E", 7)
    assert str(SimpleType.parse("D12")) == "D12"
    with pytest.raises(SpecError):
        SimpleType.parse("H3")


def test_a1_data():
    data = cartan_data(SimpleType("A", 1))
    assert data.cartan == ((2,),)
    assert data.marks == (1, 1)
    assert tuple(-m for m in data.marks[:-1]) == (-1,)


def test_e7_marks():
    data = cartan_data(SimpleType("E", 7))
    assert data.marks == (1, 2, 3, 4, 3, 2, 2, 1)


def test_d6_marks():
    data = cartan_data(SimpleType("D", 6))
    assert data.marks == (1, 2, 2, 2, 1, 1, 1)
    # mark 2 exactly on the interior chain
    for ell in (4, 5, 6, 7, 8):
        marks = cartan_data(SimpleType("D", ell)).marks
        assert all(marks[j - 1] == 2 for j in range(2, ell - 1))
        assert marks[0] == marks[ell - 2] == marks[ell - 1] == marks[ell] == 1


def test_reflection_examples():
    a1 = cartan_data(SimpleType("A", 1))
    assert mat_vec(reflection_matrix(a1, 1), (1,)) == (-1,)
    a2 = cartan_data(SimpleType("A", 2))
    s1 = reflection_matrix(a2, 1)
    assert mat_vec(s1, (1, 0)) == (-1, 0)
    assert mat_vec(s1, (0, 1)) == (1, 1)


def test_reflections_are_involutions(types_rank8):
    for typ in types_rank8:
        data = cartan_data(typ)
        for i in range(1, typ.rank + 1):
            m = reflection_matrix(data, i)
            assert mat_mul(m, m) == identity(typ.rank), (typ, i)


def test_longest_element_lengths():
    a1 = cartan_data(SimpleType("A", 1))
    w = longest_element(a1)
    assert w.word == (1,) and w.matrix == ((-1,),)
    a2 = cartan_data(SimpleType("A", 2))
    assert len(longest_element(a2).word) == len(positive_roots(SimpleType("A", 2))) == 3
    e7 = cartan_data(SimpleType("E", 7))
    assert len(longest_element(e7).word) == len(positive_roots(SimpleType("E", 7))) == 63


def test_word_matches_matrix(types_rank8):
    from functools import reduce

    for typ in types_rank8[:12]:
        data = cartan_data(typ)
        w = longest_element(data)
        mats = [reflection_matrix(data, i) for i in w.word]
        assert reduce(mat_mul, mats, identity(typ.rank)) == w.matrix


def test_longest_sends_positive_to_negative(types_rank8):
    for typ in types_rank8:
        data = cartan_data(typ)
        pos = positive_roots(typ)
        w = longest_element(data)
        images = set()
        for root in pos:
            x = root
            for i in reversed(w.word):
                x = reflect_root(data, i, x)
            images.add(x)
        assert images == {tuple(-c for c in r) for r in pos}, typ


def test_parabolic_longest_element():
    # Omitting a vertex gives the longest element of the sub-diagram.
    e7 = cartan_data(SimpleType("E", 7))
    w1 = longest_element(e7, excluded=1)
    # Vertices 2..7 of E7 form an E6 (arms 2, 2, 1 around vertex 4).
    assert len(w1.word) == len(positive_roots(SimpleType("E", 6))) == 36
    assert 1 not in w1.word
    w6 = longest_element(cartan_data(SimpleType("D", 6)), excluded=6)
    # Vertices 1..5 of D6 form an A5.
    assert len(w6.word) == len(positive_roots(SimpleType("A", 5))) == 15


def test_coweights():
    a1 = cartan_data(SimpleType("A", 1))
    assert fundamental_coweight(a1, 1) == (Fraction(1, 2),)
    a2 = cartan_data(SimpleType("A", 2))
    assert fundamental_coweight(a2, 1) == (Fraction(2, 3), Fraction(1, 3))


def test_coweight_duality_d5():
    data = cartan_data(SimpleType("D", 5))
    for j in range(1, 6):
        cw = fundamental_coweight(data, j)
        pairings = mat_vec(data.cartan, cw)
        assert pairings == tuple(int(i == j - 1) for i in range(5))


def test_marks_relation(types_rank8):
    # The mark-weighted sum of the simple roots is the negative of the
    # lowest root, and the lowest root really is a root.
    for typ in types_rank8:
        data = cartan_data(typ)
        assert highest_root(typ) == data.marks[:-1], typ
        assert tuple(-m for m in data.marks[:-1]) in set(
            tuple(-c for c in r) for r in positive_roots(typ)
        )


def test_inverse_cartan(types_rank8):
    for typ in types_rank8:
        data = cartan_data(typ)
        inverse = tuple(tuple(Fraction(x, data.det) for x in row) for row in data.adjugate)
        assert mat_mul(inverse, data.cartan) == identity(typ.rank)
        # Connection index bounds the denominators.
        det = {
            "A": typ.rank + 1, "B": 2, "C": 2, "D": 4,
            "E": {6: 3, 7: 2, 8: 1}.get(typ.rank),
            "F": 1, "G": 1,
        }[typ.family]
        for row in inverse:
            for x in row:
                assert x >= 0
                assert det % Fraction(x).denominator == 0, (typ, x)
        for j in range(1, typ.rank + 1):
            assert fundamental_coweight(data, j) == tuple(row[j - 1] for row in inverse)
