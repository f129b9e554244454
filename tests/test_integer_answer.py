"""The integer answer path against the Fraction and nested-join code it replaced.

The references below are the earlier implementations, kept here so that the
integer versions in the library are checked against them on every type.
"""

from fractions import Fraction

import pytest

from kacoh import diagram as diagram_module
from kacoh.cohomology import h1_document, h1_inner_form
from kacoh.diagram import (
    ExtendedDiagram,
    _extended_cartan,
    fundamental_group,
)
from kacoh.labelings import KacLabeling, enumerate_Kn, format_labeling
from kacoh.lattice import all_intermediate_specs, format_rational, preset_spec
from kacoh.rootdata import InternalCheckError, SimpleType, cartan_data, norms

from conftest import simple_types
from references import permuted_labels


def _reference_extended_cartan(typ):
    """The extended pairing matrix computed in Fractions."""
    data = cartan_data(typ)
    rank = data.rank
    d = norms(data)
    bil = [[data.cartan[i][j] * d[j] for j in range(rank)] for i in range(rank)]
    low = [-m for m in data.marks[:-1]]
    low_i = [sum(low[k] * bil[i][k] for k in range(rank)) for i in range(rank)]
    low_low = sum(low[i] * low_i[i] for i in range(rank))
    ext = [[0] * (rank + 1) for _ in range(rank + 1)]
    for i in range(rank):
        for j in range(rank):
            ext[i][j] = data.cartan[i][j]
        col = 2 * low_i[i] / low_low
        row = 2 * low_i[i] / (2 * d[i])
        assert col.denominator == 1 and row.denominator == 1
        ext[i][rank] = int(col)
        ext[rank][i] = int(row)
    ext[rank][rank] = 2
    return tuple(tuple(r) for r in ext)


def _reference_display(diagram, p):
    """The display format joined group by group from the display slots."""
    labels = p.labels
    return ";".join(
        "/".join("".join(str(labels[s]) for s in group) for group in groups)
        for groups in diagram.display_slots
    )


def _wide_types():
    return simple_types(8) + [SimpleType.parse("A40"), SimpleType.parse("D20")]


def test_integer_extended_cartan_matches_fraction_reference():
    for typ in _wide_types():
        got = _extended_cartan(typ)
        assert got == _reference_extended_cartan(typ), typ
        assert all(type(x) is int for row in got for x in row), typ


def test_display_template_matches_nested_join():
    diagrams = [ExtendedDiagram([typ]) for typ in simple_types(8)]
    diagrams += [
        ExtendedDiagram([SimpleType.parse(a), SimpleType.parse(b)])
        for a, b in [("A1", "A1"), ("D4", "D4"), ("E7", "B3"), ("G2", "C3")]
    ]
    for d in diagrams:
        for n in (1, 2, 3):
            for p in enumerate_Kn(d, n):
                assert format_labeling(d, p) == _reference_display(d, p), (d, p)


def test_display_template_writes_labels_of_several_digits():
    d = ExtendedDiagram([SimpleType.parse("A1")])
    shown = [format_labeling(d, p) for p in enumerate_Kn(d, 12)]
    assert shown == [_reference_display(d, p) for p in enumerate_Kn(d, 12)]
    assert shown[0] == "0/12" and shown[3] == "3/9" and shown[-1] == "12/0"


def test_label_actions_match_permuted_labels():
    for typ in simple_types(8):
        d = ExtendedDiagram([typ])
        group = fundamental_group(d)
        assert len(group.label_actions) == group.order
        for g, act in zip(group.elements, group.label_actions):
            for p in enumerate_Kn(d, 3):
                assert act(p.labels) == permuted_labels(g.sigma, p.labels), (typ, g)


def _corrupt(monkeypatch, typ, sigmas):
    monkeypatch.setattr(diagram_module, "_component_sigmas", lambda t: sigmas)
    return ExtendedDiagram([SimpleType.parse(typ)])


def test_sparse_automorphism_check_rejects_a_corrupted_sigma(monkeypatch):
    # On the extended A3 (a 4-cycle, all marks 1) swapping two neighbours
    # keeps the marks but breaks the edge to the third vertex.
    d = _corrupt(monkeypatch, "A3", {1: (1, 0, 2, 3)})
    with pytest.raises(InternalCheckError, match="^tabulated action is not a diagram automorphism$"):
        fundamental_group(d)
    # A map that folds the 6-cycle of A5 onto one edge keeps every nonzero
    # pairing; only the bijection check rejects it.
    d = _corrupt(monkeypatch, "A5", {1: (1, 0, 1, 0, 1, 0)})
    with pytest.raises(InternalCheckError, match="^tabulated action is not a diagram automorphism$"):
        fundamental_group(d)
    # On B3 the extra vertex (mark 1) sent to vertex 2 (mark 2).
    d = _corrupt(monkeypatch, "B3", {1: (0, 3, 2, 1)})
    with pytest.raises(InternalCheckError, match="^B3: action does not preserve marks$"):
        fundamental_group(d)


def test_broken_marks_name_the_component_of_the_first_broken_slot(monkeypatch):
    # The B3 sigma of the test above, with A2 keeping its own table, on
    # either side of it.
    tables = diagram_module._component_sigmas
    monkeypatch.setattr(
        diagram_module,
        "_component_sigmas",
        lambda t: {1: (0, 3, 2, 1)} if t.family == "B" else tables(t),
    )
    for names in (("B3", "A2"), ("A2", "B3")):
        d = ExtendedDiagram([SimpleType.parse(t) for t in names])
        with pytest.raises(InternalCheckError, match="^B3: action does not preserve marks$"):
            fundamental_group(d)


def test_witnesses_and_their_text_match_fraction_reference():
    a1 = SimpleType.parse("A1")
    specs = [s for typ in simple_types(5) for s in all_intermediate_specs([typ])]
    specs += list(all_intermediate_specs([a1, a1]))
    specs.append(preset_spec("sc:E7"))
    for spec in specs:
        d = spec.diagram()
        for q in enumerate_Kn(d, 2):
            result = h1_inner_form(spec, q)
            doc = h1_document(result)
            for i, (orbit, witness) in enumerate(zip(result.classes, result.witnesses)):
                member = q if i == result.neutral_index else orbit.representative
                expected = tuple(
                    Fraction(member.labels[s] - q.labels[s], 2) for s in d.pi_slots
                )
                assert witness == expected, (spec, q, i)
                assert doc["classes"][i]["witness"] == [format_rational(x) for x in expected]


def test_document_label_lists_are_the_labelings_tuples():
    spec = preset_spec("sc:E7")
    q = KacLabeling(labels=(0,) * 7 + (2,), n=2)
    doc = h1_document(h1_inner_form(spec, q))
    assert doc["twist"] is q.labels
    for cls in doc["classes"]:
        assert type(cls["representative"]) is tuple
        assert all(type(m) is tuple for m in cls["members"])

