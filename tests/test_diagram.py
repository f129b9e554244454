import pytest

from kacoh.diagram import (
    _component_sigmas,
    build_extended_diagram,
    fundamental_group,
    fundamental_group_table,
    render_diagram,
    sigma_geometric,
)
from kacoh.rootdata import InternalCheckError, SimpleType, SpecError, cartan_data


def T(s):
    return SimpleType.parse(s)


def vertex_map(group, element, component=0):
    """Readable form of an element: local vertex -> local vertex."""
    d = group.diagram
    typ = d.components[component]
    out = {}
    for v in list(range(1, typ.rank + 1)) + [0]:
        out[v] = d.local(element.sigma[d.slot(component, v)])[1]
    return out


def test_a1_diagram():
    d = build_extended_diagram([T("A1")])
    assert d.num_vertices == 2
    assert d.marks == (1, 1)
    # the two vertices are joined by the doubly-infinite bond
    assert d.ext_cartan == ((2, -2), (-2, 2))


def test_e7_diagram_shape():
    d = build_extended_diagram([T("E7")])
    assert d.num_vertices == 8
    edges = {(d.local(a)[1], d.local(b)[1]) for a, b, _, _ in d.edges()}
    assert edges == {(1, 2), (2, 3), (3, 4), (4, 5), (4, 7), (5, 6), (6, 0)}


def test_disjoint_union():
    d = build_extended_diagram([T("A1"), T("A1")])
    assert d.num_vertices == 4
    assert len(d.components) == 2
    assert d.slot(1, 1) == 2 and d.slot(1, 0) == 3


def test_empty_rejected():
    with pytest.raises(SpecError):
        build_extended_diagram([])


def test_e7_table():
    g = fundamental_group_table(T("E7"))
    assert g.order == 2 and g.iso_tag == "Z2"
    m = vertex_map(g, g.elements[1])
    assert m == {1: 0, 0: 1, 2: 6, 6: 2, 3: 5, 5: 3, 4: 4, 7: 7}


def test_d6_table():
    g = fundamental_group_table(T("D6"))
    assert g.order == 4 and g.iso_tag == "Z2xZ2"
    by_tag = {e.tags[0]: e for e in g.elements}
    m1 = vertex_map(g, by_tag[1])
    assert m1[0] == 1 and m1[1] == 0 and m1[5] == 6 and m1[6] == 5
    assert all(m1[v] == v for v in (2, 3, 4))


def test_d5_table_four_cycle():
    g = fundamental_group_table(T("D5"))
    assert g.order == 4 and g.iso_tag == "Z4"
    by_tag = {e.tags[0]: e for e in g.elements}
    m = vertex_map(g, by_tag[4])
    assert m[0] == 4 and m[4] == 1 and m[1] == 5 and m[5] == 0


def test_e6_table():
    g = fundamental_group_table(T("E6"))
    assert g.order == 3 and g.iso_tag == "Z3"
    by_tag = {e.tags[0]: e for e in g.elements}
    m = vertex_map(g, by_tag[1])
    assert m[0] == 1 and m[1] == 5 and m[5] == 0
    assert m[2] == 4 and m[4] == 6 and m[6] == 2 and m[3] == 3


def test_trivial_groups():
    for t in ("E8", "F4", "G2"):
        g = fundamental_group_table(T(t))
        assert g.order == 1 and g.iso_tag == "1"


def test_orders_and_tags(types_rank8):
    expect = {
        "A": lambda r: r + 1,
        "B": lambda r: 2,
        "C": lambda r: 2,
        "D": lambda r: 4,
        "E": lambda r: {6: 3, 7: 2, 8: 1}[r],
        "F": lambda r: 1,
        "G": lambda r: 1,
    }
    for typ in types_rank8:
        g = fundamental_group_table(typ)
        assert g.order == expect[typ.family](typ.rank), typ


def test_action_simply_transitive_on_mark_one(types_rank8):
    for typ in types_rank8:
        g = fundamental_group_table(typ)
        d = g.diagram
        mark_one = [s for s in range(d.num_vertices) if d.marks[s] == 1]
        assert g.order == len(mark_one)
        extra = d.slot(0, 0)
        images = {e.sigma[extra] for e in g.elements}
        assert images == set(mark_one), typ


def test_group_axioms(types_rank8):
    for typ in types_rank8[:10]:
        g = fundamental_group_table(typ)
        ident = g.identity()
        by_sigma = {e.sigma: e for e in g.elements}

        def multiply(a, b):
            # first b, then a; a KeyError means the product left the list
            return by_sigma[tuple(a.sigma[i] for i in b.sigma)]

        for a in g.elements:
            assert multiply(a, ident) == a
            # finite group: every element has an inverse in the list
            assert any(multiply(a, b) == ident for b in g.elements)


def test_product_group():
    d = build_extended_diagram([T("A1"), T("E6")])
    g = fundamental_group(d)
    assert g.order == 6
    assert g.iso_tag == "Z6"


def test_geometric_matches_table(types_rank8):
    for typ in types_rank8:
        data = cartan_data(typ)
        for j, table_perm in _component_sigmas(typ).items():
            assert sigma_geometric(data, j) == table_perm, (typ, j)


def test_geometric_rejects_mark_two():
    with pytest.raises(ValueError):
        sigma_geometric(cartan_data(T("E7")), 2)


def test_subgroup_closure_check():
    g = fundamental_group_table(T("D6"))
    with pytest.raises(InternalCheckError):
        # two distinct involutions without their product
        g.subgroup([g.elements[0], g.elements[1], g.elements[2]])


def test_render_smoke(types_rank8):
    for typ in types_rank8:
        d = build_extended_diagram([typ])
        text = render_diagram(d)
        assert str(typ) in text
        for v in range(typ.rank + 1):
            assert str(v) in text
