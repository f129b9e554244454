"""Property-based checks of the structural invariants."""

from fractions import Fraction as F

from hypothesis import assume, given, settings, strategies as st

from conftest import simple_types
from kacoh.cohomology import nth_root_classes
from kacoh.diagram import fundamental_group
from kacoh.labelings import (
    count_Kn,
    enumerate_Kn,
    filter_for_central,
    filter_matching_q,
    orbit_decompose,
)
from kacoh.lattice import (
    all_intermediate_specs,
    dual_subgroup,
    enumerate_center,
    preset_spec,
    validate_spec,
    xq_elements,
)
from kacoh.oracle import MAX_POINTS, build_coweight_lattice, cross_check
from kacoh.rootdata import SimpleType
from references import act_on_labeling, canonical_point, contains

SMALL_TYPES = [
    SimpleType.parse(t)
    for t in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "D5", "G2", "F4")
]

types_st = st.sampled_from(SMALL_TYPES)
n_st = st.integers(min_value=1, max_value=4)


@st.composite
def spec_and_diagram(draw):
    typ = draw(types_st)
    specs = all_intermediate_specs((typ,))
    spec = specs[draw(st.integers(min_value=0, max_value=len(specs) - 1))]
    return spec, spec.diagram()


@given(spec_and_diagram(), n_st, st.data())
@settings(max_examples=60, deadline=None)
def test_action_is_left_action_and_preserves_level(sd, n, data):
    spec, diagram = sd
    group = fundamental_group(diagram)
    labelings = enumerate_Kn(diagram, n)
    p = labelings[data.draw(st.integers(0, len(labelings) - 1))]
    g = group.elements[data.draw(st.integers(0, group.order - 1))]
    h = group.elements[data.draw(st.integers(0, group.order - 1))]
    gh_sigma = tuple(g.sigma[i] for i in h.sigma)  # first h, then g
    gh = next(e for e in group.elements if e.sigma == gh_sigma)
    assert act_on_labeling(gh, p) == act_on_labeling(g, act_on_labeling(h, p))
    image = act_on_labeling(g, p)
    diagram.check_labeling(image.labels, n)  # stays a valid n-labeling


@given(spec_and_diagram(), n_st)
@settings(max_examples=40, deadline=None)
def test_congruence_sets_are_invariant(sd, n):
    spec, diagram = sd
    sub = dual_subgroup(spec)
    labelings = enumerate_Kn(diagram, n)
    for z in enumerate_center(spec):
        filtered = set(filter_for_central(labelings, spec, z))
        for g in sub.elements:
            assert {act_on_labeling(g, p) for p in filtered} == filtered


@given(spec_and_diagram(), n_st)
@settings(max_examples=40, deadline=None)
def test_center_partitions_labelings(sd, n):
    spec, diagram = sd
    labelings = enumerate_Kn(diagram, n)
    seen = []
    for z in enumerate_center(spec):
        seen.extend(filter_for_central(labelings, spec, z))
    assert sorted(seen) == sorted(labelings)
    assert len(seen) == len(labelings)


@given(spec_and_diagram(), st.data())
@settings(max_examples=40, deadline=None)
def test_matching_filter_keeps_q_and_is_invariant(sd, data):
    spec, diagram = sd
    labelings = enumerate_Kn(diagram, 2)
    q = labelings[data.draw(st.integers(0, len(labelings) - 1))]
    kept = filter_matching_q(labelings, spec, q, diagram)
    assert q in kept
    sub = dual_subgroup(spec)
    kept_set = set(kept)
    for g in sub.elements:
        assert {act_on_labeling(g, p) for p in kept_set} == kept_set


@given(spec_and_diagram(), n_st)
@settings(max_examples=30, deadline=None)
def test_orbit_sizes_divide_group_order(sd, n):
    spec, diagram = sd
    group = fundamental_group(diagram)
    orbits = orbit_decompose(enumerate_Kn(diagram, n), group)
    assert sum(len(o.members) for o in orbits) == len(enumerate_Kn(diagram, n))
    for o in orbits:
        assert group.order % len(o.members) == 0
        assert o.stabilizer_order * len(o.members) == group.order


@given(
    spec_and_diagram(),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=8, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_canonicalization_idempotent(sd, raw):
    spec, diagram = sd
    lattice = build_coweight_lattice(spec)
    v = tuple(F(x) for x in raw[: lattice.rank])
    if len(v) < lattice.rank:
        v = v + (F(0),) * (lattice.rank - len(v))
    c = canonical_point(lattice, v).coords
    assert canonical_point(lattice, c).coords == c
    assert contains(lattice, tuple(a - b for a, b in zip(v, c)))


@given(spec_and_diagram(), st.data())
@settings(max_examples=30, deadline=None)
def test_generator_shift_leaves_filters_unchanged(sd, data):
    spec, diagram = sd
    if not spec.generators:
        return
    shift = tuple(
        data.draw(st.integers(min_value=-3, max_value=3))
        for _ in range(spec.total_rank)
    )
    shifted = validate_spec(
        spec.components,
        [tuple(c + s for c, s in zip(spec.generators[0], shift))]
        + list(spec.generators[1:]),
    )
    assert shifted == spec  # canonicalization absorbs integer shifts


FACTORS = [t for t in simple_types(12) if t.alias_of is None]


@st.composite
def product_lattices(draw, max_rank=12):
    """A product of simple types of total rank <= ``max_rank``, its lattice
    generated by at most two elements of P/Q, a central element and n.

    Hypothesis favours the first of each choice, so the draws list the
    larger cases first: n = 3, several components, nonzero elements.
    """
    comps = []
    for _ in range(draw(st.sampled_from((3, 2, 4, 1)))):
        room = max_rank - sum(t.rank for t in comps)
        fits = [t for t in FACTORS if t.rank <= room]
        if fits:
            comps.append(draw(st.sampled_from(fits)))
    elements = xq_elements(preset_spec("sc:" + "x".join(map(str, comps))))[::-1]
    picks = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=2))
    spec = validate_spec(comps, picks)
    z = draw(st.sampled_from(enumerate_center(spec)))
    return spec, z, draw(st.sampled_from((3, 2, 1)))


def check_routes(spec, z, n):
    """The labeling and torus routes agree class by class, where K_n has at
    most 20,000 labelings and the torus at most ``MAX_POINTS`` points."""
    assume(count_Kn(spec.diagram(), n) <= 20_000 and n ** spec.total_rank <= MAX_POINTS)
    report = cross_check(spec, z, n)
    assert report.ok, (spec.describe(), z, n, report.failure)
    classes = len(nth_root_classes(spec, z, n).classes)
    assert classes == report.kac_class_count == report.torus_class_count


@given(product_lattices())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_routes_agree_on_random_product_lattices(case):
    check_routes(*case)
