"""The spec layer in integers against the Fraction algorithms it replaced.

The references below are the Fraction closure, staircase, weight check,
coweight pairing, center and relation check and the Gauss-Jordan inverse
that built every spec before the integer versions; the integer code must
reproduce them exactly.
"""

import math
import random
from fractions import Fraction

import pytest

from kacoh import lattice
from kacoh.diagram import ExtendedDiagram, fundamental_group
from kacoh.exactalg import block_diag, mat_mul, mat_vec
from kacoh.lattice import (
    CentralElement,
    all_intermediate_specs,
    central_key,
    check_central,
    dual_subgroup,
    enumerate_center,
    generator_rows,
    pairing,
    preset_spec,
    validate_spec,
    xq_elements,
    xq_order,
)
from kacoh.rootdata import SimpleType, SpecError, cartan_data, fundamental_coweight

from conftest import iso_tag, simple_types


def ref_invert(m):
    """Inverse of a square matrix, exact Gauss-Jordan over Fraction."""
    n = len(m)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _mod1(x):
    return x - (x.numerator // x.denominator)


def _vec_mod1(vec):
    return tuple(_mod1(Fraction(x)) for x in vec)


def ref_closure(vectors, rank):
    zero = tuple(Fraction(0) for _ in range(rank))
    out = {zero}
    frontier = [zero]
    gens = [_vec_mod1(v) for v in vectors]
    while frontier:
        nxt = []
        for base in frontier:
            for g in gens:
                s = _vec_mod1(tuple(a + b for a, b in zip(base, g)))
                if s not in out:
                    out.add(s)
                    nxt.append(s)
        frontier = nxt
    return out


def ref_staircase(closure, rank):
    zero = tuple(Fraction(0) for _ in range(rank))
    span = {zero: ()}
    stairs = []
    while len(span) < len(closure):
        best = None
        for e in sorted(closure):
            if e in span:
                continue
            d = 1
            cur = e
            while cur not in span:
                cur = _vec_mod1(tuple(a + b for a, b in zip(cur, e)))
                d += 1
            if best is None or d > best[1]:
                best = (e, d)
        gen, d = best
        combo = span[_vec_mod1(tuple(d * x for x in gen))]
        stairs.append((gen, d, combo))
        idx = len(stairs) - 1
        new_span = {}
        for vec, coeffs in span.items():
            cur = vec
            for k in range(d):
                new_span[cur] = coeffs + ((idx, k),) if k else coeffs
                cur = _vec_mod1(tuple(a + b for a, b in zip(cur, gen)))
        span = new_span
    return stairs


def ref_center(stairs):
    results = []

    def extend(idx, values):
        if idx == len(stairs):
            results.append(CentralElement(values=tuple(values)))
            return
        gen, d, combo = stairs[idx]
        target = sum((mult * values[k] for k, mult in combo), Fraction(0))
        base = _mod1(target) / d
        for t in range(d):
            extend(idx + 1, values + [_mod1(base + Fraction(t, d))])

    extend(0, [])
    return tuple(results)


def ref_is_central(stairs, values):
    """The relation check of the old ``check_central``: each value times its
    relative order must equal the value of the relation's normal form."""
    for (gen, d, combo), val in zip(stairs, values):
        target = sum((mult * values[k] for k, mult in combo), Fraction(0))
        if _mod1(d * val - target) != 0:
            return False
    return True


def ref_coset_pairing(gen, g, diagram):
    total = Fraction(0)
    for k, tag in enumerate(g.tags):
        total += pairing(gen, tag, diagram, component=k)
    return _mod1(total)


def ref_dual_elements(components, generators):
    """Group elements whose coweight pairing with every generator is 0 mod 1."""
    diagram = ExtendedDiagram(components)
    return tuple(
        g
        for g in fundamental_group(diagram).elements
        if all(ref_coset_pairing(gen, g, diagram) == 0 for gen in generators)
    )


def ref_weight_basis(components):
    total = sum(t.rank for t in components)
    out = []
    offset = 0
    for typ in components:
        inv = ref_invert(cartan_data(typ).cartan)
        for j in range(typ.rank):
            vec = [Fraction(0)] * total
            for i, x in enumerate(inv[j]):
                vec[offset + i] = x
            out.append(tuple(vec))
        offset += typ.rank
    return out


def ref_subgroups(components):
    """Every subgroup of P/Q as the Fraction sweep found them, in order."""
    rank = sum(t.rank for t in components)
    elements = sorted(ref_closure(ref_weight_basis(components), rank))
    trivial = frozenset(ref_closure([], rank))
    found = {trivial: []}
    frontier = [trivial]
    while frontier:
        grown = []
        for sub in frontier:
            gens = found[sub]
            for e in elements:
                if e in sub:
                    continue
                bigger = frozenset(ref_closure(gens + [e], rank))
                if bigger not in found:
                    found[bigger] = gens + [e]
                    grown.append(bigger)
        frontier = grown
    return sorted(found, key=lambda sub: (len(sub), sorted(sub)))


def ref_weight_message(components, raw):
    """The old weight check: ``None`` for a weight, else its error message,
    which spells the generator as a spec document does."""
    vec = tuple(Fraction(x) for x in raw)
    cartan_t = tuple(zip(*block_diag([cartan_data(t).cartan for t in components])))
    for j, val in enumerate(mat_vec(cartan_t, vec)):
        if Fraction(val).denominator != 1:
            spelled = ", ".join(f"{x.numerator}/{x.denominator}" for x in vec)
            return f"generator [{spelled}] is not a weight: pairing with coroot {j + 1} is {val}"
    return None


def assert_matches_reference(spec, closure):
    """``spec`` (built in integers) against the Fraction subgroup ``closure``."""
    rank = spec.total_rank
    stairs = ref_staircase(closure, rank)
    assert spec.generators == tuple(g for g, _, _ in stairs)
    # X/Q is held as integer tuples over the lcm of the generator denominators.
    den, int_closure, int_stairs = spec.derived(lattice._xq_group)
    assert den == math.lcm(*(x.denominator for g in spec.generators for x in g))

    def frac(vec):
        assert all(0 <= a < den for a in vec)
        return tuple(Fraction(a, den) for a in vec)

    assert {frac(v) for v in int_closure} == closure
    assert [(frac(g), d) for g, d in int_stairs] == [(g, d) for g, d, _ in stairs]
    assert generator_rows(spec) == (den, tuple(g for g, _ in int_stairs))
    assert xq_order(spec) == len(closure)
    assert xq_elements(spec) == tuple(sorted(closure))
    assert enumerate_center(spec) == ref_center(stairs)
    assert dual_subgroup(spec).elements == ref_dual_elements(spec.components, spec.generators)


PRODUCTS = ("A1xA1", "A3xA1", "A1xA1xA1", "C3xA1", "A2xG2xA1")


def _groups():
    """Every simple type of rank <= 6 and the PRODUCTS, as component tuples."""
    groups = [(typ,) for typ in simple_types(6)]
    return groups + [tuple(SimpleType.parse(t) for t in name.split("x")) for name in PRODUCTS]


def test_intermediate_lattices_match_reference():
    checked = 0
    for comps in _groups():
        subgroups = ref_subgroups(comps)
        specs = all_intermediate_specs(comps)
        assert len(specs) == len(subgroups), comps
        for spec, closure in zip(specs, subgroups):
            assert_matches_reference(spec, closure)
            # Any generating set gives the same spec, e.g. every element.
            assert validate_spec(comps, sorted(closure)) == spec
            checked += 1
    assert len(all_intermediate_specs(("A1", "A1", "A1"))) == 16
    assert checked == 93


@pytest.mark.parametrize(
    "preset", ["sc:A40", "halfspin:D20", "so:D16", "sc:E7", "sc:D12", "ad:" + "x".join(["A1"] * 9)]
)
def test_presets_match_reference(preset):
    spec = preset_spec(preset)
    rank = spec.total_rank
    if preset.startswith("sc:"):
        raw = ref_weight_basis(spec.components)
    elif preset.startswith("so:"):
        raw = [ref_invert(cartan_data(spec.components[0]).cartan)[0]]  # first weight
    else:
        raw = spec.generators
    assert_matches_reference(spec, ref_closure(raw, rank))


def test_check_central_matches_relation_reference():
    # check_central reads the key off the center; the old check ran the
    # staircase relations in Fractions.  Both must accept the same tuples.
    rng = random.Random(11)
    accepted = rejected = 0
    for comps in _groups():
        for spec in all_intermediate_specs(comps):
            rank = spec.total_rank
            stairs = ref_staircase(ref_closure(spec.generators, rank), rank)
            den, _ = generator_rows(spec)
            tuples = [z.values for z in enumerate_center(spec)]
            tuples += [
                tuple(
                    Fraction(rng.randrange(-den, 3 * den), rng.choice((den, den, 2 * den, 3)))
                    for _ in spec.generators
                )
                for _ in range(40)
            ]
            for values in tuples:
                z = CentralElement(values=values)
                if ref_is_central(stairs, z.values):
                    assert check_central(spec, z) == central_key(spec, z) is not None
                    accepted += 1
                else:
                    with pytest.raises(SpecError, match="do not define a homomorphism on X/Q"):
                        check_central(spec, z)
                    assert central_key(spec, z) is None
                    rejected += 1
    assert accepted > 1000 and rejected > 500


def test_central_key_round_trips_the_center():
    for comps in _groups():
        for spec in all_intermediate_specs(comps):
            den, _ = generator_rows(spec)
            center = enumerate_center(spec)
            keys = [central_key(spec, z) for z in center]
            assert keys == sorted(set(keys)), spec
            for z, key in zip(center, keys):
                assert z == CentralElement(values=tuple(Fraction(k, den) for k in key))
                assert check_central(spec, z) == key


def test_weight_check_message_matches_reference():
    rng = random.Random(7)
    for comps in [(typ,) for typ in simple_types(6)] + [("A2", "G2", "A1")]:
        comps = tuple(SimpleType.parse(t) if isinstance(t, str) else t for t in comps)
        rank = sum(t.rank for t in comps)
        for _ in range(20):
            raw = [
                rng.choice((0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(5, 6), "1/5"))
                for _ in range(rank)
            ]
            expected = ref_weight_message(comps, raw)
            if expected is None:
                validate_spec(comps, [raw])
                continue
            with pytest.raises(SpecError) as exc:
                validate_spec(comps, [raw])
            assert str(exc.value) == expected


def test_closure_keeps_fraction_input_and_output():
    # perfbench/freeze.py closes subsets of X/Q elements through _closure.
    for name in ("A1xA1xA1", "A5", "D6", "E6xA2"):
        elements = xq_elements(preset_spec(f"sc:{name}"))
        rank = len(elements[0])
        for subset in (elements[:1], elements[1:3], elements[-2:], list(elements)):
            got = lattice._closure(list(subset), rank)
            assert got == ref_closure(subset, rank), (name, subset)
            assert all(type(x) is Fraction for vec in got for x in vec)
    assert lattice._closure([], 3) == {(0, 0, 0)}


def _expected_det(typ):
    return {
        "A": typ.rank + 1, "B": 2, "C": 2, "D": 4,
        "E": {6: 3, 7: 2, 8: 1}.get(typ.rank), "F": 1, "G": 1,
    }[typ.family]


def test_determinant_and_adjugate(types_rank8):
    for typ in list(types_rank8) + [SimpleType("A", 40), SimpleType("D", 100)]:
        data = cartan_data(typ)
        n = typ.rank
        assert data.det == _expected_det(typ), typ
        assert all(type(x) is int for row in data.adjugate for x in row)
        scaled = tuple(tuple(data.det * int(i == j) for j in range(n)) for i in range(n))
        assert mat_mul(data.cartan, data.adjugate) == scaled, typ
        if n <= 40:
            inverse = ref_invert(data.cartan)
            assert data.adjugate == tuple(
                tuple(data.det * x for x in row) for row in inverse
            ), typ
            for j in range(1, n + 1):
                assert fundamental_coweight(data, j) == tuple(row[j - 1] for row in inverse)


def test_dual_subgroup_of_many_a1_factors():
    # |G| = 2^7: the closure check and the staircase look products up by sigma.
    spec = preset_spec("ad:" + "x".join(["A1"] * 7))
    group = dual_subgroup(spec)
    assert group.elements == fundamental_group(spec.diagram()).elements
    assert iso_tag(group) == "x".join(["Z2"] * 7)
    half = preset_spec("sc:" + "x".join(["A1"] * 7))
    assert dual_subgroup(half).order == 1


def ref_iso_tag(group):
    """The greedy invariant-factor loop, on group elements rather than sigmas."""
    if group.order == 1:
        return "1"
    by_sigma = {e.sigma: e for e in group.elements}

    def multiply(g, h):
        return by_sigma[tuple(g.sigma[i] for i in h.sigma)]

    span = {group.identity()}
    factors = []
    while len(span) < group.order:
        best = None
        for e in group.elements:
            if e in span:
                continue
            d, cur = 1, e
            while cur not in span:
                cur = multiply(cur, e)
                d += 1
            if best is None or d > best[0]:
                best = (d, e)
        d, g = best
        factors.append(d)
        grown = set(span)
        cur = g
        for _ in range(d - 1):
            grown |= {multiply(s, cur) for s in span}
            cur = multiply(cur, g)
        span = grown
    return "x".join(f"Z{f}" for f in factors)


def test_iso_tag_matches_reference_loop():
    groups = [(typ,) for typ in simple_types(8)]
    groups += [tuple(SimpleType.parse(t) for t in name.split("x")) for name in PRODUCTS]
    specs = [spec for comps in groups for spec in all_intermediate_specs(comps)]
    specs.append(preset_spec("ad:" + "x".join(["A1"] * 9)))
    for spec in specs:
        for group in (dual_subgroup(spec), fundamental_group(spec.diagram())):
            assert iso_tag(group) == ref_iso_tag(group), spec
