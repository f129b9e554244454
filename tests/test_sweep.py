"""The heavy lattice sweeps: every lattice of every product of rank 6, a
larger profile of the seeded cross-route test over products to rank 12, and
the torus route at up to 2**20 points: every real form of the half-spin
groups of D18 and D20 at n = 2, and the fifth roots of the identity in E8.

Selected only with ``python -m pytest -m sweep``; tier-1 leaves them out.
"""

import pytest
from hypothesis import given, settings

from conftest import products, sweep_lattices
from test_properties import check_routes, product_lattices
from kacoh.cohomology import h1_inner_form, real_form_table, z_from_q
from kacoh.lattice import enumerate_center, preset_spec
from kacoh.oracle import cross_check
from kacoh.rootdata import SimpleType

pytestmark = pytest.mark.sweep

A1_6 = (SimpleType("A", 1),) * 6


def test_product_sweep_rank6():
    groups = [comps for comps in products(6, 6) if comps != A1_6]
    assert len(groups) == 61
    assert sweep_lattices(groups) == (1442, 24327)


def test_product_sweep_a1_6():
    # One lattice per subgroup of (Z/2)^6.
    assert sweep_lattices([A1_6]) == (2825, 79161)


@given(product_lattices())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_routes_agree_on_many_random_product_lattices(case):
    check_routes(*case)


@pytest.mark.parametrize("ell, forms", [(18, 12), (20, 13)])
def test_halfspin_h1_at_every_real_form_on_the_torus(monkeypatch, ell, forms):
    # H^1 of the inner form twisted by q counts the classes of q's bucket:
    # k//2 + 4 for the trivial z and (k+1)//2 + 1 for the other, k = ell/2.
    monkeypatch.setenv("KACOH_ORACLE_MAX_POINTS", "1048576")
    k = ell // 2
    spec = preset_spec(f"halfspin:D{ell}")
    table = real_form_table(spec.components[0])
    assert len(table) == forms
    for form in table:
        q = form.representative
        z = z_from_q(q, 2, spec)
        report = cross_check(spec, z, 2)
        assert report.ok, (ell, q.labels, report.failure)
        expected = k // 2 + 4 if z.is_trivial else (k + 1) // 2 + 1
        h1 = h1_inner_form(spec, q)
        counts = (len(h1.classes), report.kac_class_count, report.torus_class_count)
        assert counts == (expected,) * 3, (ell, q.labels)


def test_e8_fifth_roots_on_the_torus(monkeypatch):
    # 5**8 = 390,625 torus points, above the default budget of 4**8.
    monkeypatch.setenv("KACOH_ORACLE_MAX_POINTS", "1048576")
    spec = preset_spec("sc:E8")
    (z,) = enumerate_center(spec)
    report = cross_check(spec, z, 5)
    assert report.ok, report.failure
    assert (report.kac_class_count, report.torus_class_count) == (15, 15)
