"""The heavy lattice sweeps: every lattice of every product of rank 6, and
a larger profile of the seeded cross-route test over products to rank 12.

Selected only with ``python -m pytest -m sweep``; tier-1 leaves them out.
"""

import pytest
from hypothesis import given, settings

from conftest import products, sweep_lattices
from test_properties import check_routes, product_lattices
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
