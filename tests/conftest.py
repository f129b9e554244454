import itertools

import pytest

from kacoh.lattice import (
    all_intermediate_specs,
    enumerate_center,
    spec_from_document,
    spec_to_document,
)
from kacoh.oracle import cross_check
from kacoh.rootdata import SimpleType


def simple_types(max_rank: int):
    """Every simple type up to the given rank, aliases included."""
    out = []
    for family, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 3)]:
        out.extend(SimpleType(family, r) for r in range(lo, max_rank + 1))
    out.extend(SimpleType("E", r) for r in (6, 7, 8) if r <= max_rank)
    if max_rank >= 4:
        out.append(SimpleType("F", 4))
    out.append(SimpleType("G", 2))
    return out


def products(max_rank: int, min_rank: int = 2):
    """Every product of two or more simple types of total rank from
    ``min_rank`` to ``max_rank``, by number of factors.

    No aliases: B from rank 3, D from rank 4.
    """
    factors = [
        t for t in simple_types(max_rank - 1) if t.rank >= {"B": 3, "D": 4}.get(t.family, 1)
    ]
    return [
        comps
        for size in range(2, max_rank + 1)
        for comps in itertools.combinations_with_replacement(factors, size)
        if min_rank <= sum(t.rank for t in comps) <= max_rank
    ]


def rank5_products():
    """Every product of :func:`products` of total rank <= 5 but A1^5.

    A1^5, with its 374 lattices, is swept on its own by
    ``test_product_sweep_a1_5``.
    """
    return [comps for comps in products(5) if comps != (SimpleType("A", 1),) * 5]


def sweep_lattices(groups) -> tuple:
    """``(lattices, runs)`` of ``cross_check`` on every lattice of each
    component tuple in ``groups``, every z and n = 1..3, asserting each run
    is ok.

    Each lattice is rebuilt from its spec document and dropped after its
    runs, so a sweep holds the caches of one spec at a time.
    """
    lattices = runs = 0
    for comps in groups:
        documents = [spec_to_document(spec) for spec in all_intermediate_specs(comps)]
        for document in documents:
            spec = spec_from_document(document)
            lattices += 1
            for z in enumerate_center(spec):
                for n in (1, 2, 3):
                    report = cross_check(spec, z, n)
                    assert report.ok, (comps, spec.generators, n, report.failure)
                    runs += 1
    return lattices, runs


@pytest.fixture(scope="session")
def types_rank8():
    return simple_types(8)


@pytest.fixture(scope="session")
def types_rank6():
    return simple_types(6)
