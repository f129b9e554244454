import itertools

import pytest

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


def rank5_products():
    """Every product of two or more simple types of total rank <= 5 but A1^5.

    No aliases: B from rank 3, D from rank 4.  A1^5, with its 374
    lattices, is left to the tests that sweep it on its own.
    """
    factors = [t for t in simple_types(4) if t.rank >= {"B": 3, "D": 4}.get(t.family, 1)]
    return [
        comps
        for size in (2, 3, 4, 5)
        for comps in itertools.combinations_with_replacement(factors, size)
        if sum(t.rank for t in comps) <= 5 and comps != (SimpleType("A", 1),) * 5
    ]


@pytest.fixture(scope="session")
def types_rank8():
    return simple_types(8)


@pytest.fixture(scope="session")
def types_rank6():
    return simple_types(6)
