"""The congruence lattice against its definition."""

import itertools

from conftest import simple_types
from kacoh.exactalg import basis_coefficients, congruence_lattice
from kacoh.lattice import all_intermediate_specs, generator_rows


def _lattice_specs():
    specs = [s for typ in simple_types(4) for s in all_intermediate_specs([typ])]
    for comps in (["A1"] * 3, ["A1"] * 4, ["A3", "A1"]):
        specs.extend(all_intermediate_specs(comps))
    return specs


def test_congruence_lattice_is_the_hermite_basis_of_its_definition():
    specs = _lattice_specs()
    points = 0
    for spec in specs:
        rank = spec.total_rank
        m, rows = generator_rows(spec)
        basis = congruence_lattice(rows, m, rank)
        # Hermite shape: lower triangular columns, positive pivots, and the
        # entries left of each pivot reduced into [0, pivot).
        assert len(basis) == rank, spec
        for i, col in enumerate(basis):
            assert len(col) == rank and not any(col[:i]) and col[i] > 0, spec
            assert all(0 <= basis[j][i] < col[i] for j in range(i)), spec
        # Membership matches the congruences on a full period of Z^rank.
        for t in itertools.product(range(m), repeat=rank):
            inside = all(sum(a * b for a, b in zip(row, t)) % m == 0 for row in rows)
            assert (basis_coefficients(t, basis) is not None) == inside, (spec, t)
            points += 1
    assert (len(specs), points) == (122, 2925)
