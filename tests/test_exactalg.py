"""The congruence lattice against its definition, and the triangular
kernels against the dense loops they replaced."""

import itertools
import random
from fractions import Fraction

from conftest import simple_types
from dense_lattice import congruence_lattice
from kacoh.exactalg import (
    basis_coefficients,
    mat_vec,
    reduce_mod_basis,
    triangular_form,
)
from kacoh.lattice import all_intermediate_specs, generator_rows
from kacoh.oracle import CoweightLattice


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
            assert (basis_coefficients(t, triangular_form(basis)) is not None) == inside, (spec, t)
            points += 1
    assert (len(specs), points) == (122, 2925)


def dense_reduce_mod_basis(vec, basis, factor=1):
    """The reduction over the full lower triangle of ``basis``."""
    x = list(vec)
    dim = len(x)
    for i in range(dim):
        col = basis[i]
        q = x[i] // (factor * col[i]) * factor
        if q:
            for k in range(i, dim):
                x[k] -= q * col[k]
    return tuple(x)


def dense_basis_coefficients(vec, basis):
    """The coefficient solve over the full lower triangle of ``basis``."""
    x = list(vec)
    dim = len(x)
    out = []
    for i in range(dim):
        col = basis[i]
        q, r = divmod(x[i], col[i])
        if r:
            return None
        if q:
            for k in range(i, dim):
                x[k] -= q * col[k]
        out.append(q)
    return tuple(out)


def test_triangular_kernels_match_dense_loops(types_rank8):
    bases = [
        congruence_lattice(rows, m, spec.total_rank)
        for spec in _lattice_specs()
        for m, rows in [generator_rows(spec)]
    ]
    bases += [
        CoweightLattice(spec).hnf
        for typ in types_rank8
        for spec in all_intermediate_specs([typ])
    ]
    rng = random.Random(14)
    checked = 0
    for basis in bases:
        triangular = triangular_form(basis)
        dim = len(basis)
        # Lattice vectors, whose coefficients the solve must return, and
        # random vectors, most of them outside the lattice.
        for _ in range(3):
            coefficients = tuple(rng.randint(-5, 5) for _ in range(dim))
            vec = tuple(
                sum(c * col[k] for c, col in zip(coefficients, basis)) for k in range(dim)
            )
            assert basis_coefficients(vec, triangular) == coefficients
        vectors = [tuple(rng.randint(-60, 60) for _ in range(dim)) for _ in range(6)]
        for vec in vectors:
            assert basis_coefficients(vec, triangular) == dense_basis_coefficients(vec, basis)
            for factor in (1, 2, 3, 7):
                expected = dense_reduce_mod_basis(vec, basis, factor)
                assert reduce_mod_basis(vec, triangular, factor) == expected
                assert all(0 <= x < factor * col[i] for i, (x, col) in enumerate(zip(expected, basis)))
                checked += 1
    assert checked == 24 * len(bases) and len(bases) == 122 + 81


def test_mat_vec_matches_dense_definition():
    rng = random.Random(5)
    values = [0, 0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(0)]
    for rows, cols in ((1, 1), (3, 4), (5, 2), (6, 6)):
        for _ in range(20):
            m = tuple(tuple(rng.choice(values) for _ in range(cols)) for _ in range(rows))
            v = tuple(rng.choice(values) for _ in range(cols))
            dense = tuple(sum(a * b for a, b in zip(row, v)) for row in m)
            assert mat_vec(m, v) == dense
    assert mat_vec(((1, 2), (3, 4)), (0, 0)) == (0, 0)
    assert mat_vec((), (1, 2)) == ()
