"""Exact linear algebra over int and Fraction.

Everything in this package is rational and never touches floating point.
Matrices are tuples of row tuples; basis lattices are handled as lists of
column vectors.  The lattice routines (Hermite form, congruence lattice,
reduction modulo a basis, basis coefficients) take and return integers
only: callers pass data already held in integers, such as the X/Q
generator rows of :func:`kacoh.lattice.generator_rows`, so nothing here
scales Fractions.  Reduction and coefficient solving take a triangular basis
as its :func:`triangular_form`, so they touch only its nonzero entries.  The
small helpers accept ints and Fractions alike.
"""

from __future__ import annotations

from typing import Sequence

Vec = tuple
Mat = tuple


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> Vec:
    """``m @ v``, summed over the nonzero entries of ``v`` only."""
    terms = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum(row[j] * x for j, x in terms) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Mat:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def block_diag(blocks: Sequence[Sequence[Sequence]]) -> Mat:
    """Assemble square blocks into one block-diagonal matrix."""
    total = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append((0,) * offset + tuple(row) + (0,) * (total - offset - len(row)))
        offset += len(b)
    return tuple(rows)


def column_style_hermite(columns: Sequence[Sequence[int]]) -> list[Vec]:
    """Hermite form of the integer lattice spanned by ``columns``.

    Returns the list of nonzero reduced columns (pivots positive, entries
    above each pivot zero, entries in the pivot row to the left reduced into
    ``[0, pivot)``).
    """
    cols = [list(c) for c in columns]
    ncols = len(cols)
    nrows = len(cols[0]) if cols else 0
    pivot = 0
    for row in range(nrows):
        live = [j for j in range(pivot, ncols) if cols[j][row] != 0]
        if not live:
            continue
        # Euclid on the live columns until a single nonzero entry remains.
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][row]))
            j0 = live[0]
            rest = []
            for j in live[1:]:
                q = cols[j][row] // cols[j0][row]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[j0])]
                if cols[j][row] != 0:
                    rest.append(j)
            live = [j0] + rest
        j0 = live[0]
        cols[pivot], cols[j0] = cols[j0], cols[pivot]
        if cols[pivot][row] < 0:
            cols[pivot] = [-a for a in cols[pivot]]
        # Canonical reduction of earlier columns in this pivot row.
        for j in range(pivot):
            q = cols[j][row] // cols[pivot][row]
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[pivot])]
        pivot += 1
    return [tuple(c) for c in cols[:pivot]]


def congruence_lattice(rows: Sequence[Sequence[int]], modulus: int, dim: int) -> list[Vec]:
    """Hermite basis of {t in Z^dim : rows @ t == 0 (mod modulus)}.

    The columns ``(rows @ e_i ; e_i)`` and ``(modulus * e_j ; 0)`` span the
    vectors ``(rows @ t + modulus * k ; t)``.  Their Hermite columns that
    vanish on the first ``len(rows)`` coordinates span those with
    ``rows @ t + modulus * k == 0``, so their last ``dim`` coordinates are the
    Hermite basis of the congruence lattice.
    """
    m = len(rows)
    columns = [
        tuple(r[i] for r in rows) + tuple(int(i == j) for j in range(dim))
        for i in range(dim)
    ] + [
        tuple(modulus * int(i == j) for i in range(m)) + (0,) * dim
        for j in range(m)
    ]
    return [c[m:] for c in column_style_hermite(columns) if not any(c[:m])]


def triangular_form(basis: Sequence[Sequence[int]]) -> tuple:
    """The nonzero entries of a lower triangular column basis, column by column.

    ``basis`` is lower triangular with positive diagonal, as produced by
    :func:`column_style_hermite` on a full-rank lattice.  Column ``i`` becomes
    ``(pivot, below)``: its diagonal entry and the ``(row, entry)`` pairs of
    its nonzero entries below the diagonal.
    """
    return tuple(
        (col[i], tuple((k, a) for k, a in enumerate(col[i + 1:], i + 1) if a))
        for i, col in enumerate(basis)
    )


def reduce_mod_basis(vec: Sequence[int], triangular: Sequence, factor: int = 1) -> Vec:
    """Canonical representative of an integer vector modulo the column lattice ``factor * basis``.

    ``triangular`` is the :func:`triangular_form` of ``basis`` and ``factor``
    is positive.  The result has 0 <= out[i] < factor * basis[i][i] for every
    coordinate, so two vectors are congruent modulo the lattice iff they
    reduce to the same tuple.
    """
    x = list(vec)
    for i, (pivot, below) in enumerate(triangular):
        q = x[i] // (factor * pivot) * factor
        if q:
            x[i] -= q * pivot
            for k, a in below:
                x[k] -= q * a
    return tuple(x)


def basis_coefficients(vec: Sequence[int], triangular: Sequence) -> Vec | None:
    """Integer ``d`` with ``vec == sum_j d[j] * basis[j]``, or None if there is none.

    ``triangular`` is the :func:`triangular_form` of ``basis``; the
    coefficients are solved for from the top coordinate down, and a division
    that is not exact means ``vec`` lies outside the lattice.
    """
    x = list(vec)
    out = []
    for i, (pivot, below) in enumerate(triangular):
        q, r = divmod(x[i], pivot)
        if r:
            return None
        if q:
            for k, a in below:
                x[k] -= q * a
        out.append(q)
    return tuple(out)
