"""Exact linear algebra over int and Fraction.

Everything in this package is rational and never touches floating point.
Matrices are tuples of row tuples; basis lattices are handled as lists of
column vectors.  The lattice routines (Hermite form, integer kernel,
congruence lattice, reduction modulo a basis, basis coefficients) take and
return integers only: callers pass data already held in integers, such as
the X/Q generator rows of :func:`kacoh.lattice.generator_rows`, so nothing
here scales Fractions.  The small helpers accept ints and Fractions alike.
"""

from __future__ import annotations

from typing import Sequence

Vec = tuple
Mat = tuple


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


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


def column_style_hermite(columns: Sequence[Sequence[int]], track: bool = False):
    """Hermite form of the integer lattice spanned by ``columns``.

    Returns the list of nonzero reduced columns (pivots positive, entries
    above each pivot zero, entries in the pivot row to the left reduced into
    ``[0, pivot)``).  With ``track=True`` also returns, for every *zero*
    column of the reduced matrix, the integer combination of the original
    columns that produced it; those combinations form a kernel basis of the
    matrix whose columns were passed in.
    """
    cols = [list(c) for c in columns]
    ncols = len(cols)
    nrows = len(cols[0]) if cols else 0
    u = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if track else None

    def combine(j, k, q):
        # col_j -= q * col_k
        cols[j] = [a - q * b for a, b in zip(cols[j], cols[k])]
        if track:
            u[j] = [a - q * b for a, b in zip(u[j], u[k])]

    def swap(j, k):
        cols[j], cols[k] = cols[k], cols[j]
        if track:
            u[j], u[k] = u[k], u[j]

    def negate(j):
        cols[j] = [-a for a in cols[j]]
        if track:
            u[j] = [-a for a in u[j]]

    pivot = 0
    pivot_rows = []
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
                combine(j, j0, q)
                if cols[j][row] != 0:
                    rest.append(j)
            live = [j0] + rest
        j0 = live[0]
        swap(pivot, j0)
        if cols[pivot][row] < 0:
            negate(pivot)
        # Canonical reduction of earlier columns in this pivot row.
        for j in range(pivot):
            q = cols[j][row] // cols[pivot][row]
            if q:
                combine(j, pivot, q)
        pivot_rows.append(row)
        pivot += 1

    basis = [tuple(c) for c in cols[:pivot]]
    if not track:
        return basis
    kernel = [tuple(u[j]) for j in range(pivot, ncols)]
    return basis, kernel


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[Vec]:
    """Basis of the integer kernel of the matrix with the given rows."""
    columns = [tuple(r[j] for r in rows) for j in range(ncols)]
    _, kernel = column_style_hermite(columns, track=True)
    return kernel


def congruence_lattice(rows: Sequence[Sequence[int]], modulus: int, dim: int) -> list[Vec]:
    """Hermite basis of {t in Z^dim : rows @ t == 0 (mod modulus)}.

    Solved as the projection to the first ``dim`` coordinates of the integer
    kernel of [rows | modulus * I].
    """
    if not rows:
        return [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    m = len(rows)
    stacked = [list(rows[i]) + [modulus * int(i == j) for j in range(m)] for i in range(m)]
    kernel = integer_kernel(stacked, dim + m)
    heads = [k[:dim] for k in kernel]
    return column_style_hermite(heads)


def reduce_mod_basis(vec: Sequence[int], basis: Sequence[Sequence[int]]) -> Vec:
    """Canonical representative of an integer vector modulo the column lattice ``basis``.

    ``basis`` must be lower triangular with positive diagonal (as produced by
    :func:`column_style_hermite` on a full-rank lattice).  The result has
    0 <= out[i] < basis[i][i] for every coordinate, so two vectors are
    congruent modulo the lattice iff they reduce to the same tuple.
    """
    x = list(vec)
    dim = len(x)
    for i in range(dim):
        col = basis[i]
        q = x[i] // col[i]
        if q:
            for k in range(i, dim):
                x[k] -= q * col[k]
    return tuple(x)


def basis_coefficients(vec: Sequence[int], basis: Sequence[Sequence[int]]) -> Vec | None:
    """Integer ``d`` with ``vec == sum_j d[j] * basis[j]``, or None if there is none.

    ``basis`` must be lower triangular with positive diagonal, as for
    :func:`reduce_mod_basis`; the coefficients are solved for from the top
    coordinate down, and a division that is not exact means ``vec`` lies
    outside the lattice.
    """
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
