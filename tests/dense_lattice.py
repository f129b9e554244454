"""The dense Hermite forms that the lattice code replaced, kept as references.

``column_style_hermite`` runs a Euclid on full columns and
``congruence_lattice`` builds ``{t : rows . t = 0 mod m}`` from one Hermite
form of the columns ``(rows . e_i ; e_i)`` and ``(m e_j ; 0)``.
``dense_coweight_hnf`` is the cocharacter lattice as it was built from them:
the congruence lattice in coweight coordinates, mapped to scaled coroot
coordinates and put in Hermite form.
"""

from typing import Sequence

from kacoh.exactalg import mat_vec


def column_style_hermite(columns: Sequence[Sequence[int]]) -> list:
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


def congruence_lattice(rows: Sequence[Sequence[int]], modulus: int, dim: int) -> list:
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


def dense_coweight_hnf(lattice) -> tuple:
    """``(hnf, tbasis)`` of ``lattice`` by the dense route: its Hermite basis
    and the congruence lattice it was mapped from."""
    modulus, rows = lattice.spec.den, lattice.spec.rows
    tbasis = congruence_lattice(rows, modulus, lattice.rank)
    hnf = column_style_hermite([mat_vec(lattice.scaled_inverse, t) for t in tbasis])
    return tuple(hnf), tuple(tbasis)
