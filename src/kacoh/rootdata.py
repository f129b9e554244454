"""Exact root-system data for the simple types A-G.

Conventions, fixed once and used everywhere:

* Vertices are numbered 1..rank as in the usual tables (for the E series the
  chain is 1, 2, ..., with the pendant vertex carrying the last number); the
  extra vertex of the extended diagram is written 0 and handled in
  :mod:`kacoh.diagram`.
* ``cartan[i][j]`` is the pairing of the i-th simple root with the j-th
  simple coroot (0-based storage of the 1-based vertices).
* Coweight-space vectors are coordinate tuples in the simple-coroot basis,
  so the reflection in vertex i sends y to y - (cartan @ y)_i * e_i and the
  fundamental coweights are the columns of the inverse Cartan matrix, which
  is kept as its integer adjugate over the determinant.

All arithmetic is exact: entries are ints or Fractions, never floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}
# A family letter and an ASCII rank: str.isdigit() also admits "³" and "٣".
_TYPE_NAME = re.compile(r"([A-Ga-g])([0-9]+)")
# Types accepted as aliases of the type they coincide with.
_ALIASES = {("B", 2): "C2", ("D", 3): "A3"}


class SpecError(ValueError):
    """Invalid group specification (bad type, bad generator, bad file)."""


class LabelingError(ValueError):
    """A labeling violates its defining constraints."""


class BudgetError(RuntimeError):
    """A brute-force check would exceed the configured budget."""


class InternalCheckError(RuntimeError):
    """A built-in cross-check failed; indicates a bug, not bad input."""


@dataclass(frozen=True, order=True)
class SimpleType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _MIN_RANK:
            raise SpecError(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or self.rank < _MIN_RANK[self.family]:
            raise SpecError(f"rank {self.rank} too small for family {self.family}")
        if self.family in _MAX_RANK and self.rank > _MAX_RANK[self.family]:
            raise SpecError(f"rank {self.rank} too large for family {self.family}")

    def __str__(self):
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        match = _TYPE_NAME.fullmatch(text)
        if match is not None:
            try:
                rank = int(match[2])
            except ValueError:  # more digits than int() converts
                match = None
        if match is None:
            raise SpecError(f"cannot parse simple type {text!r}")
        return cls(match[1].upper(), rank)

    @property
    def alias_of(self) -> str | None:
        """The name of the type this one is an alias of, or None."""
        return _ALIASES.get((self.family, self.rank))


@dataclass(frozen=True)
class CartanData:
    type: SimpleType
    cartan: tuple            # rank x rank, int entries
    marks: tuple             # (m_1, ..., m_rank, m_0), m_0 == 1: the highest root, then 1
    det: int                 # determinant of cartan, the connection index
    adjugate: tuple          # rank x rank, int entries: cartan @ adjugate == det * I

    @property
    def rank(self) -> int:
        return self.type.rank


def _edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family in "ABC":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        return [(i, i + 1) for i in range(1, rank - 2)] + [
            (rank - 2, rank - 1),
            (rank - 2, rank),
        ]
    if family == "E":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 3, rank)]
    if family == "F":
        return [(1, 2), (2, 3), (3, 4)]
    return [(1, 2)]  # G2


def _cartan_matrix(family: str, rank: int) -> tuple:
    a = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
    for i, j in _edges(family, rank):
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    # Asymmetric corrections at the multiple edge.
    if family == "B" and rank >= 2:
        a[rank - 2][rank - 1] = -2
    elif family == "C":
        a[rank - 1][rank - 2] = -2
    elif family == "F":
        a[1][2] = -2
    elif family == "G":
        a[1][0] = -3
    return tuple(tuple(row) for row in a)


def _marks(family: str, rank: int) -> tuple:
    if family == "A":
        body = [1] * rank
    elif family == "B":
        body = [1] + [2] * (rank - 1)
    elif family == "C":
        body = [2] * (rank - 1) + [1]
    elif family == "D":
        body = [1] + [2] * (rank - 3) + [1, 1]
    elif family == "E":
        body = {
            6: [1, 2, 3, 2, 1, 2],
            7: [1, 2, 3, 4, 3, 2, 2],
            8: [2, 3, 4, 5, 6, 4, 2, 3],
        }[rank]
    elif family == "F":
        body = [2, 3, 4, 2]
    else:  # G2
        body = [3, 2]
    return tuple(body) + (1,)


def _det_adjugate(m) -> tuple:
    """Determinant and adjugate of an integer matrix, in integers.

    Fraction-free (Bareiss) elimination of ``[m | I]``: after step k, entry
    (i, j) of each later row i is the minor of that array on rows 0..k, i
    and columns 0..k, j, so each division is exact and the pivots are the
    leading principal minors, the last one the determinant.  No pivoting:
    the leading minors of a Cartan matrix are positive.  A row whose entry
    in the pivot column is zero would only be multiplied by the ratio of
    two consecutive minors, so it is left as it is and rescaled by the
    telescoped ratio when it is next used: on a banded matrix each step
    then touches a bounded number of rows.  Back substitution then solves
    ``U @ adj == det * R`` for the eliminated ``[U | R]`` row by row from
    the bottom, again with exact divisions since the adjugate is integral.
    """
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    minors = [1]        # minors[k]: the leading principal minor of size k
    level = [0] * n     # rows[i] holds row i as it stood before step level[i]

    def current(i, k):
        # Bring row i to where it stands before step k.
        if level[i] != k:
            ratio, base = minors[k], minors[level[i]]
            rows[i] = [x * ratio // base for x in rows[i]]
            level[i] = k

    for k in range(n):
        current(k, k)
        pivot = rows[k]
        p = pivot[k]
        prev = minors[k]
        minors.append(p)
        for i in range(k + 1, n):
            if rows[i][k]:
                current(i, k)
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot)]
                level[i] = k + 1
    det = minors[n]
    adj = [None] * n
    for k in reversed(range(n)):
        acc = [det * x for x in rows[k][n:]]
        for j in range(k + 1, n):
            u = rows[k][j]
            if u:
                acc = [a - u * b for a, b in zip(acc, adj[j])]
        adj[k] = tuple(a // rows[k][k] for a in acc)
    return det, tuple(adj)


@lru_cache(maxsize=None)
def cartan_data(typ: SimpleType) -> CartanData:
    """Cartan matrix, marks, determinant and adjugate for one type."""
    cartan = _cartan_matrix(typ.family, typ.rank)
    det, adj = _det_adjugate(cartan)
    return CartanData(
        type=typ,
        cartan=cartan,
        marks=_marks(typ.family, typ.rank),
        det=det,
        adjugate=adj,
    )


def norms(data: CartanData) -> tuple:
    """Half square lengths d_i with (alpha_i, alpha_j) = cartan[i][j] * d_j.

    Normalized so that the first vertex of each component has d = 1; only
    ratios matter for the diagram geometry.
    """
    d = [None] * data.rank
    d[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(data.rank):
            if d[j] is None and data.cartan[i][j] != 0:
                # symmetry of the bilinear form: d_i * a_ji = d_j * a_ij
                d[j] = d[i] * data.cartan[j][i] / data.cartan[i][j]
                frontier.append(j)
    return tuple(d)
