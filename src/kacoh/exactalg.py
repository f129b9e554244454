"""Exact linear algebra over int and Fraction.

Everything in this package is rational and never touches floating point.
Matrices are tuples of row tuples; basis lattices are handled as lists of
column vectors.  The lattice routines (Hermite form of a lattice that
contains ``scale * Z^dim``, reduction modulo a basis, basis coefficients)
take and return integers only: callers pass data already held in integers,
such as the scaled coweights of :class:`kacoh.oracle.CoweightLattice`, so
nothing here scales Fractions.  Reduction and coefficient solving take a triangular basis
as its :func:`triangular_form`, so they touch only its nonzero entries.  The
small helpers accept ints and Fractions alike.  Subgroups of a finite group,
given by a law ``add`` on hashable elements, grow through :func:`grow`.
"""

from __future__ import annotations

from math import gcd
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


def hermite_mod(columns: Sequence[Sequence[int]], scale: int, dim: int) -> list[Vec]:
    """Hermite form of the lattice spanned by ``scale * Z^dim`` and ``columns``.

    Column-style: lower triangular, pivots positive, and the entries left of
    each pivot reduced into ``[0, pivot)``.  The lattice contains every
    ``scale * e_i``, so every entry below the diagonal is taken mod
    ``scale`` and a row whose pivot is ``scale`` needs no work: its column is
    ``scale * e_i``.  The other columns are the few ``extra`` ones, zero
    above the current row.  At row ``i`` a Euclid leaves one of them with a
    nonzero entry ``a``; with ``scale * e_i`` it spans the pivot column, of
    entry ``d = gcd(a, scale)``, and one carry column that vanishes at row
    ``i``.
    """
    extra = [[x % scale for x in c] for c in columns]
    basis = []
    for i in range(dim):
        live = [c for c in extra if c[i]]
        while len(live) > 1:
            live.sort(key=lambda c: c[i])
            c0 = live[0]
            for c in live[1:]:
                q = c[i] // c0[i]
                c[i:] = [(a - q * b) % scale for a, b in zip(c[i:], c0[i:])]
            live = [c0] + [c for c in live[1:] if c[i]]
        if not live:
            basis.append([0] * i + [scale] + [0] * (dim - i - 1))
            continue
        g = live[0]
        a = g[i]
        d = gcd(a, scale)
        x = pow(a // d, -1, scale // d)
        basis.append([0] * i + [d] + [x * b % scale for b in g[i + 1:]])
        carry = [0] * (i + 1) + [scale // d * b % scale for b in g[i + 1:]]
        extra = [c for c in extra if c is not g and any(c)]
        if any(carry):
            extra.append(carry)
    # Entries left of a pivot d < scale into [0, d); the others already are.
    for k, col in enumerate(basis):
        d = col[k]
        if d == scale:
            continue
        for left in basis[:k]:
            q = left[k] // d
            if q:
                left[k:] = [(a - q * b) % scale for a, b in zip(left[k:], col[k:])]
    return [tuple(c) for c in basis]


def triangular_form(basis: Sequence[Sequence[int]]) -> tuple:
    """The nonzero entries of a lower triangular column basis, column by column.

    ``basis`` is lower triangular with positive diagonal, as produced by
    :func:`hermite_mod`.  Column ``i`` becomes
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


# ---------------------------------------------------------------------------
# Finite groups


def mod_adder(m: int):
    """The group law of ``(Z/m)^k`` on integer tuples."""
    return lambda u, v: tuple([(a + b) % m for a, b in zip(u, v)])


def grow(span, g, add):
    """The subgroup generated by the finite subgroup ``span`` and ``g``.

    The cosets ``span + k*g`` for k = 1, 2, ... are new until the first
    whose first element is in ``span`` again, so ``len(result) // len(span)``
    is the order of ``g`` modulo ``span``.  Returns ``span`` itself when
    ``g`` is in it, and a new set otherwise.
    """
    if g in span:
        return span
    out, coset = set(span), list(span)
    while True:
        coset = [add(v, g) for v in coset]
        if coset[0] in span:
            return out
        out.update(coset)


def staircase(elements, zero, add) -> list:
    """Greedy cyclic decomposition of the finite abelian group ``elements``.

    Repeatedly picks the first element, in the order of ``elements``, of
    maximal order relative to the span built so far, and grows the span by
    it.  Returns a list of ``(generator, relative_order)``.
    """
    order = len(elements)
    span = {zero}
    stairs = []
    while len(span) < order:
        best = None
        for e in elements:
            if e in span:
                continue
            d, cur = 1, e
            while cur not in span:
                cur = add(cur, e)
                d += 1
            if best is None or d > best[1]:
                best = (e, d)
                if d == order // len(span):
                    break  # no relative order is larger
        stairs.append(best)
        span = grow(span, best[0], add)
    return stairs
