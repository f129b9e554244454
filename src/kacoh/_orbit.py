"""Orbit-closure kernel of the torus checker, on lattice coefficients mod n.

The n-th roots of a central element are the points ``zeta + sum_j c_j h_j``
modulo ``n`` times the lattice basis ``h``, one per coefficient vector
``c`` in ``(Z/n)^rank``.  The simple reflection ``s_i`` maps ``c`` to
``c - u * v_i (mod n)`` with ``u = a_i + w_i . c (mod n)``, where
``a_i = <alpha_i, zeta>``, ``w_ij = <alpha_i, h_j>`` and ``v_i`` holds the
coefficients of the coroot ``alpha_i^vee`` in the basis ``h``.  So the
closure never builds a torus point: each reflection becomes one index
permutation of the fiber, and the orbits are the connected components of
those permutations.
"""

from __future__ import annotations

from itertools import chain
from operator import add, getitem


def active_kernel():
    """(name, orbit_partition) of the kernel this process uses."""
    return "pure", orbit_partition


def orbit_partition(points, reflections, n):
    """Partition the points of a root fiber into reflection orbits.

    ``points`` is ``range(n ** rank)``: point ``k`` is the coefficient
    vector whose base-``n`` digits (the first coordinate most significant)
    spell ``k``, so the points run through ``(Z/n)^rank`` in
    ``itertools.product`` order.  ``reflections[i]`` is
    ``(a_i, w_i, v_i)`` for the simple reflection ``s_i``: an integer and two
    integer rows of length ``rank``.  Returns a list of orbits, each a sorted
    list of indices into ``points``, ordered by their smallest member.
    """
    perms = [
        perm
        for a, w, v in reflections
        if (perm := _reflection_permutation(a, w, v, n, points))
    ]
    seen = bytearray(len(points))
    orbits = []
    for start in points:
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        # The orbit list is also the breadth-first queue: it grows while read.
        for k in orbit:
            for perm in perms:
                j = perm[k]
                if not seen[j]:
                    seen[j] = 1
                    orbit.append(j)
        orbit.sort()
        orbits.append(orbit)
    return orbits


def _reflection_permutation(a, w, v, n, points):
    """Index of the image under ``s_i`` of every point; None if ``s_i`` fixes all.

    Everything is built for all points at once, in product order, without
    a loop over the points in Python.
    """
    moved = [(j, x % n) for j, x in enumerate(v) if x % n]
    if not moved:
        return None
    # After digit j, u holds a + w_0 c_0 + ... + w_j c_j (mod n) for every
    # prefix c_0..c_j: each entry spreads into its n extensions.
    u = [a % n]
    for wj in w:
        table = [[(x + wj * c) % n for c in range(n)] for x in range(n)]
        u = list(chain.from_iterable(map(table.__getitem__, u)))
    image = points
    for j, vj in moved:
        # Digit j of every point, and how far moving it shifts the index.
        step = n ** (len(w) - 1 - j)
        digits = list(chain.from_iterable([c] * step for c in range(n)))
        digits *= len(points) // len(digits)
        shift = [[step * ((c - x * vj) % n - c) for c in range(n)] for x in range(n)]
        image = list(map(add, image, map(getitem, map(shift.__getitem__, u), digits)))
    return image
