"""Orbit-closure kernel of the torus checker, on lattice coefficients mod n.

The n-th roots of a central element are the points ``zeta + sum_j c_j h_j``
modulo ``n`` times the lattice basis ``h``, one per coefficient vector
``c`` in ``(Z/n)^rank``.  The simple reflection ``s_i`` maps ``c`` to
``c - u * v_i (mod n)`` with ``u = a_i + w_i . c (mod n)``, where
``a_i = <alpha_i, zeta>``, ``w_ij = <alpha_i, h_j>`` and ``v_i`` holds the
coefficients of the coroot ``alpha_i^vee`` in the basis ``h``.  So the
closure never builds a torus point: each reflection becomes one index
permutation of the fiber, and the orbits are the connected components of
those permutations.  The closure reports them as the orbit number of every
point and the size of every orbit; it never lists or sorts an orbit's
points.

Each permutation is built a whole column at a time, never point by point.
A column holds one byte per point, in product order, so the digits and
``u`` must stay below 256: the kernel takes ``n <= MAX_N``.  ``u`` is a
chain of ``bytes.translate`` calls over the digits, last to first, and
``t = u * v_ij mod n`` one more translate.  The columns are then widened
to one integer with a lane of 2, 4 or 8 bytes per point.  The moved digit
``c_j - t mod n`` differs from ``c_j`` by ``-t``, plus ``n`` where
``c_j < t``, which a shift of ``c_j + 256 - t`` reads off every lane at
once.  So the image index ``k + sum_j n**(rank-1-j) * (c'_j - c_j)`` takes
a fixed number of integer operations per moved digit, whatever n is; its
lanes end in ``[0, n**rank)``, so the integer reads back one index per
lane.

Nothing of this is built twice.  The fiber's columns depend only on
``(n, rank)`` and are built once per process; a permutation depends only
on ``n``, the rows ``w_i``, ``v_i`` and ``a_i mod n``, so the caller keeps
it, as its lane bytes, in a store that lives as long as those rows.  For
the same reason the whole partition depends only on ``n``, those rows and
the vector of ``a_i mod n``, which is what the caller keeps a closure
under (:class:`kacoh.oracle.CoweightLattice`).
"""

from __future__ import annotations

import sys
from functools import cache
from operator import mul

MAX_N = 256
_ORDER = sys.byteorder
_LANES = ((2, "H"), (4, "I"), (8, "Q"))


def active_kernel():
    """(name, orbit_partition) of the kernel this process uses."""
    return "pure", orbit_partition


def orbit_partition(points, reflections, n, store, numbers):
    """Partition the points of a root fiber into reflection orbits.

    ``points`` is ``range(n ** rank)``: point ``k`` is the coefficient
    vector whose base-``n`` digits (the first coordinate most significant)
    spell ``k``, so the points run through ``(Z/n)^rank`` in
    ``itertools.product`` order.  ``reflections[i]`` is
    ``(a_i, w_i, v_i)`` for the simple reflection ``s_i``: an integer and two
    integer rows of length ``rank``.  ``n`` is at most :data:`MAX_N`.
    ``store`` keeps the permutations across calls (see :func:`_permutations`).
    The list ``numbers`` is set to each point's orbit number; the orbits are
    numbered in the order of their smallest members.  Returns the list of
    orbit sizes in that order; no orbit is listed.
    """
    perms = _permutations(reflections, n, store)
    numbers[:] = [None] * len(points)
    sizes = []
    for start in points:
        if numbers[start] is not None:
            continue
        number = numbers[start] = len(sizes)
        # A breadth-first queue that grows while read; dropped once closed.
        queue = [start]
        for k in queue:
            for perm in perms:
                j = perm[k]
                if numbers[j] is None:
                    numbers[j] = number
                    queue.append(j)
        sizes.append(len(queue))
    return sizes


def _permutations(reflections, n, store):
    """The index permutation of every reflection that moves a point.

    Each is built once per ``(n, i, a_i mod n)``, the key it is kept under
    in the dict ``store``, so one store serves one set of rows ``w``, ``v``.
    It is kept as its lane bytes (None where ``s_i`` fixes every point),
    far smaller than a list of ints, and returned as a ``memoryview`` of
    them cast to the lane format, which is indexed in place: no call builds
    an int per point.
    """
    fiber = _fiber(n, len(reflections[0][1]) if reflections else 0)
    perms = []
    for i, (a, w, v) in enumerate(reflections):
        key = (n, i, a % n)
        try:
            lanes = store[key]
        except KeyError:
            lanes = store[key] = _reflection_lanes(a, w, v, fiber)
        if lanes is not None:
            perms.append(memoryview(lanes).cast(fiber.format))
    return perms


@cache
def _tables(n):
    """``bytes.translate`` tables on values below ``n`` (at most MAX_N of them).

    ``add[d]`` maps ``x`` to ``x + d mod n`` and ``times[d]`` maps ``x`` to
    ``x * d mod n``.
    """
    pad = bytes(256 - n)
    cycle = bytes(range(n)) * 2
    add = [cycle[d : d + n] + pad for d in range(n)]
    times = [bytes(x * d % n for x in range(n)) + pad for d in range(n)]
    return add, times


@cache
def _fiber(n, rank):
    """The :class:`_Fiber` of ``(n, rank)``, built once.

    It holds ``rank + 2`` integers of ``n ** rank`` lanes, about as much as
    the permutation lanes a lattice keeps over it.  The cache lives as long
    as the process, not as long as a spec: after ``cross_check`` of every
    central element of ``halfspin:D16`` at n=2, 2.5 MB of the 5.1 MB the
    run added (``tracemalloc``) stays once the spec is dropped.  A process
    that sweeps many ranks and levels pays for each fiber once.
    """
    return _Fiber(n, rank)


class _Fiber:
    """The digit columns of ``(Z/n)^rank`` in product order, as integer lanes."""

    def __init__(self, n, rank):
        self.n = n
        self.size = size = n ** rank
        self.steps = [n ** (rank - 1 - j) for j in range(rank)]
        # Two bytes at least: a lane must hold c + 256 - u v for the wrap test.
        self.width, self.format = next((w, f) for w, f in _LANES if size <= 256 ** w)
        self.ones = self.lanes(b"\x01" * size)
        # Digit j runs through 0..n-1, each value repeated steps[j] times.
        self.digit_lanes = [
            self.lanes(b"".join(bytes((c,)) * step for c in range(n)) * (size // (n * step)))
            for step in self.steps
        ]
        self.identity = sum(map(mul, self.steps, self.digit_lanes))

    def lanes(self, column):
        """The byte column as one integer with a lane of ``width`` bytes per point."""
        wide = bytearray(self.size * self.width)
        wide[0 if _ORDER == "little" else self.width - 1 :: self.width] = column
        return int.from_bytes(wide, _ORDER)


def _reflection_lanes(a, w, v, fiber):
    """The image index under ``s_i`` of every point, one lane each, as bytes.

    None if ``s_i`` fixes every point.
    """
    n = fiber.n
    moved = [(j, x % n) for j, x in enumerate(v) if x % n]
    if not moved:
        return None
    add, times = _tables(n)
    # After digit j, u holds a + w_j c_j + ... + w_last c_last (mod n) over
    # the suffixes c_j..c_last, c_j most significant.
    u = bytes((a % n,))
    for wj in reversed(w):
        u = b"".join([u.translate(add[wj * c % n]) for c in range(n)])
    ones = fiber.ones
    image = fiber.identity
    for j, vj in moved:
        # Digit j becomes c_j - t (mod n) with t = u v_j mod n: it moves by
        # -t, plus n where c_j < t, which is where bit 8 of c_j + 256 - t is clear.
        t = fiber.lanes(u.translate(times[vj]))
        wraps = ones - (((fiber.digit_lanes[j] + (ones << 8) - t) >> 8) & ones)
        image += fiber.steps[j] * (n * wraps - t)
    return image.to_bytes(fiber.size * fiber.width, _ORDER)
