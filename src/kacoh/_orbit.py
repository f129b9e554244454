"""Orbit-closure kernel of the torus checker, in plain Python integers.

Torus points arrive scaled to integers and reduced into the fundamental box
of a triangular integer lattice basis.  A simple reflection ``s_i`` changes
only coordinate ``i``, so each reflection is passed as one sparse row and an
image costs one short dot product plus a reduction that starts at ``i``.
"""

from __future__ import annotations

from .exactalg import reduce_mod_basis


def active_kernel():
    """(name, orbit_partition) of the kernel this process uses."""
    return "pure", orbit_partition


def orbit_partition(points, reflections, basis):
    """Partition scaled points into orbits of the reflection closure.

    ``points`` must already be reduced and pairwise distinct.
    ``reflections[i]`` is the sparse row of the simple reflection ``s_i``:
    pairs ``(j, c)`` with ``s_i(x)_i = sum(c * x[j])``; every other
    coordinate is fixed.  Returns a list of orbits, each a sorted list of
    indices into ``points``, ordered by their smallest member.  Raises
    KeyError if a reflection image leaves the point set.
    """
    index = {pt: i for i, pt in enumerate(points)}
    rows = [(i, row, basis[i][i]) for i, row in enumerate(reflections)]
    seen = [False] * len(points)
    orbits = []
    for start in range(len(points)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        frontier = [start]
        while frontier:
            pt = points[frontier.pop()]
            for i, row, bound in rows:
                x_i = sum(c * pt[j] for j, c in row)
                if x_i == pt[i]:
                    continue
                image = list(pt)
                image[i] = x_i
                # Only coordinate i moved: inside its box, the image is reduced.
                if not 0 <= x_i < bound:
                    image = reduce_mod_basis(image, basis, i)
                j = index[tuple(image)]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
                    frontier.append(j)
        orbits.append(sorted(orbit))
    return orbits
