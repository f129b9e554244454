"""Character lattices between root and weight lattice, and the center.

A group is specified by its simple components plus generators of the
quotient X/Q, each a weight given by its rational coefficient vector in the
simple-root basis (the entries at mark-1 vertices are exactly its pairings
with the generating coweight classes, which is what every congruence
condition downstream consumes).

A class in P/Q is faithfully represented by its coefficient vector reduced
into [0,1) per entry (two weights are congruent mod Q iff the vectors agree).
Scaled by ``den``, the lcm of the generator denominators, such a vector is
an integer tuple mod ``den``, and a :class:`GroupSpec` holds X/Q in that form
alone.  :func:`validate_spec` is the one door for Fraction generators: it
checks that each is a weight and scales them once; the presets and the
lattice sweep hand the constructor integer rows.  Fractions are built only
for ``spec.generators``, :func:`xq_elements`, :func:`_closure` and the
central elements of :func:`enumerate_center`, which callers outside the
integer layer read; :func:`central_key` and the document texts read the
integer rows.  Scaling by a positive constant keeps the lexicographic
order, so the canonical generators are those of the Fraction vectors.

The coweight classes pair perfectly with P/Q, and :func:`_coweight_keys`
maps each to its key, its pairings with the generators times ``den``.  The
dual subgroup is the classes of key zero and the center is the set of keys;
:func:`central_key` is the one map from a central element to its key.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, product
from math import gcd, lcm

from .diagram import ExtendedDiagram, FundamentalGroup
from .exactalg import grow, mod_adder, staircase
from .rootdata import SimpleType, SpecError, cartan_data

PRESETS = ("sc", "ad", "halfspin", "so")


@dataclass(frozen=True)
class GroupSpec:
    """A lattice Q <= X <= P: ``rows`` are the canonical generators of X/Q
    times ``den``, the lcm of their denominators, in ``[0, den)``.

    Built from any rows over any ``den``: ``den`` is divided by its gcd with
    every entry, the rows are closed into ``closure`` (the elements of X/Q),
    and the staircase of the sorted closure becomes the rows.
    """

    components: tuple                 # SimpleType, ...
    den: int
    rows: tuple
    closure: set = field(init=False, repr=False, compare=False)
    # What :meth:`derived` has built from the fields above.
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        rank = self.total_rank
        common = gcd(self.den, *chain.from_iterable(self.rows))
        den = self.den // common
        closure = _int_closure(
            [tuple([a // common % den for a in row]) for row in self.rows], rank, den
        )
        stairs = staircase(sorted(closure), (0,) * rank, mod_adder(den))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", tuple(g for g, _ in stairs))
        object.__setattr__(self, "closure", closure)

    @cached_property
    def generators(self) -> tuple:
        """The canonical generators as Fraction vectors."""
        return tuple(_fractions(self.rows, self.den))

    @property
    def total_rank(self) -> int:
        return sum(t.rank for t in self.components)

    def derived(self, build):
        """``build(self)``, built on the first call and kept with the spec.

        Data that depends on the spec alone (diagram, groups, the coweight
        lattice, the texts of its document, the class table of
        :mod:`kacoh.labelings`) is derived through here, so repeated queries
        on one spec build each part once.  The results are shared: callers
        must not mutate them.
        Two of them fill themselves in as queries arrive: the class table,
        which only :mod:`kacoh.labelings` touches, and the coweight lattice,
        which keeps the central coweights, reflection permutations,
        closures and texts that :mod:`kacoh.oracle` derives from it.
        """
        cache = self._derived
        try:
            return cache[build]
        except KeyError:
            return cache.setdefault(build, build(self))

    def diagram(self) -> ExtendedDiagram:
        """The extended diagram, one object for every spec of these components."""
        return self.derived(_build_diagram)

    def describe(self) -> str:
        comps = "x".join(str(t) for t in self.components)
        if not self.generators:
            return f"{comps} (adjoint lattice)"
        gens = "; ".join("(" + ", ".join(map(str, g)) + ")" for g in self.generators)
        return f"{comps} with X/Q generated by {gens}"


@dataclass(frozen=True)
class CentralElement:
    """A central element, recorded by its values on the spec's generators.

    Each value is the class in Q/Z of the pairing of the generator with a
    logarithm of the element, stored as a Fraction in [0,1): values given
    outside that range are reduced mod 1.
    """

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_frac_mod1(v) for v in self.values))

    @property
    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values)


def _frac_mod1(x) -> Fraction:
    f = x if type(x) is Fraction else Fraction(x)
    if 0 <= f.numerator < f.denominator:
        return f
    return f - (f.numerator // f.denominator)


@lru_cache(maxsize=None)
def _shared_diagram(components: tuple) -> ExtendedDiagram:
    """One diagram per component tuple, so that every lattice of the same
    root system shares its derived data, its ``full_group`` and each K_n
    of :func:`kacoh.labelings.enumerate_Kn`.  Kept for the life of the
    process, like the per-type data of ``cartan_data`` and those K_n."""
    return ExtendedDiagram(components)


def _build_diagram(spec: GroupSpec) -> ExtendedDiagram:
    return _shared_diagram(spec.components)


def _scaled(vectors) -> tuple:
    """``(den, rows)``: ``den`` the lcm of all denominators, each vector
    times ``den`` as an integer tuple, not reduced."""
    den = lcm(*(x.denominator for vec in vectors for x in vec))
    return den, [tuple([x.numerator * (den // x.denominator) for x in vec]) for vec in vectors]


def _fractions(vectors, den) -> list:
    """Each integer tuple over ``den`` as its Fraction tuple, in order."""
    frac = {a: Fraction(a, den) for a in set(chain.from_iterable(vectors))}
    return [tuple(frac[a] for a in vec) for vec in vectors]


def _int_closure(gens, rank: int, den: int) -> set:
    """The subgroup of ``(Z/den)^rank`` generated by ``gens``: the trivial
    subgroup grown (:func:`kacoh.exactalg.grow`) by each generator in turn."""
    add, out = mod_adder(den), {(0,) * rank}
    for g in gens:
        out = grow(out, g, add)
    return out


def _closure(vectors, rank: int) -> set:
    """The subgroup of P/Q generated by Fraction vectors, as Fraction tuples.

    For callers outside the integer layer, such as ``perfbench/freeze.py``.
    """
    den, gens = _scaled(vectors)
    return set(_fractions(_int_closure(gens, rank, den), den))


def _cartan_columns(components) -> list:
    """Per simple coroot j, the pairs ``(i, cartan[i][j])`` with nonzero entry."""
    columns = []
    offset = 0
    for typ in components:
        a = cartan_data(typ).cartan
        columns.extend(
            tuple((offset + i, a[i][j]) for i in range(typ.rank) if a[i][j])
            for j in range(typ.rank)
        )
        offset += typ.rank
    return columns


def validate_spec(components, xq_generators) -> GroupSpec:
    """The spec of Fraction generators, each checked to be a weight.

    The generators are scaled to integer rows once; the weight check pairs
    each row with the integer Cartan columns, and the rows build the spec.
    """
    comps = tuple(t if isinstance(t, SimpleType) else SimpleType.parse(t) for t in components)
    if not comps:
        raise SpecError("empty component list")
    rank = sum(t.rank for t in comps)
    columns = _cartan_columns(comps)
    vectors = [tuple(Fraction(x) for x in raw) for raw in xq_generators]
    den, rows = _scaled(vectors)
    for vec, row in zip(vectors, rows):
        if len(vec) != rank:
            raise SpecError(f"generator has {len(vec)} coefficients, expected {rank}")
        for j, column in enumerate(columns):
            total = sum(c * row[i] for i, c in column)
            if total % den:
                spelled = ", ".join(format_rational(x) for x in vec)
                raise SpecError(
                    f"generator [{spelled}] is not a weight: pairing with coroot "
                    f"{j + 1} is {Fraction(total, den)}"
                )
    return GroupSpec(comps, den, rows)


def xq_order(spec: GroupSpec) -> int:
    return len(spec.closure)


def xq_elements(spec: GroupSpec) -> tuple:
    return tuple(_fractions(sorted(spec.closure), spec.den))


def _coweight_keys(spec: GroupSpec) -> dict:
    """Each coweight class modulo the coroots, named by its tags (per
    component 0 or a mark-1 vertex), mapped to its key: the sum of each
    row of ``spec.rows`` at the tags, mod ``spec.den``."""
    den, gens = spec.den, spec.rows
    offsets = tuple(accumulate((t.rank for t in spec.components), initial=0))
    choices = [
        [0] + [j for j, mark in enumerate(cartan_data(t).marks[:-1], 1) if mark == 1]
        for t in spec.components
    ]
    keys = {}
    for tags in product(*choices):
        slots = [off + tag - 1 for off, tag in zip(offsets, tags) if tag]
        keys[tags] = tuple(sum(gen[s] for s in slots) % den for gen in gens)
    return keys


def _dual_subgroup(spec: GroupSpec) -> FundamentalGroup:
    keys = spec.derived(_coweight_keys)
    group = spec.diagram().full_group
    return group.subgroup([g for g in group.elements if not any(keys[g.tags])])


def dual_subgroup(spec: GroupSpec) -> FundamentalGroup:
    """The coweight classes of X: the annihilator of X/Q under the pairing."""
    return spec.derived(_dual_subgroup)


def _central_keys(spec: GroupSpec) -> frozenset:
    """The keys of the central elements."""
    return frozenset(spec.derived(_coweight_keys).values())


def _center(spec: GroupSpec) -> dict:
    """The central elements by key, in increasing key order, for
    :func:`enumerate_center` and :func:`kacoh.cohomology.z_from_q`."""
    return {
        key: CentralElement(values=tuple(Fraction(a, spec.den) for a in key))
        for key in sorted(spec.derived(_central_keys))
    }


def enumerate_center(spec: GroupSpec) -> tuple:
    """All homomorphisms X/Q -> Q/Z, i.e. all central elements.

    Each is the pairing with a coweight class.  Ordered by key, that is by
    values lexicographically, so the trivial element comes first.
    """
    return tuple(spec.derived(_center).values())


def central_key(spec: GroupSpec, z: CentralElement):
    """The integer key of ``z``: its values times ``den``.

    ``None`` when that is not integral or not the key of a central element.
    """
    scaled = [divmod(v.numerator * spec.den, v.denominator) for v in z.values]
    key = tuple(k for k, _ in scaled)
    if any(r for _, r in scaled) or key not in spec.derived(_central_keys):
        return None
    return key


def check_central(spec: GroupSpec, z: CentralElement) -> tuple:
    """The :func:`central_key` of ``z``; rejects values that are no homomorphism on X/Q."""
    if len(z.values) != len(spec.rows):
        raise SpecError(
            f"central element carries {len(z.values)} values, expected {len(spec.rows)}"
        )
    key = central_key(spec, z)
    if key is None:
        values = ", ".join(str(v) for v in z.values)
        raise SpecError(f"values ({values}) do not define a homomorphism on X/Q")
    return key


def trivial_central(spec: GroupSpec) -> CentralElement:
    return CentralElement(values=tuple(Fraction(0) for _ in spec.rows))


# ---------------------------------------------------------------------------
# Subgroup sweep (used by verification suites)


def all_intermediate_specs(components) -> tuple:
    """Every lattice X with Q <= X <= P, as canonical GroupSpecs.

    Starting from the trivial subgroup of P/Q, each subgroup found is grown
    (:func:`kacoh.exactalg.grow`) by one more element until no new subgroup
    appears.  Every subgroup is reached: adding its elements one at a time
    passes only through subgroups.  The elements of one coset ``e + sub``
    all grow ``sub`` to the same subgroup, so only the first of each coset
    is tried, and the coset is handed to ``grow`` as its first.  Ordered by
    subgroup size, then by sorted elements; each spec is built from the
    integer rows of its subgroup.  Each spec keeps what its queries derive
    (:meth:`GroupSpec.derived`), so keeping the returned tuple keeps the
    caches of every spec in it.
    """
    comps = validate_spec(components, []).components
    full = GroupSpec(comps, *_weight_generators(comps))
    den, elements = full.den, sorted(full.closure)
    add = mod_adder(den)
    trivial = frozenset([(0,) * full.total_rank])
    found = {trivial: []}       # subgroup -> generators that close to it
    frontier = [trivial]
    while frontier:
        grown = []
        for sub in frontier:
            gens = found[sub]
            tried = set(sub)
            for e in elements:
                if e in tried:
                    continue
                coset = [add(h, e) for h in sub]
                tried.update(coset)
                bigger = frozenset(grow(sub, e, add, coset))
                if bigger not in found:
                    found[bigger] = gens + [e]
                    grown.append(bigger)
        frontier = grown
    return tuple(
        GroupSpec(comps, den, gens)
        for _, gens in sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    )


def _weight_basis(components) -> list:
    """Root coefficients of every fundamental weight, embedded globally."""
    total = sum(t.rank for t in components)
    out = []
    offset = 0
    for typ in components:
        data = cartan_data(typ)
        for row in data.adjugate:  # row j: det times weight j+1 in root coordinates
            vec = [Fraction(0)] * total
            vec[offset:offset + typ.rank] = [Fraction(x, data.det) for x in row]
            out.append(tuple(vec))
        offset += typ.rank
    return out


def _weight_generators(components) -> tuple:
    """``(den, rows)``: fundamental weights that generate P/Q, embedded as in
    :func:`_weight_basis`, times ``den``, the lcm of the determinants.

    Per component, the fundamental weights in order, each kept only if it
    grows the subgroup of ``(Z/det)^rank`` of those kept so far, until that
    has the ``det`` elements of P/Q.
    """
    total = sum(t.rank for t in components)
    den = lcm(*(cartan_data(t).det for t in components))
    rows = []
    offset = 0
    for typ in components:
        data = cartan_data(typ)
        det, add = data.det, mod_adder(data.det)
        closure = {(0,) * typ.rank}
        for row in data.adjugate:  # row j: det times weight j+1 in root coordinates
            if len(closure) == det:
                break
            local = tuple([x % det for x in row])
            grown = grow(closure, local, add)
            if grown is closure:
                continue
            closure = grown
            vec = [0] * total
            vec[offset:offset + typ.rank] = [x * (den // det) for x in local]
            rows.append(tuple(vec))
        offset += typ.rank
    return den, rows


# ---------------------------------------------------------------------------
# Presets and spec files


def _single_component(comps, preset: str) -> SimpleType:
    if len(comps) != 1:
        raise SpecError(f"preset {preset!r} needs exactly one component")
    return comps[0]


def preset_spec(text: str) -> GroupSpec:
    """Parse a preset string like ``sc:E7``, ``ad:A1xA1``, ``halfspin:D12``.

    sc        simply connected (X = P)
    ad        adjoint (X = Q)
    halfspin  half-spin lattice of D_l, l even
    so        vector lattice of D_l or B_l (the orthogonal group)
    """
    if ":" not in text:
        raise SpecError(f"preset {text!r} is not of the form name:TYPE")
    name, _, typestr = text.partition(":")
    comps = tuple(SimpleType.parse(t) for t in typestr.split("x"))
    if name == "sc":
        return GroupSpec(comps, *_weight_generators(comps))
    if name == "ad":
        return GroupSpec(comps, 1, ())
    if name == "halfspin":
        typ = _single_component(comps, name)
        if typ.family != "D" or typ.rank % 2 or typ.rank < 4:
            raise SpecError("halfspin needs a single D component of even rank >= 4")
        row = [0] * typ.rank
        for i in list(range(1, typ.rank - 2, 2)) + [typ.rank]:
            row[i - 1] = 1
        return GroupSpec(comps, 2, (tuple(row),))
    if name == "so":
        typ = _single_component(comps, name)
        if typ.family == "B":
            return GroupSpec(comps, 1, ())
        if typ.family == "D":
            data = cartan_data(typ)
            return GroupSpec(comps, data.det, (data.adjugate[0],))
        raise SpecError("so needs a single B or D component")
    raise SpecError(f"unknown preset {name!r} (choose from {', '.join(PRESETS)})")


def load_spec(source: str) -> GroupSpec:
    """Spec from a JSON spec file path or a preset string.

    An existing file is read as a spec file even when its path has a ``:``.
    """
    if ":" in source and not source.lstrip().startswith("{") and not os.path.isfile(source):
        return preset_spec(source)
    try:
        with open(source, "rb") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {source!r} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte in the path, or a file that is not text.
        raise SpecError(f"cannot read spec file {source!r}: {exc}") from exc
    return spec_from_document(doc)


def spec_from_document(doc) -> GroupSpec:
    if not isinstance(doc, dict) or "components" not in doc:
        raise SpecError("spec document must be an object with a 'components' list")
    names = doc["components"]
    if not isinstance(names, list) or not all(isinstance(t, str) for t in names):
        raise SpecError(f"spec components must be a list of type names, got {names!r}")
    raws = doc.get("generators", [])
    if not isinstance(raws, list) or not all(isinstance(g, list) for g in raws):
        raise SpecError(f"spec generators must be a list of lists, got {raws!r}")
    comps = [SimpleType.parse(t) for t in names]
    gens = [tuple(parse_rational(x) for x in raw) for raw in raws]
    return validate_spec(comps, gens)


def _document_texts(spec: GroupSpec) -> tuple:
    """The component names and the generator texts of the spec document:
    the :func:`format_rational` of each entry of ``spec.generators``,
    spelled from its integer over ``spec.den``."""
    den = spec.den
    return (
        tuple(str(t) for t in spec.components),
        tuple(
            tuple([f"{a // g}/{den // g}" for a in row for g in [gcd(a, den)]])
            for row in spec.rows
        ),
    )


def spec_to_document(spec: GroupSpec) -> dict:
    """A fresh document of the spec, from texts built once per spec."""
    components, generators = spec.derived(_document_texts)
    return {"components": list(components), "generators": [list(g) for g in generators]}


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(x) -> Fraction:
    """An int, or text of an integer or ``num/den`` with an optional sign.

    Anything else is a :class:`SpecError`.  Decimal points and exponents are
    refused: ``Fraction`` would build the power of ten of ``1e-999999999``,
    and so are booleans, which Python counts as ints.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    match = _RATIONAL.fullmatch(x) if isinstance(x, str) else None
    if match is not None:
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError:  # more digits than int() converts
            den = 0
        if den:
            return Fraction(num, den)
    raise SpecError(f"bad rational {x!r} (use an integer or 'num/den')")


def format_rational(x) -> str:
    """``num/den`` of an int or a Fraction."""
    return f"{x.numerator}/{x.denominator}"
