"""Command-line front end.

Verbs:

* ``labelings``   enumerate Kac n-labelings, optionally filtered
* ``h1``          cohomology classes of an inner twisted form
* ``adjoint-h1``  cohomology classes of the adjoint form
* ``roots``       conjugacy classes of n-th roots of a central element
* ``forms``       the menu of inner twists of one simple type
* ``oracle-check`` brute-force torus verification sweep

Group specs are presets (``sc:E7``, ``ad:A1xA1``, ``halfspin:D12``,
``so:D5``) or JSON files; see the README for the formats.  Output is
deterministic byte for byte for fixed inputs.

Exit codes: 0 success, 2 usage, 3 bad spec, 4 bad labeling, 5 budget
refusal, 6 internal consistency failure, 141 stdout closed by its reader
(as in ``kacoh ... | head``; 128 plus the number of SIGPIPE, as a shell
reports a writer that the signal stopped).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cohomology import (
    h1_adjoint,
    h1_document,
    h1_inner_form,
    nth_root_classes,
    real_form_table,
    roots_document,
)
from .diagram import render_diagram
from .labelings import (
    _ASCII_INT,
    _DIGITS,
    enumerate_Kn,
    filter_for_central,
    filter_matching_q,
    format_labeling,
    parse_labeling,
)
from .lattice import (
    CentralElement,
    GroupSpec,
    check_central,
    enumerate_center,
    load_spec,
    parse_rational,
    spec_to_document,
    trivial_central,
    validate_spec,
)
from .oracle import cross_check
from .rootdata import (
    BudgetError,
    InternalCheckError,
    LabelingError,
    SimpleType,
    SpecError,
)

EXIT_SPEC = 3
EXIT_LABELING = 4
EXIT_BUDGET = 5
EXIT_INTERNAL = 6
EXIT_BROKEN_PIPE = 141


def _warn_aliases(components) -> None:
    for t in components:
        if t.alias_of is not None:
            print(
                f"warning: {t} is an alias of {t.alias_of}; "
                "intended for oracle cross-checks only",
                file=sys.stderr,
            )


def _load_spec(args) -> GroupSpec:
    spec = load_spec(args.spec)
    _warn_aliases(spec.components)
    return spec


def _parse_types(text: str) -> tuple:
    types = tuple(SimpleType.parse(t) for t in text.split("x"))
    _warn_aliases(types)
    return types


def _int(text: str) -> int:
    """An integer in ASCII digits, with the sign and spaces ``int()`` allows."""
    if not _ASCII_INT.fullmatch(text):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in its usage errors


def _parse_z(spec: GroupSpec, text: str) -> CentralElement:
    if text == "trivial":
        return trivial_central(spec)
    if _DIGITS.fullmatch(text):
        center = enumerate_center(spec)
        try:
            idx = int(text)
        except ValueError:  # more digits than int() converts
            idx = len(center)
        if idx >= len(center):
            raise SpecError(
                f"z index {text} out of range; the center has {len(center)} elements"
            )
        return center[idx]
    z = CentralElement(values=tuple(parse_rational(v) for v in text.split(",")))
    check_central(spec, z)
    return z


def _emit(args, doc: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_labelings(args) -> int:
    spec = _load_spec(args)
    diagram = spec.diagram()
    labelings = enumerate_Kn(diagram, args.n)
    if args.z is not None:
        labelings = filter_for_central(labelings, spec, _parse_z(spec, args.z))
    if args.match_q is not None:
        q = parse_labeling(diagram, args.match_q)
        if q.n != args.n:
            raise LabelingError(f"--match-q has level {q.n}, not the level {args.n} of --n")
        labelings = filter_matching_q(labelings, spec, q, diagram)
    doc = {
        "spec": spec_to_document(spec),
        "n": args.n,
        "count": len(labelings),
        "labelings": [
            {
                "labels": list(p.labels),
                "display": format_labeling(diagram, p),
                "flat": format_labeling(diagram, p, "flat"),
            }
            for p in labelings
        ],
    }
    lines = [f"# {len(labelings)} labelings with n={args.n} for {spec.describe()}"]
    for p in labelings:
        lines.append(
            f"{format_labeling(diagram, p)}  {format_labeling(diagram, p, 'flat')}"
        )
    _emit(args, doc, lines)
    return 0


def _h1_lines(result, diagram) -> list:
    lines = [f"# {len(result.classes)} cohomology classes for {result.group_spec.describe()}"]
    lines.append(f"# twist q = {format_labeling(diagram, result.twist)}")
    for i, (orbit, witness) in enumerate(zip(result.classes, result.witnesses)):
        mark = " (neutral)" if i == result.neutral_index else ""
        members = " ".join(format_labeling(diagram, m) for m in orbit.members)
        wit = ",".join(str(x) for x in witness)
        lines.append(f"class {i}{mark}: {{{members}}} witness u=({wit})")
    return lines


def _cmd_h1(args) -> int:
    spec = _load_spec(args)
    diagram = spec.diagram()
    q = parse_labeling(diagram, args.q)
    result = h1_inner_form(spec, q)
    _emit(args, h1_document(result), _h1_lines(result, diagram))
    return 0


def _cmd_adjoint_h1(args) -> int:
    result = h1_adjoint(_parse_types(args.types))
    diagram = result.group_spec.diagram()
    _emit(args, h1_document(result), _h1_lines(result, diagram))
    return 0


def _cmd_roots(args) -> int:
    spec = _load_spec(args)
    z = _parse_z(spec, args.z)
    result = nth_root_classes(spec, z, args.n)
    diagram = spec.diagram()
    lines = [
        f"# {len(result.classes)} classes of {args.n}-th roots of "
        f"z=({','.join(str(v) for v in z.values)}) in {spec.describe()}"
    ]
    for i, (orbit, point) in enumerate(zip(result.classes, result.torus_points)):
        members = " ".join(format_labeling(diagram, m) for m in orbit.members)
        coords = ",".join(str(x) for x in point.coords)
        lines.append(f"class {i}: {{{members}}} point ({coords})")
    _emit(args, roots_document(result, spec), lines)
    return 0


def _cmd_forms(args) -> int:
    typ = SimpleType.parse(args.types)
    _warn_aliases((typ,))
    orbits = real_form_table(typ)
    spec = validate_spec([typ], [])
    diagram = spec.diagram()
    doc = {
        "type": str(typ),
        "count": len(orbits),
        "forms": [
            {
                "name": f"form{i}",
                "representative": list(o.representative.labels),
                "representative_display": format_labeling(diagram, o.representative),
                "members": [list(m.labels) for m in o.members],
            }
            for i, o in enumerate(orbits)
        ],
    }
    lines = [f"# {len(orbits)} inner twists of {typ}"]
    lines.append(render_diagram(diagram))
    for i, o in enumerate(orbits):
        members = " ".join(format_labeling(diagram, m) for m in o.members)
        lines.append(
            f"form{i}: q = {format_labeling(diagram, o.representative)}  orbit {{{members}}}"
        )
    _emit(args, doc, lines)
    return 0


def _cmd_oracle_check(args) -> int:
    spec = _load_spec(args)
    try:
        ns = [_int(x) for x in args.n_list.split(",")]
    except ValueError:
        raise SpecError(
            f"cannot parse --n-list {args.n_list!r}; expected comma-separated integers"
        ) from None
    if args.z == "all":
        zs = list(enumerate_center(spec))
    else:
        zs = [_parse_z(spec, args.z)]
    reports = []
    for z in zs:
        for n in ns:
            reports.append(cross_check(spec, z, n))
    doc = {"reports": [r.as_document() for r in reports]}
    lines = [f"# oracle check for {spec.describe()}"]
    for r in reports:
        zvals = ",".join(str(v) for v in r.z.values)
        status = "ok" if r.ok else f"MISMATCH: {r.failure}"
        lines.append(
            f"z=({zvals}) n={r.n}: {r.kac_class_count} labeling classes, "
            f"{r.torus_class_count} torus classes, {status}"
        )
    _emit(args, doc, lines)
    if not all(r.ok for r in reports):
        raise InternalCheckError("oracle check found a mismatch; see report")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Options are spelled in full: an abbreviation would be bound to
    # whichever option it happens to prefix uniquely today.  The setting
    # does not reach the subparsers, so ``verb`` repeats it for each.
    parser = argparse.ArgumentParser(
        prog="kacoh",
        description="Exact cohomology combinatorics of compact semisimple groups",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, summary):
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    def add_common(p):
        p.add_argument(
            "--spec",
            required=True,
            help="preset (sc:E7, ad:A1xA1, halfspin:D12, so:D5) or JSON file path",
        )
        add_format(p)

    p = verb("labelings", "enumerate Kac n-labelings")
    add_common(p)
    p.add_argument("--n", type=_int, required=True, help="labeling level n >= 1")
    p.add_argument("--z", help="keep only labelings for this central element")
    p.add_argument("--match-q", help="keep only labelings congruent to this one")
    p.set_defaults(func=_cmd_labelings)

    p = verb("h1", "cohomology classes of an inner twisted form")
    add_common(p)
    p.add_argument("--q", required=True, help="twisting 2-labeling")
    p.set_defaults(func=_cmd_h1)

    p = verb("adjoint-h1", "cohomology classes of the adjoint form")
    p.add_argument("--types", required=True, help="component types, e.g. E7 or A1xA1")
    add_format(p)
    p.set_defaults(func=_cmd_adjoint_h1)

    p = verb("roots", "classes of n-th roots of a central element")
    add_common(p)
    p.add_argument("--z", required=True, help="'trivial', an index, or value list")
    p.add_argument("--n", type=_int, required=True)
    p.set_defaults(func=_cmd_roots)

    p = verb("forms", "inner twists of one simple type")
    p.add_argument("--types", required=True, help="a simple type, e.g. E7")
    add_format(p)
    p.set_defaults(func=_cmd_forms)

    p = verb("oracle-check", "verify labeling classes against the torus")
    add_common(p)
    p.add_argument("--z", default="all", help="'all' (default), 'trivial', index, or values")
    p.add_argument("--n-list", default="1,2,3", help="comma list of levels to check")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except LabelingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LABELING
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # The reader closed stdout.  What is still buffered can go nowhere;
        # point stdout at the null device so the interpreter's last flush
        # does not fail again on the way out.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
