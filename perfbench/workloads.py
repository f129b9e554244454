"""The benchmark's query workloads: frozen inputs, execution and output checks.

Each workload is one JSON file in ``data/`` holding the specs it uses and
the full query list, with the SHA-256 of every query's JSON document as the
command line prints it (``json.dumps(doc, indent=2)``).  The digests were
recorded by ``freeze.py`` and are never regenerated by a run, so any change
in a class set, a witness or the document layout shows as a failed query.

Queries call the library through module attributes (``cohomology.h1_inner_form``
and so on) so that the tracer can wrap those attributes in a traced run.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = ("h1_twists", "roots_highrank", "oracle_sweep")


@dataclass
class Query:
    """One frozen query with its prepared library arguments."""

    qid: str
    kind: str               # "h1", "roots" or "check"
    spec_key: str
    spec: object            # kacoh GroupSpec
    args: tuple
    sha256: str
    expect_classes: int | None


def import_kacoh():
    """Import kacoh from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC_DIR))
    kacoh = importlib.import_module("kacoh")
    for sub in ("cohomology", "lattice", "oracle", "_orbit"):
        importlib.import_module(f"kacoh.{sub}")
    if Path(kacoh.__file__).resolve().parent.parent != SRC_DIR:
        raise ImportError(f"kacoh was imported from {kacoh.__file__}, not from {SRC_DIR}")
    return kacoh


def load(name: str) -> dict:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
    with open(DATA_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def build_spec(kacoh, entry):
    """A spec entry is a preset string or a frozen spec document."""
    if isinstance(entry, str):
        return kacoh.lattice.preset_spec(entry)
    return kacoh.lattice.spec_from_document(entry)


def prepare(kacoh, data: dict, specs: dict) -> list:
    """Turn the frozen query records into library arguments."""
    queries = []
    for rec in data["queries"]:
        spec = specs[rec["spec"]]
        if rec["kind"] == "h1":
            args = (kacoh.KacLabeling(labels=tuple(rec["twist"]), n=2),)
        else:
            z = kacoh.CentralElement(values=tuple(Fraction(v) for v in rec["z"]))
            args = (z, rec["n"])
        queries.append(
            Query(
                rec["id"],
                rec["kind"],
                rec["spec"],
                spec,
                args,
                rec["sha256"],
                paper_class_count(rec),
            )
        )
    return queries


def execute(kacoh, q: Query):
    """Run one query: the class-set call, its document and its JSON text."""
    if q.kind == "h1":
        result = kacoh.cohomology.h1_inner_form(q.spec, *q.args)
        doc = kacoh.cohomology.h1_document(result)
    elif q.kind == "roots":
        result = kacoh.cohomology.nth_root_classes(q.spec, *q.args)
        doc = kacoh.cohomology.roots_document(result, q.spec)
    else:
        result = kacoh.oracle.cross_check(q.spec, *q.args)
        doc = result.as_document()
    return result, json.dumps(doc, indent=2)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(q: Query, result, text: str) -> str | None:
    """None if the answer is right, else a one-line reason."""
    if digest(text) != q.sha256:
        return "document differs from the recorded digest"
    if q.expect_classes is not None and len(result.classes) != q.expect_classes:
        return f"{len(result.classes)} classes, the paper gives {q.expect_classes}"
    if q.kind == "h1":
        twist = q.args[0]
        if twist not in result.classes[result.neutral_index].members:
            return "twist is not in the neutral class"
        if any(x != 0 for x in result.witnesses[result.neutral_index]):
            return "neutral witness is not zero"
    elif q.kind == "check" and not result.ok:
        return f"cross-check failed: {result.failure}"
    return None


def paper_class_count(rec: dict) -> int | None:
    """Class counts the source paper states in closed form, where they apply.

    For a single component the flat label order is 1..rank then the extra
    vertex, so the compact twist is (0, ..., 0, 2) and the odd half-spin
    twist puts 1 on vertices 1 and 0.
    """
    if rec["kind"] != "h1":
        return None
    spec, twist = rec["spec"], rec["twist"]
    rank = len(twist) - 1
    compact = twist == [0] * rank + [2]
    odd = twist == [1] + [0] * (rank - 1) + [1]
    if spec == "sc:E7" and compact:
        return 4
    if spec.startswith("halfspin:D"):
        k = rank // 2
        if compact:
            return k // 2 + 4
        if odd:
            return (k + 1) // 2 + 1
    if spec.startswith("so:D") and compact:
        return rank + 1
    return None
