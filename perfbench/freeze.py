"""Record the workload files in ``data/``: query lists and output digests.

Run once, at the commit whose outputs are the reference:

    python3 perfbench/freeze.py [--only NAME]

It prints each workload's query count and pass time.  Re-running it at a
later commit would bless that commit's outputs, so do so only when a
workload is deliberately redefined.
"""

from __future__ import annotations

import argparse
import itertools
import json
import time

import workloads

H1_SPECS = (
    "sc:E6", "sc:E7", "sc:E8", "halfspin:D12", "halfspin:D20", "so:D16",
    "sc:A11", "ad:A3xA3", "sc:D4xD4", "sc:A1xA1xA1xA1",
)

# (preset, levels, how many central elements; None means all of them)
ROOTS_CASES = (
    ("sc:E6", range(2, 7), None),
    ("sc:E7", range(2, 7), None),
    ("sc:E8", range(2, 9), None),
    ("sc:A11", range(2, 5), None),
    ("sc:D12", range(2, 5), None),
    ("sc:A1xA1xA1xA1", range(2, 5), None),
    ("halfspin:D20", (2, 3), None),
    ("so:D16", (2, 3), None),
    ("sc:A40", (2,), 2),
)

ORACLE_TAIL = ("sc:E7", "ad:E7", "sc:A7")


def simple_types(kacoh, max_rank: int) -> list:
    """Every simple type up to the rank, aliases B2 and D3 included."""
    out = []
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        out.extend(kacoh.SimpleType(family, r) for r in range(lo, max_rank + 1))
    out.extend(kacoh.SimpleType("E", r) for r in (6, 7, 8) if r <= max_rank)
    if max_rank >= 4:
        out.append(kacoh.SimpleType("F", 4))
    out.append(kacoh.SimpleType("G", 2))
    return out


def every_subgroup_spec(kacoh, components) -> list:
    """Every lattice between Q and P, closing subsets of any size of P/Q.

    ``all_intermediate_specs`` closes at most pairs, which misses the full
    group of a product such as A1xA1xA1; this closes every subset.
    """
    lat = kacoh.lattice
    comps = tuple(kacoh.SimpleType.parse(t) for t in components)
    full = lat.validate_spec(comps, lat._weight_basis(comps))
    elements = lat.xq_elements(full)
    rank = full.total_rank
    seen = {}
    for take in range(len(elements) + 1):
        for combo in itertools.combinations(elements, take):
            sub = frozenset(lat._closure(list(combo), rank))
            if sub not in seen:
                seen[sub] = lat.validate_spec(comps, sorted(sub))
    return [s for _, s in sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]


def frac_strs(values) -> list:
    return [f"{v.numerator}/{v.denominator}" for v in values]


def h1_records(kacoh, specs):
    out = []
    for key in H1_SPECS:
        for q in kacoh.enumerate_Kn(specs[key].diagram(), 2):
            twist = list(q.labels)
            out.append({
                "id": f"h1 {key} q={','.join(map(str, twist))}",
                "kind": "h1", "spec": key, "twist": twist,
            })
    return out


def roots_records(kacoh, specs):
    out = []
    for key, levels, zcount in ROOTS_CASES:
        centers = kacoh.enumerate_center(specs[key])[:zcount]
        for n in levels:
            for z in centers:
                zs = frac_strs(z.values)
                out.append({
                    "id": f"roots {key} z=({','.join(zs)}) n={n}",
                    "kind": "roots", "spec": key, "z": zs, "n": n,
                })
    return out


def oracle_specs(kacoh) -> dict:
    """Spec documents: every lattice of rank <= 6, three products, the tail."""
    specs = {}
    groups = [(str(t),) for t in simple_types(kacoh, 6)]
    groups += [("A1", "A1"), ("A3", "A1"), ("A1", "A1", "A1")]
    for comps in groups:
        subs = every_subgroup_spec(kacoh, comps)
        if len(comps) < 3:
            assert len(subs) == len(kacoh.all_intermediate_specs(comps)), comps
        for i, spec in enumerate(subs):
            specs[f"{'x'.join(comps)}/{i}"] = kacoh.lattice.spec_to_document(spec)
    for preset in ORACLE_TAIL:
        specs[preset] = kacoh.lattice.spec_to_document(kacoh.preset_spec(preset))
    return specs


def oracle_records(kacoh, specs):
    out = []
    for key, spec in specs.items():
        levels = (3,) if key in ORACLE_TAIL else (1, 2, 3)
        for z in kacoh.enumerate_center(spec):
            zs = frac_strs(z.values)
            for n in levels:
                out.append({
                    "id": f"check {key} z=({','.join(zs)}) n={n}",
                    "kind": "check", "spec": key, "z": zs, "n": n,
                })
    return out


def freeze(kacoh, name: str) -> dict:
    if name == "oracle_sweep":
        entries = oracle_specs(kacoh)
        make_records = oracle_records
    else:
        cases = H1_SPECS if name == "h1_twists" else [c[0] for c in ROOTS_CASES]
        entries = {key: key for key in cases}
        make_records = h1_records if name == "h1_twists" else roots_records
    specs = {key: workloads.build_spec(kacoh, e) for key, e in entries.items()}
    records = make_records(kacoh, specs)
    ids = [r["id"] for r in records]
    assert len(set(ids)) == len(ids), "query ids must be unique"
    for rec in records:
        rec["sha256"] = ""
    data = {"workload": name, "specs": entries, "queries": records}
    started = time.perf_counter()
    for rec, q in zip(records, workloads.prepare(kacoh, data, specs)):
        result, text = workloads.execute(kacoh, q)
        rec["sha256"] = workloads.digest(text)
        q.sha256 = rec["sha256"]
        reason = workloads.check(q, result, text)
        if reason:
            raise SystemExit(f"{q.qid}: {reason}")
    elapsed = time.perf_counter() - started
    print(f"{name}: {len(records)} queries over {len(specs)} specs, pass {elapsed:.2f}s")
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    kacoh = workloads.import_kacoh()
    for name in workloads.WORKLOADS:
        if args.only and name != args.only:
            continue
        data = freeze(kacoh, name)
        path = workloads.DATA_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
