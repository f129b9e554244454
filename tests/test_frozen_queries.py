"""Every frozen benchmark query, answered and checked against its recorded digest.

The query lists and digests are read from ``perfbench/data/*.json``; each
query is run and checked with the benchmark's own ``workloads.execute`` and
``workloads.check``, so a change in any class set, witness or document byte
fails here.  The spec builder of ``perfbench/freeze.py`` must also still
reproduce the frozen spec documents of ``oracle_sweep``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import freeze  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def kacoh():
    return workloads.import_kacoh()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_frozen_query_matches_its_digest(kacoh, name):
    data = workloads.load(name)
    specs = {k: workloads.build_spec(kacoh, e) for k, e in data["specs"].items()}
    queries = workloads.prepare(kacoh, data, specs)
    assert len(queries) == len(data["queries"]) > 0
    failures = []
    for q in queries:
        result, text = workloads.execute(kacoh, q)
        reason = workloads.check(q, result, text)
        if reason is not None:
            failures.append(f"{q.qid}: {reason}")
    assert failures == []


def test_freeze_rebuilds_the_frozen_oracle_specs(kacoh):
    # The 87 documents, in order.  They pin the canonical generators that the
    # staircase picks and the private names freeze.py reads:
    # lattice._closure, lattice._weight_basis and xq_elements.
    frozen = workloads.load("oracle_sweep")["specs"]
    assert len(frozen) == 87
    assert list(freeze.oracle_specs(kacoh).items()) == list(frozen.items())
