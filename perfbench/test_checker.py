"""Tests of the benchmark's independent checker.

    python3 -m pytest perfbench/test_checker.py

A wrong verdict, a witness that does not re-trigger and a valid witness that
is not the canonical one must each be reported as a failure.
"""
from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checker  # noqa: E402
import workloads  # noqa: E402
from capset import PointSet, verify_cap_and_complete  # noqa: E402

DIM = 15


def _trits(rank: int) -> str:
    return checker.trits(rank, DIM)


@pytest.fixture(scope="module")
def defect():
    """A 3,000-point subset of ag15 plus the third point of two members."""
    rng, sub = workloads.ag15_subset(7, 10_000)
    sub = np.sort(rng.choice(sub, 3_000, replace=False))
    a, b = sub[10], sub[2_000]
    extra = int(checker.to_ranks((-(checker.to_coords(np.array([a]), DIM) + checker.to_coords(np.array([b]), DIM))) % 3)[0])
    members = checker.Members(np.append(sub, extra), DIM)
    return members, extra


def _report(members, cap_passed, cap_witness, comp_passed, comp_witness, workers=2):
    m = len(members)
    return {
        "dim": members.dim,
        "size": m,
        "passed": bool(cap_passed and comp_passed),
        "checks": [
            {"check": "cap", "passed": cap_passed, "witness": cap_witness, "pairs_examined": m * (m - 1) // 2, "workers": workers},
            {"check": "complete", "passed": comp_passed, "witness": comp_witness, "pairs_examined": 0, "workers": workers},
        ],
    }


def _all_triples(members, extra):
    """Every collinear triple through the extra point, as trit strings in rank order."""
    z = members.thirds(checker.to_coords(np.array([extra]), DIM))[0]
    out = set()
    for i in np.flatnonzero(members.contains(z)):
        if int(members.ranks[i]) != extra:
            out.add(tuple(sorted((extra, int(members.ranks[i]), int(z[i])))))
    return sorted(out)


def test_canonical_witness_matches_one_worker_sweep(defect):
    members, extra = defect
    witness, through = checker.defect_witness(members, extra)
    rep, _ = verify_cap_and_complete(PointSet(DIM, members.ranks), threads=1)
    assert tuple("".join(map(str, p)) for p in rep.witness) == witness
    assert through == len(_all_triples(members, extra)) >= 1
    assert checker.check_verify_report(_report(members, False, list(witness), False, None), members, 2, witness, None) == []


def test_wrong_cap_verdict_fails(defect):
    members, extra = defect
    witness, _ = checker.defect_witness(members, extra)
    problems = checker.check_verify_report(_report(members, True, None, False, ["0" * DIM]), members, 2, witness, None)
    assert any("passed on a set built with a collinear triple" in p for p in problems)


def test_witness_that_does_not_retrigger_fails(defect):
    members, extra = defect
    witness, _ = checker.defect_witness(members, extra)
    not_collinear = [witness[0], witness[1], _trits(int(members.ranks[0]))]
    problems = checker.check_verify_report(_report(members, False, not_collinear, False, None), members, 2, witness, None)
    assert any("not collinear" in p for p in problems)
    outside = next(r for r in range(3**DIM) if not members.contains([r])[0])
    problems = checker.check_verify_report(
        _report(members, False, [witness[0], witness[1], _trits(outside)], False, None), members, 2, witness, None
    )
    assert any("non-member" in p for p in problems)


@pytest.fixture(scope="module")
def defect15(tmp_path_factory):
    """The defect15 input at seed 1."""
    wl = workloads.Defect15(1, str(tmp_path_factory.mktemp("defect15")))
    wl.setup()
    with open(wl.path("defect15.caps"), "rb") as fh:
        return checker.Members(checker.parse_capset(fh.read())[1], DIM), wl.extra


def test_defect15_canonical_witness_at_seed_1(defect15):
    members, extra = defect15
    witness, through = checker.defect_witness(members, extra)
    # The witness a 1-worker sweep reports, and the triples through the point.
    assert witness == ("000001222221112", "010021222012101", "020011222100120")
    assert through == 43 == len(_all_triples(members, extra))


def test_valid_but_not_canonical_witness_fails(defect15):
    """The witness a 2-worker coverage sweep reported for defect15 at seed 1."""
    members, extra = defect15
    witness, _ = checker.defect_witness(members, extra)
    two_workers = ["010102002121112", "010210112200120", "010021222012101"]
    assert checker.cap_witness_problems(members, two_workers) == []
    problems = checker.check_verify_report(_report(members, False, two_workers, False, None), members, 2, witness, None)
    assert problems == [f"cap witness {two_workers} is valid but not canonical {list(witness)}"]


@pytest.mark.parametrize("dim,size,seed", [(6, 20, 1), (7, 60, 2), (15, 3_000, 3)])
def test_completeness_witness_matches_sweep(dim, size, seed):
    rng = np.random.default_rng(seed)
    members = checker.Members(rng.choice(workloads.b_ranks(dim), size, replace=False), dim)
    _, comp = verify_cap_and_complete(PointSet(dim, members.ranks), threads=1)
    assert checker.first_uncovered(members) == checker.to_ranks(np.array([comp.witness[0]]))[0]


def test_wrong_completeness_witness_fails():
    rng = np.random.default_rng(4)
    members = checker.Members(rng.choice(workloads.b_ranks(DIM), 2_000, replace=False), DIM)
    first = checker.first_uncovered(members)
    later = next(r for r in range(first + 1, 3**DIM) if not members.contains([r])[0])
    good = _report(members, True, None, False, [_trits(first)])
    assert checker.check_verify_report(good, members, 2, None, first) == []
    for bad in (_report(members, True, None, False, [_trits(later)]), _report(members, True, None, True, None)):
        assert checker.check_verify_report(bad, members, 2, None, first)


def test_complete_set_has_no_uncovered_rank(tmp_path):
    """The 112-point cap in dimension 6 is complete."""
    import io
    from contextlib import redirect_stdout

    import capset.cli

    path = str(tmp_path / "tD112.caps")
    expr = next(b[1] for b in workloads.BUILDS if b[0] == "tD112")
    with redirect_stdout(io.StringIO()):
        assert capset.cli.main(["build", expr, "-o", path]) == 0
    with open(path, "rb") as fh:
        dim, ranks = checker.parse_capset(fh.read())
    with pytest.raises(ValueError, match="complete"):
        checker.first_uncovered(checker.Members(ranks, dim))
