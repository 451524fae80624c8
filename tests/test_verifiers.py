"""Property checkers: caps, completeness, P-set conditions, witnesses."""
import collections
import functools
import itertools
import random
from math import comb

import numpy as np
import pytest

from capset import f3core, verifiers
from capset.capfile import write_capset
from capset.cli import main as cli_main
from capset.constructions import (
    ProjectiveCap,
    gen_B,
    mirror_set,
    parity_cap,
    preset_ag6_112,
    preset_ag15_inputs,
    preset_ag15_reports,
    product,
    seed_P,
    six_construction,
    three_construction,
    union_sets,
    unit_pset,
)
from capset.errors import CapacityError, DimensionError, PreconditionError
from capset.expr import evaluate
from capset.f3core import (
    POW3,
    _digit_groups,
    PointSet,
    neg_ranks,
    rank,
    ranks_from_coords,
    support_class,
    third_point,
    unrank,
    zero_masks,
)
from capset.sweep import SweepTask, _Kernel, first_uncovered, member_hits, pair_index, pairs_total, run_sweep
from capset.verifiers import (
    check_condition1,
    check_condition2,
    check_condition3,
    coverage_complete,
    is_b_saturated,
    is_cap,
    is_complete_cap,
    is_complete_pset,
    is_odd_pset,
    is_projective_cap,
    is_pset,
    pset_characterization,
    pset_pair_condition,
    verify_cap_and_complete,
)

P1 = seed_P(1)
P3 = three_construction(P1, P1, P1)
P6 = six_construction(P1, P1, P1, P1, P1, P1)
U6 = unit_pset(6)
C112 = preset_ag6_112()


def random_set(rng, dim, size):
    return PointSet.from_ranks(rng.sample(range(POW3[dim]), size), dim)


def brute_is_cap(s):
    pts = list(s.points())
    for a, b, c in itertools.combinations(pts, 3):
        if all((x + y + z) % 3 == 0 for x, y, z in zip(a, b, c)):
            return False
    return True


def external_points(s, rng, count):
    out = []
    while len(out) < count:
        r = rng.randrange(POW3[s.dim])
        if not s.has_rank(r):
            out.append(unrank(r, s.dim))
    return out


def extend(s, p):
    return union_sets([s, PointSet.from_points([p])])


# --- is_cap -------------------------------------------------------------------


def test_is_cap_on_known_sets():
    assert is_cap(gen_B(3)).passed
    assert is_cap(P6).passed
    assert is_cap(C112).passed
    line = PointSet.from_points([(0, 0), (0, 1), (0, 2)])
    rep = is_cap(line)
    assert not rep.passed
    assert rep.witness == ((0, 0), (0, 1), (0, 2))


def test_naive_and_fast_agree_with_brute_force():
    rng = random.Random(0xCA9)
    for _ in range(30):
        dim = rng.randint(2, 4)
        s = random_set(rng, dim, rng.randint(3, min(25, POW3[dim])))
        expected = brute_is_cap(s)
        assert is_cap(s, mode="naive").passed == expected
        assert is_cap(s, mode="fast").passed == expected


def test_naive_witness_is_lexicographically_first():
    s = PointSet.from_points(
        [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 2, 0)]
    )
    rep = is_cap(s, mode="naive")
    # both ((000),(001),(002)) and ((000),(010),(020)) are collinear; the
    # first in (i, j, k) order wins
    assert rep.witness == ((0, 0, 0), (0, 0, 1), (0, 0, 2))
    # the pair sweep's first violating pair starts the same triple
    assert is_cap(s).witness == rep.witness


def test_default_mode_counts_pairs_at_every_size():
    # the default runs the pair sweep on small and large sets alike; the
    # triple scan runs only on request
    small = product([C112, gen_B(1)])  # 224 points
    big = product([C112, gen_B(3)])  # 896 points
    for s in (small, big):
        m = len(s)
        assert is_cap(s).pairs_examined == m * (m - 1) // 2
    m = len(small)
    assert is_cap(small, mode="naive").pairs_examined == m * (m - 1) * (m - 2) // 6


def brute_first_pair(s):
    """(witness, pairs examined) of the first pair in canonical order whose
    third point, from coordinate sums, is a member."""
    coords = s.coords().astype(np.int64)
    weights = np.array([3**k for k in range(s.dim)][::-1], dtype=np.int64)
    m = len(s)
    for i in range(m - 1):
        thirds = ((-(coords[i] + coords[i + 1 :])) % 3) @ weights
        hits = np.flatnonzero(np.isin(thirds, s.ranks))
        if hits.size:
            j = i + 1 + int(hits[0])
            witness = (s.point(i), s.point(j), unrank(int(thirds[hits[0]]), s.dim))
            return witness, pairs_total(m) - pairs_total(m - i) + (j - i)
    return None, pairs_total(m)


def test_default_mode_above_bitmap_dim_scans_pairs():
    # 896 points in dimension 21, too wide for a member bitmap
    tail = PointSet.from_points([(1,) * 12])
    base = product([C112, gen_B(3), tail])
    assert base.dim == 21 and len(base) == 896
    rep = is_cap(base)
    assert rep.passed
    assert (None, rep.pairs_examined) == brute_first_pair(base)
    bad = extend(base, third_point(base.point(300), base.point(700)))
    rep = is_cap(bad)
    assert not rep.passed
    assert (rep.witness, rep.pairs_examined) == brute_first_pair(bad)


def test_cap_sweep_above_bitmap_dim_matches_brute_force():
    # above dimension 20 cap mode finds members by binary search; its
    # violation and count are the canonical ones for any workers and chunks
    rng = np.random.default_rng(0x2139)
    for dim in (21, 39):
        clean = PointSet.from_ranks(rng.integers(0, POW3[dim], 120), dim)
        bad = extend(clean, third_point(clean.point(60), clean.point(100)))
        assert brute_first_pair(clean)[0] is None and brute_first_pair(bad)[0] is not None
        for s in (clean, bad):
            expected = brute_first_pair(s)
            for threads in (1, 2, 3):
                for chunk_pairs in (7, 500, 10**7):
                    task = SweepTask(points=s, mode="cap", threads=threads, chunk_pairs=chunk_pairs)
                    out = run_sweep(task)
                    witness = tuple(unrank(r, dim) for r in out.violation) if out.violation else None
                    assert (witness, out.pairs_examined) == expected, (dim, threads, chunk_pairs)


def clustered_b(rng, dim, patterns, per):
    """B(dim) points in a few top digit groups: patterns random values of
    {1, 2} on the top group, each with per random {1, 2} values below it."""
    shift, width = _digit_groups(dim)[0]
    tops = rng.choice(gen_B(width).ranks, patterns, replace=False) * POW3[shift]
    return np.unique([t + b for t in tops for b in rng.choice(gen_B(shift).ranks, per, replace=False)])


def pruned_cap_shapes():
    """Sets on which the cap sweep prunes: B(n) subsets in a few top groups,
    as caps and with a planted line, and ag6-112 in the last 6 coordinates
    of dimensions 10-12, whose windows are all live, with and without a line."""
    rng = np.random.default_rng(21)
    for dim, patterns, per in ((9, 5, 12), (12, 6, 15), (15, 4, 25), (21, 4, 30)):
        ranks = clustered_b(rng, dim, patterns, per)
        yield PointSet(dim, ranks)
        p, q = (unrank(int(r), dim) for r in rng.choice(ranks, 2, replace=False))
        yield PointSet(dim, np.union1d(ranks, [rank(third_point(p, q))]))
    for dim in (10, 11, 12):
        yield PointSet(dim, C112.ranks)
    yield PointSet(11, np.union1d(C112.ranks, [0, 2 * POW3[7], POW3[7]]))  # a line off the subspace


def test_pruned_cap_sweep_matches_naive_scan(monkeypatch):
    # the cap sweep, pruning by window, against the triple-scan oracle at
    # threads 1/2/3 and three chunk sizes
    failing = 0
    for s in pruned_cap_shapes():
        assert _Kernel(s.ranks, s.dim, target=s.ranks).live is not None, (s.dim, len(s))
        hit, _ = verifiers._naive_cap_scan(s.coords())
        expected = (None, pairs_total(len(s)))
        if hit is not None:
            failing += 1
            i, j, _ = hit
            expected = (tuple(s.point(x) for x in hit), pair_index(len(s), i, j) + 1)
        for threads, chunk_pairs in itertools.product((1, 2, 3), (7, 500, 10**7)):
            monkeypatch.setattr(verifiers, "SweepTask", functools.partial(SweepTask, chunk_pairs=chunk_pairs))
            rep = is_cap(s, threads=threads)
            assert (rep.witness, rep.pairs_examined) == expected, (s.dim, len(s), threads, chunk_pairs)
            cap_rep, _ = verify_cap_and_complete(s, threads=threads)
            assert (cap_rep.witness, cap_rep.pairs_examined) == expected
    assert failing == 5


class OracleCalled(Exception):
    pass


def test_oracle_runs_only_on_request(monkeypatch, tmp_path):
    def refuse(coords):
        raise OracleCalled

    monkeypatch.setattr(verifiers, "_naive_cap_scan", refuse)
    assert is_pset(P6).passed
    assert is_complete_pset(P6).passed  # with its is_pset precheck
    assert parity_cap(P6, "even", check=True) == C112
    assert len(preset_ag15_reports()) == 29
    assert len(evaluate("tD(six(P1,P1,P1,P1,P1,P1), even)")) == 112
    path = str(tmp_path / "p6.caps")
    write_capset(P6, path)
    assert cli_main(["verify", path, "--cap", "--pset", "--pset-complete", "--threads", "1"]) == 0
    with pytest.raises(OracleCalled):
        is_cap(P6, mode="naive")
    with pytest.raises(OracleCalled):
        cli_main(["verify", path, "--naive"])


def test_is_cap_rejects_unknown_mode():
    with pytest.raises(ValueError):
        is_cap(P3, mode="quantum")


# --- completeness -------------------------------------------------------------


def test_single_point_set_incomplete():
    s = PointSet.from_points([(0, 0)])
    cap_rep, comp_rep = verify_cap_and_complete(s)
    assert cap_rep.passed
    assert not comp_rep.passed
    assert comp_rep.witness == ((0, 1),)


def test_gen_b1_is_complete():
    assert is_complete_cap(gen_B(1)).passed


def test_112_cap_complete_and_sound():
    rng = random.Random(0x112)
    cap_rep, comp_rep = verify_cap_and_complete(C112)
    assert cap_rep.passed and comp_rep.passed
    assert cap_rep.pairs_examined == 112 * 111 // 2
    for p in external_points(C112, rng, 100):
        assert not is_cap(extend(C112, p)).passed


def test_incomplete_witness_extends():
    rep = is_complete_cap(P6)
    assert not rep.passed
    (w,) = rep.witness
    assert is_cap(extend(P6, w)).passed


def test_complete_cap_requires_cap():
    line = PointSet.from_points([(0, 0), (0, 1), (0, 2)])
    with pytest.raises(PreconditionError) as ei:
        is_complete_cap(line)
    assert ei.value.witness is not None


def test_combined_equals_separate():
    # the cap report of verify --cap --complete is is_cap's, count included,
    # on sets below the bound (the witness search) and above it (coverage
    # too, when every candidate is covered)
    rng = random.Random(0x5E9A)
    seen = collections.Counter()
    for _ in range(40):
        s = random_set(rng, 4, rng.choice([rng.randint(2, 12), rng.randint(13, 50)]))
        cap_rep, comp_rep = verify_cap_and_complete(s)
        solo_cap = is_cap(s, mode="fast")
        assert (cap_rep.passed, cap_rep.witness) == (solo_cap.passed, solo_cap.witness)
        assert cap_rep.pairs_examined == solo_cap.pairs_examined
        if cap_rep.passed:
            assert comp_rep is not None
        else:
            assert comp_rep is None
        seen[fewer_pairs_than_outside(len(s), 4), cap_rep.passed] += 1
    assert len(seen) == 4, seen  # caps and non-caps on both sides of the bound


def fewer_pairs_than_outside(m, dim):
    return pairs_total(m) < POW3[dim] - m


def bounded_sets(seed):
    """Seeded sets of dimensions 1-12 with fewer pairs than outside points.

    Per dimension: random ranks, a B(n) subset (a cap), a B(n) subset closed
    under negation with a planted line through two of its members, and
    random ranks at the largest size the bound allows (capped at 200).
    """
    rng = np.random.default_rng(seed)
    for dim in range(1, 13):
        top = max(m for m in range(201) if fewer_pairs_than_outside(m, dim))
        b = gen_B(dim).ranks
        half = rng.choice(b, int(rng.integers(1, min(top, b.size) // 2 + 2)), replace=False)
        closed = np.union1d(half, neg_ranks(half, dim))
        if closed.size >= 2:
            p, q = (unrank(int(r), dim) for r in rng.choice(closed, 2, replace=False))
            closed = np.union1d(closed, [rank(third_point(p, q))])
        for ranks in (
            rng.choice(POW3[dim], int(rng.integers(0, top + 1)), replace=False),
            rng.choice(b, int(rng.integers(0, min(top, b.size) + 1)), replace=False),
            closed,
            rng.choice(POW3[dim], top, replace=False),
        ):
            s = PointSet(dim, np.unique(ranks))
            if fewer_pairs_than_outside(len(s), dim):
                yield s


@pytest.fixture
def sweep_modes(monkeypatch):
    """The modes of the sweeps that verifiers runs, in order."""
    modes = []

    def recording_sweep(task, *args):
        modes.append(task.mode)
        return run_sweep(task, *args)

    monkeypatch.setattr(verifiers, "run_sweep", recording_sweep)
    return modes


def unbounded_sets(seed):
    """Seeded sets of dimensions 1-8 with at least as many pairs as outside points.

    Per dimension: random ranks, a B(n) subset (a cap), the same closed
    under negation with a planted line through two of its members, all of
    B(n), and at dimension 6 ag6-112 (a complete cap) and ag6-112 without
    its least member, which is then uncovered; sizes capped at 300.
    """
    rng = np.random.default_rng(seed)
    for dim in range(1, 9):
        low = min(m for m in range(POW3[dim] + 1) if not fewer_pairs_than_outside(m, dim))
        b = gen_B(dim).ranks
        picked = [rng.choice(POW3[dim], int(rng.integers(low, min(POW3[dim], 300) + 1)), replace=False), b]
        if b.size >= low:
            half = rng.choice(b, int(rng.integers(low, min(b.size, 300) + 1)), replace=False)
            closed = np.union1d(half, neg_ranks(half, dim))
            p, q = (unrank(int(r), dim) for r in rng.choice(closed, 2, replace=False))
            picked += [half, np.union1d(closed, [rank(third_point(p, q))])]
        if dim == 6:
            picked += [C112.ranks, C112.ranks[1:]]
        for ranks in picked:
            s = PointSet(dim, np.unique(ranks))
            if not fewer_pairs_than_outside(len(s), dim):
                yield s


@pytest.mark.parametrize("chunk_pairs", [7, 500, 10**7])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_witness_first_matches_coverage_path(threads, chunk_pairs, monkeypatch, sweep_modes):
    # every set takes the witness search first: when it finds a witness only
    # the cap sweep runs. Otherwise a set above the bound runs only the
    # coverage sweep, and one below it, which cannot be complete, the cap
    # sweep first and the coverage sweep only on a cap. The coverage sweep,
    # called directly, is the reference, on sets below the bound and above it
    monkeypatch.setattr(verifiers, "SweepTask", functools.partial(SweepTask, chunk_pairs=chunk_pairs))
    seen = collections.Counter()
    seed = 2000 + 10 * threads + len(str(chunk_pairs))
    for s in itertools.chain(bounded_sets(seed), unbounded_sets(seed)):
        bounded = fewer_pairs_than_outside(len(s), s.dim)
        sweep_modes.clear()
        cap_rep, comp_rep = verify_cap_and_complete(s, threads=threads)
        missing = first_uncovered(s, member_hits(s))
        ref = run_sweep(SweepTask(s, "coverage", chunk_pairs=chunk_pairs, threads=threads))
        if missing is not None:
            assert sweep_modes == ["cap"]
        elif bounded:
            assert sweep_modes == (["cap"] if ref.violation is not None else ["cap", "coverage"])
        else:
            assert sweep_modes == ["coverage"]
        assert cap_rep.passed == (ref.violation is None)
        seen[bounded, sweep_modes[0], cap_rep.passed] += 1
        if ref.violation is not None:
            assert cap_rep.witness == tuple(unrank(r, s.dim) for r in ref.violation)
            solo = is_cap(s, threads=threads)
            assert (cap_rep.witness, cap_rep.pairs_examined) == (solo.witness, solo.pairs_examined)
            assert comp_rep is None
            continue
        assert cap_rep.pairs_examined == comp_rep.pairs_examined == pairs_total(len(s))
        ref_comp = coverage_complete(s, ref.coverage)
        assert not (bounded and ref_comp.passed)
        assert (comp_rep.passed, comp_rep.witness) == (ref_comp.passed, ref_comp.witness)
        if missing is not None:
            assert comp_rep.witness == (unrank(missing, s.dim),)
    assert seen[True, "cap", True] > 10 and seen[True, "cap", False] > 15
    assert seen[False, "cap", True] and seen[False, "cap", False]
    assert seen[False, "coverage", True] and seen[False, "coverage", False]


def test_witness_search_budget_falls_back_to_coverage(sweep_modes, capsys, tmp_path):
    # the complete 112-point cap in the last 6 coordinates of dimension 10:
    # its 6,216 pairs are fewer than 3^10 - 112, yet every rank below 3^6 is
    # a member or covered, so the search exhausts its budget of 56 candidates.
    # The set cannot be complete, so the cap sweep runs first, then, on a
    # cap, the coverage sweep for the witness
    s = PointSet(10, C112.ranks)
    assert fewer_pairs_than_outside(len(s), 10) and POW3[6] > len(s) + 56
    assert first_uncovered(s, member_hits(s)) is None
    cap_rep, comp_rep = verify_cap_and_complete(s, threads=2)
    assert sweep_modes == ["cap", "coverage"]
    ref = coverage_complete(s, run_sweep(SweepTask(s, "coverage", threads=1)).coverage)
    assert cap_rep.passed and (comp_rep.passed, comp_rep.witness) == (False, ref.witness)
    assert ref.witness == (unrank(POW3[6], 10),)  # the least point off the subspace
    # the twin at dimension 21 still needs the 3^21 coverage bitmap
    twin = PointSet(21, C112.ranks)
    with pytest.raises(CapacityError):
        verify_cap_and_complete(twin, threads=1)
    path = tmp_path / "c112_dim21.caps"
    write_capset(twin, path)
    capsys.readouterr()
    assert cli_main(["verify", str(path), "--complete", "--threads", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: dimension 21 exceeds bitmap capacity")


@pytest.mark.parametrize("dim", [10, 21])
def test_exhausted_search_on_a_non_cap_ends_at_the_cap_sweep(dim, sweep_modes, capsys, tmp_path):
    # C112 plus the third point of two of its members, in the last 6
    # coordinates: the search exhausts its budget, and the early-exit cap
    # sweep gives the violation, with is_cap's count, and no coverage runs,
    # so dimension 21 gets its verdict too
    s = PointSet(dim, np.union1d(C112.ranks, [rank(third_point(C112.point(0), C112.point(1)))]))
    assert len(s) == 113 and fewer_pairs_than_outside(len(s), dim)
    assert first_uncovered(s, member_hits(s)) is None
    cap_rep, comp_rep = verify_cap_and_complete(s, threads=2)
    assert sweep_modes == ["cap"] and comp_rep is None
    solo = is_cap(s, threads=1)
    assert not solo.passed
    assert (cap_rep.passed, cap_rep.witness, cap_rep.pairs_examined) == (False, solo.witness, solo.pairs_examined)
    path = tmp_path / f"c113_dim{dim}.caps"
    write_capset(s, path)
    capsys.readouterr()
    assert cli_main(["verify", str(path), "--cap", "--complete", "--threads", "1"]) == 1


# --- P-set checks --------------------------------------------------------------


def test_pair_condition():
    assert pset_pair_condition(P3).passed
    rep = pset_pair_condition(gen_B(2))
    assert not rep.passed
    assert rep.witness == ((1, 1), (1, 2))  # no shared zero coordinate


def test_is_pset_known_sets():
    for s in (P3, P6, mirror_set(P6), U6, seed_P(2)):
        assert is_pset(s).passed
    assert not is_pset(gen_B(2)).passed
    # pair condition holds but cap fails: a zero-sharing collinear triple
    tri = PointSet.from_points([(0, 0, 1), (0, 1, 0), (0, 2, 2)])
    rep = is_pset(tri)
    assert not rep.passed
    assert rep.witness == ((0, 0, 1), (0, 1, 0), (0, 2, 2))


def test_is_odd_pset():
    assert is_odd_pset(P6).passed
    rep = is_odd_pset(P3)  # members have two zero coordinates
    assert not rep.passed
    assert rep.witness == ((0, 0, 1),)


def test_is_b_saturated():
    assert is_b_saturated(P3).passed
    assert is_b_saturated(P6).passed
    assert is_b_saturated(U6).passed
    rep = is_b_saturated(PointSet.from_points([(0, 1), (1, 0)]))
    assert not rep.passed
    assert rep.witness == ((0, 2),)  # missing classmate of (0,1)


def class_points(p):
    """p's support class in rank order, enumerated independently of the library."""
    for values in itertools.product((1, 2), repeat=sum(c != 0 for c in p)):
        it = iter(values)
        yield tuple(c and next(it) for c in p)


def b_saturated_reference(s):
    """The support-class loop is_b_saturated replaced: the lowest-rank point
    missing from the class of the first short member; (passed, witness, count)."""
    for i, p in enumerate(s.points()):
        for q in class_points(p):
            if q not in s:
                return False, (q,), i + 1
    return True, None, len(s)


def test_b_saturated_names_first_gap_of_the_class():
    cls = PointSet.from_points(class_points((0, 1, 1, 1)))  # 0111, 0112, 0121, 0122, 0211, ...
    s = PointSet.from_ranks(np.delete(cls.ranks, [3, 5]), 4)
    assert outcome(is_b_saturated(s)) == (False, ((0, 1, 2, 2),), 1)
    rng = random.Random(0xB5A)
    space_masks = {d: zero_masks(np.arange(POW3[d]), d) for d in range(1, 7)}
    verdicts = collections.Counter()
    for n in range(1200):
        dim = 1 + n % 6
        family = [sum(1 << b for b in range(dim) if rng.random() < 0.4) for _ in range(rng.randint(1, 4))]
        pool = np.flatnonzero(np.isin(space_masks[dim], family))
        drop = rng.sample(range(pool.size), rng.randint(0, min(pool.size, 3)))
        s = PointSet.from_ranks(np.delete(pool, drop), dim)
        expected = b_saturated_reference(s)
        assert outcome(is_b_saturated(s)) == expected, (dim, s.ranks)
        verdicts[expected[0]] += 1
    assert min(verdicts[True], verdicts[False]) > 200, verdicts


@pytest.mark.parametrize("dim", [20, 39])
def test_b_saturated_walks_only_the_short_class(dim):
    ones = (1,) * dim
    rep = is_b_saturated(PointSet.from_points([ones]))
    assert outcome(rep) == (False, (ones[:-1] + (2,),), 1)
    assert rep.elapsed < 1.0
    cls = PointSet.from_points(class_points((0,) * (dim - 10) + (1,) * 10))  # 1024 points
    s = PointSet.from_ranks(np.delete(cls.ranks, 700), dim)
    gap = (0,) * (dim - 10) + tuple(1 + int(b) for b in f"{700:010b}")
    assert outcome(is_b_saturated(s)) == (False, (gap,), 1)


def test_is_complete_pset_positive():
    for s in (P3, P6, seed_P(2)):
        assert is_complete_pset(s).passed


def test_is_complete_pset_witness_extends():
    rep = is_complete_pset(U6)
    assert not rep.passed
    (w,) = rep.witness
    assert w == (0, 0, 0, 1, 1, 1)  # first extension point in rank order
    assert is_pset(extend(U6, w)).passed


def test_complete_pset_soundness_sampled():
    rng = random.Random(0x90D)
    for p in external_points(P6, rng, 100):
        assert not is_pset(extend(P6, p)).passed


def test_is_complete_pset_precheck():
    with pytest.raises(PreconditionError):
        is_complete_pset(gen_B(2))
    # precheck=False computes the extension scan regardless
    rep = is_complete_pset(gen_B(2), precheck=False)
    assert not rep.passed or rep.passed  # report, no exception


def test_is_complete_pset_capacity():
    s = PointSet.from_ranks([1, 3], 21)
    with pytest.raises(CapacityError):
        is_complete_pset(s, precheck=False)


def test_empty_set_is_extendable_pset():
    empty = PointSet.empty(2)
    assert is_pset(empty).passed
    rep = is_complete_pset(empty)
    assert not rep.passed
    assert rep.witness == ((0, 0),)


def brute_complete_pset(s):
    """First non-member in rank order that shares a zero with every member and
    lies on no line with two members; (passed, witness, non-members examined)."""
    members = set(s.points())
    examined = 0
    for r in range(POW3[s.dim]):
        x = unrank(r, s.dim)
        if x in members:
            continue
        examined += 1
        shares = all(any(a == b == 0 for a, b in zip(x, y)) for y in members)
        # the line through x and y ends in -(x + y), which is never y itself
        on_line = any(tuple(-(a + b) % 3 for a, b in zip(x, y)) in members for y in members)
        if shares and not on_line:
            return False, (x,), examined
    return True, None, examined


def test_is_complete_pset_matches_brute_force():
    rng = random.Random(0xC0DE)
    verdicts = {True: 0, False: 0}
    for trial in range(240):
        dim = rng.randint(1, 5)
        s = random_set(rng, dim, rng.randint(0, min(POW3[dim], 10)))
        if trial % 2:  # saturate: the full support class of every member
            ranks = [support_class(p).ranks for p in s]
            s = PointSet(dim, np.concatenate(ranks)) if ranks else s
        rep = is_complete_pset(s, precheck=False)
        assert (rep.passed, rep.witness, rep.pairs_examined) == brute_complete_pset(s), s
        verdicts[rep.passed] += 1
    assert min(verdicts.values()) > 30, verdicts


def test_is_complete_pset_counts():
    six_p2p1 = six_construction(*[seed_P(2)] * 3, *[P1] * 3)
    assert six_p2p1.dim == 9
    for s, passed, count in ((P6, True, 649), (six_p2p1, True, 19_043), (U6, False, 9)):
        rep = is_complete_pset(s)
        assert (rep.passed, rep.pairs_examined) == (passed, count)


# --- characterization -----------------------------------------------------------


def member_triple_reference(s):
    """First member triple (i, j, k), i < j < k, whose zero supports fail the
    triple condition, or None: the member-level O(m^3) loop that
    pset_characterization's support-level step 3 must agree with."""
    zm = s.zero_masks()
    m = len(s)
    for i in range(m - 2):
        zi = zm[i]
        for j in range(i + 1, m - 1):
            zj = zm[j]
            tail = zm[j + 1 :]
            ok = (
                ((zi & zj & ~tail) != 0)
                | ((zi & tail & ~zj) != 0)
                | ((zj & tail & ~zi) != 0)
                | ((zi == zj) & (tail == zi))
            )
            bad = np.flatnonzero(~ok)
            if bad.size:
                return i, j, j + 1 + int(bad[0])
    return None


def reference_characterization(s):
    """pairs, member triples, saturation, then the point scan for maximality."""
    return (
        pset_pair_condition(s).passed
        and member_triple_reference(s) is None
        and is_b_saturated(s).passed
        and is_complete_pset(s, precheck=False).passed
    )


def assert_triple_witness(s, witness):
    # three distinct members whose zero supports fail the triple condition
    assert len(set(witness)) == 3 and all(p in s for p in witness)
    sub = PointSet.from_points(list(witness), dim=s.dim)
    assert member_triple_reference(sub) is not None


def test_characterization_on_construction_outputs():
    # On three/six outputs the shape conditions and the verified properties
    # agree (all true), and so does the member-level triple reference
    for s in (P3, P6, mirror_set(P6)):
        assert pset_characterization(s).passed
        assert member_triple_reference(s) is None
        assert is_pset(s).passed
        assert is_b_saturated(s).passed
        assert is_complete_pset(s).passed


def test_characterization_rejects_shared_support_violation():
    # (0,1,1) and (0,2,2) share support {1}; adding (0,1,2) with support {1}
    # keeps pairs legal but the triple has all-equal supports and is fine;
    # instead take supports {1,2},{1},{1}: zero of the pair not matched
    s = PointSet.from_points([(0, 0, 1), (0, 1, 1), (0, 2, 1)])
    rep = pset_characterization(s)
    assert not rep.passed
    assert rep.witness is not None


def test_characterization_pair_failure():
    rep = pset_characterization(gen_B(2))
    assert not rep.passed
    assert len(rep.witness) == 2


@pytest.mark.parametrize(
    "points, dim",
    [
        ([], 2),
        ([], 3),
        ([(0, 0)], 2),
        ([(0, 0, 0)], 3),
        ([(0, 0, 1), (0, 0, 2)], 3),
        ([(0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 2, 0)], 3),
    ],
)
def test_characterization_rejects_extendable_saturated_psets(points, dim):
    # Saturated P-sets that still take an extra point: the shape conditions
    # hold vacuously or on their own, maximality over the supports fails.
    s = PointSet.from_points(points, dim=dim)
    assert is_pset(s).passed and is_b_saturated(s).passed
    rep = pset_characterization(s)
    assert not rep.passed
    (w,) = rep.witness
    assert w not in s
    assert is_pset(PointSet.from_points(points + [w], dim=dim)).passed
    # the lowest-rank extension point, as the point scan reports it
    assert rep.witness == is_complete_pset(s).witness


def test_characterization_extension_witness_is_lowest_rank_point():
    # the point scan of is_complete_pset is the reference for the lowest-rank
    # extension point of saturated P-sets that fail only maximality
    rng = random.Random(0xE7)
    space_masks = {d: zero_masks(np.arange(POW3[d]), d) for d in range(2, 10)}
    checked = 0
    for n in range(800):
        dim = 2 + n % 8
        family = [sum(1 << b for b in range(dim) if rng.random() < 0.7) for _ in range(rng.randint(1, 4))]
        s = PointSet.from_ranks(np.flatnonzero(np.isin(space_masks[dim], family)), dim)
        rep = pset_characterization(s)
        if rep.passed or len(rep.witness) != 1 or not is_pset(s).passed:
            continue
        assert rep.witness == is_complete_pset(s).witness, (dim, family)
        pairs = pset_pair_condition(s).pairs_examined + is_b_saturated(s).pairs_examined
        assert rep.pairs_examined == pairs + (1 << dim), (dim, family)
        checked += 1
    assert checked > 200, checked
    # {0^20}: every support but the empty and the full one extends it
    rep = pset_characterization(PointSet(20, [0]))
    assert (rep.passed, rep.witness, rep.pairs_examined) == (False, ((0,) * 19 + (1,),), 1 + (1 << 20))


def test_characterization_rejects_unsaturated_set():
    rep = pset_characterization(PointSet.from_points([(0, 1)]))
    assert not rep.passed
    assert rep.witness == ((0, 2),)


def test_characterization_matches_member_triple_reference():
    rng = random.Random(0x7C)
    space_masks = {d: zero_masks(np.arange(POW3[d]), d) for d in range(2, 7)}
    tally = {"triple_fail": 0, "triple_pass": 0, "pass": 0, "unsaturated": 0}
    for n in range(2400):
        dim = 2 + n % 5
        family = [
            sum(1 << b for b in range(dim) if rng.random() < 0.6)
            for _ in range(rng.randint(1, 5))
        ]
        ranks = np.flatnonzero(np.isin(space_masks[dim], family))
        s = PointSet.from_ranks(ranks, dim)
        rep = pset_characterization(s)
        assert rep.passed == reference_characterization(s), (dim, family)
        if pset_pair_condition(s).passed:
            # saturated and pairwise legal: step 3 decides exactly the member loop
            failed_triples = member_triple_reference(s) is not None
            assert (not rep.passed and len(rep.witness) == 3) == failed_triples, (dim, family)
            if failed_triples:
                assert_triple_witness(s, rep.witness)
            tally["triple_fail" if failed_triples else "triple_pass"] += 1
            tally["pass"] += rep.passed
        if len(s) >= 2:
            # an unsaturated set: only the overall verdict is compared
            sub = PointSet.from_ranks(np.delete(ranks, rng.randrange(len(s))), dim)
            assert pset_characterization(sub).passed == reference_characterization(sub)
            tally["unsaturated"] += 1
    assert min(tally.values()) > 100, tally


def test_characterization_triple_witnesses():
    # nested supports {1} < {1,2}: two members of class {1}, one of {1,2}
    nested = PointSet.from_points([(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (0, 0, 1), (0, 0, 2)])
    # supports {1,2}, {1,3}, {1,4}: every two meet in {1}, which the third holds
    star = PointSet.from_ranks(
        [r for r in range(POW3[4]) if unrank(r, 4)[0] == 0 and unrank(r, 4)[1:].count(0) == 1], 4
    )
    for s, supports, witness in (
        (nested, 2, ((0, 0, 1), (0, 1, 1), (0, 1, 2))),
        (star, 3, ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))),
    ):
        assert is_b_saturated(s).passed and pset_pair_condition(s).passed
        rep = pset_characterization(s)
        assert (rep.passed, rep.witness) == (False, witness)
        assert_triple_witness(s, rep.witness)
        # count: member pairs, members, then the distinct supports tested
        assert rep.pairs_examined == pairs_total(len(s)) + len(s) + supports


def test_characterization_six_p2_fourfold_under_a_second():
    s = six_construction(*[seed_P(2)] * 4, P1, P1)
    assert len(s) == 1280
    rep = pset_characterization(s)
    assert rep.passed and rep.elapsed < 1.0


def test_pset_checks_on_1228800_point_dim18_set():
    # three(six(P1^6) x 3) has 300 distinct zero supports, so the zero tests
    # are 300 x 300 mask tests where a member loop made 1.2M numpy calls
    s6 = six_construction(*[P1] * 6)
    s = three_construction(s6, s6, s6)
    assert (len(s), s.dim) == (1_228_800, 18)
    assert outcome(pset_pair_condition(s)) == (True, None, 754_974_105_600)
    rep = pset_characterization(s)
    assert rep.passed and rep.elapsed < 5.0
    ones = (1,) * 18
    assert outcome(pset_pair_condition(extend(s, ones))) == (False, (s.point(0), ones), 577_920)


def test_characterization_capacity_limit():
    s = PointSet.from_points([(0,) * 21])
    with pytest.raises(CapacityError):
        pset_characterization(s)


# --- block preconditions ---------------------------------------------------------


def test_condition1_preset_counts():
    inp = preset_ag15_inputs()
    rep = check_condition1(inp.pn1, inp.pn2, inp.pn3)
    assert rep.passed
    assert rep.pairs_examined == 80 * 80 * 12 == 76_800


def test_condition1_failure_witness():
    a = PointSet.from_points([(0, 1)])
    rep = check_condition1(a, a, a)  # (0,1)+(0,1)+(0,1) = (0,0)
    assert not rep.passed
    assert rep.witness == ((0, 1), (0, 1), (0, 1))


def test_condition2_preset_counts():
    inp = preset_ag15_inputs()
    for p in (inp.pn1, inp.pn2):
        rep = check_condition2(p, inp.pn3)
        assert rep.passed
        assert rep.pairs_examined == 80 * (12 * 11 // 2)


def test_condition2_failure():
    p1 = PointSet.from_points([(0, 0)])
    p3 = PointSet.from_points([(0, 1), (0, 2)])
    rep = check_condition2(p1, p3)
    assert not rep.passed
    assert rep.witness == ((0, 0), (0, 1), (0, 2))


def test_condition3_preset():
    inp = preset_ag15_inputs()
    p12 = union_sets([inp.pn1, inp.pn2], allow_overlap=True)
    rep = check_condition3(p12, inp.pn3)
    assert rep.passed
    assert rep.pairs_examined == len(p12) * 12


def test_condition3_failure():
    p12 = PointSet.from_points([(1, 0)])
    p3 = PointSet.from_points([(0, 1)])
    rep = check_condition3(p12, p3)
    assert not rep.passed
    assert rep.witness == ((1, 0), (0, 1))


def test_condition_checks_reject_mixed_dims():
    with pytest.raises(DimensionError):
        check_condition1(P3, P3, P6)
    with pytest.raises(DimensionError):
        check_condition2(P3, P6)
    with pytest.raises(DimensionError):
        check_condition3(P3, P6)


# --- zero-support checks against the member loops ------------------------------


def pair_condition_reference(s):
    """The per-member loop pset_pair_condition replaced: the first pair (i, j)
    in canonical order with disjoint zero supports; (passed, witness, count)."""
    zm = s.zero_masks()
    m = len(s)
    count = 0
    for i in range(m - 1):
        bad = (zm[i] & zm[i + 1 :]) == 0
        if bad.any():
            j = i + 1 + int(np.flatnonzero(bad)[0])
            return False, (s.point(i), s.point(j)), count + j - i
        count += m - 1 - i
    return True, None, count


def condition3_reference(p12, p3):
    """The per-row loop check_condition3 replaced: the first cross pair (ix, iy)
    in row order with disjoint zero supports; (passed, witness, count)."""
    zma, zmb = p12.zero_masks(), p3.zero_masks()
    for ix in range(len(p12)):
        bad = np.flatnonzero((zma[ix] & zmb) == 0)
        if bad.size:
            iy = int(bad[0])
            return False, (p12.point(ix), p3.point(iy)), ix * len(p3) + iy + 1
    return True, None, len(p12) * len(p3)


def sparse_zero_set(rng, dim, size, zero_rate):
    """size random points whose coordinates are 0 with probability zero_rate."""
    coords = np.array(
        [[0 if rng.random() < zero_rate else rng.randint(1, 2) for _ in range(dim)] for _ in range(size)],
        dtype=np.uint8,
    ).reshape(size, dim)
    return PointSet.from_ranks(ranks_from_coords(coords), dim)


def test_zero_support_checks_match_member_loops():
    rng = random.Random(0x2E0)
    space_masks = {d: zero_masks(np.arange(POW3[d]), d) for d in range(1, 7)}
    tally = collections.Counter()
    sets = []
    for n in range(3000):
        dim = 1 + n % 6
        kind = (n // 6) % 4
        if kind == 0:  # no, one or two members
            s = random_set(rng, dim, (n // 24) % 3)
        elif kind == 1:  # members with an empty zero support among random ones
            extra = random_set(rng, dim, rng.randint(0, min(8, POW3[dim])))
            s = union_sets([sparse_zero_set(rng, dim, rng.randint(1, 3), 0.0), extra], allow_overlap=True)
        else:  # drawn from a few supports: saturated, or repeated supports
            family = [sum(1 << b for b in range(dim) if rng.random() < 0.6) for _ in range(rng.randint(1, 4))]
            pool = np.flatnonzero(np.isin(space_masks[dim], family))
            if kind == 3:
                pool = np.sort(rng.sample(list(pool), rng.randint(1, min(pool.size, 12))))
            s = PointSet.from_ranks(pool, dim)
        expected = pair_condition_reference(s)
        assert outcome(pset_pair_condition(s)) == expected, s.ranks
        tally["pairs", len(s) >= 2, expected[0]] += 1
        if n >= 6:  # the set six steps back has the same dimension
            p12 = sets[-6]
            expected = condition3_reference(p12, s)
            assert outcome(check_condition3(p12, s)) == expected, (p12.ranks, s.ranks)
            tally["condition3", expected[0]] += 1
        sets.append(s)
    for dim in (21, 39):
        for size in (0, 1, 2, 40):
            for zero_rate in (0.0, 0.3, 0.8):
                s = sparse_zero_set(rng, dim, size, zero_rate)
                assert outcome(pset_pair_condition(s)) == pair_condition_reference(s)
                p12 = sparse_zero_set(rng, dim, 30, 0.8)
                assert outcome(check_condition3(p12, s)) == condition3_reference(p12, s)
    # both verdicts of both checks, on sets of two or more members
    assert min(tally[k] for k in tally if k[:2] != ("pairs", False)) > 150, tally


def test_support_checks_build_no_coordinate_matrix(monkeypatch, tmp_path, capsys):
    bases = [P3, P6, U6, extend(P3, (1, 1, 1)), PointSet.from_points([(0, 1), (1, 0)]),
             PointSet.from_points([(0, 1, 1)]), PointSet.from_points([(0, 2, 2, 0), (1, 1, 1, 1)])]
    checks = [pset_pair_condition, is_b_saturated, is_odd_pset, pset_characterization,
              lambda s: is_complete_pset(s, precheck=False)]

    def run():
        sets = [PointSet.from_ranks(s.ranks, s.dim) for s in bases]  # nothing cached
        reports = [outcome(check(s)) for s in sets for check in checks]
        reports += [outcome(check_condition3(a, b)) for a in sets for b in sets if a.dim == b.dim]
        reports.append(outcome(is_complete_pset(sets[1])))
        infos = []
        for k in range(len(sets)):
            assert cli_main(["info", str(tmp_path / f"{k}.txt")]) == 0
            infos.append(capsys.readouterr().out)
        return reports, infos

    for k, s in enumerate(bases):
        write_capset(s, tmp_path / f"{k}.txt")
    expected = run()
    assert {passed for passed, _, _ in expected[0]} == {True, False}

    def refuse(*args, **kwargs):
        raise AssertionError("a support check built a coordinate matrix")

    monkeypatch.setattr(PointSet, "coords", refuse)
    monkeypatch.setattr(f3core, "coords_from_ranks", refuse)
    assert run() == expected


def zero_sum(*points):
    return all(sum(c) % 3 == 0 for c in zip(*points))


def brute_condition1(p1, p2, p3):
    count = 0
    for triple in itertools.product(p1.points(), p2.points(), p3.points()):
        count += 1
        if zero_sum(*triple):
            return False, triple, count
    return True, None, count


def brute_condition2(p1, p3):
    count = 0
    for x in p1.points():
        for y, z in itertools.combinations(p3.points(), 2):
            count += 1
            if zero_sum(x, y, z):
                return False, (x, y, z), count
    return True, None, count


def brute_projective(a):
    """Lexicographic triple scan: x, y, z are dependent iff x + b*y + c*z = 0
    for some nonzero b, c (no member is zero and no two are proportional).
    For each x every later pair (y, z) is tested at once: -(x + b*y) and c*z
    are compared coordinatewise, through a base-3 code of each vector."""
    points = list(a.points())
    m = len(points)
    coords = np.array(points, dtype=np.int64).reshape(m, a.dim)
    code = np.array([3**e for e in range(a.dim)], dtype=np.int64)
    scale = np.array([1, 2])[:, None, None]
    count = 0
    for i in range(m - 2):
        later, size = coords[i + 1 :], m - 1 - i
        want = (-(coords[i] + scale * later)) % 3 @ code  # [b, y]
        have = scale * later % 3 @ code  # [c, z]
        zero = (want[:, None, :, None] == have[None, :, None, :]).any(axis=(0, 1))  # [y, z]
        zero &= np.tri(size, size, -1, dtype=bool).T  # z after y
        rows = np.flatnonzero(zero.any(axis=1))
        if rows.size:
            j = int(rows[0])
            k = int(np.flatnonzero(zero[j])[0])
            count += j * (size - 1) - j * (j - 1) // 2 + k - j  # the pairs up to (y, z)
            return False, (points[i], points[i + 1 + j], points[i + 1 + k]), count
        count += size * (size - 1) // 2
    return True, None, count


def outcome(rep):
    return rep.passed, rep.witness, rep.pairs_examined


def projective_reps(rng, dim, size):
    """Up to size nonzero ranks, one per projective point."""
    ranks = set()
    for r in rng.sample(range(1, POW3[dim]), size):
        if int(neg_ranks([r], dim)[0]) not in ranks:
            ranks.add(r)
    return PointSet.from_ranks(sorted(ranks), dim)


def test_cross_checks_match_brute_force():
    # small operands, empty ones and operands sharing points, so that a
    # partner equal to its own third point (x paired with x) occurs
    rng = random.Random(0xB27)
    failed = {"condition1": 0, "condition2": 0, "projective": 0}
    for _ in range(300):
        dim = rng.randint(2, 5)
        top = min(8, POW3[dim])
        p1, p2, p3 = (random_set(rng, dim, rng.randint(0, top)) for _ in range(3))
        if rng.random() < 0.4:
            p3 = union_sets([p3, PointSet.from_ranks(p1.ranks[:2], dim)], allow_overlap=True)
        if rng.random() < 0.4:
            p2 = union_sets([p2, PointSet.from_ranks(p1.ranks[:2], dim)], allow_overlap=True)
        expected = brute_condition1(p1, p2, p3)
        assert outcome(check_condition1(p1, p2, p3)) == expected
        failed["condition1"] += not expected[0]
        expected = brute_condition2(p1, p3)
        assert outcome(check_condition2(p1, p3)) == expected
        failed["condition2"] += not expected[0]
        a = projective_reps(rng, dim, rng.randint(0, min(12, POW3[dim] - 1)))
        expected = brute_projective(a)
        assert outcome(is_projective_cap(a)) == expected
        failed["projective"] += not expected[0]
    # both verdicts are exercised
    assert all(30 < n < 270 for n in failed.values()), failed


@pytest.mark.parametrize("dim", [21, 39])
def test_cross_checks_above_bitmap_dim(dim):
    rng = random.Random(dim)
    a, b, c = (random_set(rng, dim, 6) for _ in range(3))
    x, y = a.point(4), b.point(2)
    c_bad = extend(c, third_point(x, y))
    for p3 in (c, c_bad):
        assert outcome(check_condition1(a, b, p3)) == brute_condition1(a, b, p3)
    assert not check_condition1(a, b, c_bad).passed
    b_bad = union_sets([b, c_bad])
    for p3 in (b, b_bad):
        assert outcome(check_condition2(a, p3)) == brute_condition2(a, p3)
    assert not check_condition2(a, b_bad).passed
    reps = projective_reps(rng, dim, 6)
    dependent = extend(reps, tuple((s + 2 * t) % 3 for s, t in zip(reps.point(1), reps.point(3))))
    for s in (reps, dependent):
        assert outcome(is_projective_cap(s)) == brute_projective(s)
    assert not is_projective_cap(dependent).passed


@pytest.mark.parametrize("dim", [13, 21])
def test_cross_checks_across_anchor_blocks(dim):
    # p1 holds 270 members of top digit group 1, two anchor blocks, and 20 of
    # later top values. A hit is planted at an anchor of the first block, of
    # the second block (same top value) and of a later top value; the
    # operands without it pass, so the planted anchor is the first to hit.
    rng = np.random.default_rng(dim)
    place = POW3[f3core._digit_groups(dim)[0][0]]
    run = place + rng.choice(place, 270, replace=False)
    p1 = PointSet(dim, np.unique(np.concatenate([run, rng.integers(2 * place, POW3[dim], 20)])))
    p2, p3 = (PointSet(dim, np.unique(rng.integers(0, POW3[dim], 8))) for _ in range(2))
    anchors = (100, 260, len(p1) - 10)
    assert [int(p1.ranks[i]) // place for i in anchors[:2]] == [1, 1] and p1.ranks[anchors[2]] >= 2 * place
    assert brute_condition1(p1, p2, p3)[0] and brute_condition2(p1, p3)[0]
    reps = p1 if dim > 20 else None  # at 21, random representatives are a projective cap
    if reps is not None:
        verifiers.check_projective_representatives(reps)
        assert outcome(is_projective_cap(reps)) == brute_projective(reps) == (True, None, comb(len(reps), 3))
    for ix in anchors:
        x = p1.point(ix)
        c1 = extend(p3, third_point(x, p2.point(3)))
        expected = brute_condition1(p1, p2, c1)
        assert expected[1][0] == x
        assert outcome(check_condition1(p1, p2, c1)) == expected
        w = unrank(int(rng.integers(POW3[dim])), dim)
        c2 = union_sets([p3, PointSet.from_points([w, third_point(x, w)])])
        expected = brute_condition2(p1, c2)
        assert expected[1][0] == x
        assert outcome(check_condition2(p1, c2)) == expected
        if reps is None:
            continue
        # z = x + b*y for a later y, above x in rank and proportional to no member
        for j, b in itertools.product(range(len(reps) - 1, ix, -1), (1, 2)):
            z = tuple((s + b * t) % 3 for s, t in zip(x, reps.point(j)))
            if rank(z) > rank(x) and z not in reps and int(neg_ranks([rank(z)], dim)[0]) not in reps.ranks:
                break
        dependent = extend(reps, z)
        expected = brute_projective(dependent)
        assert expected[1][0] == x
        assert outcome(is_projective_cap(dependent)) == expected


# --- projective caps --------------------------------------------------------------


FRAME = PointSet.from_points([(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])


def test_projective_cap_frame_passes():
    rep = is_projective_cap(ProjectiveCap(FRAME))
    assert rep.passed
    assert is_projective_cap(FRAME).passed  # plain PointSet accepted too


def test_projective_cap_dependent_triple_fails():
    s = PointSet.from_points([(0, 0, 1), (0, 1, 0), (0, 1, 1)])
    rep = is_projective_cap(s)
    assert not rep.passed
    assert rep.witness == ((0, 0, 1), (0, 1, 0), (0, 1, 1))


def test_every_failed_witness_retriggers_failure():
    # each failing verifier's witness reproduces the violation through the
    # point-level primitives
    rng = random.Random(0x717)
    checked = 0
    for _ in range(60):
        s = random_set(rng, 3, rng.randint(3, 15))
        rep = is_cap(s, mode="naive")
        if not rep.passed:
            a, b, c = rep.witness
            assert all((x + y + z) % 3 == 0 for x, y, z in zip(a, b, c))
            assert third_point(a, b) == c
            checked += 1
        rep = pset_pair_condition(s)
        if not rep.passed:
            p, q = rep.witness
            assert not (set_zero(p) & set_zero(q))
            checked += 1
    assert checked > 10


def set_zero(p):
    return {i for i, c in enumerate(p) if c == 0}
