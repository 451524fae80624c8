"""Pair-sweep engine: chunking, determinism, coverage, early exit, progress."""
import hashlib
import itertools
import mmap
import os
from multiprocessing.context import ForkProcess
import random
import re
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import capset
from capset.errors import CapacityError
from capset.constructions import gen_B
from capset.f3core import POW3, PointSet, SpaceBitmap, _digit_groups, rank, third_point, unrank
from capset.sweep import (
    DEFAULT_CHUNK_PAIRS,
    SweepTask,
    make_chunks,
    pair_index,
    pairs_before_anchor,
    pairs_total,
    _Kernel,
    resolve_threads,
    run_sweep,
)


def random_set(rng, dim, size):
    ranks = rng.sample(range(POW3[dim]), size)
    return PointSet.from_ranks(ranks, dim)


def brute_force_first_violation(s):
    """Minimal (i, j) in canonical pair order whose third point is a member."""
    pts = list(s.points())
    for i in range(len(pts) - 1):
        for j in range(i + 1, len(pts)):
            t = third_point(pts[i], pts[j])
            if t in s:
                return rank(pts[i]), rank(pts[j]), rank(t)
    return None


def brute_force_coverage(s):
    pts = list(s.points())
    return {rank(third_point(p, q)) for p, q in itertools.combinations(pts, 2)}


# --- pair kernel ---------------------------------------------------------------


def kernel_ranks(dim, seed):
    """Sorted distinct ranks: random ones plus a run of consecutive ranks,
    whose anchors share every digit group but the lowest."""
    rng = np.random.default_rng(seed)
    spread = rng.integers(0, POW3[dim], 40, dtype=np.int64)
    base = int(rng.integers(0, POW3[dim] - min(POW3[dim], 12) + 1))
    run = np.arange(base, base + min(POW3[dim], 12), dtype=np.int64)
    return np.unique(np.concatenate([spread, run]))


def coordinate_thirds(anchor, partners, dim):
    """Ranks of -(anchor + p) for each rank p of partners, by coordinates."""
    place = np.array(POW3[:dim], dtype=np.int64)
    return ((-(anchor // place % 3 + partners[:, None] // place % 3)) % 3 * place).sum(axis=1)


def expected_tile(kernel, b0, b1, cols, dim):
    return np.stack([coordinate_thirds(a, kernel.partners[cols], dim) for a in kernel.anchors[b0:b1]], axis=1)


@pytest.mark.parametrize("dim", range(1, 40))
def test_kernel_thirds_match_coordinate_arithmetic(dim, monkeypatch):
    # _block_tiles, with the anchors a second array and with the partners
    # themselves; dims 1-39 cross every group-count boundary: 8/9, 16/17,
    # 24/25, 32/33. Small blocks and tiles (a block's own tile still fits)
    # give a run of equal top groups several blocks and the partners several
    # tiles
    monkeypatch.setattr(capset.sweep, "_BLOCK_ANCHORS", 8)
    monkeypatch.setattr(capset.sweep, "_TILE_ITEMS", 96)
    partners, anchors = kernel_ranks(dim, dim), kernel_ranks(dim, 100 + dim)
    n = partners.size
    rng = np.random.default_rng(1000 + dim)
    for kernel in (_Kernel(partners, dim, anchors), _Kernel(partners, dim)):
        m = kernel.anchors.size
        blocks = list(kernel._blocks(0, m))
        assert blocks[0][0] == 0 and blocks[-1][1] == (m if kernel.cross else n - 1)
        assert all(b1 == c0 for (_, b1), (c0, _) in zip(blocks, blocks[1:]))
        top = kernel.anchors // kernel.groups[0][0] if dim > 8 else np.zeros(m)  # one group: any run
        assert all(b1 - b0 <= 8 and len(set(top[b0:b1])) == 1 for b0, b1 in blocks)
        calls = blocks + [(i, i + 1) for i in rng.choice(m - 1, 5)]  # one-anchor blocks
        for b0, b1 in calls:
            expect = range(0 if kernel.cross else b1, n)
            seen = []
            for cols, tile in kernel._block_tiles(b0, b1):
                assert tile.dtype == np.intp and tile.shape == (cols.size, b1 - b0)
                assert np.array_equal(tile, expected_tile(kernel, b0, b1, cols, dim)), (b0, b1, cols)
                seen.append(cols.tolist())
            if not kernel.cross:  # the own triangle first
                assert seen.pop(0) == list(range(b0, b1))
            assert [j for cols in seen for j in cols] == list(expect)


def window_of(ranks, dim):
    """The top digit group value of each rank: the window pruning tests."""
    shift, _ = _digit_groups(dim)[0]
    return np.asarray(ranks) // POW3[shift]


@pytest.mark.parametrize("dim", [1, 9, 12, 15, 19, 21, 30, 39])
def test_pruned_tiles_skip_only_empty_windows(dim, monkeypatch):
    # with the gate open, a kernel given a target yields correct tiles in
    # ascending partner order and leaves out only partners whose thirds with
    # every anchor of the block fall in windows that hold no target rank; the
    # block's own tile comes first iff its window holds one. Below dimension
    # 9 there is one group and nothing is pruned
    monkeypatch.setattr(capset.sweep, "_BLOCK_ANCHORS", 8)
    monkeypatch.setattr(capset.sweep, "_TILE_ITEMS", 96)
    monkeypatch.setattr(capset.sweep, "_PRUNE_GAIN", 0)
    partners, anchors = kernel_ranks(dim, 7 * dim), kernel_ranks(dim, 8 * dim)
    rng = np.random.default_rng(dim)
    pruned = own_pruned = 0
    for cross in (True, False):
        target = np.unique(rng.choice(partners, 6))
        kernel = _Kernel(partners, dim, anchors if cross else None, target)
        assert (kernel.live is not None) == (dim > 8)
        m = kernel.anchors.size
        for b0, b1 in kernel._blocks(0, m):
            seen = []
            for cols, tile in kernel._block_tiles(b0, b1):
                assert np.array_equal(tile, expected_tile(kernel, b0, b1, cols, dim)), (b0, b1, cols)
                seen += cols.tolist()
            if not cross:
                own = coordinate_thirds(partners[b0], partners[b0:b1], dim)
                live = dim <= 8 or np.isin(window_of(own, dim), window_of(target, dim)).any()
                assert (seen[: b1 - b0] == list(range(b0, b1))) == live
                if live:
                    seen = seen[b1 - b0 :]
                else:
                    own_pruned += 1
            every = range(0 if cross else b1, partners.size)
            assert seen == sorted(seen) and set(seen) <= set(every)
            for j in set(every) - set(seen):
                thirds = coordinate_thirds(partners[j], kernel.anchors[b0:b1], dim)
                assert not np.isin(window_of(thirds, dim), window_of(target, dim)).any()
                pruned += 1
    assert (pruned > 0) == (own_pruned > 0) == (dim > 8)


@pytest.mark.parametrize("dim", [5, 15, 21, 39])
def test_kernel_hits_match_isin(dim, monkeypatch):
    # _Kernel.first_hit; with bits, the mask holds bit values, as the cap
    # sweep's bitmap gather does. With pruning the kernel is given the
    # target, with the gate open, and leaves out the partners of empty windows
    monkeypatch.setattr(capset.sweep, "_PRUNE_GAIN", 0)
    partners, anchors = kernel_ranks(dim, 2 * dim), kernel_ranks(dim, 3 * dim)
    rng = np.random.default_rng(dim)
    for pruning, cross, bits in itertools.product((False, True), (True, False), (False, True)):
        m = anchors.size if cross else partners.size
        last = m if cross else partners.size - 1
        for pick in (0, m // 2, last - 1, None):
            noise = rng.integers(0, POW3[dim], 5, dtype=np.int64)
            if pick is None:
                target = noise
            else:
                start = 0 if cross else pick + 1
                thirds = coordinate_thirds((anchors if cross else partners)[pick], partners[start:], dim)
                target = np.concatenate([noise, rng.choice(thirds, 2)])
            target = np.unique(target)
            kernel = _Kernel(partners, dim, anchors if cross else None, target if pruning else None)
            assert (kernel.live is not None) == (pruning and dim > 8)

            def hits(tile, cols):
                found = np.isin(tile, target)
                return found.astype(np.uint8) << 4 if bits else found

            for a0, a1 in [(0, m), (0, 0), (m // 2, m), (1, m // 2), (last - 1, m)]:
                expect = None
                for i in range(a0, min(a1, last)):
                    start = 0 if kernel.cross else i + 1
                    thirds = coordinate_thirds(kernel.anchors[i], partners[start:], dim)
                    found = np.flatnonzero(np.isin(thirds, target))
                    if found.size:
                        expect = (i, start + int(found[0]), int(thirds[found[0]]))
                        break
                assert kernel.first_hit(a0, a1, hits) == expect, (pick, a0, a1)


@pytest.mark.parametrize("dim", [5, 15, 21, 39])
def test_kernel_first_miss_matches_isin(dim, monkeypatch):
    # _Kernel.first_miss over several blocks of several tiles: the target
    # holds every third point but those of one anchor, or all of them. With
    # pruning the kernel is given the target, with the gate open
    monkeypatch.setattr(capset.sweep, "_BLOCK_ANCHORS", 8)
    monkeypatch.setattr(capset.sweep, "_TILE_ITEMS", 96)
    monkeypatch.setattr(capset.sweep, "_PRUNE_GAIN", 0)
    partners, anchors = kernel_ranks(dim, 4 * dim), kernel_ranks(dim, 5 * dim)
    m = anchors.size
    rows = [coordinate_thirds(a, partners, dim) for a in anchors]
    for pruning, pick, bits in itertools.product((False, True), (0, m // 2, m - 1, None), (False, True)):
        target = np.unique(np.concatenate(rows))
        if pick is not None:
            target = np.setdiff1d(target, rows[pick])
        kernel = _Kernel(partners, dim, anchors, target if pruning else None)

        def hits(tile, cols):
            found = np.isin(tile, target)
            return found.astype(np.uint8) << 4 if bits else found

        for a0, a1 in [(0, m), (0, 0), (m // 2, m), (1, m // 2), (m - 1, m)]:
            expect = next((i for i in range(a0, a1) if not np.isin(rows[i], target).any()), None)
            assert kernel.first_miss(a0, a1, hits) == expect, (pick, a0, a1)
        if pruning and pick is not None:
            # a target of only the ranks in the windows of the picked anchor's
            # thirds: every other window is empty, so most partners are pruned
            sparse = target[np.isin(window_of(target, dim), window_of(rows[pick], dim))]
            kernel = _Kernel(partners, dim, anchors, sparse)

            def sparse_hits(tile, cols):
                return np.isin(tile, sparse)

            expect = next(i for i in range(m) if not np.isin(rows[i], sparse).any())
            assert kernel.first_miss(0, m, sparse_hits) == expect


# --- anchor blocks against the per-anchor reference ----------------------------


def reference_outcome(s, mode):
    """(violation, pairs_examined, covered ranks) of a per-anchor sweep on coordinate arithmetic."""
    ranks, m = s.ranks, len(s)
    rows = [coordinate_thirds(ranks[i], ranks[i + 1 :], s.dim) for i in range(m - 1)]
    first, examined = None, pairs_total(m)
    for i, thirds in enumerate(rows):
        hit = np.flatnonzero(np.isin(thirds, ranks))
        if hit.size:
            k = int(hit[0])
            first = (int(ranks[i]), int(ranks[i + 1 + k]), int(thirds[k]))
            examined = pair_index(m, i, i + 1 + k) + 1
            break
    if mode == "coverage":
        covered = np.unique(np.concatenate(rows)) if rows else np.empty(0, np.int64)
        return first, pairs_total(m), covered
    return first, examined, None


def assert_coverage_is(coverage, covered):
    # equal bit for bit: the same number of set bits, all of them at covered
    assert coverage.count() == covered.size
    assert (coverage.buf[covered >> 3] & (1 << (covered & 7)).astype(np.uint8)).all()


def plant_line(rng, ranks, dim):
    """ranks plus the third point of two of them, drawn at random."""
    p, q = (unrank(int(r), dim) for r in rng.choice(ranks, 2, replace=False))
    return np.append(ranks, rank(third_point(p, q)))


def block_run_set(rng, dim, size):
    """Random ranks, about half of them in one top digit group: one long block."""
    top = POW3[dim - _digit_groups(dim)[0][1]] if dim > 8 else POW3[dim]
    base = int(rng.integers(0, POW3[dim] // top)) * top
    run = base + rng.choice(top, min(top, size // 2), replace=False)
    return np.unique(np.concatenate([run, rng.integers(0, POW3[dim], size - run.size)]))


def assert_matches_reference(s, modes=("cap", "coverage"), threads=(1, 2, 3), chunks=(7, 500, 10**7)):
    for mode in modes:
        violation, examined, covered = reference_outcome(s, mode)
        for t in threads:
            for chunk_pairs in chunks:
                out = run_sweep(SweepTask(s, mode, chunk_pairs=chunk_pairs, threads=t))
                assert (out.violation, out.pairs_examined) == (violation, examined), (mode, t, chunk_pairs)
                if covered is not None:
                    assert_coverage_is(out.coverage, covered)
                del out


@pytest.mark.parametrize("dim", range(1, 22))
def test_block_sweep_matches_per_anchor_reference(dim):
    # dimensions up to 8 have one digit group, cut only by the 256-anchor
    # cap; at 21 coverage is refused, so cap mode alone is compared
    rng = np.random.default_rng(0xB10C + dim)
    size = min(POW3[dim], 300 if dim <= 18 else 120)
    modes = ("cap", "coverage") if dim <= 20 else ("cap",)
    threads = (1, 2, 3) if dim < 18 else (1, 2)
    for planted in (False, True):
        ranks = rng.choice(POW3[dim], size, replace=False) if dim < 8 else block_run_set(rng, dim, size)
        if planted and ranks.size > 2:
            ranks = plant_line(rng, ranks, dim)
        assert_matches_reference(PointSet(dim, ranks), modes, threads)


@pytest.mark.parametrize("dim", [7, 15, 17])
def test_block_longer_than_256_anchors(dim):
    # one top-group run of 600 anchors is cut into blocks of at most 256; at
    # dimension 7 (one group) the 256 cap alone cuts them
    rng = np.random.default_rng(dim)
    top = POW3[dim - _digit_groups(dim)[0][1]] if dim > 8 else POW3[dim]
    run = int(rng.integers(0, POW3[dim] // top)) * top + rng.choice(top, 600, replace=False)
    s = PointSet(dim, np.unique(np.concatenate([run, rng.integers(0, POW3[dim], 100)])))
    assert len(s) > 512
    assert_matches_reference(s, threads=(1, 2), chunks=(500, 10**7))
    assert_matches_reference(PointSet(dim, plant_line(rng, s.ranks, dim)), ("cap",), (1, 3), (7, 10**7))


def third_rank(x, y, dim):
    return rank(third_point(unrank(x, dim), unrank(y, dim)))


@pytest.mark.parametrize("dim", [15, 19])
def test_block_hit_in_triangle_and_rectangle(dim):
    # The block is the anchors of top group value 0. A "triangle" line lies in
    # the block (the third of two points of one top group shares it); a
    # "rectangle" line joins an anchor to two later points of other top groups.
    top = POW3[dim - _digit_groups(dim)[0][1]]
    # top group value 5 (012 in base 3): its thirds with the block have 021 = 7
    far = 5 * top

    def triangle(a, b):
        # for a divisible by 3 and b = a + 1 the third is a + 2
        return [a, b, third_rank(a, b, dim)]

    def rectangle(a):
        return [a, far + 7, third_rank(a, far + 7, dim)]

    a0, a1 = 99, 201  # anchors a0 < a1 of the block; the other points are above them
    cases = [
        # lesser anchor's rectangle partner wins over a greater anchor's triangle partner
        (rectangle(a0) + triangle(a1, a1 + 1), (a0, far + 7)),
        # lesser anchor's triangle partner wins over a greater anchor's rectangle partner
        (triangle(a0, a0 + 1) + rectangle(a1), (a0, a0 + 1)),
        # one anchor with both: its triangle partner wins
        (triangle(a0, a0 + 1) + rectangle(a0), (a0, a0 + 1)),
    ]
    for ranks, (i, j) in cases:
        s = PointSet(dim, ranks)
        # the planted points are least in their lines, so the hit is where intended
        assert int(s.ranks[0]) == a0 and third_rank(i, j, dim) > j
        violation = (i, j, third_rank(i, j, dim))
        assert reference_outcome(s, "cap")[0] == violation
        assert_matches_reference(s, ("cap", "coverage"), (1, 2, 3) if dim <= 18 else (1, 2))


def test_progress_pairs_add_up(monkeypatch):
    # two chunks at the default size, the first long enough for a flush of
    # 2^23 pairs inside it; every pair is reported once
    rng = np.random.default_rng(23)
    s = PointSet(15, rng.choice(POW3[15], 5000, replace=False))
    assert len(make_chunks(len(s))) == 2
    seen = []
    monkeypatch.setattr(capset.sweep._Progress, "add", lambda self, pairs: seen.append(pairs))
    out = run_sweep(SweepTask(s, "coverage", threads=1))
    assert out.pairs_examined == sum(seen) == pairs_total(len(s))
    assert len(seen) > 2


# --- pair index bookkeeping --------------------------------------------------


def test_pairs_total():
    assert pairs_total(0) == 0
    assert pairs_total(1) == 0
    assert pairs_total(2) == 1
    assert pairs_total(124928) == 7_803_440_128


def test_pair_index_enumerates_canonical_order():
    m = 9
    expected = 0
    for i in range(m - 1):
        assert pairs_before_anchor(m, i) == expected
        for j in range(i + 1, m):
            assert pair_index(m, i, j) == expected
            expected += 1
    assert expected == pairs_total(m)


def test_make_chunks_partition_exactly():
    rng = random.Random(0xC4)
    for _ in range(30):
        m = rng.randint(2, 400)
        chunk_pairs = rng.randint(1, 300)
        chunks = make_chunks(m, chunk_pairs)
        # anchors tile [0, m-1) contiguously
        assert chunks[0][0] == 0
        assert chunks[-1][1] == m - 1
        for (a0, a1), (b0, b1) in zip(chunks, chunks[1:]):
            assert a1 == b0 and a0 < a1
        total = sum(
            pairs_before_anchor(m, a1) - pairs_before_anchor(m, a0)
            for a0, a1 in chunks
        )
        assert total == pairs_total(m)


def test_chunk_count_independent_of_workers():
    # chunk layout depends only on m and the chunk size, so results cannot
    # depend on the worker count
    chunks_a = make_chunks(1000, 5000)
    chunks_b = make_chunks(1000, 5000)
    assert chunks_a == chunks_b


# --- correctness against brute force -----------------------------------------


def test_sweep_agrees_with_brute_force_on_random_sets():
    rng = random.Random(0x5EED)
    for _ in range(40):
        dim = rng.randint(2, 5)
        size = rng.randint(2, min(60, POW3[dim]))
        s = random_set(rng, dim, size)
        expected = brute_force_first_violation(s)
        out = run_sweep(SweepTask(points=s, mode="cap"))
        assert out.violation == expected
        if expected is None:
            assert out.pairs_examined == pairs_total(len(s))


def test_sweep_coverage_matches_brute_force():
    rng = random.Random(0xC0F)
    for _ in range(25):
        dim = rng.randint(2, 5)
        size = rng.randint(2, min(40, POW3[dim]))
        s = random_set(rng, dim, size)
        out = run_sweep(SweepTask(points=s, mode="coverage"))
        expected = brute_force_coverage(s)
        got = {r for r in range(POW3[dim]) if out.coverage.test(r)}
        assert got == expected
        assert out.pairs_examined == pairs_total(len(s))


def test_sweep_known_violation_witness():
    s = PointSet.from_points([(0, 0), (0, 1), (0, 2)])
    out = run_sweep(SweepTask(points=s, mode="cap"))
    assert out.violation == (rank((0, 0)), rank((0, 1)), rank((0, 2)))
    assert out.pairs_examined == 1


def test_sweep_coverage_of_b2():
    from capset.constructions import gen_B

    out = run_sweep(SweepTask(points=gen_B(2), mode="coverage"))
    covered = {unrank(r, 2) for r in range(9) if out.coverage.test(r)}
    assert covered == {(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)}


def test_early_exit_pair_count():
    # violation at a known canonical pair index: pairs_examined must equal
    # that index + 1 regardless of chunk size
    rng = random.Random(0xEA)
    for _ in range(20):
        dim = rng.randint(2, 4)
        size = rng.randint(3, min(30, POW3[dim]))
        s = random_set(rng, dim, size)
        expected = brute_force_first_violation(s)
        if expected is None:
            continue
        ranks = list(np.asarray(s.ranks))
        i = ranks.index(expected[0])
        j = ranks.index(expected[1])
        for chunk_pairs in (1, 7, 10**6):
            out = run_sweep(SweepTask(points=s, mode="cap", chunk_pairs=chunk_pairs))
            assert out.violation == expected
            assert out.pairs_examined == pair_index(len(s), i, j) + 1


def test_coverage_mode_completes_despite_violation():
    s = PointSet.from_points([(0, 0), (0, 1), (0, 2), (1, 0)])
    out = run_sweep(SweepTask(points=s, mode="coverage"))
    assert out.violation is not None
    assert out.pairs_examined == pairs_total(4)
    assert out.coverage is not None


def test_coverage_monotone_under_subset():
    rng = random.Random(0x5B)
    for _ in range(10):
        s = random_set(rng, 4, 30)
        sub = PointSet.from_ranks(np.asarray(s.ranks)[:17], 4)
        big = run_sweep(SweepTask(points=s, mode="coverage")).coverage
        small = run_sweep(SweepTask(points=sub, mode="coverage")).coverage
        merged = SpaceBitmap(4, small.buf | big.buf)
        assert merged == big


# --- determinism across workers ----------------------------------------------


def test_outcome_identical_across_worker_counts():
    from capset.constructions import preset_ag6_112, product, gen_B

    s = product([preset_ag6_112(), gen_B(2)])  # 448 points, dim 8
    outs = []
    for threads in (1, 4, 8):
        out = run_sweep(
            SweepTask(points=s, mode="coverage", threads=threads, chunk_pairs=4000)
        )
        outs.append(out)
    assert outs[0].violation == outs[1].violation == outs[2].violation
    assert outs[0].pairs_examined == outs[1].pairs_examined == outs[2].pairs_examined
    assert outs[0].coverage == outs[1].coverage == outs[2].coverage
    assert outs[0].coverage.tobytes() == outs[1].coverage.tobytes()


def test_violation_identical_across_worker_counts():
    from capset.constructions import preset_ag6_112, union_sets

    bad = union_sets(
        [preset_ag6_112(), PointSet.from_points([(0, 0, 0, 0, 0, 1)])]
    )
    results = set()
    pairs = set()
    for threads in (1, 4, 8):
        out = run_sweep(
            SweepTask(points=bad, mode="cap", threads=threads, chunk_pairs=50)
        )
        results.add(out.violation)
        pairs.add(out.pairs_examined)
    assert len(results) == 1 and None not in results
    assert len(pairs) == 1


def test_chunk_size_does_not_change_outcome():
    rng = random.Random(0xC51)
    s = random_set(rng, 5, 120)
    base = run_sweep(SweepTask(points=s, mode="coverage"))
    for chunk_pairs in (13, 257, DEFAULT_CHUNK_PAIRS):
        out = run_sweep(SweepTask(points=s, mode="coverage", chunk_pairs=chunk_pairs))
        assert out.violation == base.violation
        assert out.pairs_examined == base.pairs_examined
        assert out.coverage == base.coverage


def test_multi_worker_coverage_reports_canonical_violation():
    # threads is explicit, so the worker path runs whatever the CPU count
    rng = random.Random(0x3D)
    s = random_set(rng, 4, 40)  # above the dimension-4 cap maximum of 20
    expected = brute_force_first_violation(s)
    assert expected is not None
    for chunk_pairs in (1, 13, 257):
        base = run_sweep(
            SweepTask(points=s, mode="coverage", threads=1, chunk_pairs=chunk_pairs)
        )
        assert base.violation == expected
        for threads in (2, 3):
            out = run_sweep(
                SweepTask(
                    points=s, mode="coverage", threads=threads, chunk_pairs=chunk_pairs
                )
            )
            assert out.violation == expected
            assert out.pairs_examined == base.pairs_examined == pairs_total(len(s))
            assert out.coverage == base.coverage


# --- limits and edge cases ----------------------------------------------------


def test_dead_worker_raises_worker_error(tmp_path):
    # At threads=2 only the forked workers call _scan, and each inherits the
    # patch that makes it exit before sending anything.
    script = tmp_path / "dead_workers.py"
    script.write_text(textwrap.dedent("""
        import os
        import sys
        import numpy as np
        import capset.sweep
        from capset.errors import CapsetError
        from capset.f3core import PointSet
        from capset.sweep import SweepTask, run_sweep

        capset.sweep._scan = lambda *args: os._exit(3)

        ranks = np.random.default_rng(7).choice(243, 60, replace=False)
        try:
            run_sweep(SweepTask(PointSet(5, ranks), "coverage", chunk_pairs=100, threads=2))
        except CapsetError as e:
            print(type(e).__name__)
            sys.exit(2)
    """))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(capset.__file__)))
    res = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=env
    )
    assert (res.stdout.strip(), res.returncode) == ("WorkerError", 2), res.stderr


@pytest.mark.parametrize("dim, size, chunk_pairs", [(4, 30, 40), (13, 400, 5000), (19, 300, 5000)])
def test_streamed_coverage_identical_across_worker_counts(dim, size, chunk_pairs):
    # dim 4: an 11-byte packed bitmap, shorter than one pack block; dim 13:
    # a scratch of 3.04 pack blocks, so the parent's blockwise pack and free
    # crosses block edges and ends on a partial block; dim 19: the bit-packed
    # scatter path, on workers that own shares of its windows
    rng = random.Random(0x5B)
    s = random_set(rng, dim, size)
    p, q = s.point(0), s.point(1)  # a line through two members: a violation
    s = PointSet.from_ranks(list(s.ranks) + [rank(third_point(p, q))], dim)
    base = run_sweep(SweepTask(s, "coverage", chunk_pairs=chunk_pairs, threads=1))
    assert base.violation is not None
    for threads in (2, 3):
        out = run_sweep(SweepTask(s, "coverage", chunk_pairs=chunk_pairs, threads=threads))
        assert out.violation == base.violation
        assert out.pairs_examined == base.pairs_examined == pairs_total(len(s))
        assert out.coverage == base.coverage
        del out


def window_sets(dim, size):
    """Named dimension-dim test sets for the window sweep: random, B(n)-type,
    all members in one top-group window, and both with a planted line."""
    rng = random.Random(0x1920 + dim)
    width = POW3[_digit_groups(dim)[0][0]]  # the ranks of one window
    sets = {
        "random": random_set(rng, dim, size),
        "B": PointSet(dim, np.random.default_rng(dim).choice(gen_B(dim).ranks, size, replace=False)),
        "one window": PointSet.from_ranks(rng.sample(range(5 * width, 6 * width), size), dim),
    }
    for name in ("random", "B"):
        s = sets[name]
        p, q = s.point(3), s.point(size // 2)
        sets[f"planted {name}"] = PointSet.from_ranks(list(s.ranks) + [rank(third_point(p, q))], dim)
    return sets


def set_bits(buf):
    """The ascending ranks whose bit is set in a packed bitmap."""
    nonzero = np.flatnonzero(buf)
    bits = np.unpackbits(buf[nonzero, None], axis=1, bitorder="little").astype(bool)
    return (nonzero[:, None] * 8 + np.arange(8))[bits]


@pytest.mark.parametrize("dim", [19, 20])
def test_packed_coverage_on_window_workers(dim, monkeypatch):
    # above dimension 18 threads 2 and 3 start a worker per share of windows,
    # except where one window holds every pair, and give the threads=1
    # outcome, whose set bits are the thirds of coordinate arithmetic;
    # dimension 20 runs threads=3 only, to hash fewer 436 MB bitmaps
    window_shares, start = capset.sweep._window_shares, ForkProcess.start
    shares, started = [], []
    monkeypatch.setattr(capset.sweep, "_window_shares", lambda *a: shares.append(window_shares(*a)) or shares[-1])
    monkeypatch.setattr(ForkProcess, "start", lambda proc: started.append(proc) or start(proc))
    for name, s in window_sets(dim, 200).items():

        def outcome(threads, reference=False):
            shares.clear()
            started.clear()
            out = run_sweep(SweepTask(s, "coverage", chunk_pairs=500, threads=threads))
            if reference:  # the set bits are the thirds of coordinate arithmetic
                ranks = s.ranks
                thirds = [coordinate_thirds(ranks[i], ranks[i + 1 :], dim) for i in range(len(s) - 1)]
                assert np.array_equal(set_bits(out.coverage.buf), np.unique(np.concatenate(thirds))), name
            return out.violation, out.pairs_examined, hashlib.sha256(out.coverage.buf).hexdigest()

        base = outcome(1, reference=True)
        assert started == []
        assert (base[0] is None) == (not name.startswith("planted")), name
        assert base[1] == pairs_total(len(s))
        for threads in (2, 3) if dim == 19 else (3,):
            assert outcome(threads) == base, (name, threads)
            if name == "one window":
                assert (len(shares[0]), started) == (1, [])
            else:
                # the window workers, then in a planted set those of the cap sweep
                sweeps = 2 if name.startswith("planted") else 1
                assert (len(shares[0]), len(started)) == (threads, sweeps * threads), (name, threads)


@pytest.mark.parametrize("dim", [19, 20])
def test_window_shares_cover_every_window_once(dim):
    # exact pair counts per top-group window, and shares that split the
    # windows in whole units of 8, so no two workers write one byte of the bitmap
    from capset.sweep import _window_shares

    shift = _digit_groups(dim)[0][0]
    for name, s in window_sets(dim, 120).items():
        counts = _Kernel(s.ranks, dim).window_pairs()
        thirds = [rank(third_point(p, q)) for p, q in itertools.combinations(s.points(), 2)]
        assert counts.tolist() == np.bincount(np.array(thirds) // POW3[shift], minlength=POW3[dim - shift]).tolist()
        assert counts.sum() == pairs_total(len(s))
        for threads in (1, 2, 3, 5, 40):
            shares = np.array(_window_shares(counts, threads))
            assert 1 <= len(shares) <= threads
            assert shares.sum(axis=0).max() == 1  # no window in two shares
            assert shares.any(axis=0)[counts > 0].all()  # every window with pairs in one
            assert all(counts[share].sum() > 0 for share in shares)
            units = np.add.reduceat(shares, np.arange(0, counts.size, 8), axis=1)
            sizes = np.diff(np.append(np.arange(0, counts.size, 8), counts.size))
            assert ((units == 0) | (units == sizes)).all(), (name, threads)
            if threads == 1:
                assert shares.all()
            if name == "one window":
                assert len(shares) == 1


@pytest.mark.parametrize("dim", [19, 20])
@pytest.mark.parametrize("threads", [1, 2])
def test_window_progress_pairs_add_up(dim, threads, monkeypatch):
    # every pair is counted once, by the worker whose window holds its third
    s = window_sets(dim, 300)["B"]
    seen = []
    monkeypatch.setattr(capset.sweep._Progress, "maybe_emit", lambda self, done: seen.append(done))
    out = run_sweep(SweepTask(s, "coverage", threads=threads))
    assert out.pairs_examined == seen[-1] == pairs_total(len(s))


def test_cap_workers_build_no_member_bitmap(monkeypatch):
    # the parent builds the member map once (the byte map, an anonymous mmap
    # of 3^dim bytes, at dimensions 5 and 15, the packed bitmap at 19) and the
    # forked workers inherit it: a worker that calls member_hits, mmap or
    # SpaceBitmap.from_ranks exits, which raises WorkerError; the parent's
    # own builds show that the patches meet the path the sweep takes
    parent, built = os.getpid(), []

    def parent_only(name, make):
        def build(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            built.append((name, args[1] if name == "mmap" else None))
            return make(*args, **kwargs)

        return build

    monkeypatch.setattr(capset.sweep, "member_hits", parent_only("member_hits", capset.sweep.member_hits))
    monkeypatch.setattr(mmap, "mmap", parent_only("mmap", mmap.mmap))
    from_ranks = SpaceBitmap.from_ranks.__func__
    monkeypatch.setattr(SpaceBitmap, "from_ranks", classmethod(parent_only("from_ranks", from_ranks)))
    rng = random.Random(0xB17)
    for dim in (5, 15, 19):
        s = random_set(rng, dim, 60)
        p, q = s.point(0), s.point(1)
        planted = PointSet.from_ranks(list(s.ranks) + [rank(third_point(p, q))], dim)
        for points in (s, planted):
            built.clear()
            base = run_sweep(SweepTask(points, "cap", chunk_pairs=100, threads=1))
            assert ("mmap", POW3[dim]) in built if dim <= 18 else ("from_ranks", None) in built
            for threads in (2, 3):
                out = run_sweep(SweepTask(points, "cap", chunk_pairs=100, threads=threads))
                assert (out.violation, out.pairs_examined) == (base.violation, base.pairs_examined)
        assert base.violation is not None


@pytest.mark.parametrize("dim", [*range(1, 21), 21, 30])
def test_member_masks_agree_with_isin(dim):
    # the byte map (up to dimension 18), the packed bitmap (19-20) and the
    # binary search in the ranks (above 20) give the mask of np.isin, on
    # tiles of members, their neighbours, random ranks and both ends of the
    # space, with the ends members and not
    rng = np.random.default_rng(0x3A5 + dim)
    top = POW3[dim] - 1
    for ends in (True, False):
        pool = rng.integers(0, top + 1, 40)
        members = np.unique(np.append(pool, [0, top])) if ends else np.unique(pool[(pool != 0) & (pool != top)])
        hits = capset.sweep.member_hits(PointSet(dim, members))
        near = np.concatenate([members - 1, members, members + 1, [0, top], rng.integers(0, top + 1, 100)])
        tile = np.clip(near, 0, top).astype(np.intp)[: near.size // 8 * 8].reshape(-1, 8)
        mask = hits(tile, np.arange(tile.shape[0]))
        assert mask.dtype == (np.uint8 if dim in (19, 20) else bool)
        assert np.array_equal(mask.astype(bool), np.isin(tile, members)), ends


def test_claimed_chunks_keep_the_canonical_outcome(tmp_path, monkeypatch):
    # the worker that claims chunk 0 waits before it scans it, so the other
    # workers claim and scan the later chunks first: the cap sweep finds a
    # late violation before the early one, and the outcome is still that of
    # threads=1; in a coverage sweep the waiting worker scans chunk 0 alone
    # (it waits until every other chunk is claimed), which a fixed split of
    # the chunk list would not give, and each chunk is scanned once
    parent, log, wait = os.getpid(), tmp_path / "claims", {}
    blocks = _Kernel._blocks

    def slow_first_chunk(self, a0, a1, progress_cb=None):
        if os.getpid() != parent:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {a0}\n")
            deadline = time.monotonic() + wait["s"]
            while a0 == 0 and time.monotonic() < deadline and len(log.read_text().splitlines()) < wait["chunks"]:
                time.sleep(0.01)
        yield from blocks(self, a0, a1, progress_cb)

    monkeypatch.setattr(_Kernel, "_blocks", slow_first_chunk)
    dim, chunk_pairs = 12, 100
    cap = PointSet.from_ranks(np.random.default_rng(1).choice(POW3[dim], 90, replace=False), dim)
    ranks = cap.ranks
    early = rank(third_point(cap.point(0), cap.point(5)))  # the least member is on this line: chunk 0
    i = int(0.8 * len(cap))  # a line whose least point is the member past 80% of them
    late = next(t for j in range(i + 1, len(cap)) if (t := rank(third_point(cap.point(i), cap.point(j)))) > ranks[i])
    lines = {"late": ranks[i], "early and late": min(early, ranks[0])}
    sets = {
        "cap": cap,
        "late": PointSet.from_ranks([*ranks, late], dim),
        "early and late": PointSet.from_ranks([*ranks, early, late], dim),
    }
    for name, s in sets.items():
        chunks = make_chunks(len(s), chunk_pairs)
        assert len(chunks) > 30
        wait["chunks"] = len(chunks)
        for mode in ("cap", "coverage"):

            def outcome(threads):
                log.write_text("")
                wait["s"] = 0.5 if mode == "cap" else 30.0  # the cap sweep stops before the last chunk
                out = run_sweep(SweepTask(s, mode, chunk_pairs=chunk_pairs, threads=threads))
                return out.violation, out.pairs_examined, out.coverage and hashlib.sha256(out.coverage.buf).hexdigest()

            base = outcome(1)
            assert (base[0] is None) == (name == "cap"), (name, mode)
            for threads in (2, 3):
                assert outcome(threads) == base, (name, mode, threads)
                if mode == "coverage" and name == "cap":  # a violation runs a cap sweep after it
                    claims = [line.split() for line in log.read_text().splitlines()]
                    assert sorted(int(a0) for _, a0 in claims) == [a0 for a0, _ in chunks]
                    first = next(pid for pid, a0 in claims if a0 == "0")
                    assert [a0 for pid, a0 in claims if pid == first] == ["0"], (name, threads)
        if name != "cap":  # the canonical violation is on the planted line with the least point
            assert base[0][0] == lines[name], name


def test_coverage_workers_pack_nothing(monkeypatch):
    # the chunk scans store into one shared byte scratch that the parent packs
    # after they exit: a worker that packs exits, which raises WorkerError; and
    # threads=1 scans in this process, starting none
    parent = os.getpid()
    packbits, start = np.packbits, ForkProcess.start

    def parent_only(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return packbits(*args, **kwargs)

    def refuse(proc):
        raise AssertionError("threads=1 started a process")

    monkeypatch.setattr(np, "packbits", parent_only)
    for dim in (5, 13, 15):
        cap = PointSet(dim, np.random.default_rng(dim).choice(gen_B(dim).ranks, 30, replace=False))
        p, q = cap.point(0), cap.point(1)
        planted = PointSet.from_ranks(list(cap.ranks) + [rank(third_point(p, q))], dim)
        for points in (cap, planted):

            def outcome(threads):
                out = run_sweep(SweepTask(points, "coverage", chunk_pairs=50, threads=threads))
                return out.violation, out.pairs_examined, hashlib.sha256(out.coverage.buf).hexdigest()

            monkeypatch.setattr(ForkProcess, "start", refuse)
            base = outcome(1)
            monkeypatch.setattr(ForkProcess, "start", start)
            assert (base[0] is None) == (points is cap)
            for threads in (2, 3):
                assert outcome(threads) == base, (dim, threads)


def killed_mid_scan(tmp_path, dim):
    """(stdout, exit code) of a 2-worker coverage sweep whose workers die mid-scan.

    Every forked worker inherits the patched _Kernel._block_tiles and sends
    itself SIGKILL at its first tile, while it scans; the parent scans only
    after its workers have exited, so it passes the pid test.
    """
    script = tmp_path / "killed_mid_scan.py"
    script.write_text(textwrap.dedent(f"""
        import multiprocessing as mp
        import os
        import signal
        import sys
        import numpy as np
        from capset.errors import CapsetError
        from capset.f3core import PointSet
        from capset.sweep import SweepTask, _Kernel, run_sweep

        parent = os.getpid()
        block_tiles = _Kernel._block_tiles

        def dying_block_tiles(self, *args, **kwargs):
            for tile in block_tiles(self, *args, **kwargs):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield tile

        _Kernel._block_tiles = dying_block_tiles

        ranks = np.random.default_rng(7).choice(3**{dim}, 60, replace=False)
        try:
            run_sweep(SweepTask(PointSet({dim}, ranks), "coverage", chunk_pairs=100, threads=2))
        except CapsetError as e:
            print(type(e).__name__, len(mp.active_children()))
            sys.exit(2)
    """))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(capset.__file__)))
    res = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=env
    )
    return (res.stdout.strip(), res.returncode), res.stderr


def test_worker_killed_mid_scan_raises_worker_error(tmp_path):
    result, stderr = killed_mid_scan(tmp_path, 15)
    assert result == ("WorkerError 0", 2), stderr


def test_window_worker_killed_mid_scan_raises_worker_error(tmp_path):
    # the same on the workers that own runs of dimension-19 coverage windows
    result, stderr = killed_mid_scan(tmp_path, 19)
    assert result == ("WorkerError 0", 2), stderr


def test_script_without_main_guard_runs_workers(tmp_path):
    # forked workers do not re-run the script, so it needs no __main__ guard
    script = tmp_path / "no_main_guard.py"
    script.write_text(textwrap.dedent("""
        import hashlib
        import numpy as np
        from capset.f3core import PointSet
        from capset.sweep import SweepTask, run_sweep

        ranks = np.random.default_rng(7).choice(243, 60, replace=False)
        for threads in (1, 2):
            out = run_sweep(SweepTask(PointSet(5, ranks), "coverage", chunk_pairs=100, threads=threads))
            print(out.violation, out.pairs_examined, hashlib.sha256(out.coverage.buf).hexdigest())
    """))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(capset.__file__)))
    res = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=env
    )
    assert res.returncode == 0, res.stderr
    inline, workers = res.stdout.splitlines()
    assert workers == inline
    assert inline.split()[-2] == str(pairs_total(60))


def test_tiny_sets_short_circuit():
    for pts in ([], [(0, 1)]):
        s = PointSet.from_points(pts, dim=2)
        out = run_sweep(SweepTask(points=s, mode="coverage"))
        assert out.violation is None
        assert out.pairs_examined == 0
        assert out.coverage.count() == 0


def test_mode_validation():
    s = PointSet.from_points([(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        run_sweep(SweepTask(points=s, mode="bogus"))


def test_capacity_limit():
    s = PointSet.from_ranks([0, 1, 2], 21)
    with pytest.raises(CapacityError):
        run_sweep(SweepTask(points=s, mode="coverage"))


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("CAPSET_THREADS", raising=False)
    assert resolve_threads(3) == 3
    assert resolve_threads(None) >= 1
    monkeypatch.setenv("CAPSET_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(2) == 2  # explicit argument wins
    monkeypatch.setenv("CAPSET_THREADS", "0")
    with pytest.raises(ValueError):
        resolve_threads(None)


# --- progress reporting -------------------------------------------------------


def test_progress_line_format(capfd, monkeypatch):
    monkeypatch.setattr(capset.sweep, "PROGRESS_INTERVAL", 0.0)
    rng = random.Random(0x960)
    s = random_set(rng, 5, 150)
    run_sweep(
        SweepTask(
            points=s,
            mode="coverage",
            chunk_pairs=701,
            progress=True,
        )
    )
    err = capfd.readouterr().err
    lines = [ln for ln in err.splitlines() if ln]
    assert lines, "no progress emitted"
    total = pairs_total(150)
    done_values = []
    for ln in lines:
        m = re.fullmatch(r"sweep: (\d+)/(\d+) \((\d+\.\d)%\)", ln)
        assert m, f"bad progress line: {ln!r}"
        assert int(m.group(2)) == total
        done_values.append(int(m.group(1)))
    assert done_values == sorted(done_values)
    assert done_values[-1] == total


def test_no_progress_lines_for_fast_runs(capfd):
    s = PointSet.from_points([(0, 1), (1, 0), (1, 1)])
    run_sweep(SweepTask(points=s, mode="coverage", progress=True))
    assert capfd.readouterr().err == ""
