"""Pair-sweep engine: chunking, determinism, coverage, early exit, progress."""
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import capset
from capset.errors import CapacityError
from capset.f3core import POW3, PointSet, SpaceBitmap, rank, third_point, unrank
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


def coordinate_thirds(ranks, dim, i, start):
    """Ranks of -(x + y) for anchor ranks[i] and partners ranks[start:], by coordinates."""
    place = np.array(POW3[:dim], dtype=np.int64)
    coords = ranks[:, None] // place % 3
    return ((-(coords[i] + coords[start:])) % 3 * place).sum(axis=1)


@pytest.mark.parametrize("dim", range(1, 40))
def test_kernel_thirds_match_coordinate_arithmetic(dim):
    # dims 1-39 cross every group-count boundary: 8/9, 16/17, 24/25, 32/33
    ranks = kernel_ranks(dim, dim)
    m = ranks.size
    rng = np.random.default_rng(1000 + dim)
    kernel = _Kernel(ranks, dim)
    calls = [(i, i + 1) for i in range(m)]  # ascending anchors, the last with no partner
    calls += [(int(rng.integers(m)), int(rng.integers(m + 1))) for _ in range(30)]
    calls += [(m // 2, 0), (m // 2, 0), (m - 1, m)]  # a repeated anchor; an empty tail
    for i, start in calls:
        got = kernel.thirds(ranks[i], start)
        assert np.array_equal(got, coordinate_thirds(ranks, dim, i, start)), (i, start)


@pytest.mark.parametrize("dim", [5, 15, 21, 39])
def test_kernel_hits_match_isin(dim):
    ranks = kernel_ranks(dim, 2 * dim)
    rng = np.random.default_rng(dim)
    thirds = coordinate_thirds(ranks, dim, 0, 1)
    picked = rng.choice(thirds, thirds.size // 2, replace=False)
    target = np.unique(np.concatenate([picked, rng.integers(0, POW3[dim], 20, dtype=np.int64)]))
    kernel = _Kernel(ranks, dim)
    for i in range(ranks.size):
        for start in (0, i + 1):
            thirds = coordinate_thirds(ranks, dim, i, start)
            found = np.flatnonzero(np.isin(thirds, target))
            js, ks = kernel.hits(ranks[i], target, start)
            assert np.array_equal(js, found + start)
            assert np.array_equal(target[ks], thirds[found])
    js, ks = kernel.hits(ranks[0], target[:0])
    assert js.size == ks.size == 0


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


@pytest.mark.parametrize("dim, size, chunk_pairs", [(4, 30, 40), (19, 300, 5000)])
def test_streamed_coverage_identical_across_worker_counts(dim, size, chunk_pairs):
    # dim 4: an 11-byte packed bitmap, shorter than one pack block; dim 19:
    # the bit-packed scatter path, which runs in-process at any thread count
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


@pytest.mark.parametrize("dim", [19, 20])
def test_packed_coverage_runs_in_process(dim, monkeypatch):
    # above dimension 18 coverage starts no worker, whatever the thread count
    s = random_set(random.Random(0x1920 + dim), dim, 60)
    assert len(make_chunks(len(s), 500)) > 1

    def outcome(threads):
        out = run_sweep(SweepTask(s, "coverage", chunk_pairs=500, threads=threads))
        return out.violation, out.pairs_examined, hashlib.sha256(out.coverage.buf).hexdigest()

    base = outcome(1)
    assert base[0] is None  # a cap: no cap sweep follows, which may use workers

    def no_workers(*args, **kwargs):
        raise AssertionError("the coverage sweep started a worker process")

    monkeypatch.setattr(capset.sweep.mp, "get_context", no_workers)
    assert outcome(2) == base


def test_cap_workers_build_no_member_bitmap(monkeypatch):
    # the parent builds the member bitmap once and the forked workers inherit
    # it: a worker that builds one exits, which raises WorkerError
    parent = os.getpid()
    from_ranks = SpaceBitmap.from_ranks.__func__

    def parent_only(cls, ranks, dim):
        if os.getpid() != parent:
            os._exit(3)
        return from_ranks(cls, ranks, dim)

    monkeypatch.setattr(SpaceBitmap, "from_ranks", classmethod(parent_only))
    rng = random.Random(0xB17)
    for dim in (5, 15, 19):
        s = random_set(rng, dim, 60)
        p, q = s.point(0), s.point(1)
        planted = PointSet.from_ranks(list(s.ranks) + [rank(third_point(p, q))], dim)
        for points in (s, planted):
            base = run_sweep(SweepTask(points, "cap", chunk_pairs=100, threads=1))
            for threads in (2, 3):
                out = run_sweep(SweepTask(points, "cap", chunk_pairs=100, threads=threads))
                assert (out.violation, out.pairs_examined) == (base.violation, base.pairs_examined)
        assert base.violation is not None


def test_worker_killed_mid_scan_raises_worker_error(tmp_path):
    # Every forked worker inherits the patched _Kernel.thirds and sends itself
    # SIGKILL after its first call, while it scans; the parent calls thirds
    # only after its workers have exited, so it passes the pid test.
    script = tmp_path / "killed_mid_scan.py"
    script.write_text(textwrap.dedent("""
        import multiprocessing as mp
        import os
        import signal
        import sys
        import numpy as np
        from capset.errors import CapsetError
        from capset.f3core import PointSet
        from capset.sweep import SweepTask, _Kernel, run_sweep

        parent = os.getpid()
        thirds = _Kernel.thirds

        def dying_thirds(self, anchor, start=0):
            out = thirds(self, anchor, start)
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return out

        _Kernel.thirds = dying_thirds

        ranks = np.random.default_rng(7).choice(3**15, 60, replace=False)
        try:
            run_sweep(SweepTask(PointSet(15, ranks), "coverage", chunk_pairs=100, threads=2))
        except CapsetError as e:
            print(type(e).__name__, len(mp.active_children()))
            sys.exit(2)
    """))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(capset.__file__)))
    res = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=env
    )
    assert (res.stdout.strip(), res.returncode) == ("WorkerError 0", 2), res.stderr


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
