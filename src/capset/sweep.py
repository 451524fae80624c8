"""Exhaustive unordered-pair sweep over a point set.

For every unordered pair of distinct members the sweep computes the third
point of their line in packed rank form. In cap mode it tests that point for
membership and stops at the first member it meets: a gather from the member
bitmap up to MAX_BITMAP_DIM, a binary search in the sorted ranks above it, so
cap mode runs at every dimension whose ranks fit int64 (up to 39). In
coverage mode it only marks the point in a coverage bitmap (completeness),
which needs all 3^dim bits and so stops at MAX_BITMAP_DIM. A third point is
never either point of its pair, so a set is a cap iff its coverage marks none
of its own ranks: coverage mode checks that once, after the merge, and only
when it fails runs the early-exit cap sweep to find the canonical violation.

The kernel splits each rank into the base-3 digit groups of
f3core._digit_groups, the split f3core.zero_masks also uses: as few groups of
width at most 8 as the dimension allows (two at dimensions 9-16). For each
group it keeps the anchor's row of "negated digit sums" scaled by the group's
place value, built from two small half-width tables only when the anchor's
group value changes, so the third-point ranks of an anchor against a whole
partner array are one gather per group and adds, returned as intp indices.
The verifiers use the same kernel for their cross-set checks, with partners
from a second set.

Work is partitioned into fixed chunks (about 10 million pairs) of contiguous
anchor indices; the chunk list does not depend on the worker count, each
worker owns a private coverage buffer, and the reported violation is the
minimum in canonical pair order, so outcomes are bit-identical for any number
of workers. A finished worker sends its first violation, then its packed
coverage as consecutive raw blocks of MERGE_BLOCK_BYTES, which the parent
receives into one reusable buffer and ORs into the merged bitmap as they
arrive. A worker that dies before sending all of this raises WorkerError; on
any error the workers still running are terminated. The coverage is the one
source of third points for both completeness checks in the verifiers.
"""
from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as mp_wait

import numpy as np

from .errors import CapacityError, WorkerError
from .f3core import _BIT8, MAX_BITMAP_DIM, POW3, PointSet, SpaceBitmap, _digit_groups

DEFAULT_CHUNK_PAIRS = 10_000_000

# Raw block size of a worker's packed coverage stream: the parent holds one
# block at a time, not a copy of each worker's 3^dim/8 bytes.
MERGE_BLOCK_BYTES = 1 << 20

# uint8 coverage scratch of 3^dim bytes is kept only while it fits easily in
# memory; beyond dim 18 coverage falls back to bit-packed scatter.
_SCRATCH_DIM_LIMIT = 18

# Least seconds between two progress lines on stderr.
PROGRESS_INTERVAL = 1.0


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument, else CAPSET_THREADS, else the CPU count."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"thread count must be >= 1, got {threads}")
        return threads
    env = os.environ.get("CAPSET_THREADS")
    if env:
        try:
            val = int(env)
        except ValueError as exc:
            raise ValueError(f"CAPSET_THREADS must be an integer, got {env!r}") from exc
        if val < 1:
            raise ValueError(f"CAPSET_THREADS must be >= 1, got {val}")
        return val
    return os.cpu_count() or 1


def pairs_total(m: int) -> int:
    return m * (m - 1) // 2


def pairs_before_anchor(m: int, i: int) -> int:
    """Number of pairs whose first member index is below i."""
    return i * (m - 1) - i * (i - 1) // 2


def pair_index(m: int, i: int, j: int) -> int:
    """Canonical 0-based index of the pair (i, j), i < j."""
    return pairs_before_anchor(m, i) + (j - i - 1)


def make_chunks(m: int, chunk_pairs: int = DEFAULT_CHUNK_PAIRS) -> list[tuple[int, int]]:
    """Split anchors [0, m-1) into ranges of roughly chunk_pairs pairs each."""
    chunks: list[tuple[int, int]] = []
    start = 0
    acc = 0
    for i in range(m - 1):
        acc += m - 1 - i
        if acc >= chunk_pairs:
            chunks.append((start, i + 1))
            start = i + 1
            acc = 0
    if start < m - 1:
        chunks.append((start, m - 1))
    return chunks


@dataclass
class SweepTask:
    points: PointSet
    mode: str = "cap"  # "cap" (early exit) or "coverage" (full sweep)
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS
    threads: int | None = None
    progress: bool = False


@dataclass
class SweepOutcome:
    violation: tuple[int, int, int] | None  # ranks (p, q, third)
    coverage: SpaceBitmap | None
    pairs_examined: int


def _negadd_table(width: int, shift: int) -> np.ndarray:
    """Negated digit sums of every pair of width-digit values, times 3^shift."""
    x = np.arange(POW3[width], dtype=np.int64)
    table = np.zeros((x.size, x.size), dtype=np.int64)
    for i in range(width):
        di = (x // POW3[i]) % 3
        table += ((-(di[:, None] + di[None, :])) % 3) * POW3[i]
    return table * POW3[shift]


class _Kernel:
    """Third-point ranks of one anchor against a fixed array of partner ranks.

    A rank splits into the base-3 digit groups of f3core._digit_groups (width
    at most 8, as few as possible, dimension 15 as 8 + 7). A group's row holds
    the negated digit sum of the anchor's group value with every group value,
    times the group's place value: one broadcast add of two half-width tables
    (at most 81 x 81), kept while the anchor's group value repeats. Anchors
    come in ascending order, so the high rows are rebuilt rarely. The thirds
    are one gather of intp partner digits per group and adds in int32 (int64
    above dimension 19), the last add into an intp buffer, so the scatters and
    gathers that use them index without a cast. Works at every dimension whose
    ranks fit int64 (up to 39). The array returned by thirds() is reused by
    the next call.
    """

    def __init__(self, partners: np.ndarray, dim: int):
        self.partners = np.asarray(partners, dtype=np.int64)
        split = _digit_groups(dim)
        # a single group gathers straight into the intp output
        dtype = np.int32 if len(split) > 1 and POW3[dim] < 2**31 else np.intp
        self.groups = []  # (place value, group size, low half size, high table, low table, row)
        self.digits = []  # intp partner digits of each group, most significant first
        for shift, width in split:
            low = width // 2
            high_table = _negadd_table(width - low, shift + low).astype(dtype)
            low_table = _negadd_table(low, shift).astype(dtype)
            row = np.empty(POW3[width], dtype)
            self.groups.append((POW3[shift], POW3[width], POW3[low], high_table, low_table, row))
            self.digits.append(((self.partners // POW3[shift]) % POW3[width]).astype(np.intp))
        self._values = [-1] * len(split)  # anchor group value each row was built for
        self._out = np.empty(self.partners.size, np.intp)
        self._acc = np.empty(self.partners.size, dtype)
        self._tmp = np.empty(self.partners.size, dtype)

    def _rows(self, anchor: int) -> list[np.ndarray]:
        for g, (place, size, low_size, high_table, low_table, row) in enumerate(self.groups):
            value = anchor // place % size
            if value != self._values[g]:
                np.add(high_table[value // low_size, :, None], low_table[value % low_size],
                       out=row.reshape(-1, low_size))
                self._values[g] = value
        return [group[-1] for group in self.groups]

    def thirds(self, anchor: int, start: int = 0) -> np.ndarray:
        """Ranks of -(anchor + p) for each partner p in partners[start:], as intp."""
        out = self._out[: self.partners.size - start]
        acc = self._acc[: out.size]
        tmp = self._tmp[: out.size]
        rows = self._rows(int(anchor))
        digits = [d[start:] for d in self.digits]
        if len(rows) == 1:
            return np.take(rows[0], digits[0], out=out)
        np.take(rows[0], digits[0], out=acc)
        for g in range(1, len(rows) - 1):
            np.take(rows[g], digits[g], out=tmp)
            acc += tmp
        np.take(rows[-1], digits[-1], out=tmp)
        return np.add(acc, tmp, out=out)

    def hits(self, anchor: int, target: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Partner and target indices of the pairs whose third point is in target.

        Pairs are (anchor, partners[p]) for p >= start, in partner order;
        target is a sorted rank array.
        """
        thirds = self.thirds(anchor, start)
        if target.size == 0:
            return np.empty(0, np.intp), np.empty(0, np.intp)
        member, at = _in_sorted(target, thirds)
        found = np.flatnonzero(member)
        return found + start, at[found]

    def tails(self, a0: int, a1: int, progress_cb=None):
        """Yield (i, thirds of partner i with every later partner), i in [a0, a1)."""
        n = self.partners.size
        done = 0
        for i in range(a0, min(a1, n - 1)):
            yield i, self.thirds(self.partners[i], i + 1)
            done += n - 1 - i
            if progress_cb is not None and done >= (1 << 23):
                progress_cb(done)
                done = 0
        if progress_cb is not None and done:
            progress_cb(done)


def _in_sorted(target: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which values are in the nonempty sorted array target, and where each would sit."""
    at = np.searchsorted(target, values)
    np.minimum(at, target.size - 1, out=at)
    return target[at] == values, at


def _scan(ranks, dim, mode, chunks, indices, progress_cb, stop=None):
    """Scan the listed chunks in ascending order.

    Coverage mode marks the third point of every pair and returns
    (None, coverage bitmap). Cap mode returns ((i, j, third rank) of the first
    pair whose third point is a member, None), or (None, None); it stops early
    at a chunk beyond one where another worker already found a violation.
    Membership is a gather from the member bitmap up to MAX_BITMAP_DIM and a
    binary search in the sorted ranks above it, where no 3^dim bitmap fits.
    """
    kernel = _Kernel(ranks, dim)
    if mode == "coverage":
        rows = (t for idx in indices for _, t in kernel.tails(*chunks[idx], progress_cb))
        if dim <= _SCRATCH_DIM_LIMIT:
            marks = np.zeros(POW3[dim], np.uint8)
            for thirds in rows:
                marks[thirds] = 1
            return None, SpaceBitmap(dim, np.packbits(marks, bitorder="little"))
        cov = SpaceBitmap(dim)
        for thirds in rows:
            cov.set_ranks(thirds)
        return None, cov
    if dim <= MAX_BITMAP_DIM:
        members = SpaceBitmap.from_ranks(ranks, dim).buf

        def is_member(thirds):
            return np.take(members, thirds >> 3) & np.take(_BIT8, thirds & 7)
    else:
        def is_member(thirds):
            return _in_sorted(ranks, thirds)[0]
    for idx in indices:
        if stop is not None and stop.value < idx:
            break
        for i, thirds in kernel.tails(*chunks[idx], progress_cb):
            hit = is_member(thirds)
            if hit.any():
                if stop is not None:
                    with stop.get_lock():
                        stop.value = min(stop.value, idx)
                k = int(np.flatnonzero(hit)[0])
                return (i, i + 1 + k, int(thirds[k])), None
    return None, None


class _Progress:
    """Throttled progress lines on stderr."""

    def __init__(self, total: int, enabled: bool):
        self.total = total
        self.enabled = enabled
        self.done = 0
        self.emitted = False
        self._last = time.monotonic()

    def add(self, pairs: int) -> None:
        self.done += pairs
        self.maybe_emit(self.done)

    def maybe_emit(self, done: int) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        if now - self._last >= PROGRESS_INTERVAL:
            self._last = now
            self.emit(done)

    def emit(self, done: int) -> None:
        if not self.enabled:
            return
        self.emitted = True
        pct = 100.0 * done / self.total if self.total else 100.0
        print(f"sweep: {done}/{self.total} ({pct:.1f}%)", file=sys.stderr, flush=True)

    def finish(self, done: int) -> None:
        # Close out a run that already showed progress; stay silent otherwise.
        if self.emitted:
            self.emit(done)


def _worker_main(conn, ranks, dim, mode, chunks, indices, stop, counter) -> None:
    def progress_cb(done: int) -> None:
        with counter.get_lock():
            counter.value += done

    first, cov = _scan(ranks, dim, mode, chunks, indices, progress_cb, stop)
    conn.send(first)
    if cov is not None:
        for lo in range(0, cov.buf.size, MERGE_BLOCK_BYTES):
            conn.send_bytes(cov.buf[lo : lo + MERGE_BLOCK_BYTES])
    conn.close()


def run_sweep(task: SweepTask) -> SweepOutcome:
    """Examine every unordered pair of the task's point set exactly once."""
    if task.mode not in ("cap", "coverage"):
        raise ValueError(f"unknown sweep mode {task.mode!r}")
    ps = task.points
    coverage = task.mode == "coverage"
    if coverage and ps.dim > MAX_BITMAP_DIM:
        raise CapacityError(
            f"dimension {ps.dim} exceeds bitmap capacity {MAX_BITMAP_DIM}"
        )
    m = len(ps)
    total = pairs_total(m)
    if m < 2:
        cov = SpaceBitmap(ps.dim) if coverage else None
        return SweepOutcome(None, cov, 0)

    chunks = make_chunks(m, task.chunk_pairs)
    workers = min(resolve_threads(task.threads), len(chunks))
    progress = _Progress(total, task.progress)

    if workers <= 1:
        first, cov = _scan(ps.ranks, ps.dim, task.mode, chunks, range(len(chunks)), progress.add)
    else:
        first, cov = _run_workers(ps, task.mode, chunks, workers, progress)

    if coverage:
        progress.finish(total)
        ranks = ps.ranks
        violation = None
        # a third point is never either point of its pair: a marked member is a violation
        if (cov.buf[ranks >> 3] & _BIT8[ranks & 7]).any():
            cap = SweepTask(points=ps, mode="cap", chunk_pairs=task.chunk_pairs, threads=task.threads)
            violation = run_sweep(cap).violation
        return SweepOutcome(violation, cov, total)
    if first is None:
        progress.finish(total)
        return SweepOutcome(None, None, total)
    i, j, third = first
    violation = (int(ps.ranks[i]), int(ps.ranks[j]), third)
    return SweepOutcome(violation, None, pair_index(m, i, j) + 1)


def _run_workers(
    ps: PointSet, mode: str, chunks, workers, progress
) -> tuple[tuple[int, int, int] | None, SpaceBitmap | None]:
    ctx = mp.get_context("spawn")
    stop = ctx.Value("q", len(chunks))
    counter = ctx.Value("q", 0)
    splits = np.array_split(np.arange(len(chunks)), workers)
    procs = []
    merged: SpaceBitmap | None = SpaceBitmap(ps.dim) if mode == "coverage" else None
    block = np.empty(MERGE_BLOCK_BYTES, np.uint8)
    first: tuple[int, int, int] | None = None
    try:
        pending = {}
        for part in splits:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    np.asarray(ps.ranks),
                    ps.dim,
                    mode,
                    chunks,
                    [int(x) for x in part],
                    stop,
                    counter,
                ),
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            pending[parent_conn] = proc
        while pending:
            ready = mp_wait(list(pending), timeout=0.5)
            for conn in ready:
                proc = pending.pop(conn)
                try:
                    hit = conn.recv()
                    if merged is not None:
                        for lo in range(0, merged.buf.size, MERGE_BLOCK_BYTES):
                            part = merged.buf[lo : lo + MERGE_BLOCK_BYTES]
                            conn.recv_bytes_into(block)
                            np.bitwise_or(part, block[: part.size], out=part)
                except (EOFError, OSError):
                    # EOFError between messages, OSError inside a block
                    proc.join()
                    raise WorkerError(
                        f"sweep worker died before sending its whole result (exit code {proc.exitcode})"
                    ) from None
                finally:
                    conn.close()
                if hit is not None and (first is None or hit < first):
                    first = hit
            progress.maybe_emit(int(counter.value))
    except BaseException:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
    return first, merged
