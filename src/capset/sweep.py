"""Exhaustive unordered-pair sweep over a point set.

For every unordered pair of distinct members the sweep computes the third
point of their line in packed rank form. In cap mode it tests that point for
membership and stops at the first member it meets: a gather from the member
bitmap up to MAX_BITMAP_DIM, a binary search in the sorted ranks above it, so
cap mode runs at every dimension whose ranks fit int64 (up to 39). In
coverage mode it only marks the point in a coverage bitmap (completeness),
which needs all 3^dim bits and so stops at MAX_BITMAP_DIM: a byte per point
up to dimension 18, packed bits above it, where SpaceBitmap.set_ranks
scatters each tile of thirds with one buffered OR and sets again the bits
lost to thirds that share a byte. A third point is
never either point of its pair, so a set is a cap iff its coverage marks none
of its own ranks: coverage mode checks that once, after the scan, and only
when it fails runs the early-exit cap sweep to find the canonical violation.

The kernel splits each rank into the base-3 digit groups of
f3core._digit_groups, the split f3core.zero_masks also uses: as few groups of
width at most 8 as the dimension allows (two at dimensions 9-16). A group's
row of "negated digit sums", scaled by the group's place value, is built for
an anchor from two small half-width tables, so third-point ranks are one
gather per group and adds, returned as intp indices. The sweep takes the
anchors of a chunk in blocks: a block is a run of at most 256 consecutive
anchors that share the value of the top digit group (at dimension 8 and
below, with one group, the 256 cap alone cuts the blocks). In block order,
each block meets first itself (the strictly lower triangle of a K x K tile),
then every later partner in ascending order, in partner-major (partner,
anchor) tiles of at most 2^16 intp. The top group's part of the thirds is
one gather per block, shared by its anchors; each lower group gathers whole
rows of a (3^width, K) table of the K anchors' rows. The K thirds of one
partner then differ only in the lower groups, so they land in one small
slab of the coverage scratch or the member bitmap, and the scatter and the
membership gather stay in cache. The verifiers use the same kernel one
anchor at a time for their cross-set checks, with partners from a second
set.

Work is partitioned into fixed chunks (about 10 million pairs) of contiguous
anchor indices; the chunk list does not depend on the worker count, all
chunk scans store the byte 1 at their third points in one shared 3^dim-byte
scratch (every store writes the same value, so none is lost), and the
reported violation is the minimum in canonical pair order, so outcomes are
bit-identical for any number of workers. Coverage above dimension 18 is cut
by the third points instead: a window is the 3^15 ranks (1.8 MB of bits)
that share their top t = dim - 15 digits. A block's anchors share the top
group and so their top t digits a, and the pairs with the partners of top t
digits b all send their third points to one window, the negated digit sum of
a and b. The parent counts the pairs of every window exactly from the member
counts of the classes of top t digits and gives the windows to at most one
worker per thread in units of 8 consecutive windows, balanced by those
counts: 3^15 is odd, so the units are whole bytes of one shared packed
bitmap, the workers write disjoint bytes and nothing is merged. Each worker
takes every block's partners class by class, scanning those whose window is
in its share, so a tile stays in one window (adjacent classes of a share
take one tile while they are small).

Workers are forked (POSIX fork), so they inherit the imported modules, the
ranks and the cap-mode member bitmap, which the parent builds once: nothing
is imported again or pickled, and a script that runs a sweep needs no
__main__ guard. A worker ignores SIGINT; the parent turns an interrupt into
KeyboardInterrupt and terminates the workers. Before it forks, the parent
sets up all that a worker writes in shared memory: the coverage (the
zero-filled byte scratch of the chunk scans, or the one packed bitmap of the
window workers) in an anonymous mmap, and three int64 hit slots per worker
in a RawArray. The parent waits on the workers' process sentinels; a worker
that exits with a nonzero code raises WorkerError, and on any error the
workers still running are terminated. When all have exited, the parent
takes the least hit and packs the scratch: no sweep merges coverage. A lone
payload (one chunk, one share or one thread) runs in this process. The
coverage is the one source of third points for both completeness checks.
"""
from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import signal
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as mp_wait

import numpy as np

from .errors import CapacityError, ThreadCountError, WorkerError
from .f3core import _BIT8, MAX_BITMAP_DIM, POW3, SCAN_BLOCK_BYTES, PointSet, SpaceBitmap, _digit_groups

DEFAULT_CHUNK_PAIRS = 10_000_000

# The shared uint8 coverage scratch of 3^dim bytes (387 MB at dim 18, for any
# worker count) is used up to here; beyond, coverage is packed bits by window.
_SCRATCH_DIM_LIMIT = 18

# Above dimension 18 coverage is cut into windows of 3^15 consecutive ranks
# (1.8 MB of packed bits): the window of a rank is its top dim - 15 digits.
_WINDOW_DIGITS = 15

# Least seconds between two progress lines on stderr.
PROGRESS_INTERVAL = 1.0

# Most anchors in one block of the pair kernel, and most items in one of its
# tiles: 512 KB of intp, so a tile and its temporaries stay in a 2 MB L2
# (2^16 ran faster than 2^18 on the ag15 subset).
_BLOCK_ANCHORS = 256
_TILE_ITEMS = 1 << 16


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument, else CAPSET_THREADS, else the CPU count."""
    if threads is not None:
        if threads < 1:
            raise ThreadCountError(f"thread count must be >= 1, got {threads}")
        return threads
    env = os.environ.get("CAPSET_THREADS")
    if env:
        try:
            val = int(env)
        except ValueError as exc:
            raise ThreadCountError(f"CAPSET_THREADS must be an integer, got {env!r}") from exc
        if val < 1:
            raise ThreadCountError(f"CAPSET_THREADS must be >= 1, got {val}")
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
    """Third-point ranks of anchors against a fixed array of partner ranks.

    A rank splits into the base-3 digit groups of f3core._digit_groups (width
    at most 8, as few as possible, dimension 15 as 8 + 7). A group's row holds
    the negated digit sum of an anchor's group value with every group value,
    times the group's place value: one broadcast add of two half-width tables
    (at most 81 x 81). The thirds are one gather of intp partner digits per
    group and adds in int32 (int64 above dimension 19), the last add into an
    intp buffer, so the scatters and gathers that use them index without a
    cast. Works at every dimension whose ranks fit int64 (up to 39).

    thirds() takes one anchor against a partner tail, keeping a group's row
    while the anchor's group value repeats; the verifiers' cross-set checks
    use it. The sweep of the partners against themselves goes by anchor
    blocks: _blocks cuts a chunk into runs of at most _BLOCK_ANCHORS anchors
    that share their top group value (any run at dimension 8 and below,
    where there is one group), and _block_tiles yields the block's thirds,
    first against itself, then against every later partner in ascending
    order. A tile is partner-major, tile[p, k] for partner p and anchor k,
    of at most _TILE_ITEMS intp. The top group's part is one gather per
    block, shared by its K anchors; each lower group's K rows are stacked as
    a (3^width, K) table, and one gather of whole rows gives a partner's
    thirds with all K anchors, which differ only in the lower groups and so
    fall in one small slab of the space. Arrays returned by thirds() and
    _block_tiles() are reused by the next call.
    """

    def __init__(self, partners: np.ndarray, dim: int):
        self.partners = np.asarray(partners, dtype=np.int64)
        split = _digit_groups(dim)
        # a single group gathers straight into the intp output
        self.dtype = np.int32 if len(split) > 1 and POW3[dim] < 2**31 else np.intp
        self.groups = []  # (place value, group size, low half size, high table, low table, row)
        self.digits = []  # intp partner digits of each group, most significant first
        for shift, width in split:
            low = width // 2
            high_table = _negadd_table(width - low, shift + low).astype(self.dtype)
            low_table = _negadd_table(low, shift).astype(self.dtype)
            row = np.empty(POW3[width], self.dtype)
            self.groups.append((POW3[shift], POW3[width], POW3[low], high_table, low_table, row))
            self.digits.append(((self.partners // POW3[shift]) % POW3[width]).astype(np.intp))
        self._values = [-1] * len(split)  # anchor group value each row was built for
        self._out = np.empty(self.partners.size, np.intp)
        self._acc = np.empty(self.partners.size, self.dtype)
        self._tmp = np.empty(self.partners.size, self.dtype)
        self._tiles = None  # the block buffers, made by the first block

    def _rows(self, anchor: int, count: int | None = None) -> list[np.ndarray]:
        """The rows of the first count groups (all by default) for one anchor."""
        for g, (place, size, low_size, high_table, low_table, row) in enumerate(self.groups[:count]):
            value = anchor // place % size
            if value != self._values[g]:
                np.add(high_table[value // low_size, :, None], low_table[value % low_size],
                       out=row.reshape(-1, low_size))
                self._values[g] = value
        return [group[-1] for group in self.groups[:count]]

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

    def _blocks(self, a0: int, a1: int, progress_cb=None):
        """Yield the anchor blocks (b0, b1) of the anchors [a0, a1) that have a partner.

        A block ends where the top group value changes, after _BLOCK_ANCHORS
        anchors, or at a1, so blocks never cross a chunk boundary. The pairs
        of each block go to progress_cb in sums of at least 2^23, once the
        caller resumes after it.
        """
        n = self.partners.size
        a1 = min(a1, n - 1)
        if a1 <= a0:
            return
        cuts = [a0, a1]
        if len(self.groups) > 1:
            top = self.partners[a0:a1] // self.groups[0][0]
            cuts[1:1] = (np.flatnonzero(top[1:] != top[:-1]) + a0 + 1).tolist()
        done = 0
        for s, e in zip(cuts, cuts[1:]):
            for b0 in range(s, e, _BLOCK_ANCHORS):
                b1 = min(b0 + _BLOCK_ANCHORS, e)
                yield b0, b1
                done += pairs_before_anchor(n, b1) - pairs_before_anchor(n, b0)
                if progress_cb is not None and done >= (1 << 23):
                    progress_cb(done)
                    done = 0
        if progress_cb is not None and done:
            progress_cb(done)

    def _block_tiles(self, b0: int, b1: int, spans=None, own: bool = True):
        """Yield (j0, tile) for the pairs of the anchors in [b0, b1) with later partners.

        tile[p, k] is the rank of the third point of partners[b0 + k] and
        partners[j0 + p], as intp. The first tile, unless own is false, is
        the block against itself (j0 = b0, K x K), whose pairs are its
        strictly lower triangle p > k; the others take each partner range
        [s, e) of spans (all partners after the block, [b1, n), by default;
        every range starts at b1 or later) in ascending slices of at most
        _TILE_ITEMS // K rows.
        """
        n, size = self.partners.size, b1 - b0
        spans = [(b1, n)] if spans is None else spans
        shared = len(self.groups) > 1  # the top group, with one value in the block
        if self._tiles is None:
            self._tiles = [np.empty(_TILE_ITEMS, t) for t in (np.intp, self.dtype, self.dtype)]
            self._top = np.empty(n, self.dtype)
            self._stacks = [np.empty(g[1] * min(_BLOCK_ANCHORS, n), self.dtype) for g in self.groups[shared:]]
        anchors = self.partners[b0:b1]
        if shared:
            row = self._rows(int(anchors[0]), 1)[0]
            for s, e in [(b0, b1), *spans] if own else spans:
                np.take(row, self.digits[0][s:e], out=self._top[s - b0 : e - b0])
        stacks = []  # the (3^width, K) row table of each lower group
        for (place, rows, low_size, high_table, low_table, _), buf in zip(self.groups[shared:], self._stacks):
            value = anchors // place % rows
            stack = buf[: rows * size].reshape(rows, size)
            np.add(high_table[:, None, value // low_size], low_table[None, :, value % low_size],
                   out=stack.reshape(-1, low_size, size))
            stacks.append(stack)
        digits = self.digits[shared:]

        def tile(j0: int, j1: int) -> np.ndarray:
            shape = (j1 - j0, size)
            out, total, part = (buf[: shape[0] * size].reshape(shape) for buf in self._tiles)
            # the digits are in range, and mode="clip" spares np.take a buffered copy
            np.take(stacks[0], digits[0][j0:j1], axis=0, out=total if shared else out, mode="clip")
            for stack, group_digits in zip(stacks[1:], digits[1:]):
                np.take(stack, group_digits[j0:j1], axis=0, out=part, mode="clip")
                total += part
            if shared:
                np.add(total, self._top[j0 - b0 : j1 - b0, None], out=out)
            return out

        if own:
            yield b0, tile(b0, b1)
        step = max(1, _TILE_ITEMS // size)
        for s, e in spans:
            for j0 in range(s, e, step):
                yield j0, tile(j0, min(j0 + step, e))


def _in_sorted(target: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which values are in the nonempty sorted array target, and where each would sit."""
    at = np.searchsorted(target, values)
    np.minimum(at, target.size - 1, out=at)
    return target[at] == values, at


def _scan(ranks, dim, chunks, indices, progress_cb, marks=None, members=None, stop=None):
    """Scan the listed chunks in ascending order, block by block.

    Given the byte scratch marks of 3^dim bytes (up to dimension 18;
    _scan_windows covers above it), store 1 at the third point of every pair
    and return None. Otherwise return (i, j, third rank) of the first pair
    whose third point is a member, or None; it stops early at a chunk beyond
    one where another worker already found a violation. Membership is a gather
    from the packed member bitmap members when one is given (up to
    MAX_BITMAP_DIM) and a binary search in the sorted ranks otherwise, where
    no 3^dim bitmap fits. The first pair is the least anchor with a hit in its
    block, then its least partner: the block's own partners come before the
    later ones, so the scan stops after the first block with a hit.
    """
    kernel = _Kernel(ranks, dim)
    if marks is not None:
        for idx in indices:
            for b0, b1 in kernel._blocks(*chunks[idx], progress_cb):
                for j0, tile in kernel._block_tiles(b0, b1):
                    marks[tile[_below(tile.shape[1])] if j0 == b0 else tile] = 1
        return None
    if members is not None:
        def is_member(thirds):
            return np.take(members, thirds >> 3) & np.take(_BIT8, thirds & 7)
    else:
        def is_member(thirds):
            return _in_sorted(ranks, thirds)[0]
    for idx in indices:
        if stop is not None and stop.value < idx:
            break
        for b0, b1 in kernel._blocks(*chunks[idx], progress_cb):
            first = None
            for j0, tile in kernel._block_tiles(b0, b1):
                hit = is_member(tile)
                if j0 == b0:
                    hit = np.logical_and(hit, _below(tile.shape[1]))
                if hit.any():
                    k = int(np.flatnonzero(hit.any(axis=0))[0])
                    p = int(np.flatnonzero(hit[:, k])[0])
                    if first is None or b0 + k < first[0]:
                        first = (b0 + k, j0 + p, int(tile[p, k]))
            if first is not None:
                if stop is not None:
                    with stop.get_lock():
                        stop.value = min(stop.value, idx)
                return first
    return None


def _windows(ranks: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Class starts and exact pair counts of the coverage windows above dimension 18.

    Window c holds the 3^15 ranks whose top t = dim - 15 digits read c, and
    class b the members whose top t digits read b: members[starts[b] :
    starts[b + 1]]. The third point of a pair from classes a and b lies in
    window _negadd_table(t, 0)[a, b].
    """
    t = dim - _WINDOW_DIGITS
    starts = np.searchsorted(ranks, np.arange(POW3[t] + 1) * POW3[_WINDOW_DIGITS])
    sizes = np.diff(starts)
    pairs = np.triu(np.outer(sizes, sizes), 1)
    np.fill_diagonal(pairs, sizes * (sizes - 1) // 2)
    counts = np.zeros(POW3[t], np.int64)
    np.add.at(counts, _negadd_table(t, 0), pairs)
    return starts, counts


def _window_shares(counts: np.ndarray, threads: int) -> list[np.ndarray]:
    """Give the windows to at most threads workers, balanced by their pairs.

    The windows go in units of 8 consecutive windows: 3^15 is odd, so a unit
    starts on a byte of the bitmap, and no two workers write one byte. Each
    unit, largest first, goes whole to the worker with the fewest pairs so
    far. Returns each worker's boolean mask over the windows; a worker left
    without pairs is dropped.
    """
    units = np.add.reduceat(counts, np.arange(0, counts.size, 8))
    loads = [0] * threads
    shares = np.zeros((threads, counts.size), bool)
    for u in np.argsort(-units, kind="stable"):
        w = loads.index(min(loads))
        loads[w] += int(units[u])
        shares[w, 8 * u : 8 * u + 8] = True
    return [share for share, load in zip(shares, loads) if load]


def _scan_windows(ranks, dim, starts, share, progress_cb, cover) -> None:
    """Mark in cover the third point of every pair whose window is in share.

    The anchors go in the blocks of _Kernel._blocks, whose anchors share the
    top digit group (width 7 at dimensions 19-20) and so their class a. A
    block meets itself when the window of (a, a) is in the share, and then
    the partners of each later class b whose window with a is: one partner
    range per class, so a tile stays inside one window. Adjacent classes
    share a range while it is shorter than a quarter tile, or a sparse set
    would spend its time on tiny tiles; their windows are all in the share.
    The pairs of the tiles scanned go to progress_cb in sums of at least 2^23.
    """
    kernel = _Kernel(ranks, dim)
    table = _negadd_table(dim - _WINDOW_DIGITS, 0)
    mine = share[table]  # mine[a, b]: the pairs of classes a and b are this worker's
    later = mine & (np.diff(starts) > 0)  # skip empty classes
    starts = starts.tolist()
    done = 0
    for b0, b1 in kernel._blocks(0, ranks.size - 1):
        a = int(ranks[b0] // POW3[_WINDOW_DIGITS])
        least = _TILE_ITEMS // 4 // (b1 - b0)
        spans = []
        for b in (np.flatnonzero(later[a, a:]) + a).tolist():
            s, e = max(b1, starts[b]), starts[b + 1]
            if spans and spans[-1][1] == s and s - spans[-1][0] < least:
                spans[-1] = (spans[-1][0], e)
            elif s < e:
                spans.append((s, e))
        if not (spans or mine[a, a]):
            continue
        for j0, tile in kernel._block_tiles(b0, b1, spans, own=mine[a, a]):
            thirds = tile[_below(tile.shape[1])] if j0 == b0 else tile
            cover.set_ranks(thirds)
            done += thirds.size
        if done >= 1 << 23:
            progress_cb(done)
            done = 0
    if done:
        progress_cb(done)


def _below(size: int) -> np.ndarray:
    """Mask of the strictly lower triangle of a size x size tile: its pairs p > k."""
    return np.tri(size, size, -1, dtype=bool)


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


def _worker_main(scan, payload, hit, counter) -> None:
    """Run scan(payload, progress_cb) in a forked worker.

    A violation (i, j, third rank) it returns goes into hit, the worker's
    three shared int64 slots; the parent reads them, and any coverage the
    scan wrote to shared memory, only after the worker has exited with code 0.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C for the group

    def progress_cb(done: int) -> None:
        with counter.get_lock():
            counter.value += done

    first = scan(payload, progress_cb)
    if first is not None:
        hit[:] = first


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

    threads = resolve_threads(task.threads)
    progress = _Progress(total, task.progress)
    if coverage and ps.dim > _SCRATCH_DIM_LIMIT:
        first, cov = None, _cover_windows(ps, threads, progress)
    else:
        first, cov = _sweep_chunks(ps, coverage, task.chunk_pairs, threads, progress)

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


def _sweep_chunks(ps, coverage, chunk_pairs, threads, progress):
    """(first violation, coverage) of a sweep of fixed chunks, shared out among at most threads scans."""
    chunks = make_chunks(len(ps), chunk_pairs)
    parts = [part.tolist() for part in np.array_split(np.arange(len(chunks)), min(threads, len(chunks)))]
    marks = _shared_zeros(POW3[ps.dim]) if coverage else None
    members = SpaceBitmap.from_ranks(ps.ranks, ps.dim).buf if not coverage and ps.dim <= MAX_BITMAP_DIM else None
    stop = mp.get_context("fork").Value("q", len(chunks))

    def scan(part, progress_cb):
        return _scan(ps.ranks, ps.dim, chunks, part, progress_cb, marks, members, stop)

    first = _run_workers(scan, parts, progress)
    if not coverage:
        return first, None
    # free each block of the scratch once packed (Linux), so it and cov are never both whole
    cov = SpaceBitmap(ps.dim)
    for lo in range(0, cov.buf.size, SCAN_BLOCK_BYTES):
        cov.buf[lo : lo + SCAN_BLOCK_BYTES] = np.packbits(marks[8 * lo : 8 * (lo + SCAN_BLOCK_BYTES)], bitorder="little")
        marks.base.obj.madvise(mmap.MADV_REMOVE, 8 * lo, 8 * SCAN_BLOCK_BYTES)  # base.obj: the shared mmap
    return first, cov


def _cover_windows(ps, threads, progress) -> SpaceBitmap:
    """The packed coverage above dimension 18, on scans that own shares of the windows."""
    starts, counts = _windows(ps.ranks, ps.dim)
    shares = _window_shares(counts, threads)
    # the shares write disjoint bytes of one bitmap; only forked workers need it shared
    cov = SpaceBitmap(ps.dim, _shared_zeros((POW3[ps.dim] + 7) // 8) if len(shares) > 1 else None)
    _run_workers(lambda share, progress_cb: _scan_windows(ps.ranks, ps.dim, starts, share, progress_cb, cov),
                 shares, progress)
    return cov


def _shared_zeros(size: int) -> np.ndarray:
    """A zero-filled uint8 array in anonymous shared memory, which forked workers write."""
    return np.frombuffer(mmap.mmap(-1, size), np.uint8)


def _run_workers(scan, payloads, progress) -> tuple[int, int, int] | None:
    """Run scan(payload, progress_cb) for each payload in its own forked worker.

    A lone payload runs in this process. Returns the least violation, or None.
    """
    if len(payloads) == 1:
        return scan(payloads[0], progress.add)
    ctx = mp.get_context("fork")
    counter = ctx.Value("q", 0)
    hits = np.frombuffer(ctx.RawArray("q", 3 * len(payloads)), np.int64).reshape(-1, 3)
    hits[:, 0] = -1  # no violation
    procs = []
    try:
        for payload, hit in zip(payloads, hits):
            proc = ctx.Process(target=_worker_main, args=(scan, payload, hit, counter))
            proc.start()
            procs.append(proc)
        pending = {proc.sentinel: proc for proc in procs}
        while pending:
            for sentinel in mp_wait(list(pending), timeout=0.5):
                proc = pending.pop(sentinel)
                proc.join()
                if proc.exitcode != 0:
                    raise WorkerError(f"sweep worker exited with code {proc.exitcode}")
            progress.maybe_emit(int(counter.value))
    except BaseException:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
    return min((tuple(int(v) for v in hit) for hit in hits if hit[0] >= 0), default=None)
