"""Exhaustive unordered-pair sweep over a point set.

For every unordered pair of distinct members the sweep computes the third
point of their line in packed rank form. In cap mode it tests that point for
membership and stops at the first member it meets: a gather from the member
bitmap up to MAX_BITMAP_DIM, a binary search in the sorted ranks above it, so
cap mode runs at every dimension whose ranks fit int64 (up to 39). In
coverage mode it only marks the point in a coverage bitmap (completeness),
which needs all 3^dim bits and so stops at MAX_BITMAP_DIM: a byte per point
up to dimension 18, packed bits above it, where SpaceBitmap.set_ranks
scatters each quarter tile of thirds with one buffered OR and sets again
the bits lost to thirds that share a byte. A third point is never either
point of its pair, so a set is a cap iff its coverage marks none
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
membership gather stay in cache. The verifiers' cross-set checks run on the
same tiles, with the anchors from a second set and no own triangle.

A search for a pair whose third point is in a set (the cap sweep, the
witness search, the cross-set checks) prunes by window: the window of a
rank is its top digit group value, and the thirds of a block with the
partners of one top group value all lie in one window. Where that window
holds no rank of the set, those partners are left out of the block's
tiles, and the live ones are packed into full tiles that carry their
partner indices; the block's own triangle, whose thirds lie in the window
of its top value with itself, is left out in the same way. A pruned pair
is decided by its empty window and counts as examined, in progress, in
pairs_examined and in the order that makes the first hit canonical. A
kernel prunes only where the share of empty windows times its anchors per
block is large enough to pay (_PRUNE_GAIN).

Work is partitioned into fixed chunks (about 10 million pairs) of contiguous
anchor indices; the chunk list does not depend on the worker count, all
chunk scans store the byte 1 at their third points in one shared 3^dim-byte
scratch (every store writes the same value, so none is lost), and the
reported violation is the minimum in canonical pair order, so outcomes are
bit-identical for any number of workers. Coverage above dimension 18 is cut
by the windows of the third points instead, the same top-group windows:
3^12 ranks at dimension 19 and 3^13 at 20. The parent counts the pairs of
every window exactly from the kernel's class starts (a class is the members
of one top group value) and gives the windows to at most one worker per
thread in units of 8 consecutive windows, balanced by those counts: a
window's rank count is odd, so the units are whole bytes of one shared
packed bitmap, the workers write disjoint bytes and nothing is merged. Each
worker scans every chunk on a kernel whose live windows are its share, so
the code that leaves out the partners of empty windows also leaves out the
pairs whose thirds another worker marks.

Workers are forked (POSIX fork), so they inherit the imported modules, the
ranks and the cap-mode member bitmap, which the parent builds once: nothing
is imported again or pickled, and a script that runs a sweep needs no
__main__ guard. A worker ignores SIGINT; the parent turns an interrupt into
KeyboardInterrupt and terminates the workers. Before it forks, the parent
sets up all that a worker writes in shared memory: the coverage (the
zero-filled byte scratch of the chunk scans in a memfd, or the one packed
bitmap of the window workers in an anonymous mmap), and three int64 hit
slots per worker in a RawArray. The parent waits on the workers' process
sentinels; a worker that exits with a nonzero code raises WorkerError, and
on any error the workers still running are terminated. When all have
exited, the parent takes the least hit and packs the pages of the scratch
that hold data, skipping its holes: no sweep merges coverage. A lone
payload (one chunk, one share or one thread) runs in this process.

The coverage is the source of third points for is_complete_pset, and for
a complete cap. verify_cap_and_complete first runs first_uncovered, which
looks for the completeness witness, the least rank neither a member nor a
third point, by testing the least non-members on the pair kernel against
the cap sweep's member mask, at most about m/2 of them, so never more third
points than a sweep; only when every one of them is covered does the
coverage sweep run.
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

# Least seconds between two progress lines on stderr.
PROGRESS_INTERVAL = 1.0

# Most anchors in one block of the pair kernel, and most items in one of its
# tiles: 512 KB of intp, so a tile and its temporaries stay in a 2 MB L2
# (2^16 ran faster than 2^18 on the ag15 subset). A block's own K x K tile
# fits one tile.
_BLOCK_ANCHORS = 256
_TILE_ITEMS = 1 << 16

# Window pruning (see _Kernel) costs a few numpy passes per live partner of
# every block and a pass over the partner classes, and saves the K thirds of
# each pruned partner of a K-anchor block. A kernel prunes only when (share
# of top-group values that hold no target rank) x (mean anchors per
# occupied top-group value of the anchors) is at least _PRUNE_GAIN. Cap
# sweeps at threads 1 with pruning forced on against off (median of 3, on a
# 2-vCPU Xeon VM), by that product: random ranks at dimensions 12/15/19
# (0.0-0.8) lost 4-69%; ag15 subsets of 2,000 and 3,500 points (1.8, 2.5)
# and 500 points of B(15) (2.2) lost 9-23%; 5,000 ag15 points (3.3) gained
# 9%, 1,000 of B(15) (3.9) 13%, 8,000 ag15 points (5.0) 44%, and B(n)
# subsets above 7 gained 13-64%.
_PRUNE_GAIN = 4


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
    """Third-point ranks of anchor blocks against a fixed array of partner ranks.

    A rank splits into the base-3 digit groups of f3core._digit_groups (width
    at most 8, as few as possible, dimension 15 as 8 + 7). A group's row holds
    the negated digit sum of an anchor's group value with every group value,
    times the group's place value: one broadcast add of two half-width tables
    (at most 81 x 81). The thirds are one gather of intp partner digits per
    group and adds in int32 (int64 above dimension 19), the last add into an
    intp buffer, so the scatters and gathers that use them index without a
    cast. Works at every dimension whose ranks fit int64 (up to 39).

    The anchors are the partners themselves (the sweep) or a second sorted
    rank array (the cross-set checks). _blocks cuts the anchors into runs of
    at most _BLOCK_ANCHORS that share their top group value (any run at
    dimension 8 and below, with one group), and _block_tiles yields a
    block's thirds in partner-major tiles, tile[p, k] for partner p and
    anchor k, of at most _TILE_ITEMS intp, each reused by the next. The top
    group's part is one gather per block, shared by its K anchors; each
    lower group's K rows are stacked as a (3^width, K) table, and one gather
    of whole rows gives a partner's thirds with all K anchors, which differ
    only in the lower groups and so fall in one small slab of the space.

    A kernel with live windows scans only the pairs whose thirds fall in
    them. The window of a rank is its top group value (8 digits at dimension
    15, 7 at 19 and 20), and a class is the partners of one window:
    class_starts. The thirds of a block's anchors (class a) with the
    partners of class b all lie in the window of the negated digit sum of a
    and b. _block_tiles leaves out the partners of every window that is not
    live, and the block's own tile when the window of a with itself is not,
    and packs the live partners into full tiles, each tile carrying the
    indices of its partners. A kernel given target, the sorted ranks its
    hit mask tests, takes the windows that hold a target rank as live where
    pruning pays (_PRUNE_GAIN): a pair of an empty window cannot hit, so it
    counts as examined in progress, pairs_examined and the choice of the
    first hit, exactly as a scanned pair without a hit. A coverage worker
    above dimension 18 gives its share of the windows as live.
    """

    def __init__(self, partners: np.ndarray, dim: int, anchors: np.ndarray | None = None,
                 target: np.ndarray | None = None, live: np.ndarray | None = None):
        self.partners = np.asarray(partners, dtype=np.int64)
        self.cross = anchors is not None  # the anchors are a second array, with no own triangle
        self.anchors = np.asarray(anchors, dtype=np.int64) if self.cross else self.partners
        self.index = np.arange(self.partners.size, dtype=np.intp)  # a contiguous tile's partners are a view
        split = _digit_groups(dim)
        # a single group gathers straight into the intp output
        self.dtype = np.int32 if len(split) > 1 and POW3[dim] < 2**31 else np.intp
        self.groups = []  # (place value, group size, low half size, high table, low table)
        self.digits = []  # intp partner digits of each group, most significant first
        for shift, width in split:
            low = width // 2
            high_table = _negadd_table(width - low, shift + low).astype(self.dtype)
            low_table = _negadd_table(low, shift).astype(self.dtype)
            self.groups.append((POW3[shift], POW3[width], POW3[low], high_table, low_table))
            self.digits.append(((self.partners // POW3[shift]) % POW3[width]).astype(np.intp))
        self._tiles = None  # the block buffers, made by the first block
        if target is not None and len(split) > 1:
            place, windows = self.groups[0][:2]
            live = np.zeros(windows, bool)
            live[np.asarray(target, dtype=np.int64) // place] = True
            classes = np.count_nonzero(np.diff(self.anchors // place)) + 1
            if (1 - live.mean()) * self.anchors.size / classes < _PRUNE_GAIN:
                live = None
        self.live = live  # the windows scanned, when the kernel prunes
        if live is not None:
            starts = self.class_starts()
            self._classes = np.flatnonzero(np.diff(starts))  # the top values that have partners
            self._class_spans = starts[self._classes], starts[self._classes + 1]

    def class_starts(self) -> np.ndarray:
        """Where each class begins: partners[starts[c] : starts[c + 1]] have top group value c."""
        place, windows = self.groups[0][:2]
        return np.searchsorted(self.partners, np.arange(windows + 1) * place)

    def window_pairs(self) -> np.ndarray:
        """The exact number of the sweep's pairs whose third point lies in each window.

        The ordered pairs (x, y) of classes a and b, x = y included, fall in
        window w exactly when b is the window of a and w. A class is a high
        and a low half (S[high, low] its size), and the window of two classes
        is the pair of the windows of their halves (the tables H and L), so
        window (u, v) holds sum over h, b of S[H[h, u], b] * S[h, L[b, v]].
        A member with itself falls in its own window, and each unordered pair
        is two ordered ones. For a kernel whose anchors are its partners.
        """
        place, _, low_size, high_table, low_table = self.groups[0]
        sizes = np.diff(self.class_starts())
        S = sizes.reshape(-1, low_size)
        h = np.flatnonzero(S.any(axis=1))  # the high halves that hold members; the others add nothing
        ordered = np.einsum("hub,hbv->uv", S[high_table[h] // (place * low_size)], S[h][:, low_table // place])
        return (ordered.ravel() - sizes) // 2

    def _blocks(self, a0: int, a1: int, progress_cb=None):
        """Yield the anchor blocks (b0, b1) of the anchors [a0, a1) that have a partner.

        A block ends where the top group value changes, after _BLOCK_ANCHORS
        anchors, or at a1, so blocks never cross a chunk boundary. The pairs
        of each block of the sweep go to progress_cb in sums of at least
        2^23, once the caller resumes after it.
        """
        n = self.partners.size
        a1 = min(a1, self.anchors.size if self.cross else n - 1)
        if a1 <= a0:
            return
        cuts = [a0, a1]
        if len(self.groups) > 1:
            top = self.anchors[a0:a1] // self.groups[0][0]
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

    def _live_tiles(self, live: np.ndarray, s: int, e: int, step: int):
        """Yield the ascending indices of the partners in [s, e) whose class is live, at most step at a time.

        live[c] tells whether the block's thirds with the c-th class of
        partners (self._classes) fall in a live window.
        Each slice is built when it is asked for, so a search that leaves a
        block early pays only for the tiles it took.
        """
        starts, ends = self._class_spans
        c0, c1 = np.searchsorted(ends, s, "right"), np.searchsorted(starts, e)
        keep = live[c0:c1]
        lo = np.maximum(starts[c0:c1][keep], s)
        sizes = np.minimum(ends[c0:c1][keep], e) - lo
        packed_end = np.cumsum(sizes)  # the live partners packed: each run ends here
        shift = lo - (packed_end - sizes)  # a packed position plus its run's shift is a partner index
        total = int(packed_end[-1]) if sizes.size else 0
        for t0 in range(0, total, step):
            t1 = min(t0 + step, total)
            r0, r1 = np.searchsorted(packed_end, [t0, t1 - 1], "right")
            runs = slice(r0, r1 + 1)  # the runs that hold the packed positions [t0, t1)
            counts = np.minimum(packed_end[runs], t1) - np.maximum(packed_end[runs] - sizes[runs], t0)
            yield np.arange(t0, t1, dtype=np.intp) + np.repeat(shift[runs], counts)

    def _block_tiles(self, b0: int, b1: int):
        """Yield (cols, tile) for the pairs of the anchors in [b0, b1) with their partners.

        tile[p, k] is the rank of the third point of anchors[b0 + k] and
        partners[cols[p]], as intp, and cols is ascending. When the anchors
        are the partners, the first tile is the block against itself (cols =
        [b0, b1), K x K), whose pairs are its strictly lower triangle p > k;
        only it has cols[0] == b0. The others take the partners after the
        block, [b1, n), or all of [0, n) when the anchors are a second array,
        in ascending slices of at most _TILE_ITEMS // K rows. A kernel with
        live windows leaves out the partners of the windows that are not
        live, and the own tile when its window is not.
        """
        n, size = self.partners.size, b1 - b0
        own = not self.cross
        shared = len(self.groups) > 1  # the top group, with one value in the block
        if self._tiles is None:
            self._tiles = [np.empty(_TILE_ITEMS, t) for t in (np.intp, self.dtype, self.dtype)]
            self._top = np.empty(n, self.dtype)
            self._stacks = [np.empty(g[1] * min(_BLOCK_ANCHORS, self.anchors.size), self.dtype) for g in self.groups[shared:]]
        anchors = self.anchors[b0:b1]
        live = None
        if shared:
            place = self.groups[0][0]
            value = int(anchors[0]) // place
            _, _, low_size, high_table, low_table = self.groups[0]
            row = (high_table[value // low_size, :, None] + low_table[value % low_size]).ravel()
            if self.live is not None:
                live = self.live[row[self._classes] // place]
                own = own and self.live[row[value] // place]
        stacks = []  # the (3^width, K) row table of each lower group
        for (place, rows, low_size, high_table, low_table), buf in zip(self.groups[shared:], self._stacks):
            value = anchors // place % rows
            stack = buf[: rows * size].reshape(rows, size)
            np.add(high_table[:, None, value // low_size], low_table[None, :, value % low_size],
                   out=stack.reshape(-1, low_size, size))
            stacks.append(stack)
        digits = self.digits[shared:]

        def tile(rows, count: int) -> np.ndarray:
            # rows: a slice of the partners, or ascending partner indices
            shape = (count, size)
            out, total, part = (buf[: count * size].reshape(shape) for buf in self._tiles)
            # the digits are in range, and mode="clip" spares np.take a buffered copy
            np.take(stacks[0], digits[0][rows], axis=0, out=total if shared else out, mode="clip")
            for stack, group_digits in zip(stacks[1:], digits[1:]):
                np.take(stack, group_digits[rows], axis=0, out=part, mode="clip")
                total += part
            if shared:
                np.add(total, self._top[rows, None], out=out)
            return out

        step = max(1, _TILE_ITEMS // size)
        s = 0 if self.cross else b1
        if own:
            if shared:
                np.take(row, self.digits[0][b0:b1], out=self._top[b0:b1])
            yield self.index[b0:b1], tile(slice(b0, b1), size)
        if live is None:
            if shared:
                np.take(row, self.digits[0][s:], out=self._top[s:])
            for j0 in range(s, n, step):
                j1 = min(j0 + step, n)
                yield self.index[j0:j1], tile(slice(j0, j1), j1 - j0)
            return
        for cols in self._live_tiles(live, s, n, step):
            self._top[cols] = np.take(row, self.digits[0][cols])
            yield cols, tile(cols, cols.size)

    def first_hit(self, a0: int, a1: int, hits, progress_cb=None) -> tuple[int, int, int] | None:
        """(anchor, partner, third rank) of the first pair of the anchors [a0, a1) that hits, or None.

        hits(tile, cols) is a mask over a tile, nonzero where the pair's
        third point is in the caller's set. The first pair is the least
        anchor with a hit, then its least partner, so the search ends with
        the first block that has a hit. This is the one search for a pair
        whose third point is in a set.
        """
        for b0, b1 in self._blocks(a0, a1, progress_cb):
            first = None
            for cols, tile in self._block_tiles(b0, b1):
                hit = hits(tile, cols)
                if cols[0] == b0 and not self.cross:
                    # a bitmap mask holds bit values, which &= would lose
                    hit = np.logical_and(hit, _below(tile.shape[1]))
                if hit.any():
                    k = int(np.flatnonzero(hit.any(axis=0))[0])
                    p = int(np.flatnonzero(hit[:, k])[0])
                    if first is None or b0 + k < first[0]:
                        first = (b0 + k, int(cols[p]), int(tile[p, k]))
            if first is not None:
                return first
        return None

    def first_miss(self, a0: int, a1: int, hits) -> int | None:
        """The first anchor of [a0, a1) that has no pair that hits, or None.

        For a kernel whose anchors are a second array; hits is a tile mask
        as for first_hit. A block's tiles stop once each of its anchors has
        a hit, and the search ends with the first block that has an anchor
        without one.
        """
        for b0, b1 in self._blocks(a0, a1):
            hit = np.zeros(b1 - b0, bool)
            for cols, tile in self._block_tiles(b0, b1):
                hit |= hits(tile, cols).any(axis=0)
                if hit.all():
                    break
            else:
                return b0 + int(np.argmin(hit))
        return None


def _in_sorted(target: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which values are in the nonempty sorted array target, and where each would sit."""
    at = np.searchsorted(target, values)
    np.minimum(at, target.size - 1, out=at)
    return target[at] == values, at


def member_hits(ps: PointSet):
    """Tile mask of the pairs whose third point is a member of ps, for _Kernel.first_hit and first_miss.

    A gather from the packed member bitmap, built here once, up to
    MAX_BITMAP_DIM; a binary search in the sorted ranks above it, where no
    3^dim bitmap fits.
    """
    ranks = ps.ranks
    if ps.dim > MAX_BITMAP_DIM:
        return lambda tile, cols: _in_sorted(ranks, tile)[0]
    members = SpaceBitmap.from_ranks(ranks, ps.dim).buf
    return lambda tile, cols: np.take(members, tile >> 3) & np.take(_BIT8, tile & 7)


def first_uncovered(ps: PointSet, hits) -> int | None:
    """The least rank that is neither a member of ps nor the third point of a pair, or None.

    The candidates are the least non-members, at most max(1, ceil((m - 1) / 2))
    of them, so the search computes at most m(m - 1)/2 + m third points, no
    more than a sweep of all pairs. A candidate t is covered iff -(x + t) is
    a member for some member x; t is not a member, so -(x + t) is never x.
    That is a kernel with the candidates as its anchors and the members as
    its partners and target, hits being the member mask of member_hits(ps).
    None means every candidate is covered.
    """
    m = len(ps)
    budget = max(1, m // 2)
    span = np.arange(min(budget + m, POW3[ps.dim]), dtype=np.int64)
    candidates = np.setdiff1d(span, ps.ranks, assume_unique=True)[:budget]
    miss = _Kernel(ps.ranks, ps.dim, candidates, ps.ranks).first_miss(0, candidates.size, hits)
    return None if miss is None else int(candidates[miss])


def _scan(ranks, dim, chunks, indices, progress_cb, cover=None, hits=None, stop=None, live=None):
    """Scan the listed chunks in ascending order, block by block.

    Given the coverage cover, mark the third point of every pair whose
    window is in live (every window when live is None): store the byte 1 in
    the 3^dim-byte scratch up to dimension 18, or OR its bit into the packed
    bitmap above it. Count the marks for progress_cb in sums of at least
    2^23 and at the end of each chunk, and return None. Otherwise return
    (i, j, third rank) of the first pair whose third point is a member by
    the mask hits of member_hits, or None (the kernel prunes by the windows
    of the members); it stops early at a chunk beyond one where another
    worker already found a violation. _Kernel.first_hit finds the first
    pair of a chunk.
    """
    if cover is not None:
        kernel = _Kernel(ranks, dim, live=live)
        for idx in indices:
            done = 0
            for b0, b1 in kernel._blocks(*chunks[idx]):
                for cols, tile in kernel._block_tiles(b0, b1):
                    thirds = (tile[_below(tile.shape[1])] if cols[0] == b0 else tile).ravel()
                    if isinstance(cover, SpaceBitmap):
                        # a quarter tile per OR, whose second gather then finds its bytes in
                        # L2: whole tiles took about 30% longer per third (2 MB L2 per core)
                        for lo in range(0, thirds.size, _TILE_ITEMS // 4):
                            cover.set_ranks(thirds[lo : lo + _TILE_ITEMS // 4])
                    else:
                        cover[thirds] = 1
                    done += thirds.size
                if done >= 1 << 23:
                    progress_cb(done)
                    done = 0
            if done:
                progress_cb(done)
        return None
    kernel = _Kernel(ranks, dim, target=ranks)
    for idx in indices:
        if stop is not None and stop.value < idx:
            break
        first = kernel.first_hit(*chunks[idx], hits, progress_cb)
        if first is not None:
            if stop is not None:
                with stop.get_lock():
                    stop.value = min(stop.value, idx)
            return first
    return None


def _window_shares(counts: np.ndarray, threads: int) -> list[np.ndarray]:
    """Give the windows to at most threads workers, balanced by their pairs.

    The windows go in units of 8 consecutive windows: a window holds an odd
    number of ranks (3^12 or 3^13), so a unit starts on a byte of the
    bitmap, and no two workers write one byte. Each unit, largest first,
    goes whole to the worker with the fewest pairs so far. Returns each
    worker's boolean mask over the windows; a worker left without pairs is
    dropped.
    """
    units = np.add.reduceat(counts, np.arange(0, counts.size, 8))
    loads = [0] * threads
    shares = np.zeros((threads, counts.size), bool)
    for u in np.argsort(-units, kind="stable"):
        w = loads.index(min(loads))
        loads[w] += int(units[u])
        shares[w, 8 * u : 8 * u + 8] = True
    return [share for share, load in zip(shares, loads) if load]


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


def run_sweep(task: SweepTask, hits=None) -> SweepOutcome:
    """Examine every unordered pair of the task's point set exactly once.

    A cap sweep tests membership with hits, the mask of member_hits, which
    is built here when not given.
    """
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
    hits = None if coverage else (hits or member_hits(ps))
    first, cov = _sweep_chunks(ps, hits, task.chunk_pairs, threads, progress)

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


def _sweep_chunks(ps, hits, chunk_pairs, threads, progress):
    """(first violation, coverage) of a sweep of fixed chunks, shared out among at most threads scans.

    A cap sweep tests membership with the mask hits; without one it is a
    coverage sweep. Its scans take parts of the chunk list and share one byte
    scratch up to dimension 18; above it, each scans every chunk for one
    share of the windows and ORs into one packed bitmap.
    """
    coverage = hits is None
    packed = coverage and ps.dim > _SCRATCH_DIM_LIMIT
    chunks = make_chunks(len(ps), chunk_pairs)
    if packed:
        shares = _window_shares(_Kernel(ps.ranks, ps.dim).window_pairs(), threads)
        # a share of every window is scanned whole, with no windows to leave out
        payloads = [(range(len(chunks)), None if share.all() else share) for share in shares]
    else:
        parts = np.array_split(np.arange(len(chunks)), min(threads, len(chunks)))
        payloads = [(part.tolist(), None) for part in parts]
    stop = None if coverage else mp.get_context("fork").Value("q", len(chunks))
    fd = os.memfd_create("capset-coverage") if coverage and not packed else -1
    try:
        if packed:
            # the shares write disjoint bytes of one bitmap; only forked workers need it shared
            cover = SpaceBitmap(ps.dim, _shared_zeros((POW3[ps.dim] + 7) // 8) if len(payloads) > 1 else None)
        else:
            cover = _shared_zeros(POW3[ps.dim], fd) if coverage else None

        def scan(payload, progress_cb):
            indices, live = payload
            return _scan(ps.ranks, ps.dim, chunks, indices, progress_cb, cover, hits, stop, live)

        first = _run_workers(scan, payloads, progress)
        return first, _pack(cover, fd, ps.dim) if fd >= 0 else cover
    finally:
        if fd >= 0:
            os.close(fd)


def _pack(marks: np.ndarray, fd: int, dim: int) -> SpaceBitmap:
    """The coverage bitmap of the byte scratch marks, the memfd fd mapped shared.

    Only the pages a scan wrote are read: a hole, once read, is allocated
    and zeroed. The scratch is freed (Linux) behind the packing, at least
    SCAN_BLOCK_BYTES bytes of bits at a time, so it and cov are never both whole.
    """
    cov = SpaceBitmap(dim)
    step = 8 * SCAN_BLOCK_BYTES
    hole = freed = 0
    marks[-1] = marks[-1]  # the last page holds data, so SEEK_DATA finds some before the end
    while hole < marks.size:
        # a seek walks every page it passes, so each extent is sought once
        data = os.lseek(fd, hole, os.SEEK_DATA)
        hole = os.lseek(fd, data, os.SEEK_HOLE)
        for lo in range(data, hole, step):
            hi = min(lo + step, hole)
            cov.buf[lo // 8 : (hi + 7) // 8] = np.packbits(marks[lo:hi], bitorder="little")
            if hi - freed >= step:
                marks.base.obj.madvise(mmap.MADV_REMOVE, freed, hi - freed)  # base.obj: the shared mmap
                freed = hi
    return cov


def _shared_zeros(size: int, fd: int = -1) -> np.ndarray:
    """A zero-filled uint8 array in shared memory (anonymous, or the memfd fd), which forked workers write."""
    if fd >= 0:
        os.ftruncate(fd, size)
    return np.frombuffer(mmap.mmap(fd, size), np.uint8)


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
