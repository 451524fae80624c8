"""Certificate-producing checkers for every property the constructions claim.

Every checker returns a VerifyReport whose witness, when present, re-triggers
the failure through the scalar primitives: a cap witness is a collinear
triple, a pair-condition witness is a pair with disjoint zero supports, a
completeness witness is an extension point, and so on. Scans run in canonical
rank order, so witnesses and work counts are reproducible across runs and
worker counts.

Both completeness checks (coverage_complete for caps, is_complete_pset for
P-sets) read the sweep's pair coverage in place, block by block through
SpaceBitmap.missing_ranks, and drop the members from each block by binary
search in the sorted ranks: the ranks left are the points outside the set on
no line with two members. Neither copies the coverage or builds a member
bitmap. verify_cap_and_complete looks for the completeness witness first,
with sweep.first_uncovered on the cap sweep's member mask: when it finds
one, the early-exit cap sweep gives the cap report, as is_cap's does, with
no 3^n coverage and so at every dimension up to 39. Only when every
candidate of that bounded search is covered does the coverage sweep run,
and then, for a set that cannot be complete (m(m - 1)/2 < 3^n - m: each
pair covers one point) or whose coverage cannot be built (dimension above
MAX_BITMAP_DIM), only after an early-exit cap sweep finds no violation, so
such a set that is not a cap gets its verdict and witness from that sweep.
A failed cap report counts the pairs up to the canonical violation on
either path.

The pair searches (the cap sweep, the witness search, check_condition1/2
and is_projective_cap) give their kernel the ranks their hit mask tests,
and the kernel leaves out the pairs whose third point lies in a window (a
top digit group value) that holds none of them; such a pair is decided by
its empty window and counted as examined like any pair without a hit.

Zero supports are read from the ranks (f3core.zero_masks, one int64 per
member), never from a coordinate matrix. Zero tests run once per distinct
support through _in_intervals, never once per member: a mask disjoint from A
lies in [0, complement(A)]. Members are looked up only to name a failure.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .errors import CapacityError, ConstructionError, DimensionError, PreconditionError
from .f3core import (
    MAX_BITMAP_DIM,
    POW3,
    Point,
    PointSet,
    SpaceBitmap,
    _class_ranks,
    neg_ranks,
    unrank,
    zero_masks,
)
from .sweep import (
    _Kernel,
    SweepTask,
    _in_sorted,
    first_uncovered,
    member_hits,
    pair_index,
    pairs_total,
    resolve_threads,
    run_sweep,
)


@dataclass
class VerifyReport:
    property: str
    passed: bool
    witness: tuple[Point, ...] | None
    pairs_examined: int
    elapsed: float
    workers: int = 1


def _report(prop: str, passed: bool, witness, count: int, t0: float, workers: int = 1) -> VerifyReport:
    return VerifyReport(prop, passed, witness, count, time.perf_counter() - t0, workers)


def _naive_cap_scan(coords: np.ndarray) -> tuple[tuple[int, int, int] | None, int]:
    """Direct triple-sum scan in lexicographic (i, j, k) order.

    Tests (a + b + c) mod 3 = 0 on raw coordinates and never consults
    third-point or membership logic, keeping it independent of the sweep.
    """
    m = coords.shape[0]
    work = coords.astype(np.int16)
    count = 0
    for i in range(m - 2):
        ci = work[i]
        for j in range(i + 1, m - 1):
            sums = (ci + work[j] + work[j + 1 :]) % 3
            hits = ~sums.any(axis=1)
            if hits.any():
                k = j + 1 + int(np.flatnonzero(hits)[0])
                count += k - j
                return (i, j, k), count
            count += m - 1 - j
    return None, count


def is_cap(
    s: PointSet,
    mode: str = "fast",
    threads: int | None = None,
    progress: bool = False,
) -> VerifyReport:
    """No three distinct members sum to zero coordinatewise.

    "fast" runs the pair sweep at every dimension up to 39 and counts pairs.
    "naive" runs the triple-scan oracle, which shares no code with the sweep,
    on one worker and counts triples. Both report the lexicographically first
    collinear triple: its first two points are the first pair in canonical
    order whose third point is a member.
    """
    t0 = time.perf_counter()
    if mode == "naive":
        hit, count = _naive_cap_scan(s.coords())
        witness = tuple(s.point(i) for i in hit) if hit is not None else None
        return _report("cap", hit is None, witness, count, t0)
    if mode != "fast":
        raise ValueError(f"unknown is_cap mode {mode!r}")
    outcome = run_sweep(SweepTask(points=s, mode="cap", threads=threads, progress=progress))
    witness = None
    if outcome.violation is not None:
        witness = tuple(unrank(r, s.dim) for r in outcome.violation)
    return _report(
        "cap",
        outcome.violation is None,
        witness,
        outcome.pairs_examined,
        t0,
        resolve_threads(threads),
    )


def _uncovered_outside(s: PointSet, coverage: SpaceBitmap) -> Iterator[np.ndarray]:
    """Ascending clear ranks of coverage that are not members of s, block by block."""
    ranks = s.ranks
    for block in coverage.missing_ranks():
        members = ranks[np.searchsorted(ranks, block[0]) : np.searchsorted(ranks, block[-1], "right")]
        if members.size:
            at = np.searchsorted(block, members)
            block = np.delete(block, at[block[at] == members])
        if block.size:
            yield block


def coverage_complete(s: PointSet, coverage: SpaceBitmap, pairs: int = 0, t0: float | None = None, workers: int = 1) -> VerifyReport:
    """Every rank outside s is the third point of some pair of s."""
    if t0 is None:
        t0 = time.perf_counter()
    if coverage.dim != s.dim:
        raise DimensionError("coverage bitmap dimension differs from the set")
    missing = next((int(block[0]) for block in _uncovered_outside(s, coverage)), None)
    witness = (unrank(missing, s.dim),) if missing is not None else None
    return _report("complete_cap", missing is None, witness, pairs, t0, workers)


def verify_cap_and_complete(
    s: PointSet, threads: int | None = None, progress: bool = False
) -> tuple[VerifyReport, VerifyReport | None]:
    """Cap and completeness reports: the witness search first, the coverage sweep only if it finds none.

    sweep.first_uncovered looks for the canonical completeness witness, the
    least point that is neither a member nor a third point, among at most
    max(1, ceil((m - 1)/2)) of the least non-members. When it finds one,
    the early-exit cap sweep (is_cap's) gives the cap report, and no 3^n
    coverage is built, so this works at every dimension up to 39. When
    every candidate is covered, the coverage sweep decides both; a set with
    m(m - 1)/2 < 3^n - m pairs, which cannot be complete since a pair covers
    one point, or above MAX_BITMAP_DIM, where no coverage can be built,
    runs the early-exit cap sweep before it, and a violation ends there.
    When the cap check fails, completeness is undefined and None is
    returned in its place; the cap report then counts the pairs up to the
    canonical violation, pair_index(i, j) + 1, as is_cap's does, whichever
    sweep found it. Otherwise both reports count every pair.
    """
    t0 = time.perf_counter()
    workers = resolve_threads(threads)
    m, outcome = len(s), None
    hits = member_hits(s)
    missing = first_uncovered(s, hits)
    if missing is not None or pairs_total(m) < POW3[s.dim] - m or s.dim > MAX_BITMAP_DIM:
        outcome = run_sweep(SweepTask(points=s, mode="cap", threads=threads, progress=progress), hits)
    del hits  # the member bitmap is not kept through a coverage sweep
    if missing is None and (outcome is None or outcome.violation is None):
        outcome = run_sweep(SweepTask(points=s, mode="coverage", threads=threads, progress=progress))
    if outcome.violation is not None:
        i, j = np.searchsorted(s.ranks, outcome.violation[:2])
        witness = tuple(unrank(r, s.dim) for r in outcome.violation)
        return _report("cap", False, witness, pair_index(m, int(i), int(j)) + 1, t0, workers), None
    cap_rep = _report("cap", True, None, outcome.pairs_examined, t0, workers)
    if missing is not None:
        witness = (unrank(missing, s.dim),)
        return cap_rep, _report("complete_cap", False, witness, outcome.pairs_examined, t0, workers)
    return cap_rep, coverage_complete(s, outcome.coverage, outcome.pairs_examined, t0, workers)


def is_complete_cap(s: PointSet, threads: int | None = None, progress: bool = False) -> VerifyReport:
    """Complete cap check; requires a cap and raises otherwise."""
    cap_rep, comp_rep = verify_cap_and_complete(s, threads, progress)
    if not cap_rep.passed:
        raise PreconditionError(
            "is_cap", "completeness is defined only for cap sets", cap_rep.witness
        )
    assert comp_rep is not None
    return comp_rep


def pset_pair_condition(s: PointSet) -> VerifyReport:
    """Every two distinct members share a zero coordinate.

    With two or more members, one fails iff its support is disjoint from some
    member's (an empty support from all); the first to fail has its partner after it.
    """
    t0 = time.perf_counter()
    zm = s.zero_masks()
    m = len(s)
    family = np.unique(zm)
    failing = family[_in_intervals(family, family)] if m > 1 else []
    bad = np.flatnonzero(np.isin(zm, failing))
    if bad.size:
        i = int(bad[0])
        j = i + 1 + int(np.flatnonzero((zm[i] & zm[i + 1 :]) == 0)[0])
        witness = (s.point(i), s.point(j))
        return _report("pset_pair_condition", False, witness, pair_index(m, i, j) + 1, t0)
    return _report("pset_pair_condition", True, None, pairs_total(m), t0)


def is_pset(s: PointSet, threads: int | None = None) -> VerifyReport:
    """Pair condition plus cap-ness."""
    t0 = time.perf_counter()
    pair_rep = pset_pair_condition(s)
    if not pair_rep.passed:
        return _report("pset", False, pair_rep.witness, pair_rep.pairs_examined, t0)
    cap_rep = is_cap(s, threads=threads)
    count = pair_rep.pairs_examined + cap_rep.pairs_examined
    return _report("pset", cap_rep.passed, cap_rep.witness, count, t0)


def is_odd_pset(s: PointSet) -> VerifyReport:
    """Every member has an odd number of zero coordinates."""
    t0 = time.perf_counter()
    zeros = np.bitwise_count(s.zero_masks())
    bad = np.flatnonzero(zeros % 2 == 0)
    if bad.size:
        i = int(bad[0])
        return _report("odd_pset", False, (s.point(i),), i + 1, t0)
    return _report("odd_pset", True, None, len(s), t0)


def is_b_saturated(s: PointSet) -> VerifyReport:
    """The full support class of every member lies inside the set.

    The witness is the lowest-rank point missing from the first short class:
    one of the class's first count + 1 points in rank order.
    """
    t0 = time.perf_counter()
    m = len(s)
    if m == 0:
        return _report("b_saturated", True, None, 0, t0)
    zm = s.zero_masks()
    expected = np.int64(1) << (s.dim - np.bitwise_count(zm).astype(np.int64))
    _, inverse, counts = np.unique(zm, return_inverse=True, return_counts=True)
    bad = np.flatnonzero(counts[inverse] != expected)
    if bad.size:
        i = int(bad[0])
        members = s.ranks[zm == zm[i]]
        walk = _class_ranks(int(zm[i]), s.dim, members.size + 1)
        # members are sorted, so the first class point unequal to the member at its index is absent
        missing = walk[np.argmax(np.append(walk[:-1] != members, True))]
        return _report("b_saturated", False, (unrank(int(missing), s.dim),), i + 1, t0)
    return _report("b_saturated", True, None, m, t0)


def is_complete_pset(s: PointSet, precheck: bool = True) -> VerifyReport:
    """No external point can be added while keeping the P-set conditions.

    An external point lies on a line with two members iff it is the third
    point of that pair, so the candidates are the ranks left clear by the
    members and their pair coverage (a coverage sweep on one worker). The
    witness of a failure is the first that shares a zero coordinate with
    every member; the count is the number of external ranks examined.
    """
    t0 = time.perf_counter()
    if precheck:
        rep = is_pset(s)
        if not rep.passed:
            raise PreconditionError(
                "is_pset", "completeness is defined only for P-sets", rep.witness
            )
    # without the precheck s may not be a cap; its coverage is exact regardless
    coverage = run_sweep(SweepTask(points=s, mode="coverage", threads=1)).coverage
    family = np.unique(s.zero_masks())
    for block in _uncovered_outside(s, coverage):
        hits = np.flatnonzero(~_in_intervals(zero_masks(block, s.dim), family))
        if hits.size:
            r = int(block[hits[0]])
            count = r - int(np.searchsorted(s.ranks, r)) + 1
            return _report("complete_pset", False, (unrank(r, s.dim),), count, t0)
    return _report("complete_pset", True, None, POW3[s.dim] - len(s), t0)


_INTERVAL_BLOCK = 1 << 22  # mask x interval tests per vectorised step


def _in_intervals(cand: np.ndarray, diff: np.ndarray, meet: np.ndarray | None = None) -> np.ndarray:
    """Whether each mask of cand lies in some interval [meet[k], complement(diff[k])].

    Without meet the intervals start at 0: the mask is disjoint from some diff[k].
    """
    step = max(1, _INTERVAL_BLOCK // max(diff.size, 1))
    inside = np.zeros(cand.size, dtype=bool)
    for k in range(0, cand.size, step):
        c = cand[k : k + step, None]
        hit = (c & diff) == 0
        inside[k : k + step] = (hit if meet is None else hit & ((c & meet) == meet)).any(axis=1)
    return inside


def _up_closure(family: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks T over dim bits containing some mask of the family, and strictly containing one.

    One pass over the subset lattice: after bit b, T is marked when some
    family mask equal to T on bits b+1 and above lies inside it.
    """
    up = np.zeros(1 << dim, dtype=bool)
    up[family] = True
    above = np.zeros_like(up)
    for b in range(dim):
        u, a = up.reshape(-1, 2, 1 << b), above.reshape(-1, 2, 1 << b)
        a[:, 1, :] |= u[:, 0, :]
        u[:, 1, :] |= u[:, 0, :]
    return up, above


def _support_triple(s: PointSet, zm: np.ndarray, first: int, second: int, third: int) -> tuple[Point, ...]:
    """Three distinct members with these zero supports, the lowest ranks of each class, in rank order."""
    i = np.flatnonzero(zm == first)[0]
    j = np.flatnonzero(zm == second)[int(first == second)]  # next member of a repeated class
    k = np.flatnonzero(zm == third)[0]
    return tuple(s.point(int(x)) for x in sorted((i, j, k)))


def pset_characterization(s: PointSet) -> VerifyReport:
    """Zero-support conditions characterizing complete b-saturated P-sets.

    Checked in order, each failure returning its witness:

    1. pairs: every two members share a zero coordinate, tested once per
       distinct support (witness: the first pair);
    2. b-saturation: the set holds the whole support class of each member
       (witness: a missing point);
    3. triples, on the family F of member zero supports: (a) F is an
       antichain and (b) no C in F lies in an interval
       [A & B, complement(A ^ B)] of supports A != B of F (witness: the
       lowest-rank members of the failing supports, two of class A when
       A < C; the count is |F|, the supports tested);
    4. maximality: every support T outside F fails (i) or (ii), where
       (i)  T meets every A in F, and
       (ii) no A, B in F (A = B allowed) have A & B <= T <= complement(A ^ B);
       for A = B this reads A <= T (witness: the lowest-rank extension point,
       zeros on T and 1 elsewhere).

    Conditions 3 and 4 are derived here, not quoted from the paper: each
    coordinate of a line x + y + z = 0 holds 0, 1 or 3 zeros, never exactly
    2, so members with supports A, B, C lie on a line only if A & B, A & C
    and B & C are equal, and members of one support class lie on no line
    with each other. On a saturated set every class but the origin's holds
    two members, so the member triples fail exactly as in (a), from classes
    A, A, C with A < C, or (b), from three distinct supports (C misses A ^ B
    iff C & A = C & B). Likewise a point with support T outside F extends
    the set iff (i) holds (the pair condition) and (ii) holds (no line
    through two members). Steps 3 and 4 share one upward closure of F over
    the subset lattice and one table of the intervals of its pairs; neither
    enumerates members or the 3^n points.
    Dimensions above MAX_BITMAP_DIM raise CapacityError.
    """
    t0 = time.perf_counter()
    if s.dim > MAX_BITMAP_DIM:
        raise CapacityError(
            f"dimension {s.dim} exceeds bitmap capacity {MAX_BITMAP_DIM}"
        )
    count = 0
    for check in (pset_pair_condition, is_b_saturated):
        rep = check(s)
        count += rep.pairs_examined
        if not rep.passed:
            return _report("characterization", False, rep.witness, count, t0)
    zm = s.zero_masks()
    family = np.unique(zm)
    count += family.size
    up, above = _up_closure(family, s.dim)
    nested = family[above[family]]
    if nested.size:
        c = int(nested[0])
        a = int(family[(family & c) == family][0])
        return _report("characterization", False, _support_triple(s, zm, a, a, c), count, t0)
    a, b = np.triu_indices(family.size, 1)
    meet, diff = family[a] & family[b], family[a] ^ family[b]
    inside = family[_in_intervals(family, diff, meet)]
    if inside.size:
        c = int(inside[0])
        k = np.flatnonzero(((c & meet) == meet) & ((c & diff) == 0))[0]
        witness = _support_triple(s, zm, int(family[a[k]]), int(family[b[k]]), c)
        return _report("characterization", False, witness, count, t0)
    # (i) fails iff complement(T) contains some A, (ii) with A = B iff T does
    open_supports = np.flatnonzero(~up & ~up[::-1])
    extending = open_supports[~_in_intervals(open_supports, diff, meet)]
    count += (1 << s.dim) - int(family.size)
    if extending.size:
        # the lowest rank in class T has 1 on every coordinate outside T: the
        # sum of one 2^8-entry table lookup per byte of the mask's complement
        ranks = np.zeros(extending.size, dtype=np.int64)
        for lo in range(0, s.dim, 8):
            # bit b of a mask is coordinate b + 1, of place value 3^(dim - 1 - b)
            places = np.array([POW3[s.dim - 1 - b] for b in range(lo, min(lo + 8, s.dim))])
            table = ((np.arange(256)[:, None] >> np.arange(places.size)) & 1) @ places
            ranks += table[(~extending >> lo) & 0xFF]
        witness = (unrank(int(ranks.min()), s.dim),)
        return _report("characterization", False, witness, count, t0)
    return _report("characterization", True, None, count, t0)


def _check_dims(*sets: PointSet) -> int:
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise DimensionError(f"point sets of mixed dimensions {sorted(dims)}")
    return dims.pop()


def _hits_other(target: np.ndarray):
    """Tile mask of the pairs whose third point is in target, the partners, and is not the partner itself."""
    def hits(tile, cols):
        member, at = _in_sorted(target, tile)
        return member & (at != cols[:, None])
    return hits


def check_condition1(p1: PointSet, p2: PointSet, p3: PointSet) -> VerifyReport:
    """No zero-sum triple across the product p1 x p2 x p3."""
    t0 = time.perf_counter()
    dim = _check_dims(p1, p2, p3)
    n2, n3 = len(p2), len(p3)
    kernel = _Kernel(p2.ranks, dim, p1.ranks, p3.ranks)
    first = kernel.first_hit(0, len(p1), lambda tile, cols: _in_sorted(p3.ranks, tile)[0]) if n3 else None
    if first is None:
        return _report("condition1", True, None, len(p1) * n2 * n3, t0)
    ix, iy, third = first
    iz = int(np.searchsorted(p3.ranks, third))
    witness = (p1.point(ix), p2.point(iy), p3.point(iz))
    return _report("condition1", False, witness, (ix * n2 + iy) * n3 + iz + 1, t0)


def check_condition2(p1: PointSet, p3: PointSet) -> VerifyReport:
    """No zero sum of a p1 member with an unordered distinct pair from p3."""
    t0 = time.perf_counter()
    dim = _check_dims(p1, p3)
    n3 = len(p3)
    first = _Kernel(p3.ranks, dim, p1.ranks, p3.ranks).first_hit(0, len(p1), _hits_other(p3.ranks))
    if first is None:
        return _report("condition2", True, None, len(p1) * pairs_total(n3), t0)
    # hits come in mirrored pairs, so the first has iy < iz
    ix, iy, third = first
    iz = int(np.searchsorted(p3.ranks, third))
    witness = (p1.point(ix), p3.point(iy), p3.point(iz))
    return _report("condition2", False, witness, ix * pairs_total(n3) + pair_index(n3, iy, iz) + 1, t0)


def check_condition3(p12: PointSet, p3: PointSet) -> VerifyReport:
    """Every cross pair shares a zero coordinate, tested on distinct supports."""
    t0 = time.perf_counter()
    _check_dims(p12, p3)
    zma, zmb = p12.zero_masks(), p3.zero_masks()
    fa, fb = np.unique(zma), np.unique(zmb)
    bad = np.flatnonzero(np.isin(zma, fa[_in_intervals(fa, fb)]))
    if bad.size:
        ix = int(bad[0])
        iy = int(np.flatnonzero((zma[ix] & zmb) == 0)[0])
        witness = (p12.point(ix), p3.point(iy))
        return _report("condition3", False, witness, ix * len(p3) + iy + 1, t0)
    return _report("condition3", True, None, len(p12) * len(p3), t0)


def check_projective_representatives(members: PointSet) -> None:
    """Raise ConstructionError unless the vectors are nonzero and no two are proportional."""
    ranks = members.ranks
    if ranks.size and int(ranks[0]) == 0:
        raise ConstructionError("projective representatives must be nonzero")
    if np.isin(ranks, neg_ranks(ranks, members.dim)).any():
        raise ConstructionError("projective representatives contain a proportional pair")


def is_projective_cap(a) -> VerifyReport:
    """Every distinct triple of representative vectors is independent mod 3.

    Accepts a ProjectiveCap or a plain PointSet of representatives. The type
    invariants (nonzero vectors, no two proportional) are re-checked and their
    violation is an input error, not a failed report.

    With D = A u -A, a triple of representatives is dependent iff some
    a + p + t = 0 with a in A and p, t in D from two other classes: the pairs
    (a, p) whose third point t lies in D. Triples are counted in
    lexicographic (i, j, k) order; the first dependent one starts at the first
    anchor with a hit.
    """
    t0 = time.perf_counter()
    members: PointSet = getattr(a, "members", a)
    check_projective_representatives(members)
    m = len(members)
    both = np.concatenate([members.ranks, neg_ranks(members.ranks, members.dim)])
    order = np.argsort(both)
    target = both[order]
    cls = np.tile(np.arange(m), 2)[order]  # the representative index of each point of D
    kernel = _Kernel(target, members.dim, members.ranks, target)
    hits = _hits_other(target)  # p = -x has third 0, which is not in D
    first = kernel.first_hit(0, m, hits)
    if first is None:
        return _report("projective_cap", True, None, comb(m, 3), t0)
    i = first[0]
    found = []  # the (partner, third) indices into D of every hit of anchor i
    for cols, tile in kernel._block_tiles(i, i + 1):
        p = np.flatnonzero(hits(tile, cols))
        found.append(np.stack([cols[p], np.searchsorted(target, tile[p, 0])]))
    pairs = np.sort(cls[np.concatenate(found, axis=1)], axis=0)
    j, k = (int(c) for c in pairs[:, np.argmin(pairs[0] * m + pairs[1])])
    count = comb(m, 3) - comb(m - i, 3) + pair_index(m - i - 1, j - i - 1, k - i - 1) + 1
    witness = (members.point(i), members.point(j), members.point(k))
    return _report("projective_cap", False, witness, count, t0)
