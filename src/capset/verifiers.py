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
bitmap.
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
    coords_from_ranks,
    neg_ranks,
    support_class,
    unrank,
    zero_masks,
)
from .sweep import _Kernel, SweepTask, pair_index, pairs_total, resolve_threads, run_sweep

NAIVE_SIZE_LIMIT = 512


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


def _sorted_cap_scan(s: PointSet) -> tuple[tuple[int, int, int] | None, int]:
    """First pair in canonical order whose third point is a member.

    Membership is a binary search in the sorted ranks, so this works at every
    dimension. Returns the member indices (i, j, third) and the pairs examined.
    """
    m = len(s)
    kernel = _Kernel(s.ranks, s.dim)
    for i in range(m - 1):
        js, ks = kernel.hits(s.ranks[i], s.ranks, i + 1)
        if js.size:
            j = int(js[0])
            return (i, j, int(ks[0])), pair_index(m, i, j) + 1
    return None, pairs_total(m)


def is_cap(
    s: PointSet,
    mode: str = "auto",
    threads: int | None = None,
    progress: bool = False,
) -> VerifyReport:
    """No three distinct members sum to zero coordinatewise.

    "auto" runs the triple-scan oracle on sets of at most NAIVE_SIZE_LIMIT
    points and the pair sweep on larger ones; above MAX_BITMAP_DIM the pair
    scan tests membership by binary search in the sorted ranks instead of a
    bitmap, on one worker.
    """
    t0 = time.perf_counter()
    if mode == "auto":
        mode = "naive" if len(s) <= NAIVE_SIZE_LIMIT else "fast"
    if mode not in ("naive", "fast"):
        raise ValueError(f"unknown is_cap mode {mode!r}")
    if mode == "naive" or s.dim > MAX_BITMAP_DIM:
        hit, count = _naive_cap_scan(s.coords()) if mode == "naive" else _sorted_cap_scan(s)
        witness = tuple(s.point(i) for i in hit) if hit is not None else None
        return _report("cap", hit is None, witness, count, t0)
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
    """Cap and completeness reports from one shared coverage sweep.

    When the cap check fails, completeness is undefined and None is returned
    in its place.
    """
    t0 = time.perf_counter()
    workers = resolve_threads(threads)
    outcome = run_sweep(
        SweepTask(points=s, mode="coverage", threads=threads, progress=progress)
    )
    if outcome.violation is not None:
        witness = tuple(unrank(r, s.dim) for r in outcome.violation)
        return _report("cap", False, witness, outcome.pairs_examined, t0, workers), None
    cap_rep = _report("cap", True, None, outcome.pairs_examined, t0, workers)
    comp_rep = coverage_complete(s, outcome.coverage, outcome.pairs_examined, t0, workers)
    return cap_rep, comp_rep


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
    """Every two distinct members share a zero coordinate."""
    t0 = time.perf_counter()
    zm = s.zero_masks()
    m = len(s)
    count = 0
    for i in range(m - 1):
        bad = (zm[i] & zm[i + 1 :]) == 0
        if bad.any():
            j = i + 1 + int(np.flatnonzero(bad)[0])
            count += j - i
            return _report(
                "pset_pair_condition", False, (s.point(i), s.point(j)), count, t0
            )
        count += m - 1 - i
    return _report("pset_pair_condition", True, None, count, t0)


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
    zeros = (s.coords() == 0).sum(axis=1)
    bad = np.flatnonzero(zeros % 2 == 0)
    if bad.size:
        i = int(bad[0])
        return _report("odd_pset", False, (s.point(i),), i + 1, t0)
    return _report("odd_pset", True, None, len(s), t0)


def is_b_saturated(s: PointSet) -> VerifyReport:
    """The full support class of every member lies inside the set."""
    t0 = time.perf_counter()
    m = len(s)
    if m == 0:
        return _report("b_saturated", True, None, 0, t0)
    zm = s.zero_masks()
    zeros = (s.coords() == 0).sum(axis=1).astype(np.int64)
    expected = np.int64(1) << (s.dim - zeros)
    _, inverse, counts = np.unique(zm, return_inverse=True, return_counts=True)
    bad = np.flatnonzero(counts[inverse] != expected)
    if bad.size:
        i = int(bad[0])
        member = s.point(i)
        for q in support_class(member):
            if q not in s:
                return _report("b_saturated", False, (q,), i + 1, t0)
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
    zm = s.zero_masks()
    step = max(64, (1 << 21) // max(len(s), 1))
    for block in _uncovered_outside(s, coverage):
        for lo in range(0, block.size, step):
            cand = block[lo : lo + step]
            cand_zm = zero_masks(coords_from_ranks(cand, s.dim))
            hits = np.flatnonzero(((cand_zm[:, None] & zm[None, :]) != 0).all(axis=1))
            if hits.size:
                r = int(cand[hits[0]])
                count = r - int(np.searchsorted(s.ranks, r)) + 1
                return _report("complete_pset", False, (unrank(r, s.dim),), count, t0)
    return _report("complete_pset", True, None, POW3[s.dim] - len(s), t0)


_INTERVAL_BLOCK = 1 << 22  # candidate x interval tests per vectorised step


def _outside_intervals(cand: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The masks of cand lying in no subset-lattice interval [lo[k], hi[k]]."""
    step = max(1, _INTERVAL_BLOCK // max(lo.size, 1))
    keep = np.ones(cand.size, dtype=bool)
    for k in range(0, cand.size, step):
        c = cand[k : k + step, None]
        keep[k : k + step] = ~(((c & lo) == lo) & ((c & ~hi) == 0)).any(axis=1)
    return cand[keep]


def _extension_supports(family: np.ndarray, dim: int) -> tuple[np.ndarray, int]:
    """Zero supports outside the family whose class extends the saturated P-set.

    A support T fails (i) iff its complement contains some A of the family,
    and is excluded by (ii) with A = B iff T contains some A: both are lookups
    in the upward closure of the family. The pairs A != B exclude the
    intervals [A & B, complement of A ^ B]. Returns the surviving supports and
    the number of candidate supports examined.
    """
    full = (1 << dim) - 1
    up = np.zeros(1 << dim, dtype=bool)
    up[family] = True
    for b in range(dim):
        halves = up.reshape(-1, 2, 1 << b)
        halves[:, 1, :] |= halves[:, 0, :]
    cand = np.flatnonzero(~up & ~up[::-1]).astype(np.int64)
    rows = max(1, (1 << 16) // max(family.size, 1))
    for k in range(0, family.size, rows):
        if cand.size == 0:
            break
        a = family[k : k + rows, None]
        pairs = a != family
        lo = (a & family)[pairs]
        hi = (~(a ^ family) & full)[pairs]
        cand = _outside_intervals(cand, lo, hi)
    return cand, (1 << dim) - int(family.size)


def pset_characterization(s: PointSet) -> VerifyReport:
    """Zero-support conditions characterizing complete b-saturated P-sets.

    Checked in order, each failure returning its witness:

    1. pairs: every two members share a zero coordinate (witness: the pair);
    2. triples: all three zero supports are equal, or some pair of the triple
       shares a zero index at which the remaining point is nonzero (witness:
       the triple);
    3. b-saturation: the set holds the whole support class of each member
       (witness: a missing point);
    4. maximality, on the family F of zero supports of the members: every
       support T outside F fails (i) or (ii), where
       (i)  T meets every A in F, and
       (ii) no A, B in F (A = B allowed) have A & B <= T <= complement(A ^ B);
       for A = B this reads A <= T (witness: the lowest-rank extension point,
       zeros on T and 1 elsewhere).

    Conditions (i) and (ii) are derived here, not quoted from the paper: each
    coordinate of a line x + y + z = 0 holds 0, 1 or 3 zeros, never exactly
    2, so for a saturated P-set a point with support T outside F extends it
    iff (i) holds (the pair condition) and (ii) holds (no line through two
    members). Step 4 works on the 2^n supports and the F x F pairs only (an
    upward closure over the subset lattice, then interval tests of the
    surviving supports against the pairs A != B); it never enumerates the 3^n
    points.
    Dimensions above MAX_BITMAP_DIM raise CapacityError.
    """
    t0 = time.perf_counter()
    if s.dim > MAX_BITMAP_DIM:
        raise CapacityError(
            f"dimension {s.dim} exceeds bitmap capacity {MAX_BITMAP_DIM}"
        )
    pair_rep = pset_pair_condition(s)
    count = pair_rep.pairs_examined
    if not pair_rep.passed:
        return _report("characterization", False, pair_rep.witness, count, t0)
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
                k = j + 1 + int(bad[0])
                count += k - j
                witness = (s.point(i), s.point(j), s.point(k))
                return _report("characterization", False, witness, count, t0)
            count += m - 1 - j
    sat_rep = is_b_saturated(s)
    count += sat_rep.pairs_examined
    if not sat_rep.passed:
        return _report("characterization", False, sat_rep.witness, count, t0)
    extending, examined = _extension_supports(np.unique(zm), s.dim)
    count += examined
    if extending.size:
        # the lowest rank in class T has 1 on every coordinate outside T
        weights = np.array(POW3[: s.dim][::-1], dtype=np.int64)
        ranks = ((~extending[:, None] >> np.arange(s.dim)) & 1) @ weights
        witness = (unrank(int(ranks.min()), s.dim),)
        return _report("characterization", False, witness, count, t0)
    return _report("characterization", True, None, count, t0)


def _check_dims(*sets: PointSet) -> int:
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise DimensionError(f"point sets of mixed dimensions {sorted(dims)}")
    return dims.pop()


def check_condition1(p1: PointSet, p2: PointSet, p3: PointSet) -> VerifyReport:
    """No zero-sum triple across the product p1 x p2 x p3."""
    t0 = time.perf_counter()
    dim = _check_dims(p1, p2, p3)
    n2, n3 = len(p2), len(p3)
    kernel = _Kernel(p2.ranks, dim)
    for ix, x in enumerate(p1.ranks):
        iy, iz = kernel.hits(x, p3.ranks)
        if iy.size:
            iy, iz = int(iy[0]), int(iz[0])
            count = (ix * n2 + iy) * n3 + iz + 1
            witness = (p1.point(ix), p2.point(iy), p3.point(iz))
            return _report("condition1", False, witness, count, t0)
    return _report("condition1", True, None, len(p1) * n2 * n3, t0)


def check_condition2(p1: PointSet, p3: PointSet) -> VerifyReport:
    """No zero sum of a p1 member with an unordered distinct pair from p3."""
    t0 = time.perf_counter()
    dim = _check_dims(p1, p3)
    n3 = len(p3)
    per_x = pairs_total(n3)
    kernel = _Kernel(p3.ranks, dim)
    for ix, x in enumerate(p1.ranks):
        iy, iz = kernel.hits(x, p3.ranks)
        # A partner equal to its third is x itself, paired with itself. The
        # other hits come in mirrored pairs, so the first has iy < iz.
        distinct = np.flatnonzero(iy != iz)
        if distinct.size:
            iy, iz = int(iy[distinct[0]]), int(iz[distinct[0]])
            count = ix * per_x + pair_index(n3, iy, iz) + 1
            witness = (p1.point(ix), p3.point(iy), p3.point(iz))
            return _report("condition2", False, witness, count, t0)
    return _report("condition2", True, None, len(p1) * per_x, t0)


def check_condition3(p12: PointSet, p3: PointSet) -> VerifyReport:
    """Every cross pair shares a zero coordinate."""
    t0 = time.perf_counter()
    _check_dims(p12, p3)
    zma = p12.zero_masks()
    zmb = p3.zero_masks()
    nb = len(p3)
    count = 0
    for ix in range(len(p12)):
        bad = (zma[ix] & zmb) == 0
        if bad.any():
            iy = int(np.flatnonzero(bad)[0])
            count += iy + 1
            witness = (p12.point(ix), p3.point(iy))
            return _report("condition3", False, witness, count, t0)
        count += nb
    return _report("condition3", True, None, count, t0)


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
    kernel = _Kernel(target, members.dim)
    for i, x in enumerate(members.ranks):
        ip, it = kernel.hits(x, target)
        # p = x is its own third; p = -x has third 0, which is not in D
        keep = ip != it
        if keep.any():
            pairs = np.sort(np.stack([cls[ip[keep]], cls[it[keep]]]), axis=0)
            j, k = (int(c) for c in pairs[:, np.argmin(pairs[0] * m + pairs[1])])
            count = comb(m, 3) - comb(m - i, 3) + pair_index(m - i - 1, j - i - 1, k - i - 1) + 1
            witness = (members.point(i), members.point(j), members.point(k))
            return _report("projective_cap", False, witness, count, t0)
    return _report("projective_cap", True, None, comb(m, 3), t0)
