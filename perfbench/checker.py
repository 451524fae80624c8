"""Independent checks of what the capset CLI prints and writes.

The checks never call the sweep, the verifiers or the constructions. They
compare each verdict with how the benchmark built the input, re-check cap
witnesses with ``capset.collinear`` and a membership test, and recompute the
two witnesses that must be canonical from the input points alone:

- the cap witness of a cap plus one external point, from the triples that
  pass through that point (O(m));
- the completeness witness, as the smallest rank that is neither a member
  nor the third point of a pair of members, enumerating only the pairs
  whose third point can have that many leading zeros.

Every check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import hashlib
import re

import numpy as np

from capset import collinear

_HEADER = re.compile(rb"^capset/1 n=([0-9]+) size=([0-9]+)$")


def pow3(dim: int) -> np.ndarray:
    """Place values of the trits, coordinate 1 most significant."""
    return 3 ** np.arange(dim - 1, -1, -1, dtype=np.int64)


def to_ranks(coords: np.ndarray) -> np.ndarray:
    return coords.astype(np.int64) @ pow3(coords.shape[-1])


def to_coords(ranks, dim: int) -> np.ndarray:
    ranks = np.asarray(ranks, dtype=np.int64)
    return ((ranks[..., None] // pow3(dim)) % 3).astype(np.int8)


def trits(rank: int, dim: int) -> str:
    return "".join(str(int(c)) for c in to_coords(np.array([rank]), dim)[0])


class Members:
    """A sorted set of ranks with vectorised membership and third points."""

    def __init__(self, ranks, dim: int):
        self.dim = dim
        self.ranks = np.unique(np.asarray(ranks, dtype=np.int64))
        self.coords = to_coords(self.ranks, dim)

    def __len__(self) -> int:
        return int(self.ranks.size)

    def contains(self, ranks) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.int64)
        idx = np.minimum(np.searchsorted(self.ranks, ranks), self.ranks.size - 1)
        return self.ranks[idx] == ranks

    def thirds(self, coords: np.ndarray) -> np.ndarray:
        """Ranks of -(c + y) for each given point c and every member y."""
        return to_ranks((-(coords[:, None, :] + self.coords[None, :, :])) % 3)


def parse_capset(data: bytes) -> tuple[int, np.ndarray]:
    """(dim, ranks) of a capset/1 file, parsed without the package's reader."""
    head, _, body = data.partition(b"\n")
    m = _HEADER.match(head)
    if m is None:
        raise ValueError(f"bad header {head[:60]!r}")
    dim, size = int(m.group(1)), int(m.group(2))
    rows = np.frombuffer(body, dtype=np.uint8).reshape(size, dim + 1)
    if not (rows[:, dim] == ord("\n")).all():
        raise ValueError("point lines are not newline-terminated")
    digits = rows[:, :dim].astype(np.int64) - ord("0")
    if ((digits < 0) | (digits > 2)).any():
        raise ValueError("points use characters other than 0, 1, 2")
    return dim, to_ranks(digits)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def first_uncovered(members: Members) -> int:
    """The smallest rank that is not a member and not the third point of a pair.

    Ranks below 3^j are the points whose first dim - j coordinates are zero.
    Such a point is the third point of (y, z) only if z's first dim - j
    coordinates are the negation of y's, so for j = 1, 2, ... only pairs
    from matching prefix groups are enumerated, until a rank below 3^j is
    left uncovered.
    """
    dim = members.dim
    for j in range(1, dim + 1):
        k, span = dim - j, 3**j
        prefix, suffix = np.divmod(members.ranks, span)  # prefixes ascend with the ranks
        uniq, start, count = np.unique(prefix, return_index=True, return_counts=True)
        partner = to_ranks((-to_coords(uniq, k)) % 3) if k else np.zeros_like(uniq)
        pos = np.minimum(np.searchsorted(uniq, partner), uniq.size - 1)
        covered = np.zeros(span, dtype=bool)
        for a in np.flatnonzero((uniq[pos] == partner) & (uniq <= partner)):
            b = pos[a]
            ys = to_coords(suffix[start[a] : start[a] + count[a]], j)
            zs = to_coords(suffix[start[b] : start[b] + count[b]], j)
            covered[to_ranks((-(ys[:, None, :] + zs[None, :, :])) % 3).ravel()] = True
        covered[suffix[prefix == 0]] = True  # members below 3^j
        if not covered.all():
            return int(np.flatnonzero(~covered)[0])
    raise ValueError("the set is complete")


def defect_witness(members: Members, extra: int) -> tuple[tuple[str, str, str], int]:
    """Canonical cap witness of a cap plus the external point ``extra``.

    Every collinear triple of such a set passes through ``extra``. The sweep
    reports the triple whose first two indices (in rank order) come first,
    as (first, second, third point). Returns that triple and the number of
    triples through ``extra``.
    """
    ix = int(np.searchsorted(members.ranks, extra))
    z = members.thirds(to_coords(np.array([extra]), members.dim))[0]
    hit = members.contains(z)
    hit[ix] = False
    if not hit.any():
        raise ValueError("no collinear triple passes through the extra point")
    iy = np.flatnonzero(hit)
    iz = np.searchsorted(members.ranks, z[iy])
    triples = np.sort(np.stack([np.full_like(iy, ix), iy, iz], axis=1), axis=1)
    a, b, c = min(map(tuple, triples.tolist()))
    witness = tuple(trits(int(members.ranks[k]), members.dim) for k in (a, b, c))
    return witness, int(iy.size // 2)


def cap_witness_problems(members: Members, witness) -> list[str]:
    """A cap witness must be three distinct members on one line."""
    if not witness or len(witness) != 3:
        return [f"cap witness {witness!r} is not a triple"]
    pts = [tuple(int(ch) for ch in w) for w in witness]
    if len(set(pts)) != 3 or any(len(p) != members.dim for p in pts):
        return [f"cap witness {witness!r} is not three distinct points of dim {members.dim}"]
    out = []
    ranks = to_ranks(np.array(pts))
    if not members.contains(ranks).all():
        out.append(f"cap witness {witness!r} names a non-member")
    if not collinear(*pts):
        out.append(f"cap witness {witness!r} is not collinear")
    return out


def check_verify_report(
    report: dict,
    members: Members,
    workers: int,
    defect: tuple[str, str, str] | None,
    uncovered: int | None,
) -> list[str]:
    """Check a ``verify --cap --complete --report-json`` document.

    ``defect`` is the canonical cap witness when the input was built as a cap
    plus one point, else None (the input is a cap). ``uncovered`` is the
    expected completeness witness of a cap, as a rank.
    """
    checks = {c["check"]: c for c in report.get("checks", [])}
    if set(checks) != {"cap", "complete"}:
        return [f"report has checks {sorted(checks)}, expected cap and complete"]
    cap, comp = checks["cap"], checks["complete"]
    out = []
    m = len(members)
    if report.get("size") != m or report.get("dim") != members.dim:
        out.append(f"report describes dim {report.get('dim')} size {report.get('size')}")
    if cap["workers"] != workers:
        out.append(f"cap ran on {cap['workers']} workers, asked for {workers}")
    if defect is None:
        # A cap verdict is proven only by examining every pair.
        if cap["pairs_examined"] != m * (m - 1) // 2:
            out.append(f"cap passed after {cap['pairs_examined']} of {m * (m - 1) // 2} pairs")
        if cap["passed"] is not True or cap["witness"] is not None:
            out.append(f"cap verdict {cap['passed']} {cap['witness']} on a subset of a cap")
        want = (trits(uncovered, members.dim),)
        if comp["passed"] is not False:
            out.append("complete verdict passed on a set with an uncovered point")
        elif tuple(comp["witness"] or ()) != want:
            out.append(f"completeness witness {comp['witness']} != canonical {list(want)}")
        if report.get("passed") is not False:
            out.append("overall result passed although completeness failed")
        return out
    if cap["passed"] is not False:
        return out + ["cap verdict passed on a set built with a collinear triple"]
    problems = cap_witness_problems(members, cap["witness"])
    if problems:
        return out + problems
    if tuple(cap["witness"]) != defect:
        out.append(f"cap witness {cap['witness']} is valid but not canonical {list(defect)}")
    if comp["passed"] is not False or comp["witness"] is not None:
        out.append("completeness reported on a set that is not a cap")
    return out
