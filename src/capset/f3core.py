"""Point algebra over F_3^n.

Points are tuples of trits (0, 1, 2) with coordinate 1 leftmost. Each point
of dimension n has a rank: its base-3 value with coordinate 1 as the most
significant digit. Ranks index dense bitmaps over the whole space, which is
what makes the large exhaustive verifications affordable.

_digit_groups splits a rank into base-3 digit groups of width at most 8: the
sweep's pair kernel and zero_masks (one table lookup per group) share it.
"""
from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CapacityError,
    DegenerateInputError,
    DimensionError,
    InvalidPointError,
    RankRangeError,
)

Point = tuple[int, ...]

# Dense bitmaps are capped at 3^20 bits (~416 MB); beyond that only the
# scalar and streaming paths apply.
MAX_BITMAP_DIM = 20

# 3^39 is the last power below the int64 rank ceiling: no set goes above it.
MAX_RANK_DIM = 39
POW3 = tuple(3**i for i in range(MAX_RANK_DIM + 1))

_BIT8 = (1 << np.arange(8, dtype=np.uint8)).astype(np.uint8)

# Bitmap bytes per step of SpaceBitmap.missing_ranks (2^19 ranks), which
# bounds the memory of a completeness scan at any dimension, and per step of
# the sweep parent's packing of the shared byte scratch of coverage.
SCAN_BLOCK_BYTES = 1 << 16


def _check_point(p: Point) -> None:
    if not isinstance(p, tuple) or len(p) == 0:
        raise InvalidPointError(f"point must be a nonempty tuple, got {p!r}")
    for c in p:
        if c not in (0, 1, 2):
            raise InvalidPointError(f"coordinate {c!r} is not a trit in {p!r}")


def _check_same_dim(*points: Point) -> None:
    dims = {len(p) for p in points}
    if len(dims) != 1:
        raise DimensionError(f"points of mixed dimensions {sorted(dims)}")


def rank(p: Point) -> int:
    """Base-3 value of a point, coordinate 1 most significant."""
    _check_point(p)
    r = 0
    for c in p:
        r = r * 3 + c
    return r


def unrank(r: int, dim: int) -> Point:
    """Inverse of rank for the given dimension."""
    if not 1 <= dim <= MAX_RANK_DIM:
        raise DimensionError(f"dimension must be in 1..{MAX_RANK_DIM}, got {dim}")
    if not 0 <= r < POW3[dim]:
        raise RankRangeError(f"rank {r} out of range for dimension {dim}")
    coords = []
    for i in range(dim - 1, -1, -1):
        coords.append((r // POW3[i]) % 3)
    return tuple(coords)


def add_mod3(p: Point, q: Point) -> Point:
    """Coordinatewise sum mod 3."""
    _check_point(p)
    _check_point(q)
    _check_same_dim(p, q)
    return tuple((a + b) % 3 for a, b in zip(p, q))


def third_point(p: Point, q: Point) -> Point:
    """The unique point t with p + q + t = 0 mod 3; never equals p or q."""
    _check_point(p)
    _check_point(q)
    _check_same_dim(p, q)
    if p == q:
        raise DegenerateInputError(f"third_point needs distinct points, got {p} twice")
    return tuple((-(a + b)) % 3 for a, b in zip(p, q))


def collinear(p: Point, q: Point, r: Point) -> bool:
    """True iff the three distinct points sum to zero coordinatewise."""
    _check_point(p)
    _check_point(q)
    _check_point(r)
    _check_same_dim(p, q, r)
    if p == q or p == r or q == r:
        raise DegenerateInputError("collinear needs three distinct points")
    return all((a + b + c) % 3 == 0 for a, b, c in zip(p, q, r))


def scalar_zero_sum(x: int, y: int, z: int) -> bool:
    """True iff x + y + z = 0 mod 3 for single trits.

    Equivalently: the three trits are all equal or pairwise distinct.
    """
    for c in (x, y, z):
        if c not in (0, 1, 2):
            raise InvalidPointError(f"trit expected, got {c!r}")
    return (x + y + z) % 3 == 0


def zero_support(p: Point) -> frozenset[int]:
    """The 1-based indices of the zero coordinates of p."""
    _check_point(p)
    return frozenset(i for i, c in enumerate(p, 1) if c == 0)


def support_class(p: Point) -> "PointSet":
    """All points sharing p's zero support, nonzero slots ranging over {1, 2}."""
    _check_point(p)
    mask = sum(1 << i for i, c in enumerate(p) if c == 0)
    return PointSet(len(p), _class_ranks(mask, len(p), 1 << (len(p) - mask.bit_count())), _trusted=True)


def _class_ranks(mask: int, dim: int, count: int) -> np.ndarray:
    """The first count ranks, ascending, of the points whose zero mask is mask.

    The j-th has 2 on the nonzero places (least significant first) that the
    bits of j name, and 1 on the others.
    """
    free = [POW3[k] for k in range(dim) if not mask >> (dim - 1 - k) & 1]
    j = np.arange(count, dtype=np.int64)
    return sum(((1 + (j >> b & 1)) * place for b, place in enumerate(free)), np.zeros(count, np.int64))


def mirror_point(p: Point) -> Point:
    """The point with the coordinate sequence reversed."""
    _check_point(p)
    return tuple(reversed(p))


def ranks_from_coords(coords: np.ndarray) -> np.ndarray:
    """Vector codec: (m, dim) trit matrix to int64 ranks."""
    coords = np.asarray(coords)
    dim = coords.shape[1]
    weights = np.array([POW3[dim - 1 - i] for i in range(dim)], dtype=np.int64)
    return coords.astype(np.int64) @ weights


def coords_from_ranks(ranks: np.ndarray | Sequence[int], dim: int) -> np.ndarray:
    """Vector codec: int64 ranks to (m, dim) uint8 trit matrix."""
    ranks = np.asarray(ranks, dtype=np.int64)
    out = np.empty((ranks.shape[0], dim), dtype=np.uint8)
    for i in range(dim):
        out[:, i] = (ranks // POW3[dim - 1 - i]) % 3
    return out


def neg_ranks(ranks: np.ndarray | Sequence[int], dim: int) -> np.ndarray:
    """Ranks of the pointwise negations (trits 1 and 2 swapped)."""
    coords = coords_from_ranks(ranks, dim)
    return ranks_from_coords((3 - coords.astype(np.int64)) % 3)


def _digit_groups(dim: int) -> list[tuple[int, int]]:
    """(shift, width) of the fewest base-3 digit groups of width at most 8.

    Wider groups are more significant (dimension 15 splits 8 + 7); a group's
    value is rank // 3^shift % 3^width.
    """
    count = -(-dim // 8)
    widths = [dim // count + (g < dim % count) for g in range(count)]
    return [(sum(widths[g + 1 :]), width) for g, width in enumerate(widths)]


@functools.cache
def _zero_mask_tables(dim: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """(3^shift, 3^width, zero bits of each group value in place) per digit group; read-only."""
    tables = []
    for shift, width in _digit_groups(dim):
        values = np.arange(POW3[width], dtype=np.int64)
        # the digit of place value 3^(shift + i) is coordinate dim - shift - i
        table = sum((values // POW3[i] % 3 == 0) << np.int64(dim - 1 - shift - i) for i in range(width))
        table.flags.writeable = False
        tables.append((POW3[shift], POW3[width], table))
    return tuple(tables)


def zero_masks(ranks: np.ndarray | Sequence[int], dim: int) -> np.ndarray:
    """Per-rank bitmask of zero coordinates, bit j set iff coordinate j+1 is 0.

    The OR of one table gather per digit group, in O(len(ranks)) int64 memory.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    masks = np.zeros(ranks.shape, dtype=np.int64)
    for place, size, table in _zero_mask_tables(dim):
        masks |= table[ranks // place % size]
    return masks


class SpaceBitmap:
    """Dense bit array over all 3^dim ranks, packed little-endian per byte."""

    __slots__ = ("dim", "nbits", "buf")

    def __init__(self, dim: int, buf: np.ndarray | None = None):
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        if dim > MAX_BITMAP_DIM:
            raise CapacityError(
                f"dimension {dim} exceeds bitmap capacity {MAX_BITMAP_DIM}"
            )
        self.dim = dim
        self.nbits = POW3[dim]
        nbytes = (self.nbits + 7) // 8
        if buf is None:
            buf = np.zeros(nbytes, dtype=np.uint8)
        else:
            buf = np.asarray(buf, dtype=np.uint8)
            if buf.shape != (nbytes,):
                raise CapacityError(
                    f"bitmap buffer has {buf.shape[0]} bytes, expected {nbytes}"
                )
        self.buf = buf

    @classmethod
    def from_ranks(cls, ranks: np.ndarray | Sequence[int], dim: int) -> "SpaceBitmap":
        bm = cls(dim)
        bm.set_ranks(ranks)
        return bm

    def set_ranks(self, ranks: np.ndarray | Sequence[int]) -> None:
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return
        if ranks.min() < 0 or ranks.max() >= self.nbits:
            raise RankRangeError("rank out of range for bitmap")
        idx, bits = ranks >> 3, _BIT8[ranks & 7]
        # a buffered scatter: of several ranks in one byte only the last write
        # lands, so the bits it dropped are set again one by one
        self.buf[idx] |= bits
        lost = (self.buf[idx] & bits) == 0
        if lost.any():
            np.bitwise_or.at(self.buf, idx[lost], bits[lost])

    def test(self, r: int) -> bool:
        if not 0 <= r < self.nbits:
            raise RankRangeError(f"rank {r} out of range for bitmap")
        return bool(self.buf[r >> 3] & (1 << (r & 7)))

    def count(self) -> int:
        return int(np.bitwise_count(self.buf).sum())

    def missing_ranks(self) -> Iterator[np.ndarray]:
        """Ascending arrays of the clear ranks, one per SCAN_BLOCK_BYTES block that has any."""
        for lo in range(0, self.buf.size, SCAN_BLOCK_BYTES):
            block = self.buf[lo : lo + SCAN_BLOCK_BYTES]
            if (block == 0xFF).all():
                continue
            ranks = np.flatnonzero(np.unpackbits(~block, bitorder="little")) + lo * 8
            ranks = ranks[ranks < self.nbits]  # the padding bits of the last byte
            if ranks.size:
                yield ranks

    def first_missing(self) -> int | None:
        """The smallest rank whose bit is clear, or None if all bits are set."""
        return next((int(ranks[0]) for ranks in self.missing_ranks()), None)

    def tobytes(self) -> bytes:
        return self.buf.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpaceBitmap):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.buf, other.buf))

    def __repr__(self) -> str:
        return f"SpaceBitmap(dim={self.dim}, count={self.count()})"


class PointSet:
    """Immutable, duplicate-free, rank-ordered set of points of one dimension."""

    __slots__ = ("dim", "_ranks", "_coords", "_bitmap")

    def __init__(self, dim: int, ranks: np.ndarray | Sequence[int], _trusted: bool = False):
        if not 1 <= dim <= MAX_RANK_DIM:
            raise DimensionError(f"dimension must be in 1..{MAX_RANK_DIM}, got {dim}")
        ranks = np.asarray(ranks, dtype=np.int64)
        if not _trusted:
            if ranks.size:
                if ranks.min() < 0 or ranks.max() >= POW3[dim]:
                    raise RankRangeError(f"rank out of range for dimension {dim}")
            ranks = np.unique(ranks)
        ranks = ranks.copy()
        ranks.flags.writeable = False
        self.dim = dim
        self._ranks = ranks
        self._coords: np.ndarray | None = None
        self._bitmap: SpaceBitmap | None = None

    @classmethod
    def from_points(cls, points: Iterable[Point], dim: int | None = None) -> "PointSet":
        pts = list(points)
        for p in pts:
            _check_point(p)
        if pts:
            dims = {len(p) for p in pts}
            if len(dims) != 1:
                raise DimensionError(f"points of mixed dimensions {sorted(dims)}")
            found = dims.pop()
            if dim is not None and dim != found:
                raise DimensionError(f"points have dimension {found}, expected {dim}")
            dim = found
        elif dim is None:
            raise DimensionError("dimension required for an empty point set")
        return cls(dim, [rank(p) for p in pts])

    @classmethod
    def from_ranks(cls, ranks: np.ndarray | Sequence[int], dim: int) -> "PointSet":
        return cls(dim, ranks)

    @classmethod
    def empty(cls, dim: int) -> "PointSet":
        return cls(dim, np.empty(0, dtype=np.int64))

    @property
    def ranks(self) -> np.ndarray:
        return self._ranks

    def coords(self) -> np.ndarray:
        """The (size, dim) trit matrix in rank order; cached and read-only."""
        if self._coords is None:
            c = coords_from_ranks(self._ranks, self.dim)
            c.flags.writeable = False
            self._coords = c
        return self._coords

    def zero_masks(self) -> np.ndarray:
        """Per-member zero-coordinate bitmasks in rank order."""
        return zero_masks(self._ranks, self.dim)

    def bitmap(self) -> SpaceBitmap:
        """Membership bitmap over the whole space; cached."""
        if self._bitmap is None:
            self._bitmap = SpaceBitmap.from_ranks(self._ranks, self.dim)
        return self._bitmap

    def has_rank(self, r: int) -> bool:
        i = int(np.searchsorted(self._ranks, r))
        return i < self._ranks.size and int(self._ranks[i]) == r

    def point(self, i: int) -> Point:
        return unrank(int(self._ranks[i]), self.dim)

    def points(self) -> list[Point]:
        return [tuple(row) for row in self.coords().tolist()]

    def __len__(self) -> int:
        return int(self._ranks.size)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points())

    def __contains__(self, p: Point) -> bool:
        _check_point(p)
        if len(p) != self.dim:
            return False
        return self.has_rank(rank(p))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self._ranks, other._ranks))

    def __hash__(self) -> int:
        return hash((self.dim, self._ranks.tobytes()))

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim}, size={len(self)})"
