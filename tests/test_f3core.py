"""Point algebra: codecs, mod-3 arithmetic, zero supports, sets, bitmaps."""
import itertools
import random

import numpy as np
import pytest

from capset.errors import (
    DegenerateInputError,
    DimensionError,
    InvalidPointError,
    RankRangeError,
)
from capset.f3core import (
    MAX_BITMAP_DIM,
    MAX_RANK_DIM,
    POW3,
    SCAN_BLOCK_BYTES,
    PointSet,
    SpaceBitmap,
    add_mod3,
    collinear,
    coords_from_ranks,
    mirror_point,
    neg_ranks,
    rank,
    ranks_from_coords,
    scalar_zero_sum,
    support_class,
    third_point,
    unrank,
    zero_masks,
    zero_support,
)


def all_points(n):
    return [tuple(t) for t in itertools.product((0, 1, 2), repeat=n)]


# --- rank / unrank -----------------------------------------------------------


def test_rank_examples():
    assert rank((0, 0)) == 0
    assert rank((0, 1)) == 1
    assert rank((1, 0, 0)) == 9


def test_unrank_examples():
    assert unrank(0, 2) == (0, 0)
    assert unrank(5, 2) == (1, 2)
    assert unrank(26, 3) == (2, 2, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_codec_bijection_exhaustive(n):
    for r, p in enumerate(all_points(n)):
        assert rank(p) == r
        assert unrank(r, n) == p


def test_codec_bijection_sampled_dim15():
    rng = random.Random(0x13C0DE)
    for _ in range(500):
        r = rng.randrange(POW3[15])
        assert rank(unrank(r, 15)) == r


def test_unrank_range_errors():
    with pytest.raises(RankRangeError):
        unrank(-1, 3)
    with pytest.raises(RankRangeError):
        unrank(27, 3)


def test_rank_rejects_bad_trits():
    with pytest.raises(InvalidPointError):
        rank((0, 3))
    with pytest.raises(InvalidPointError):
        rank((-1,))


# --- arithmetic --------------------------------------------------------------


def test_add_mod3_examples():
    assert add_mod3((0, 1), (0, 2)) == (0, 0)
    assert add_mod3((1, 1), (2, 2)) == (0, 0)
    assert add_mod3((1, 2, 0), (1, 2, 0)) == (2, 1, 0)


def test_add_mod3_dimension_mismatch():
    with pytest.raises(DimensionError):
        add_mod3((0, 1), (0, 1, 2))


def test_triple_sum_identity():
    rng = random.Random(0x3333)
    for _ in range(200):
        n = rng.randint(1, 12)
        p = tuple(rng.randrange(3) for _ in range(n))
        assert add_mod3(add_mod3(p, p), p) == (0,) * n


def test_third_point_examples():
    assert third_point((0, 1), (0, 2)) == (0, 0)
    assert third_point((1, 0), (2, 0)) == (0, 0)
    assert third_point((1, 1), (1, 2)) == (1, 0)


def test_third_point_distinct_from_pair_exhaustive():
    for n in (1, 2, 3):
        pts = all_points(n)
        for p, q in itertools.combinations(pts, 2):
            t = third_point(p, q)
            assert t != p and t != q
            assert collinear(p, q, t)


def test_third_point_degenerate():
    with pytest.raises(DegenerateInputError):
        third_point((1, 2), (1, 2))


def test_collinear_examples():
    assert collinear((0, 1), (0, 2), (0, 0))
    assert collinear((0, 1), (1, 0), (2, 2))
    assert not collinear((1, 1), (1, 2), (2, 1))


def test_collinear_degenerate():
    with pytest.raises(DegenerateInputError):
        collinear((1, 1), (1, 1), (0, 0))


def test_scalar_zero_sum_matches_equal_or_distinct():
    for x, y, z in itertools.product((0, 1, 2), repeat=3):
        expected = (x == y == z) or (x != y and y != z and x != z)
        assert scalar_zero_sum(x, y, z) == expected
        assert scalar_zero_sum(x, y, z) == ((x + y + z) % 3 == 0)


# --- zero support ------------------------------------------------------------


def test_zero_support_examples():
    assert zero_support((0, 0, 1)) == frozenset({1, 2})
    assert zero_support((1, 2)) == frozenset()
    assert zero_support((0, 0, 0)) == frozenset({1, 2, 3})


def test_support_class_examples():
    assert set(support_class((0, 0, 1)).points()) == {(0, 0, 1), (0, 0, 2)}
    assert set(support_class((0, 0)).points()) == {(0, 0)}
    assert len(support_class((1, 2))) == 4


def test_support_class_size_and_membership():
    rng = random.Random(0x5C1A55)
    for _ in range(50):
        n = rng.randint(1, 8)
        p = tuple(rng.randrange(3) for _ in range(n))
        cls = support_class(p)
        zeros = zero_support(p)
        assert len(cls) == 2 ** (n - len(zeros))
        for q in cls.points():
            assert zero_support(q) == zeros


def test_same_support_never_collinear_exhaustive():
    # Points sharing a zero support differ only on {1,2} coordinates, where
    # x + y + z = 0 mod 3 forces x = y = z; so no such triple is collinear.
    for n in (2, 3, 4):
        by_support = {}
        for p in all_points(n):
            by_support.setdefault(zero_support(p), []).append(p)
        for members in by_support.values():
            for p, q, r in itertools.combinations(members, 3):
                assert not collinear(p, q, r)


def test_mirror_point():
    assert mirror_point((0, 1, 2)) == (2, 1, 0)
    assert mirror_point((0, 0)) == (0, 0)
    rng = random.Random(0x3144)
    for _ in range(100):
        n = rng.randint(1, 10)
        p = tuple(rng.randrange(3) for _ in range(n))
        assert mirror_point(mirror_point(p)) == p


# --- vector codecs -----------------------------------------------------------


def test_vector_codec_round_trip():
    rng = np.random.default_rng(0xC0DEC)
    for n in (1, 4, 9, 15, 20):
        ranks = rng.integers(0, POW3[n], size=64, dtype=np.int64)
        coords = coords_from_ranks(ranks, n)
        assert coords.shape == (64, n)
        back = ranks_from_coords(coords)
        assert np.array_equal(back, ranks)


def test_neg_ranks_is_pointwise_negation():
    rng = np.random.default_rng(0x4E4)
    for n in (1, 3, 7):
        ranks = rng.integers(0, POW3[n], size=40, dtype=np.int64)
        neg = neg_ranks(ranks, n)
        for r, nr in zip(ranks.tolist(), neg.tolist()):
            p = unrank(r, n)
            assert unrank(nr, n) == tuple((3 - c) % 3 for c in p)
        assert np.array_equal(neg_ranks(neg, n), ranks)


def test_zero_masks_match_zero_support():
    rng = np.random.default_rng(0x2E90)
    for dim in range(1, MAX_RANK_DIM + 1):
        ranks = np.append(rng.integers(0, POW3[dim], size=50, dtype=np.int64), [0, POW3[dim] - 1])
        masks = zero_masks(ranks, dim)
        for r, mask in zip(ranks.tolist(), masks.tolist()):
            support = zero_support(unrank(r, dim))
            assert {i + 1 for i in range(dim) if mask >> i & 1} == support


# --- PointSet ----------------------------------------------------------------


def test_pointset_dedups_and_orders():
    s = PointSet.from_points([(1, 0), (0, 1), (1, 0), (0, 0)])
    assert list(s.points()) == [(0, 0), (0, 1), (1, 0)]
    assert len(s) == 3


def test_pointset_membership_and_indexing():
    s = PointSet.from_points([(0, 1), (2, 2)])
    assert (0, 1) in s
    assert (1, 1) not in s
    assert s.point(1) == (2, 2)
    assert s.has_rank(rank((2, 2)))


def test_pointset_equality_and_hash():
    a = PointSet.from_points([(0, 1), (0, 2)])
    b = PointSet.from_points([(0, 2), (0, 1)])
    c = PointSet.from_points([(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != PointSet.from_ranks([1, 2], 1)  # same ranks, different dim


def test_pointset_rejects_mixed_dims_and_bad_coords():
    with pytest.raises(DimensionError):
        PointSet.from_points([(0, 1), (0, 1, 2)])
    with pytest.raises(InvalidPointError):
        PointSet.from_points([(0, 3)])
    with pytest.raises(RankRangeError):
        PointSet.from_ranks([9], 2)


def test_pointset_immutable():
    s = PointSet.from_points([(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        np.asarray(s.ranks)[0] = 5
    with pytest.raises(ValueError):
        s.coords()[0, 0] = 2


def test_pointset_bitmap_agrees_with_membership():
    rng = random.Random(0xB17)
    ranks = rng.sample(range(POW3[5]), 40)
    s = PointSet.from_ranks(ranks, 5)
    bm = s.bitmap()
    for r in range(POW3[5]):
        assert bm.test(r) == s.has_rank(r)
    assert bm.count() == len(s)


def test_empty_pointset():
    s = PointSet.empty(4)
    assert len(s) == 0
    assert list(s.points()) == []
    assert s.bitmap().count() == 0


def test_pointset_dimension_stops_at_rank_limit():
    # 3^39 - 1 is the largest rank int64 holds for a whole space
    top = PointSet.from_ranks([POW3[MAX_RANK_DIM] - 1], MAX_RANK_DIM)
    assert top.point(0) == (2,) * 39
    for dim in (MAX_RANK_DIM + 1, 45):
        with pytest.raises(DimensionError):
            PointSet.empty(dim)
        with pytest.raises(DimensionError):
            PointSet.from_points([(1,) * dim])
        with pytest.raises(DimensionError):
            unrank(0, dim)


# --- SpaceBitmap -------------------------------------------------------------


def test_bitmap_set_test_count():
    bm = SpaceBitmap(3)
    bm.set_ranks(np.array([0, 5, 26], dtype=np.int64))
    assert bm.test(0) and bm.test(5) and bm.test(26)
    assert not bm.test(1)
    assert bm.count() == 3


def test_bitmap_first_missing():
    bm = SpaceBitmap(2)
    assert bm.first_missing() == 0
    bm.set_ranks(np.arange(9, dtype=np.int64))
    assert bm.first_missing() is None
    bm2 = SpaceBitmap(2)
    bm2.set_ranks(np.array([0, 1, 2, 3, 5, 6, 7, 8], dtype=np.int64))
    assert bm2.first_missing() == 4
    # a space spanning several scan blocks; 3^dim is odd, so the last byte has padding bits
    dim = next(d for d in range(1, MAX_BITMAP_DIM + 1) if POW3[d] > 16 * SCAN_BLOCK_BYTES)
    full = SpaceBitmap.from_ranks(np.arange(POW3[dim]), dim)
    assert full.first_missing() is None
    assert list(full.missing_ranks()) == []
    late = 8 * SCAN_BLOCK_BYTES + 5
    full.buf[late >> 3] &= ~np.uint8(1 << (late & 7))
    assert full.first_missing() == late
    rng = np.random.default_rng(0xB10C)
    ranks = rng.choice(POW3[dim], size=POW3[dim] - 50, replace=False)
    sparse = SpaceBitmap.from_ranks(ranks, dim)
    clear = np.setdiff1d(np.arange(POW3[dim]), ranks)
    assert np.array_equal(np.concatenate(list(sparse.missing_ranks())), clear)


def test_bitmap_capacity_limit():
    from capset.errors import CapacityError

    with pytest.raises(CapacityError):
        SpaceBitmap(MAX_BITMAP_DIM + 1)


def test_bitmap_eq_and_tobytes():
    a = SpaceBitmap(3)
    b = SpaceBitmap(3)
    a.set_ranks(np.array([7], dtype=np.int64))
    assert a != b
    b.set_ranks(np.array([7], dtype=np.int64))
    assert a == b
    assert a.tobytes() == b.tobytes()
