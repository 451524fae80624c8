"""Builders for cap sets and P-sets.

Generators (no-zero sets, parity halves, seeds, unit P-sets), concatenation
products, the three-part and ten-part recursive unions, mirror inversion, the
parity-restricted union that turns an odd P-set into a cap, projective-cap
doubling, the five-block construction over an (n, k, m) coordinate split, and
the dimension-15 preset built from dimension-6 and dimension-3 pieces.

Constructions are pure and deterministic: the same inputs always produce the
same canonically ordered set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstructionError, DimensionError, PreconditionError, SeedError
from .f3core import MAX_RANK_DIM as MAX_PRODUCT_DIM, POW3, PointSet, _class_ranks, neg_ranks, ranks_from_coords, unrank
from . import verifiers
from .verifiers import VerifyReport

# The ten slot patterns of the six-factor union: P marks a P-set slot, B a
# no-zero-block slot. Each pattern has exactly three of each, and the ten
# zero-block signatures are pairwise distinct, which makes the union disjoint.
SIX_PATTERNS = (
    "PPPBBB",
    "PPBBBP",
    "PBPBPB",
    "BPPPBB",
    "BBPPBP",
    "BBPBPP",
    "BPBPPB",
    "BPBBPP",
    "PBBPBP",
    "PBBPPB",
)

# The three slot patterns of the three-factor union.
THREE_PATTERNS = ("PPB", "PBP", "BPP")


def gen_B(n: int) -> PointSet:
    """All 2^n points with every coordinate in {1, 2}; always a cap."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    if n > MAX_PRODUCT_DIM:
        raise DimensionError(f"dimension {n} exceeds the codec limit {MAX_PRODUCT_DIM}")
    return PointSet(n, _class_ranks(0, n, 1 << n), _trusted=True)


def gen_B_parity(n: int, parity: str) -> PointSet:
    """The half of gen_B(n) whose count of coordinates equal to 2 is even/odd."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    full = gen_B(n)
    t = np.arange(1 << n, dtype=np.int64)
    twos = np.bitwise_count(t)
    keep = (twos % 2 == 0) if parity == "even" else (twos % 2 == 1)
    return PointSet(n, np.asarray(full.ranks)[keep], _trusted=True)


def seed_P(n: int) -> PointSet:
    """The seed P-sets of the recursive constructions."""
    if n == 1:
        return PointSet.from_points([(0,)])
    if n == 2:
        return PointSet.from_points([(0, 1), (0, 2)])
    raise SeedError(f"seed P-sets exist only for dimensions 1 and 2, got {n}")


def product(factors: Sequence[PointSet]) -> PointSet:
    """All concatenations of one point from each factor, in canonical order."""
    factors = list(factors)
    if len(factors) < 2:
        raise ConstructionError(f"product needs at least two factors, got {len(factors)}")
    for idx, f in enumerate(factors, 1):
        if len(f) == 0:
            raise ConstructionError(f"product factor {idx} is empty")
    dim = sum(f.dim for f in factors)
    if dim > MAX_PRODUCT_DIM:
        raise DimensionError(f"product dimension {dim} exceeds the codec limit {MAX_PRODUCT_DIM}")
    ranks = np.asarray(factors[0].ranks)
    for f in factors[1:]:
        ranks = (ranks[:, None] * POW3[f.dim] + np.asarray(f.ranks)[None, :]).ravel()
    return PointSet(dim, ranks, _trusted=True)


def union_sets(sets: Sequence[PointSet], allow_overlap: bool = False) -> PointSet:
    """Union of same-dimension sets; overlap is an error unless allowed."""
    sets = list(sets)
    if not sets:
        raise ConstructionError("union needs at least one operand")
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise DimensionError(f"union operands have mixed dimensions {sorted(dims)}")
    dim = dims.pop()
    merged = np.concatenate([np.asarray(s.ranks) for s in sets])
    merged.sort(kind="stable")
    if not allow_overlap and merged.size > 1:
        dup = np.flatnonzero(merged[1:] == merged[:-1])
        if dup.size:
            p = unrank(int(merged[int(dup[0])]), dim)
            raise ConstructionError(f"union operands overlap at point {p}")
    uniq = merged[np.concatenate(([True], merged[1:] != merged[:-1]))] if merged.size else merged
    return PointSet(dim, uniq, _trusted=True)


def _check_pset_operands(op: str, sets: Sequence[PointSet]) -> None:
    for idx, s in enumerate(sets, 1):
        rep = verifiers.is_pset(s)
        if not rep.passed:
            raise PreconditionError(
                f"pset[{op} operand {idx}]",
                "operand is not a P-set",
                rep.witness,
            )


def _pattern_union(patterns: Sequence[str], psets: Sequence[PointSet]) -> PointSet:
    bsets = [gen_B(s.dim) for s in psets]
    parts = []
    for pattern in patterns:
        factors = [psets[i] if ch == "P" else bsets[i] for i, ch in enumerate(pattern)]
        parts.append(product(factors))
    return union_sets(parts)


def three_construction(pa: PointSet, pb: PointSet, pc: PointSet, check: bool = True) -> PointSet:
    """Union of the three P/B slot patterns over three P-sets."""
    if check:
        _check_pset_operands("three", [pa, pb, pc])
    return _pattern_union(THREE_PATTERNS, [pa, pb, pc])


def six_construction(
    p1: PointSet,
    p2: PointSet,
    p3: PointSet,
    p4: PointSet,
    p5: PointSet,
    p6: PointSet,
    check: bool = True,
) -> PointSet:
    """Union of the ten P/B slot patterns over six P-sets."""
    sets = [p1, p2, p3, p4, p5, p6]
    if check:
        _check_pset_operands("six", sets)
    return _pattern_union(SIX_PATTERNS, sets)


def mirror_set(s: PointSet) -> PointSet:
    """The set of coordinate-reversed points; an involution."""
    coords = s.coords()[:, ::-1]
    return PointSet(s.dim, ranks_from_coords(coords))


def unit_pset(n: int) -> PointSet:
    """The 2n points with exactly one nonzero coordinate."""
    if n < 2:
        raise DimensionError(f"unit P-set needs dimension >= 2, got {n}")
    return PointSet(n, [c * 3 ** (n - i) for i in range(1, n + 1) for c in (1, 2)])


@dataclass(frozen=True)
class FiveBlockInputs:
    """The seven P-set operands of the five-block construction.

    pn1, pn2, pn3 share dimension n; pm1, pm2, pm3 share dimension m; pk has
    dimension k. The result lives in dimension n + k + m.
    """

    pn1: PointSet
    pn2: PointSet
    pn3: PointSet
    pk: PointSet
    pm1: PointSet
    pm2: PointSet
    pm3: PointSet

    def __post_init__(self):
        if len({self.pn1.dim, self.pn2.dim, self.pn3.dim}) != 1:
            raise DimensionError("pn1, pn2, pn3 must share one dimension")
        if len({self.pm1.dim, self.pm2.dim, self.pm3.dim}) != 1:
            raise DimensionError("pm1, pm2, pm3 must share one dimension")

    @property
    def n(self) -> int:
        return self.pn1.dim

    @property
    def k(self) -> int:
        return self.pk.dim

    @property
    def m(self) -> int:
        return self.pm1.dim


def five_block_reports(inputs: FiveBlockInputs) -> list[tuple[str, VerifyReport]]:
    """Every hypothesis check of the five-block construction, as reports.

    Nothing is asserted here; the strict path (five_block with check=True)
    raises on the first failing entry of this list.
    """
    named = [
        ("pn1", inputs.pn1),
        ("pn2", inputs.pn2),
        ("pn3", inputs.pn3),
        ("pk", inputs.pk),
        ("pm1", inputs.pm1),
        ("pm2", inputs.pm2),
        ("pm3", inputs.pm3),
    ]
    out: list[tuple[str, VerifyReport]] = []
    for name, s in named:
        out.append((f"pset[{name}]", verifiers.is_pset(s)))
    for name, s in named:
        out.append((f"b_saturated[{name}]", verifiers.is_b_saturated(s)))
    for name, s in named:
        out.append((f"complete_pset[{name}]", verifiers.is_complete_pset(s, precheck=False)))
    out.append(("condition1[n]", verifiers.check_condition1(inputs.pn1, inputs.pn2, inputs.pn3)))
    out.append(("condition1[m]", verifiers.check_condition1(inputs.pm1, inputs.pm2, inputs.pm3)))
    out.append(("condition2[pn1,pn3]", verifiers.check_condition2(inputs.pn1, inputs.pn3)))
    out.append(("condition2[pn2,pn3]", verifiers.check_condition2(inputs.pn2, inputs.pn3)))
    out.append(("condition2[pm1,pm3]", verifiers.check_condition2(inputs.pm1, inputs.pm3)))
    out.append(("condition2[pm2,pm3]", verifiers.check_condition2(inputs.pm2, inputs.pm3)))
    p12n = union_sets([inputs.pn1, inputs.pn2], allow_overlap=True)
    p12m = union_sets([inputs.pm1, inputs.pm2], allow_overlap=True)
    out.append(("condition3[n]", verifiers.check_condition3(p12n, inputs.pn3)))
    out.append(("condition3[m]", verifiers.check_condition3(p12m, inputs.pm3)))
    return out


def check_five_block_inputs(inputs: FiveBlockInputs) -> None:
    """Raise a named precondition error on the first failing hypothesis."""
    for name, rep in five_block_reports(inputs):
        if not rep.passed:
            raise PreconditionError(name, "five-block hypothesis failed", rep.witness)


def five_block_parts(inputs: FiveBlockInputs) -> list[PointSet]:
    """The five block products, in order."""
    bn = gen_B(inputs.n)
    bk = gen_B(inputs.k)
    bm = gen_B(inputs.m)
    return [
        product([inputs.pn1, inputs.pk, bm]),
        product([bn, inputs.pk, inputs.pm1]),
        product([inputs.pn2, bk, inputs.pm2]),
        product([inputs.pn3, bk, bm]),
        product([bn, bk, inputs.pm3]),
    ]


def five_block(inputs: FiveBlockInputs, check: bool = True) -> PointSet:
    """Disjoint union of the five block products over the (n, k, m) split."""
    if check:
        check_five_block_inputs(inputs)
    return union_sets(five_block_parts(inputs))


def parity_cap(p: PointSet, parity: str, check: bool = True) -> PointSet:
    """Union of an odd, b-saturated, complete P-set with a parity half-block."""
    if check:
        for name, rep in (
            ("pset", verifiers.is_pset(p)),
            ("b_saturated", verifiers.is_b_saturated(p)),
            ("complete_pset", verifiers.is_complete_pset(p, precheck=False)),
            ("odd_pset", verifiers.is_odd_pset(p)),
        ):
            if not rep.passed:
                raise PreconditionError(name, "parity-cap hypothesis failed", rep.witness)
    return union_sets([p, gen_B_parity(p.dim, parity)])


class ProjectiveCap:
    """Nonzero representative vectors, no two proportional over F_3."""

    __slots__ = ("members",)

    def __init__(self, members: PointSet):
        verifiers.check_projective_representatives(members)
        self.members = members

    @property
    def dim(self) -> int:
        return self.members.dim

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"ProjectiveCap(dim={self.dim}, size={len(self)})"


def doubling(a: ProjectiveCap | PointSet, check: bool = True) -> PointSet:
    """Both scalar representatives of each projective point; size doubles."""
    if isinstance(a, PointSet):
        a = ProjectiveCap(a)
    if check:
        rep = verifiers.is_projective_cap(a)
        if not rep.passed:
            raise PreconditionError("projective_cap", "doubling input is not a projective cap", rep.witness)
    ranks = np.asarray(a.members.ranks)
    return PointSet(a.dim, np.concatenate([ranks, neg_ranks(ranks, a.dim)]))


def preset_ag15_inputs() -> FiveBlockInputs:
    """The dimension-15 preset operands: n = m = 6, k = 3.

    Both triples use the ten-pattern set, its mirror, and the unit P-set; the
    middle factor is the three-pattern set of dimension 3.
    """
    p1 = seed_P(1)
    pk = three_construction(p1, p1, p1, check=False)
    p61 = six_construction(p1, p1, p1, p1, p1, p1, check=False)
    p62 = mirror_set(p61)
    p63 = unit_pset(6)
    return FiveBlockInputs(pn1=p61, pn2=p62, pn3=p63, pk=pk, pm1=p61, pm2=p62, pm3=p63)


def preset_ag15() -> PointSet:
    """The 124928-point set in dimension 15.

    Hypothesis checks are not enforced here; the preset pipeline reports each
    check's outcome separately, and the end claim (complete cap) is verified
    directly by the sweep.
    """
    return five_block(preset_ag15_inputs(), check=False)


def preset_ag15_reports() -> list[tuple[str, VerifyReport]]:
    """All hypothesis-check outcomes for the dimension-15 preset."""
    return five_block_reports(preset_ag15_inputs())


def preset_ag6_112(parity: str = "even") -> PointSet:
    """The 112-point complete cap in dimension 6 (a known maximum)."""
    p1 = seed_P(1)
    p6 = six_construction(p1, p1, p1, p1, p1, p1, check=False)
    return parity_cap(p6, parity, check=True)
