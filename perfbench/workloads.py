"""The four benchmark workloads: seeded inputs, CLI steps and their checks.

Each workload builds its inputs from the seed, names the ``capset`` commands
a user would run on them, and says how to check each command's outcome with
the independent checker. Why each workload exists, which layers it loads and
what it should not move is recorded in README.md beside this file.
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import capset
import checker

NPROC = len(os.sched_getaffinity(0))

AG15_POINTS = 25_000  # points of the ag15 subset verified by the ag15 workload
DEFECT_BASE = 40_000  # points of the ag15 subset that defect15 adds one point to
SPARSE19 = 6_000  # points in the sparse19 subset of B(19)

# Hash of the canonical ag15 file: the preset must write exactly these bytes.
AG15_SHA256 = "03833ca24f5b8e63eb88cb96234285ef0b6592ce14487ca9adaf7615e2f4c6b5"

# The preset's hypothesis-check report as printed today: 27 pass, 2 FAIL.
_PSETS = ("pn1", "pn2", "pn3", "pk", "pm1", "pm2", "pm3")
PRESET_REPORT = (
    [f"  pset[{n}]: pass" for n in _PSETS]
    + [f"  b_saturated[{n}]: pass" for n in _PSETS]
    + [
        f"  complete_pset[{n}]: " + ("FAIL witness=000111" if n in ("pn3", "pm3") else "pass")
        for n in _PSETS
    ]
    + [f"  condition1[{n}]: pass" for n in ("n", "m")]
    + [f"  condition2[{p}]: pass" for p in ("pn1,pn3", "pn2,pn3", "pm1,pm3", "pm2,pm3")]
    + [f"  condition3[{n}]: pass" for n in ("n", "m")]
)

_SIX = "six(P1,P1,P1,P1,P1,P1)"
FIVE_AG15 = f"five({_SIX}, mirror({_SIX}), units(6), three(P1,P1,P1), {_SIX}, mirror({_SIX}), units(6))"

# Strict builds: (label, expression, expected points, hash of the written file).
# The five(...) expression is the ag15 assembly; its hypothesis check
# complete_pset[pn3] fails, so a strict build must refuse it with exit code 2.
BUILDS = (
    ("three", "three(P1,P1,P1)", 6, "98c045b8b4aff85a7247e76455760ada6013ef2ad50318b4ab45b7373f35d831"),
    ("tD112", f"tD({_SIX}, even)", 112, "9e12469739bbd5537a4940b701c862f96d424948c30294ef3943661eec14d132"),
    (
        "double224",
        f"double(prod(Bp(1), tD({_SIX}, even)))",
        224,
        "4727e56017f453c54894d0afcdbc8f76d9df023aef3a16a84551387c2db3a23a",
    ),
    ("five_refused", FIVE_AG15, None, None),
)


@dataclass
class StepResult:
    """What one CLI command returned."""

    code: int
    stdout: str
    stderr: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0


@dataclass
class Step:
    """One ``capset`` command and the check of its outcome."""

    label: str
    argv: list[str]
    check: Callable[[StepResult], list[str]]


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, workload: str, step: Step, res: StepResult) -> None:
        self.attempted += 1
        try:
            problems = step.check(res)
        except Exception as exc:  # a check that cannot complete is a failed operation
            problems = [f"check crashed: {exc!r}"]
        if problems:
            self.failed += 1
            self.messages += [f"{workload}: {step.label}: {p}" for p in problems]

    def expect_equal(self, label: str, got: int, want: int) -> None:
        """A count that must repeat exactly, checked as one more operation."""
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.messages.append(f"{label}: {got}, expected {want}")


def write_set(path: str, ranks: np.ndarray, dim: int) -> None:
    """Write a capset/1 file; the benchmark's own writer for its inputs."""
    coords = checker.to_coords(np.sort(ranks), dim).astype(np.uint8) + ord("0")
    block = np.full((coords.shape[0], dim + 1), ord("\n"), dtype=np.uint8)
    block[:, :dim] = coords
    with open(path, "wb") as fh:
        fh.write(f"capset/1 n={dim} size={coords.shape[0]}\n".encode("ascii") + block.tobytes())


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@functools.cache
def ag15_ranks() -> np.ndarray:
    """Ranks of the ag15 set, built once per process."""
    return capset.preset_ag15().ranks


def ag15_subset(seed: int, size: int) -> tuple[np.random.Generator, np.ndarray]:
    """A seeded subset of the ag15 set, and the generator after drawing it."""
    rng = np.random.default_rng(seed)
    return rng, np.sort(rng.choice(ag15_ranks(), size, replace=False))


def b_ranks(dim: int) -> np.ndarray:
    """Ranks of every point with all coordinates in {1, 2}, ascending."""
    bits = (np.arange(1 << dim, dtype=np.int64)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    return (bits + 1) @ checker.pow3(dim)


class Workload:
    """Inputs built from a seed in a work directory, and the steps on them."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.counts: dict[str, int] = {}  # counts that must repeat exactly
        self.last_pairs = 0
        self._expected: dict = {}  # the checker's references, computed once per run

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        """Build what the seeded inputs are drawn from (not timed)."""

    def setup(self) -> None:
        """Generate and write the seeded inputs (timed as setup_s)."""

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def _verify_step(self, name: str, dim: int, defect: int | None) -> Step:
        """``verify --cap --complete`` on an input file, checked independently.

        The expected witnesses are computed once, on the first check. The
        pairs examined must repeat exactly from one run to the next; the last
        value is kept in ``self.last_pairs`` for the pairs_per_s metric.
        """
        report = self.path("report.json")
        state = self._expected

        def expected() -> tuple:
            if not state:
                members = checker.Members(checker.parse_capset(_read(self.path(name)))[1], dim)
                state["members"] = members
                if defect is None:
                    state["expect"] = (None, checker.first_uncovered(members))
                else:
                    witness, through = checker.defect_witness(members, defect)
                    state["expect"] = (witness, None)
                    self.counts["triples_through_defect"] = through
            return state["members"], state["expect"]

        def check(res: StepResult) -> list[str]:
            if res.code != 1:
                return [f"exit code {res.code}, expected 1 (a check fails)"]
            with open(report, encoding="ascii") as fh:
                doc = json.load(fh)
            os.remove(report)
            members, (witness, uncovered) = expected()
            problems = checker.check_verify_report(doc, members, NPROC, witness, uncovered)
            pairs = next(c["pairs_examined"] for c in doc["checks"] if c["check"] == "cap")
            first = self.counts.setdefault("pairs_examined", pairs)
            if pairs != first:
                problems.append(f"pairs_examined {pairs} differs from the first run's {first}")
            self.last_pairs = pairs
            return problems

        argv = ["verify", self.path(name), "--cap", "--complete", "--threads", str(NPROC), "--report-json", report]
        return Step("verify", argv, check)


class Ag15(Workload):
    name = "ag15"

    def prepare(self) -> None:
        ag15_ranks()

    def setup(self) -> None:
        _, sub = ag15_subset(self.seed, AG15_POINTS)
        write_set(self.path("ag15sub.caps"), sub, 15)

    def steps(self) -> list[Step]:
        out = self.path("ag15.caps")

        def check_preset(res: StepResult) -> list[str]:
            if res.code != 0:
                return [f"exit code {res.code}"]
            problems = []
            lines = res.stdout.splitlines()
            got = lines[lines.index("hypothesis checks (reported, not asserted):") + 1 : lines.index(f"wrote: {out}")]
            self.counts.setdefault("hypothesis_entries", len(got))
            if got != PRESET_REPORT:
                problems.append(f"hypothesis report differs: {got}")
            if checker.sha256(_read(out)) != AG15_SHA256:
                problems.append("ag15 file is not byte-identical to the canonical file")
            os.remove(out)
            return problems

        preset = Step("preset", ["preset", "ag15", "-o", out], check_preset)
        return [preset, self._verify_step("ag15sub.caps", 15, None)]


class Defect15(Workload):
    name = "defect15"

    def prepare(self) -> None:
        ag15_ranks()

    def setup(self) -> None:
        rng, sub = ag15_subset(self.seed, DEFECT_BASE)
        a, b = rng.choice(sub, 2, replace=False)
        third = (-(checker.to_coords(np.array([a]), 15) + checker.to_coords(np.array([b]), 15))) % 3
        self.extra = int(checker.to_ranks(third)[0])
        write_set(self.path("defect15.caps"), np.append(sub, self.extra), 15)

    def steps(self) -> list[Step]:
        return [self._verify_step("defect15.caps", 15, self.extra)]


class Sparse19(Workload):
    name = "sparse19"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        write_set(self.path("sparse19.caps"), rng.choice(b_ranks(19), SPARSE19, replace=False), 19)

    def steps(self) -> list[Step]:
        return [self._verify_step("sparse19.caps", 19, None)]


class BuildStrict(Workload):
    name = "build-strict"

    def steps(self) -> list[Step]:
        return [self._build_step(*b) for b in BUILDS]

    def _build_step(self, label: str, expr: str, size: int | None, digest: str | None) -> Step:
        out = self.path(f"{label}.caps")

        def check(res: StepResult) -> list[str]:
            if size is None:
                want = ("hypothesis check failed: complete_pset[pn3]", "witness: 000111")
                if res.code != 2 or not all(w in res.stderr for w in want) or os.path.exists(out):
                    return [f"expected refusal at complete_pset[pn3] witness 000111, got exit {res.code}"]
                return []
            if res.code != 0:
                return [f"exit code {res.code}"]
            data = _read(out)
            os.remove(out)
            dim, ranks = checker.parse_capset(data)
            members = checker.Members(ranks, dim)
            problems = []
            if len(members) != size:
                problems.append(f"{len(members)} points, expected {size}")
            if checker.sha256(data) != digest:
                problems.append("output file differs from the canonical file")
            thirds = members.thirds(members.coords)
            thirds[np.arange(len(members)), np.arange(len(members))] = -1
            if members.contains(thirds).any():
                problems.append("output is not a cap")
            return problems

        return Step(label, ["build", expr, "-o", out], check)


WORKLOADS = {w.name: w for w in (Ag15, Defect15, Sparse19, BuildStrict)}
