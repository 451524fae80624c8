"""The traced run: spans around calls into capset's modules, per-layer metrics.

A span is recorded for every call into a public function of one of the seven
layer modules (and into ``PointSet.bitmap`` and ``SpaceBitmap.first_missing``).
The wrappers are installed by rebinding the names in every ``capset`` module,
so calls between layers and within a layer are both seen; worker processes
import capset afresh and are not traced. Spans are kept in memory and written
out when the run ends.

The workload's own CLI steps are replayed in-process through ``cli.main``,
once untraced and once traced; the difference of the two wall times is the
tracing overhead. The per-layer metrics come from a fixed set of calls, the
same whatever the workload, each on the input the metric is defined on, so
every traced run reports all of them.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import capset
import workloads
from workloads import NPROC, StepResult

LAYERS = ("cli", "capfile", "expr", "constructions", "verifiers", "sweep", "f3core")
METHODS = (("PointSet", "bitmap"), ("SpaceBitmap", "first_missing"))

UNITS = {
    "cli.import_s": "s",
    "capfile.write_mb_s": "MB/s",
    "capfile.read_mb_s": "MB/s",
    "constructions.preset_s": "s",
    "constructions.hypothesis_s": "s",
    "constructions.hypothesis_checks": "count",
    **{f"expr.evaluate_s.{b[0]}": "s" for b in workloads.BUILDS},
    "verifiers.pset_s": "s",
    "verifiers.b_saturated_s": "s",
    "verifiers.complete_pset_s": "s",
    "verifiers.condition_s": "s",
    "verifiers.projective_s": "s",
    "verifiers.projective_triples": "count",
    "verifiers.complete_s": "s",
    "verifiers.complete_alloc_mb": "MB",
    "sweep.coverage_ns_per_pair": "ns",
    "sweep.cap_ns_per_pair": "ns",
    "sweep.packed_ns_per_pair": "ns",
    "sweep.scaling_eff": "ratio",
    "sweep.useful_pair_ratio": "ratio",
    "sweep.pairs": "count",
    "sweep.workers": "count",
    "sweep.coverage_bytes_computed": "bytes",
    "sweep.merge_bytes_computed": "bytes",
    "f3core.bitmap_s.dim15": "s",
    "f3core.bitmap_s.dim19": "s",
}

PROBE_SAMPLE = 12_000  # points of the defect15 base used for the 1-worker ns/pair probes
PROJECTIVE_TRIPLES = 227_920  # C(112, 3): triples is_projective_cap checks for double224


class Tracer:
    """Collects spans: name, start, end, parent span and workload."""

    def __init__(self):
        self.spans: list[dict] = []
        self.workload = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if isinstance(getattr(result, "pairs_examined", None), int):
                span["count"] = result.pairs_examined
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, workload: str):
        """Trace every capset layer call made inside the block."""
        self.workload = workload
        mods = [importlib.import_module(f"capset.{layer}") for layer in LAYERS]
        owners = [m for name, m in sorted(sys.modules.items()) if name == "capset" or name.startswith("capset.")]
        patches = []
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            patches.append((owner, key, fn))
                            setattr(owner, key, wrapper)
        f3core = importlib.import_module("capset.f3core")
        for cls_name, meth in METHODS:
            cls = getattr(f3core, cls_name)
            original = cls.__dict__[meth]
            patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"f3core.{cls_name}.{meth}", original))
        try:
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def find(self, workload: str, name: str, parent: dict | None = None) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["workload"] == workload and s["name"] == name and (parent is None or s["parent"] == parent["id"])
        ]

    def layer_self_s(self) -> dict[str, dict[str, float]]:
        """Per workload, each layer's self time: span time not covered by child spans."""
        child_s: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + dur(s)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            layer = s["name"].split(".")[0]
            per = out.setdefault(s["workload"], {})
            per[layer] = per.get(layer, 0.0) + dur(s) - child_s.get(s["id"], 0.0)
        return out


def dur(span: dict) -> float:
    return span["end"] - span["start"]


def run_inprocess(argv: list[str]) -> StepResult:
    """One CLI command through ``cli.main`` in this process."""
    import capset.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = capset.cli.main(argv)
    return StepResult(code, out.getvalue(), err.getvalue(), wall_s=time.perf_counter() - t0)


def replay(wl: workloads.Workload, steps: list[workloads.Step], tally: workloads.Tally) -> float:
    """Run steps in-process, checking each; returns their summed wall time."""
    wall = 0.0
    for step in steps:
        res = run_inprocess(step.argv)
        wall += res.wall_s
        tally.check(wl.name, step, res)
    return wall


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_s(env: dict) -> float:
    """Interpreter start plus ``import capset.cli``, median of three."""
    argv = [sys.executable, "-c", "import capset.cli"]
    return _median_s(lambda: subprocess.run(argv, env=env, check=True), 3)


def traced_run(name: str, seed: int, workdir: str, env: dict) -> dict:
    """Replay ``name`` untraced and traced, then measure every per-layer metric."""
    from capset.sweep import SweepTask
    from capset.verifiers import coverage_complete

    tracer = Tracer()
    tally = workloads.Tally()

    def workload(wname: str) -> workloads.Workload:
        wdir = os.path.join(workdir, wname)
        os.makedirs(wdir, exist_ok=True)
        wl = workloads.WORKLOADS[wname](seed, wdir)
        wl.setup()
        return wl

    wl = workload(name)
    untraced_s = replay(wl, wl.steps(), tally)
    with tracer.installed(name):
        traced_s = replay(wl, wl.steps(), tally)

    # The ag15 preset and the strict builds give the constructions, expr and
    # hypothesis-check metrics; the workload's own replay already ran them.
    for wname in ("ag15", "build-strict"):
        if wname != name:
            other = workload(wname)
            steps = other.steps()
            with tracer.installed(wname):
                replay(other, steps[:1] if wname == "ag15" else steps, tally)

    m: dict[str, float] = {}
    m["cli.import_s"] = import_s(env)

    ag15 = capset.preset_ag15()
    path = os.path.join(workdir, "codec.caps")
    mb = (ag15.dim + 1) * len(ag15) / 1e6
    m["capfile.write_mb_s"] = mb / _median_s(lambda: capset.write_capset(ag15, path), 5)
    m["capfile.read_mb_s"] = mb / _median_s(lambda: capset.read_capset(path), 5)
    os.remove(path)

    (preset_cmd,) = tracer.find("ag15", "cli.main")[:1]
    inputs = tracer.find("ag15", "constructions.preset_ag15_inputs", preset_cmd)
    blocks = tracer.find("ag15", "constructions.five_block", preset_cmd)
    reports = tracer.find("ag15", "constructions.preset_ag15_reports", preset_cmd)
    m["constructions.preset_s"] = sum(dur(s) for s in inputs + blocks)
    m["constructions.hypothesis_s"] = sum(dur(s) for s in reports)
    entries = [
        c
        for r in reports
        for f in tracer.children(r)
        for c in tracer.children(f)
        if c["name"].startswith("verifiers.")
    ]
    m["constructions.hypothesis_checks"] = len(entries)
    tally.expect_equal("ag15: hypothesis entries", len(entries), len(workloads.PRESET_REPORT))
    for metric, fns in (
        ("pset_s", ("is_pset",)),
        ("b_saturated_s", ("is_b_saturated",)),
        ("complete_pset_s", ("is_complete_pset",)),
        ("condition_s", ("check_condition1", "check_condition2", "check_condition3")),
    ):
        m[f"verifiers.{metric}"] = sum(dur(e) for e in entries if e["name"].split(".")[1] in fns)

    builds = tracer.find("build-strict", "cli.main")
    for (label, *_), cmd in zip(workloads.BUILDS, builds):
        m[f"expr.evaluate_s.{label}"] = sum(dur(s) for s in tracer.find("build-strict", "expr.evaluate", cmd))
    proj = tracer.find("build-strict", "verifiers.is_projective_cap")
    m["verifiers.projective_s"] = sum(dur(s) for s in proj)
    m["verifiers.projective_triples"] = sum(s.get("count", 0) for s in proj)
    tally.expect_equal("build-strict: projective triples", m["verifiers.projective_triples"], PROJECTIVE_TRIPLES)

    _, base = workloads.ag15_subset(seed, workloads.DEFECT_BASE)
    rng = np.random.default_rng(seed)
    sample = capset.PointSet(15, np.sort(rng.choice(base, PROBE_SAMPLE, replace=False)))
    pairs = PROBE_SAMPLE * (PROBE_SAMPLE - 1) // 2
    defect = capset.read_capset(workload("defect15").path("defect15.caps"))
    sparse = capset.read_capset(workload("sparse19").path("sparse19.caps"))
    with tracer.installed("probes"):
        t0 = time.perf_counter()
        capset.run_sweep(SweepTask(sample, mode="coverage", threads=1))
        t1 = time.perf_counter() - t0
        t0 = time.perf_counter()
        capset.run_sweep(SweepTask(sample, mode="cap", threads=1))
        m["sweep.cap_ns_per_pair"] = (time.perf_counter() - t0) / pairs * 1e9
        t0 = time.perf_counter()
        capset.run_sweep(SweepTask(sample, mode="coverage", threads=NPROC))
        tn = time.perf_counter() - t0
        m["sweep.coverage_ns_per_pair"] = t1 / pairs * 1e9
        m["sweep.scaling_eff"] = t1 / (NPROC * tn)
        early = capset.run_sweep(SweepTask(defect, mode="cap", threads=1)).pairs_examined
        m["sweep.useful_pair_ratio"] = early / (len(defect) * (len(defect) - 1) // 2)

        t0 = time.perf_counter()
        cover = capset.run_sweep(SweepTask(sparse, mode="coverage", threads=1))
        m["sweep.packed_ns_per_pair"] = (time.perf_counter() - t0) / cover.pairs_examined * 1e9
        tracemalloc.start()
        t0 = time.perf_counter()
        coverage_complete(sparse, cover.coverage)
        m["verifiers.complete_s"] = time.perf_counter() - t0
        m["verifiers.complete_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        del cover

    m["sweep.pairs"] = pairs
    m["sweep.workers"] = NPROC
    # Computed, not measured: each worker's packed coverage bitmap at dim 19,
    # and the bytes the parent receives and ORs in when nproc workers run.
    nbytes = (3**19 + 7) // 8
    m["sweep.coverage_bytes_computed"] = nbytes
    m["sweep.merge_bytes_computed"] = NPROC * nbytes

    m["f3core.bitmap_s.dim15"] = _median_s(lambda: capset.PointSet(15, base).bitmap(), 5)
    m["f3core.bitmap_s.dim19"] = _median_s(lambda: capset.PointSet(19, sparse.ranks).bitmap(), 5)

    # The in-process sweeps started multiprocessing's resource tracker in this
    # process; stop it and wait for it, as for every other process started.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()

    return {
        "metrics": m,
        "tally": tally,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_s": traced_s - untraced_s,
        "replay_run_sweep_s": sum(dur(s) for s in tracer.find(name, "sweep.run_sweep")),
        "layer_self_s": tracer.layer_self_s(),
        "spans": tracer.spans,
    }
