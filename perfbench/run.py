"""Benchmark for the capset CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The package is imported from
``src/`` and every command runs as ``python3 -m capset.cli`` in a fresh
process, as a user would run it.

With ``--trace 0`` the workload's seeded inputs are generated and written
several times (the median is ``setup_s``), then its CLI pipeline runs
repeatedly for ``--seconds`` seconds: a pipeline is started only while its
median length still fits. Every outcome is checked independently, and the
end-to-end metrics are medians over the pipelines run. With ``--trace 1`` the
run replays the workload in-process with spans around every layer call and
reports the per-layer metrics (see tracing.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Work files, a result
file with provenance and the trace go to ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 15
RUN_BUDGET_S = 170  # commands still running this long after the start are killed

UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "fail_share": "ratio",
}


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))  # look no higher than the checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int, workers: int) -> dict:
    import numpy

    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in _read_text("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if not idx.startswith("index"):
            continue
        d = os.path.join(base, idx)
        level, kind = _read_text(os.path.join(d, "level")).strip(), _read_text(os.path.join(d, "type")).strip()
        caches[f"L{level} {kind}"] = _read_text(os.path.join(d, "size")).strip()
    mem = next((ln.split(":", 1)[1].strip() for ln in _read_text("/proc/meminfo").splitlines() if ln.startswith("MemTotal")), "unknown")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "mem_total": mem,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "workers": workers,
    }


def cpu_ticks() -> tuple[int, int]:
    """(all, steal) CPU ticks of the machine so far, from /proc/stat; (0, 0) if unreadable."""
    fields = (_read_text("/proc/stat").splitlines() or ["cpu"])[0].split()[1:]
    ticks = [int(f) for f in fields]
    return (sum(ticks), ticks[7]) if len(ticks) > 7 else (0, 0)


GROUPS: list[int] = []  # process groups of the commands run


def wait_groups(timeout: float = 30.0) -> None:
    """Wait until every process of every command's group has ended.

    Orphans are reaped by init, which may take a second or two. What is still
    running after ``timeout`` is killed; after that, only zombies awaiting
    init can remain, and the wait ends at most 10 s later.
    """
    deadline = time.monotonic() + timeout
    for pgid in GROUPS:
        while time.monotonic() < deadline + 10:
            try:
                os.killpg(pgid, signal.SIGKILL if time.monotonic() > deadline else 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(argv: list[str], workdir: str, env: dict, timeout: float):
    """Run ``python3 -m capset.cli ARGV`` in its own process group.

    Wall time runs from start to exit. CPU time and max RSS come from wait4,
    which folds in every child the command waited for (the sweep workers).
    The group id is recorded in ``GROUPS``: the multiprocessing resource
    tracker a verify command starts outlives the command by a moment, and
    ``wait_groups`` waits for it when the run ends.
    """
    from workloads import StepResult

    out_path, err_path = os.path.join(workdir, "stdout.txt"), os.path.join(workdir, "stderr.txt")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "capset.cli", *argv],
            stdout=out,
            stderr=err,
            cwd=workdir,
            env=env,
            start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            cpu, rss = usage.ru_utime + usage.ru_stime, usage.ru_maxrss
        finally:
            timer.cancel()
            GROUPS.append(proc.pid)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace")
    return StepResult(
        proc.returncode,
        stdout,
        stderr,
        wall_s=wall,
        cpu_s=cpu,
        maxrss_mb=rss / 1024.0,
    )


def timed_run(wl, seconds: float, env: dict, started: float) -> tuple[dict, list]:
    """Run the workload's pipeline for ``seconds``; medians of each metric.

    A pipeline is started only while the median pipeline so far still fits in
    the time left, so the run does not overshoot by a whole pipeline.
    """
    from workloads import Tally

    tally = Tally()
    pipelines = []
    t_start = time.perf_counter()
    while not pipelines or time.perf_counter() - t_start + statistics.median(p["wall_s"] for p in pipelines) <= seconds:
        steps = wl.steps()
        row = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "steps": []}
        for step in steps:
            res = run_cli(step.argv, wl.workdir, env, RUN_BUDGET_S - (time.monotonic() - started))
            row["wall_s"] += res.wall_s
            row["cpu_s"] += res.cpu_s
            row["peak_rss_mb"] = max(row["peak_rss_mb"], res.maxrss_mb)
            failed = tally.failed
            tally.check(wl.name, step, res)
            if step.label == "verify":
                row["pairs_per_s"] = wl.last_pairs / res.wall_s
            row["steps"].append(
                {"step": step.label, "code": res.code, "wall_s": res.wall_s, "cpu_s": res.cpu_s,
                 "maxrss_mb": res.maxrss_mb, "failed": tally.failed > failed}
            )
        pipelines.append(row)
    med = {k: statistics.median(p[k] for p in pipelines) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    if all("pairs_per_s" in p for p in pipelines):
        med["pairs_per_s"] = statistics.median(p["pairs_per_s"] for p in pipelines)
    return {"medians": med, "tally": tally}, pipelines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    ticks0 = cpu_ticks()

    if not os.path.isfile(os.path.join(SRC, "capset", "cli.py")):
        print(f"error: no capset sources under {SRC}; run from the root of a capset checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CAPSET_THREADS", None)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".perfbench", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    prov = provenance(args.seed, workloads.NPROC)
    result: dict = {"workload": args.workload, "provenance": prov}

    if args.trace:
        import tracing

        traced = tracing.traced_run(args.workload, args.seed, workdir, env)
        tally = traced.pop("tally")
        metrics = {k: float(v) for k, v in traced["metrics"].items()}
        result.update(traced)
        print(f"trace: {len(traced['spans'])} spans; replay of {args.workload}: untraced {traced['untraced_s']:.3f} s, "
              f"traced {traced['traced_s']:.3f} s, tracing overhead {traced['overhead_s']:+.3f} s")
        print(f"sweep.run_s: {args.workload} = {traced['replay_run_sweep_s']:.4f} s (time in run_sweep, traced replay)")
        for wname, layers in traced["layer_self_s"].items():
            for layer, s in sorted(layers.items()):
                print(f"self time: {wname} {layer} = {s:.4f} s")
        units = tracing.UNITS
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        # Start the CLI once, untimed, so the first timed command does not
        # pay for a cold page cache.
        warm = run_cli(["--version"], workdir, env, RUN_BUDGET_S)
        if warm.code != 0:
            print(f"error: capset --version exited {warm.code}: {warm.stderr}", file=sys.stderr)
            return 2
        timed, pipelines = timed_run(wl, args.seconds, env, started)
        tally = timed["tally"]
        med = timed["medians"]
        shown = {**med, "setup_s": statistics.median(setups), "fail_share": tally.failed / tally.attempted}
        for name in ("wall_s", "pairs_per_s", "cpu_s", "peak_rss_mb", "setup_s", "fail_share"):
            value = f"{shown[name]:.6g}" if name in shown else "n/a (no pair sweep in this workload)"
            print(f"metric: {name} = {value} {UNITS[name]}")
        print(f"pipelines: {len(pipelines)}; counts: {json.dumps(wl.counts, sort_keys=True)}")
        metrics = {k: shown[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        result.update({"setup_s": setups, "pipelines": pipelines, "counts": wl.counts, "shown": shown})
        units = UNITS

    # Time the hypervisor ran other guests on this machine's CPUs: a run with
    # a high share was disturbed from outside.
    ticks1 = cpu_ticks()
    prov["steal_share"] = (ticks1[1] - ticks0[1]) / max(ticks1[0] - ticks0[0], 1)
    for msg in tally.messages:
        print(f"FAIL: {msg}")
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    result.update({"attempted": tally.attempted, "failed": tally.failed, "messages": tally.messages})
    with open(os.path.join(ROOT, ".perfbench", f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        wait_groups()
    sys.exit(code)
