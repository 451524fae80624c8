"""Command-line interface: subcommands, reports, exit codes."""
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

import capset
from capset import verifiers
from capset.capfile import read_capset, write_capset
from capset.cli import main
from capset.constructions import gen_B, preset_ag6_112, seed_P
from capset.f3core import PointSet


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- build ---------------------------------------------------------------------


def test_build_writes_file(tmp_path, capsys):
    path = tmp_path / "p3.caps"
    code, out, _ = run(capsys, "build", "three(P1,P1,P1)", "-o", str(path))
    assert code == 0
    assert "size: 6" in out
    s = read_capset(path)
    assert set(s.points()) == {
        (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 2, 0), (1, 0, 0), (2, 0, 0)
    }


def test_build_parse_error_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "build", "three(P1,P1)", "-o", str(tmp_path / "x.caps"))
    assert code == 2
    assert "offset" in err


def test_build_hypothesis_failure_and_override(tmp_path, capsys):
    path = tmp_path / "t.caps"
    code, _, err = run(capsys, "build", "tD(three(P1,P1,P1), even)", "-o", str(path))
    assert code == 2
    assert "odd_pset" in err
    assert "--skip-hypothesis-checks" in err
    assert not path.exists()
    code, out, _ = run(
        capsys,
        "build",
        "tD(three(P1,P1,P1), even)",
        "-o",
        str(path),
        "--skip-hypothesis-checks",
    )
    assert code == 0
    assert len(read_capset(path)) == 10


def test_build_allow_overlap(tmp_path, capsys):
    path = tmp_path / "u.caps"
    code, _, err = run(capsys, "build", "union(P1, P1)", "-o", str(path))
    assert code == 2
    code, _, _ = run(capsys, "build", "union(P1, P1)", "-o", str(path), "--allow-overlap")
    assert code == 0


# --- verify --------------------------------------------------------------------


def caps_file(tmp_path, s, name):
    path = tmp_path / name
    write_capset(s, path)
    return str(path)


def test_verify_defaults_to_cap(tmp_path, capsys):
    path = caps_file(tmp_path, gen_B(2), "b2.caps")
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert "check: cap" in out
    assert "result: pass" in out


def test_verify_cap_failure_exit_1_with_witness(tmp_path, capsys):
    path = caps_file(
        tmp_path, PointSet.from_points([(0, 0), (0, 1), (0, 2)]), "line.caps"
    )
    code, out, _ = run(capsys, "verify", path, "--cap")
    assert code == 1
    assert "witness: 00 01 02" in out
    assert "result: FAIL" in out


def test_verify_complete_runs_cap_too(tmp_path, capsys):
    path = caps_file(tmp_path, preset_ag6_112(), "c112.caps")
    code, out, _ = run(capsys, "verify", path, "--complete", "--threads", "1")
    assert code == 0
    assert "check: cap" in out
    assert "check: complete" in out
    assert out.count("passed: true") == 2


def test_verify_pset_flags(tmp_path, capsys):
    p6 = __import__("capset").six_construction(*[seed_P(1)] * 6)
    path = caps_file(tmp_path, p6, "p6.caps")
    code, out, _ = run(
        capsys, "verify", path, "--pset", "--saturated", "--odd", "--pset-complete", "--thmC"
    )
    assert code == 0
    for name in ("pset", "saturated", "odd", "pset-complete", "thmC"):
        assert f"check: {name}" in out


@pytest.mark.parametrize("pset", [seed_P(1), gen_B(2)], ids=["pset", "not_pset"])
def test_verify_pset_and_pset_complete_share_one_is_pset(tmp_path, capsys, monkeypatch, pset):
    path = caps_file(tmp_path, pset, "s.caps")
    calls = []
    is_pset = verifiers.is_pset

    def counted(*args, **kwargs):
        calls.append(args)
        return is_pset(*args, **kwargs)

    monkeypatch.setattr(verifiers, "is_pset", counted)
    code, out, _ = run(capsys, "verify", path, "--pset", "--pset-complete")
    assert len(calls) == 1
    assert (code, out.count("check: "), out.count("passed: true")) == (
        (0, 2, 2) if is_pset(pset).passed else (1, 2, 0)
    )


def test_verify_pset_failure(tmp_path, capsys):
    path = caps_file(tmp_path, gen_B(6), "b6.caps")
    code, out, _ = run(capsys, "verify", path, "--pset")
    assert code == 1
    assert "passed: false" in out


def test_verify_pset_complete_undefined_for_non_pset(tmp_path, capsys):
    path = caps_file(tmp_path, gen_B(2), "b2.caps")
    code, out, _ = run(capsys, "verify", path, "--pset-complete")
    assert code == 1
    assert "not a P-set" in out


def test_verify_report_json(tmp_path, capsys):
    path = caps_file(tmp_path, preset_ag6_112(), "c112.caps")
    json_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", path, "--cap", "--complete",
        "--threads", "1", "--report-json", str(json_path),
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert doc["format"] == "capset-report/1"
    assert doc["dim"] == 6 and doc["size"] == 112
    assert doc["passed"] is True
    by_check = {c["check"]: c for c in doc["checks"]}
    assert by_check["cap"]["pairs_examined"] == 112 * 111 // 2
    assert by_check["cap"]["witness"] is None
    assert by_check["complete"]["passed"] is True


def test_verify_naive_flag_uses_triple_scan(tmp_path, capsys):
    path = caps_file(tmp_path, preset_ag6_112(), "c112.caps")
    json_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", path, "--cap", "--naive", "--report-json", str(json_path)
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    m = 112
    assert doc["checks"][0]["pairs_examined"] == m * (m - 1) * (m - 2) // 6


def test_verify_bad_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.caps"
    bad.write_bytes(b"capset/1 n=2 size=1\n0x\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "line 2" in err
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.caps"))
    assert code == 2


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--pset"], ["info"]])
def test_file_above_rank_limit_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "n40.caps"
    path.write_bytes(b"capset/1 n=40 size=1\n" + b"2" * 40 + b"\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.splitlines() == ["error: line 1: dimension must be in 1..39, got 40"]


@pytest.mark.parametrize("expr", ["units(40)", "units(41)"])
def test_build_above_rank_limit_exit_2(tmp_path, capsys, expr):
    path = tmp_path / "u.caps"
    code, _, err = run(capsys, "build", expr, "-o", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "1..39" in err
    assert not path.exists()


# --- info ----------------------------------------------------------------------


def test_info_histogram(tmp_path, capsys):
    p3 = __import__("capset").three_construction(seed_P(1), seed_P(1), seed_P(1))
    path = caps_file(tmp_path, p3, "p3.caps")
    code, out, _ = run(capsys, "info", path)
    assert code == 0
    assert "dim: 3" in out
    assert "size: 6" in out
    assert "zeros=2: 6" in out


# --- preset --------------------------------------------------------------------


def test_preset_ag6_112(tmp_path, capsys):
    path = tmp_path / "c.caps"
    code, out, _ = run(capsys, "preset", "ag6-112", "-o", str(path))
    assert code == 0
    assert "size: 112" in out
    assert read_capset(path) == preset_ag6_112()


def test_preset_ag15_reports_hypotheses(tmp_path, capsys):
    path = tmp_path / "ag15.caps"
    code, out, _ = run(capsys, "preset", "ag15", "-o", str(path))
    assert code == 0  # hypothesis outcomes are reported, never asserted
    assert "size: 124928" in out
    assert "condition1[n]: pass" in out
    assert "complete_pset[pn3]: FAIL witness=000111" in out
    s = read_capset(path)
    assert len(s) == 124_928 and s.dim == 15


def test_preset_unknown_name(tmp_path, capsys):
    code, _, err = run(capsys, "preset", "bogus", "-o", str(tmp_path / "x.caps"))
    assert code == 2
    assert "ag15" in err and "ag6-112" in err


# --- diff ----------------------------------------------------------------------


def test_diff_identical(tmp_path, capsys):
    a = caps_file(tmp_path, gen_B(2), "a.caps")
    b = caps_file(tmp_path, gen_B(2), "b.caps")
    code, out, _ = run(capsys, "diff", a, b)
    assert code == 0
    assert "identical" in out


def test_diff_lists_differences(tmp_path, capsys):
    a = caps_file(tmp_path, PointSet.from_points([(0, 1), (0, 2)]), "a.caps")
    b = caps_file(tmp_path, PointSet.from_points([(0, 1), (1, 0)]), "b.caps")
    code, out, _ = run(capsys, "diff", a, b)
    assert code == 1
    assert "only in" in out
    assert "02" in out and "10" in out


def test_diff_truncates_long_listings(tmp_path, capsys):
    a = caps_file(tmp_path, PointSet.from_ranks(range(0, 14), 3), "a.caps")
    b = caps_file(tmp_path, PointSet.from_ranks(range(13, 27), 3), "b.caps")
    code, out, _ = run(capsys, "diff", a, b)
    assert code == 1
    assert out == (
        "different: dim 3\n"
        f"only in {a}: 13\n"
        "  000\n  001\n  002\n  010\n  011\n  012\n  020\n  021\n  022\n  100\n"
        "  ... 3 more\n"
        f"only in {b}: 13\n"
        "  112\n  120\n  121\n  122\n  200\n  201\n  202\n  210\n  211\n  212\n"
        "  ... 3 more\n"
    )


def test_diff_dim_mismatch(tmp_path, capsys):
    a = caps_file(tmp_path, gen_B(2), "a.caps")
    b = caps_file(tmp_path, gen_B(3), "b.caps")
    code, out, _ = run(capsys, "diff", a, b)
    assert code == 1
    assert "dim 2 vs 3" in out


# --- usage ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "exc, message", [(MemoryError, "out of memory"), (KeyboardInterrupt, "interrupted")]
)
def test_verify_memory_error_and_interrupt_exit_2(tmp_path, capsys, monkeypatch, exc, message):
    path = caps_file(tmp_path, gen_B(2), "b2.caps")

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(verifiers, "verify_cap_and_complete", fail)
    code, out, err = run(capsys, "verify", path, "--complete")
    assert (code, err) == (2, f"error: {message}\n")


@pytest.mark.parametrize(
    "flags, env, message",
    [
        (["--threads", "0"], None, "thread count must be >= 1, got 0"),
        (["--threads", "-3"], None, "thread count must be >= 1, got -3"),
        ([], "0", "CAPSET_THREADS must be >= 1, got 0"),
        ([], "abc", "CAPSET_THREADS must be an integer, got 'abc'"),
    ],
    ids=["threads-0", "threads-minus-3", "env-0", "env-abc"],
)
def test_bad_thread_count_exit_2(tmp_path, capsys, monkeypatch, flags, env, message):
    # an input error, found before any worker starts
    path = caps_file(tmp_path, gen_B(5), "b5.caps")
    if env is None:
        monkeypatch.delenv("CAPSET_THREADS", raising=False)
    else:
        monkeypatch.setenv("CAPSET_THREADS", env)

    def refuse(proc):
        raise AssertionError("a worker started")

    monkeypatch.setattr(ForkProcess, "start", refuse)
    code, out, err = run(capsys, "verify", path, *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Runs the CLI with sys.argv[1:] under a patch that the forked sweep workers
# inherit: a worker repeats its tiles without end, so it is still scanning
# when the SIGINT arrives, however fast the kernel is.
ENDLESS_WORKERS = """
import os
import sys
from capset.cli import main
from capset.sweep import _Kernel

parent = os.getpid()
block_tiles = _Kernel._block_tiles

def endless_block_tiles(self, *args, **kwargs):
    while os.getpid() != parent:
        yield from block_tiles(self, *args, **kwargs)
    yield from block_tiles(self, *args, **kwargs)

_Kernel._block_tiles = endless_block_tiles
sys.exit(main(sys.argv[1:]))
"""


def interrupt_verify(path):
    """SIGINT to the whole group of a 2-worker verify once both workers scan; (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(capset.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", ENDLESS_WORKERS, "verify", str(path), "--cap", "--complete", "--threads", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        children = pathlib.Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 60
        while proc.poll() is None and len(children.read_text().split()) < 2:
            assert time.monotonic() < deadline, "the sweep workers did not start"
            time.sleep(0.01)
        time.sleep(0.2)  # inside the scan, before the first progress line at 1 s
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    deadline = time.monotonic() + 5
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a process of the group outlived the interrupted verify"
        time.sleep(0.05)
    return proc.returncode, err


def test_ctrl_c_stops_forked_workers(tmp_path):
    # a real SIGINT to the whole process group while both workers scan a
    # dim-18 cap (byte coverage, which forks workers): only the parent
    # reports it, and it leaves no process behind
    path = tmp_path / "b18.caps"
    ranks = np.random.default_rng(18).choice(gen_B(18).ranks, 16_000, replace=False)
    write_capset(PointSet(18, ranks), path)
    assert interrupt_verify(path) == (2, "error: interrupted\n")


def test_ctrl_c_stops_window_workers(tmp_path):
    # the same at dimension 19, where two workers own the runs of coverage windows
    path = tmp_path / "b19.caps"
    ranks = np.random.default_rng(19).choice(gen_B(19).ranks, 2_000, replace=False)
    write_capset(PointSet(19, ranks), path)
    assert interrupt_verify(path) == (2, "error: interrupted\n")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["verify"])  # missing file argument
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2
