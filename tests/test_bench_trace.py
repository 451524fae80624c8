"""The benchmark's traced run completes on this tree.

perfbench/run.py --trace 1 wraps capset's functions by name, calls run_sweep
directly for its per-layer probes and replays the CLI in-process: a renamed
hook or a probe that raises makes it exit 1. This runs the same traced
replay of the ag15 workload in a fresh process.
"""
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_ag15_run_completes(tmp_path):
    script = textwrap.dedent(f"""
        import os
        import sys

        sys.path[:0] = [{os.path.join(ROOT, "src")!r}, {os.path.join(ROOT, "perfbench")!r}]
        import tracing

        env = dict(os.environ)
        env.pop("CAPSET_THREADS", None)
        traced = tracing.traced_run("ag15", 1, {str(tmp_path)!r}, env)
        tally = traced["tally"]
        print(tally.attempted, tally.failed, *tally.messages, sep="\\n")
    """)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=600, env=env)
    assert res.returncode == 0, res.stderr[-4000:]
    attempted, failed, *messages = res.stdout.splitlines()
    assert int(attempted) > 0
    assert int(failed) == 0, messages
