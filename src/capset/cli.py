"""Command-line surface.

Subcommands: build an expression to a file, verify properties of a file with
structured text (and optional JSON) reports, show file info, write a named
preset with its hypothesis-check report, and diff two files.

Exit codes: 0 all requested checks passed (or command succeeded), 1 a checked
property failed (the report carries the witness), 2 usage, parse, input, or
capacity errors, a dead sweep worker, running out of memory, or an interrupt.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .capfile import read_capset, write_capset
from .constructions import preset_ag6_112, preset_ag15_inputs, preset_ag15_reports, five_block, five_block_reports
from .errors import CapsetError, PreconditionError
from .expr import evaluate
from .f3core import Point, PointSet, unrank
from .sweep import resolve_threads
from . import verifiers

# CLI property flags in canonical run order.
_PROPERTIES = ("cap", "complete", "pset", "saturated", "odd", "pset-complete", "thmC")

_FLAG_HELP = {
    "cap": "no three distinct points sum to zero coordinatewise",
    "complete": "cap that no external point extends (implies --cap)",
    "pset": "cap in which every two points share a zero coordinate",
    "saturated": "contains the full support class of every member",
    "odd": "every member has an odd number of zero coordinates",
    "pset-complete": "P-set that no external point extends as a P-set",
    "thmC": "complete saturated P-set, decided on zero supports (derived conditions)",
}


def _trits(p: Point) -> str:
    return "".join(str(c) for c in p)


def _witness_str(witness: tuple[Point, ...] | None) -> str:
    if not witness:
        return "-"
    return " ".join(_trits(p) for p in witness)


def _print_report(name: str, rep: verifiers.VerifyReport, note: str | None = None) -> None:
    print(f"check: {name}")
    print(f"  property: {rep.property}")
    print(f"  passed: {'true' if rep.passed else 'false'}")
    if rep.witness:
        print(f"  witness: {_witness_str(rep.witness)}")
    print(f"  pairs_examined: {rep.pairs_examined}")
    print(f"  elapsed_s: {rep.elapsed:.3f}")
    print(f"  workers: {rep.workers}")
    if note:
        print(f"  note: {note}")


def _report_dict(name: str, rep: verifiers.VerifyReport, note: str | None = None) -> dict:
    d = {
        "check": name,
        "property": rep.property,
        "passed": rep.passed,
        "witness": [_trits(p) for p in rep.witness] if rep.witness else None,
        "pairs_examined": rep.pairs_examined,
        "elapsed_s": round(rep.elapsed, 6),
        "workers": rep.workers,
    }
    if note:
        d["note"] = note
    return d


def _failed(prop: str, witness, t0: float) -> verifiers.VerifyReport:
    return verifiers.VerifyReport(prop, False, witness, 0, time.perf_counter() - t0, 1)


def _run_checks(
    s: PointSet, props: list[str], threads: int | None, naive: bool, progress: bool
) -> list[tuple[str, verifiers.VerifyReport, str | None]]:
    """Run the requested properties in canonical order.

    Returns (flag name, report, optional note) triples. Requesting complete
    implies cap; the two share one coverage sweep unless --naive puts the cap
    check on the triple scan.
    """
    want = [p for p in _PROPERTIES if p in props or (p == "cap" and "complete" in props)]
    sweep = functools.cache(
        lambda: verifiers.verify_cap_and_complete(s, threads=threads, progress=progress)
    )

    def cap():
        if naive:
            return verifiers.is_cap(s, mode="naive"), None
        if "complete" in want:
            return sweep()[0], None
        return verifiers.is_cap(s, mode="fast", threads=threads, progress=progress), None

    def complete():
        rep = sweep()[1]
        if rep is None:
            t0 = time.perf_counter()
            return _failed("complete_cap", None, t0), "completeness is undefined: the set is not a cap"
        return rep, None

    def pset_complete():
        t0 = time.perf_counter()
        pre = verifiers.is_pset(s, threads=threads)
        if not pre.passed:
            note = "P-set completeness is undefined: the set is not a P-set"
            return _failed("complete_pset", pre.witness, t0), note
        return verifiers.is_complete_pset(s, precheck=False), None

    checks = {
        "cap": cap,
        "complete": complete,
        "pset": lambda: (verifiers.is_pset(s, threads=threads), None),
        "saturated": lambda: (verifiers.is_b_saturated(s), None),
        "odd": lambda: (verifiers.is_odd_pset(s), None),
        "pset-complete": pset_complete,
        "thmC": lambda: (verifiers.pset_characterization(s), None),
    }
    return [(name, *checks[name]()) for name in want]


def _emit_reports(
    path: str,
    s: PointSet,
    results: list[tuple[str, verifiers.VerifyReport, str | None]],
    threads: int | None,
    json_path: str | None,
) -> bool:
    print("capset-report/1")
    print(f"file: {path}")
    print(f"dim: {s.dim}")
    print(f"size: {len(s)}")
    for name, rep, note in results:
        _print_report(name, rep, note)
    all_passed = all(rep.passed for _, rep, _ in results)
    print(f"result: {'pass' if all_passed else 'FAIL'}")
    if json_path:
        doc = {
            "format": "capset-report/1",
            "file": path,
            "dim": s.dim,
            "size": len(s),
            "threads": resolve_threads(threads),
            "checks": [_report_dict(n, r, note) for n, r, note in results],
            "passed": all_passed,
        }
        with open(json_path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return all_passed


def _cmd_build(args: argparse.Namespace) -> int:
    s = evaluate(
        args.expr,
        strict=not args.skip_hypothesis_checks,
        allow_overlap=args.allow_overlap,
    )
    write_capset(s, args.output)
    print(f"wrote: {args.output}")
    print(f"dim: {s.dim}")
    print(f"size: {len(s)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    s = read_capset(args.file)
    props = [p for p in _PROPERTIES if getattr(args, p.replace("-", "_"))]
    if not props:
        props = ["cap"]
    results = _run_checks(s, props, args.threads, args.naive, progress=True)
    ok = _emit_reports(args.file, s, results, args.threads, args.report_json)
    return 0 if ok else 1


def _cmd_info(args: argparse.Namespace) -> int:
    s = read_capset(args.file)
    print(f"file: {args.file}")
    print(f"dim: {s.dim}")
    print(f"size: {len(s)}")
    print("zero-count histogram:")
    if len(s):
        zeros = (s.coords() == 0).sum(axis=1)
        for z in range(s.dim + 1):
            n = int((zeros == z).sum())
            if n:
                print(f"  zeros={z}: {n}")
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    if args.name == "ag15":
        inputs = preset_ag15_inputs()
        print("preset: ag15")
        print("hypothesis checks (reported, not asserted):")
        for label, rep in preset_ag15_reports():
            line = f"  {label}: {'pass' if rep.passed else 'FAIL'}"
            if rep.witness:
                line += f" witness={_witness_str(rep.witness)}"
            print(line)
        s = five_block(inputs, check=False)
    elif args.name == "ag6-112":
        print("preset: ag6-112")
        s = preset_ag6_112(parity="even")
    else:
        print(
            f"error: unknown preset {args.name!r}; valid names: ag15, ag6-112",
            file=sys.stderr,
        )
        return 2
    write_capset(s, args.output)
    print(f"wrote: {args.output}")
    print(f"dim: {s.dim}")
    print(f"size: {len(s)}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a = read_capset(args.file_a)
    b = read_capset(args.file_b)
    if a.dim != b.dim:
        print(f"different: dim {a.dim} vs {b.dim}")
        return 1
    if a == b:
        print(f"identical: dim {a.dim}, size {len(a)}")
        return 0
    print(f"different: dim {a.dim}")
    for name, mine, theirs in ((args.file_a, a, b), (args.file_b, b, a)):
        only = np.setdiff1d(mine.ranks, theirs.ranks, assume_unique=True)
        print(f"only in {name}: {only.size}")
        for r in only[:10]:
            print(f"  {_trits(unrank(int(r), a.dim))}")
        if only.size > 10:
            print(f"  ... {only.size - 10} more")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capset",
        description="Construct and exhaustively verify cap sets over F_3.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("build", help="evaluate a construction expression and write the set")
    p.add_argument("expr", help='e.g. "six(P1,P1,P1,P1,P1,P1)" or "tD(three(P1,P1,P1), even)"')
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.add_argument(
        "--skip-hypothesis-checks",
        action="store_true",
        help="unsafe: do not validate construction hypotheses (three/six/five/tD/double)",
    )
    p.add_argument("--allow-overlap", action="store_true", help="let union operands share points")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check properties of a set file (default: --cap)")
    p.add_argument("file")
    for flag in _PROPERTIES:
        p.add_argument(f"--{flag}", action="store_true", help=_FLAG_HELP[flag])
    p.add_argument("--threads", type=int, metavar="N", help="worker count (default: CAPSET_THREADS or CPU count)")
    p.add_argument("--naive", action="store_true", help="force the triple-scan oracle for the cap check")
    p.add_argument("--report-json", metavar="PATH", help="also write the report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("info", help="dimension, size, zero-count histogram")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("preset", help="build a named set: ag15 (124928 points), ag6-112")
    p.add_argument("name", metavar="NAME", help="ag15 | ag6-112")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("diff", help="compare two set files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as e:
        print(f"error: hypothesis check failed: {e}", file=sys.stderr)
        if e.witness:
            print(f"  witness: {_witness_str(e.witness)}", file=sys.stderr)
        print("  (use --skip-hypothesis-checks to build anyway)", file=sys.stderr)
        return 2
    except CapsetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
