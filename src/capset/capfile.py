"""Plain-text set format.

A file is a header line

    capset/1 n=<dim> size=<count>

followed by exactly <count> point lines in strictly ascending rank order, each
line being <dim> characters from {0, 1, 2} with coordinate 1 first. Writing is
canonical (LF line endings, trailing newline), so equal sets produce
byte-identical files; reading validates everything and reports the first
offending line by number (the header is line 1).
"""
from __future__ import annotations

import os
import re

import numpy as np

from .errors import FileFormatError
from .f3core import MAX_RANK_DIM, PointSet

_HEADER_RE = re.compile(rb"^capset/1 n=(0|[1-9][0-9]*) size=(0|[1-9][0-9]*)$")


def write_capset(s: PointSet, path: str | os.PathLike) -> None:
    """Write a set in canonical form (points ascend; LF endings)."""
    header = f"capset/1 n={s.dim} size={len(s)}\n".encode("ascii")
    if len(s):
        block = np.empty((len(s), s.dim + 1), dtype=np.uint8)
        block[:, : s.dim] = s.coords() + ord("0")
        block[:, s.dim] = ord("\n")
        body = block.tobytes()
    else:
        body = b""
    with open(path, "wb") as fh:
        fh.write(header + body)


def read_capset(path: str | os.PathLike) -> PointSet:
    """Read and fully validate a set file."""
    with open(path, "rb") as fh:
        data = fh.read()

    nl = data.find(b"\n")
    header = data[:nl] if nl >= 0 else data
    m = _HEADER_RE.match(header)
    if m is None:
        raise FileFormatError(
            "expected header 'capset/1 n=<dim> size=<count>'"
            + (f", got {header[:60]!r}" if header else " on empty line"),
            line=1,
        )
    dim = int(m.group(1))
    size = int(m.group(2))
    if not 1 <= dim <= MAX_RANK_DIM:
        raise FileFormatError(f"dimension must be in 1..{MAX_RANK_DIM}, got {dim}", line=1)
    body = data[nl + 1 :] if nl >= 0 else b""

    stride = dim + 1
    fast = len(body) in (size * stride, size * stride - 1 if size else 0)
    if fast:
        buf = body if len(body) == size * stride else body + b"\n"
        arr = np.frombuffer(buf, dtype=np.uint8).reshape(size, stride)
        if size and not (arr[:, dim] == ord("\n")).all():
            fast = False
        else:
            digits = arr[:, :dim].astype(np.int64) - ord("0")
            if size and not ((digits >= 0) & (digits <= 2)).all():
                fast = False
    if fast:
        pows = 3 ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        ranks = digits @ pows if size else np.empty(0, dtype=np.int64)
        if size > 1:
            bad = np.flatnonzero(ranks[1:] <= ranks[:-1])
            if bad.size:
                i = int(bad[0]) + 1
                raise FileFormatError(
                    "points must be strictly ascending; "
                    f"{buf[i * stride : i * stride + dim].decode('ascii')!r} does not follow its predecessor",
                    line=i + 2,
                )
        return PointSet(dim, ranks, _trusted=True)

    # Slow path: walk line by line so the error names the exact line.
    lines = body.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for i, raw in enumerate(lines):
        lineno = i + 2
        if i >= size:
            raise FileFormatError(f"header declares size={size} but more point lines follow", line=lineno)
        if len(raw) != dim:
            raise FileFormatError(f"expected {dim} characters, got {len(raw)}: {raw[:60]!r}", line=lineno)
        bad = [b for b in raw if b not in (0x30, 0x31, 0x32)]
        if bad:
            raise FileFormatError(f"invalid character {chr(bad[0])!r}; points use only 0, 1, 2", line=lineno)
    if len(lines) < size:
        raise FileFormatError(
            f"header declares size={size} but only {len(lines)} point lines present",
            line=len(lines) + 2,
        )
    raise FileFormatError("malformed point block", line=2)
