"""Set file format: canonical writing, validating reads, line-numbered errors."""
import random

import pytest

from capset.capfile import read_capset, write_capset
from capset.constructions import preset_ag6_112, seed_P, six_construction
from capset.errors import FileFormatError
from capset.f3core import POW3, PointSet

P1 = seed_P(1)


def roundtrip(tmp_path, s, name="s.caps"):
    path = tmp_path / name
    write_capset(s, path)
    return read_capset(path), path


def test_exact_bytes_for_seed(tmp_path):
    _, path = roundtrip(tmp_path, seed_P(2))
    assert path.read_bytes() == b"capset/1 n=2 size=2\n01\n02\n"


def test_round_trip_identity(tmp_path):
    rng = random.Random(0xF11E)
    sets = [
        PointSet.empty(4),
        seed_P(1),
        six_construction(P1, P1, P1, P1, P1, P1),
        preset_ag6_112(),
    ]
    for _ in range(10):
        dim = rng.randint(1, 7)
        size = rng.randint(0, min(50, POW3[dim]))
        sets.append(PointSet.from_ranks(rng.sample(range(POW3[dim]), size), dim))
    for i, s in enumerate(sets):
        back, _ = roundtrip(tmp_path, s, f"s{i}.caps")
        assert back == s


def test_read_decodes_ranks_in_every_dimension(tmp_path):
    # lines spelled from Python integers, so the check shares no code with the reader
    rng = random.Random(0xDEC0)
    for dim in range(1, 40):
        ranks = sorted({0, POW3[dim] - 1, *(rng.randrange(POW3[dim]) for _ in range(40))})
        lines = ["".join(str(r // POW3[dim - 1 - i] % 3) for i in range(dim)) for r in ranks]
        path = tmp_path / f"d{dim}.caps"
        path.write_text(f"capset/1 n={dim} size={len(ranks)}\n" + "".join(ln + "\n" for ln in lines))
        assert read_capset(path) == PointSet.from_ranks(ranks, dim)


def test_writes_are_byte_identical(tmp_path):
    s = six_construction(P1, P1, P1, P1, P1, P1)
    a = tmp_path / "a.caps"
    b = tmp_path / "b.caps"
    write_capset(s, a)
    write_capset(s, b)
    assert a.read_bytes() == b.read_bytes()
    back = read_capset(a)
    c = tmp_path / "c.caps"
    write_capset(back, c)
    assert c.read_bytes() == a.read_bytes()


def test_missing_trailing_newline_accepted(tmp_path):
    path = tmp_path / "x.caps"
    path.write_bytes(b"capset/1 n=2 size=2\n01\n02")
    assert read_capset(path) == seed_P(2)


def bad_file(tmp_path, body):
    path = tmp_path / "bad.caps"
    path.write_bytes(body)
    return path


@pytest.mark.parametrize(
    "body,line,needle",
    [
        (b"", 1, "header"),
        (b"capset/2 n=2 size=1\n01\n", 1, "header"),
        (b"capset/1 n=2 size=two\n", 1, "header"),
        (b"capset/1 n=02 size=1\n01\n", 1, "header"),
        (b"capset/1 n=0 size=0\n", 1, "dimension"),
        (b"capset/1 n=2 size=1\n013\n", 2, "characters"),
        (b"capset/1 n=2 size=2\n01\n0x\n", 3, "invalid character"),
        (b"capset/1 n=2 size=2\n01\n01\n", 3, "ascending"),
        (b"capset/1 n=2 size=2\n02\n01\n", 3, "ascending"),
        (b"capset/1 n=2 size=3\n01\n02\n", 4, "size=3"),
        (b"capset/1 n=2 size=1\n01\n02\n", 3, "size=1"),
        (b"capset/1 n=2 size=1\n01\r\n", 2, "characters"),
        (b"capset/1 n=2 size=2\n01\n0/\n", 3, "invalid character"),
    ],
)
def test_malformed_files_name_the_line(tmp_path, body, line, needle):
    path = bad_file(tmp_path, body)
    with pytest.raises(FileFormatError) as ei:
        read_capset(path)
    assert ei.value.line == line
    assert needle in str(ei.value)
    assert f"line {line}" in str(ei.value)


@pytest.mark.parametrize("dim", [40, 45])
def test_header_above_rank_limit_rejected_before_decoding(tmp_path, dim):
    # a well-formed body whose ranks would overflow int64
    path = bad_file(tmp_path, f"capset/1 n={dim} size=1\n{'2' * dim}\n".encode())
    with pytest.raises(FileFormatError) as ei:
        read_capset(path)
    assert ei.value.line == 1
    assert "1..39" in str(ei.value)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_capset(tmp_path / "nope.caps")


def test_large_set_round_trip(tmp_path):
    from capset.constructions import preset_ag15

    s = preset_ag15()
    back, path = roundtrip(tmp_path, s, "ag15.caps")
    assert back == s
    # header + 124928 lines of 16 bytes
    assert path.stat().st_size == len("capset/1 n=15 size=124928\n") + 124_928 * 16
