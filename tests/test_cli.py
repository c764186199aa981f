import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import toepcalc
from toepcalc import SupernaturalNumber, reference_example, parse_tower_text, serialize_tower
from toepcalc import apply_block_code, apply_positionwise_permutation, rotate_tower
from toepcalc.odometer import OdometerError
from toepcalc.randomgen import random_block_code, random_positionwise, random_tower
from toepcalc.cli import corpus_matrix, run_command
from helpers import tower


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def gen_file(tmp_path: Path, stages: int, name: str = "g.tw") -> str:
    out = str(tmp_path / name)
    code, _ = run_command(["generate", "paper-example", "--stages", str(stages), "-o", out])
    assert code == 0
    return out


def test_generate_writes_reference(tmp_path):
    f = gen_file(tmp_path, 2)
    assert parse_tower_text(Path(f).read_text()) == reference_example(2)


def test_validate_good_and_bad(tmp_path):
    f = gen_file(tmp_path, 1)
    code, text = run_command(["validate", f])
    assert code == 0
    assert "status = valid" in text

    bad = write(tmp_path / "bad.tw", "alphabet = 0 1\nperiod 4 = 0 1 0\n")
    code, text = run_command(["validate", bad])
    assert code == 3
    assert text.startswith("error:") and "expected 4 cells" in text

    code, text = run_command(["validate", str(tmp_path / "missing.tw")])
    assert code == 3


def test_validate_large_prime_scale_is_fast(tmp_path):
    f = write(tmp_path / "p.tw", "alphabet = 0 1\nscale = 2305843009213693951\nperiod 1 = 0\n")
    start = time.perf_counter()
    code, text = run_command(["validate", f])
    assert time.perf_counter() - start < 2.0
    assert code == 0 and "scale = 2305843009213693951" in text
    huge = write(tmp_path / "h.tw", f"alphabet = 0 1\nscale = {2**89 - 1}\nperiod 1 = 0\n")
    code, text = run_command(["validate", huge])
    assert code == 3 and "too large" in text


def test_analyze_text_report(tmp_path):
    f = gen_file(tmp_path, 2)
    code, text = run_command(["analyze", f])
    assert code == 0
    lines = dict(
        line.split(" = ", 1) for line in text.splitlines() if " = " in line
    )
    assert lines["scale.certified"] == "2^2 * 5"
    assert lines["scale.declared"] == "2^inf * 5"
    assert lines["growth.trend"] == "non-monotone"
    assert lines["growth.min_block_lengths"] == "2 1 17"
    assert lines["stage.10.unknown"] == "3"


def test_analyze_json_report(tmp_path):
    f = gen_file(tmp_path, 2)
    code, text = run_command(["--format", "json", "analyze", f])
    assert code == 0
    d = json.loads(text)
    assert d["scale"]["certified"] == "2^2 * 5"
    assert d["periods"] == [5, 10, 20]


def test_analyze_report_depth(tmp_path):
    f = gen_file(tmp_path, 2)
    for depth, periods in ((0, []), (1, [20]), (2, [10, 20]), (7, [5, 10, 20])):
        code, text = run_command(["--format", "json", "analyze", f, "--report-depth", str(depth)])
        assert code == 0 and list(map(int, json.loads(text)["stage"])) == periods
    code, text = run_command(["analyze", f, "--report-depth", "0"])
    assert code == 0 and "stage." not in text
    code, text = run_command(["analyze", f, "--report-depth", "-3"])
    assert code == 3 and text.startswith("error:") and "--report-depth" in text


def test_factor_stage_value_bound_is_exit_3():
    for fmt in ("text", "json"):
        for scale, count in (("9999991^inf", "3"), ("2^inf", "15000")):
            start = time.perf_counter()
            code, text = run_command(["--format", fmt, "factor", "--scale", scale, "--count", count])
            assert time.perf_counter() - start < 2.0
            assert code == 3 and text.startswith("error:"), text[:200]


def test_factor_command():
    code, text = run_command(["factor", "--scale", "2^inf * 5", "--count", "4"])
    assert code == 0
    assert "factors = 2 4 40 80" in text
    code, text = run_command(["--format", "json", "factor", "--scale", "2^inf * 5", "--count", "4"])
    assert json.loads(text)["factors"] == [2, 4, 40, 80]
    code, text = run_command(["factor", "--scale", "6^2", "--count", "3"])
    assert code == 3 and text.startswith("error:")


def test_compare_certified_pair(tmp_path):
    f = gen_file(tmp_path, 2)
    code, _ = run_command(["rotate", f, "-k", "7", "-o", str(tmp_path / "r.tw")])
    assert code == 0
    code, _ = run_command(
        ["permute", str(tmp_path / "r.tw"), "--period", "5",
         "--perms", "1,0;1,0;1,0;1,0;1,0", "-o", str(tmp_path / "rp.tw")]
    )
    assert code == 0
    code, text = run_command(["--format", "json", "compare", f, str(tmp_path / "rp.tw")])
    assert code == 0
    d = json.loads(text)
    assert d["verdict"] == "conjugate-certified"
    assert d["stage"] == 5 and d["shift"] == 13


def test_compare_scale_mismatch_is_exit_1(tmp_path):
    a = gen_file(tmp_path, 1)
    b = write(tmp_path / "tri.tw", "alphabet = 0 1\nscale = 3^inf\nperiod 3 = 0 _ _\n")
    code, text = run_command(["compare", a, b])
    assert code == 1
    assert "not-conjugate" in text and "scale" in text


def test_compare_refuted_is_exit_1(tmp_path):
    a = write(tmp_path / "a.tw", serialize_tower(tower("01_", "010011")))
    b = write(tmp_path / "b.tw", serialize_tower(tower("010", "010010")))
    code, text = run_command(["compare", a, b])
    assert code == 1
    assert "refuted-up-to" in text


def test_compare_unknown_is_exit_2(tmp_path):
    a = gen_file(tmp_path, 2, "a.tw")
    b = gen_file(tmp_path, 3, "b.tw")
    code, text = run_command(["compare", a, b])
    assert code == 2
    assert "unknown" in text


def test_invariant_exit_codes(tmp_path):
    a = gen_file(tmp_path, 2, "a.tw")
    b = gen_file(tmp_path, 2, "b.tw")
    code, text = run_command(["invariant", a, b, "--stages", "3"])
    assert code == 0
    assert "scale.equal = true" in text

    tri = write(tmp_path / "tri.tw", "alphabet = 0 1\nscale = 3^inf\nperiod 3 = 0 _ _\n")
    code, _ = run_command(["invariant", a, tri, "--stages", "2"])
    assert code == 1

    # equal declared scales, chi refutes: exit 2 (not a full certificate)
    c = write(tmp_path / "c.tw", "alphabet = 0 1\nscale = 2\nperiod 2 = 0 1\n")
    d = write(tmp_path / "d.tw", "alphabet = 0 1\nscale = 2\nperiod 2 = 0 _\n")
    code, text = run_command(["invariant", c, d, "--stages", "1"])
    assert code == 2
    assert "Refuted" in text

    # nine evaluated stages and only the last one, 2560, certified equal: exit 2, as for a nonempty
    # suffix short of every evaluated stage
    e = gen_file(tmp_path, 9, "e.tw")
    f = str(tmp_path / "f.tw")
    assert run_command(["rotate", e, "-k", "7", "-o", f])[0] == 0
    code, text = run_command(["--format", "json", "invariant", e, f, "--stages", "12"])
    report = json.loads(text)
    evaluated = [p for p, row in report["stage"].items() if row["result"] != "unevaluated"]
    assert len(evaluated) == 9 and report["equal_suffix"] == 1
    assert report["stage"]["2560"]["result"] == "CertifiedEqual" and evaluated[-1] == "2560"
    assert code == 2


def test_apply_code_drops_scale(tmp_path):
    f = gen_file(tmp_path, 2)
    codefile = write(
        tmp_path / "center.bc",
        "len = 1\n"
        + "".join(f"{a} {b} {c} -> {b}\n" for a in "01" for b in "01" for c in "01"),
    )
    out = str(tmp_path / "out.tw")
    code, _ = run_command(["apply-code", f, "--code", codefile, "-o", out])
    assert code == 0
    t = parse_tower_text(Path(out).read_text())
    assert t.declared_scale is None
    assert t.periods == (5, 10, 20)


def test_hole_counts_of_validate_and_apply_code(tmp_path):
    for stages, holes in ((3, 5), (4, 3)):
        code, text = run_command(["validate", gen_file(tmp_path, stages, f"s{stages}.tw")])
        assert code == 0 and f"holes = {holes}" in text.splitlines(), text
    # the radius-1 code of the CI step on the refuted verdict at N = 163840
    code_file = write(
        tmp_path / "rule.code",
        "len = 1\n0 0 0 -> 0\n0 0 1 -> 1\n0 1 0 -> 1\n0 1 1 -> 1\n1 0 0 -> 0\n1 0 1 -> 0\n1 1 0 -> 1\n1 1 1 -> 0\n",
    )
    code, text = run_command(["apply-code", str(tmp_path / "s3.tw"), "--code", code_file, "-o", str(tmp_path / "o.tw")])
    assert code == 0, text
    assert {"holes_before = 5", "holes_after = 10"} <= set(text.splitlines()), text


def test_header_only_code_with_a_huge_length_is_exit_3(tmp_path):
    # the required window count 2^(2m+1) has more digits than Python prints, or takes long to build
    f = gen_file(tmp_path, 2)
    for m in (7142, 10**9, 10**11):
        code_file = write(tmp_path / f"len{m}.code", f"len = {m}\n")
        start = time.perf_counter()
        code, text = run_command(["apply-code", f, "--code", code_file, "-o", str(tmp_path / "o.tw")])
        assert time.perf_counter() - start < 2.0, m
        assert code == 3 and text.startswith("error:") and f"len{m}.code" in text, text[:200]
        assert f"table has 0 of 2^{2 * m + 1} required windows" in text
    code_file = write(tmp_path / "len3.code", "len = 3\n")
    code, text = run_command(["apply-code", f, "--code", code_file, "-o", str(tmp_path / "o.tw")])
    assert code == 3 and "table has 0 of 128 required windows" in text


@pytest.mark.parametrize(
    "row, message",
    [("0 x 0 -> 1", "symbol 'x' is not in the alphabet"), ("0 0 0 -> 1", "window '0 0 0' listed twice"),
     ("0 1 -> 1", "expected 3 window symbols, got 2")],
)
def test_apply_code_names_the_line_of_a_bad_row(tmp_path, row, message):
    f = gen_file(tmp_path, 2)
    rows = [f"{a} {b} {c} -> {b}" for a in "01" for b in "01" for c in "01"]
    code_file = write(tmp_path / "bad.code", "\n".join(("len = 1", *rows[:2], row, *rows[2:])))
    code, text = run_command(["apply-code", f, "--code", code_file, "-o", str(tmp_path / "o.tw")])
    assert code == 3 and text.startswith("error:") and "bad.code" in text, text
    assert f"{message} (line 4)" in text


def test_apply_code_names_the_header_line_of_a_short_table(tmp_path):
    f = gen_file(tmp_path, 2)
    code_file = write(tmp_path / "short.code", "len = 1\n0 0 0 -> 0\n")
    code, text = run_command(["apply-code", f, "--code", code_file, "-o", str(tmp_path / "o.tw")])
    assert code == 3 and "short.code" in text and "table has 1 of 8 required windows (line 1)" in text, text


def test_apply_code_over_the_arrow_symbol(tmp_path):
    f = write(tmp_path / "arrow.tw", "alphabet = -> 0\nperiod 2 = -> 0\n")
    code_file = write(tmp_path / "swap.code", "len = 0\n-> -> 0\n0 -> ->\n")
    out = str(tmp_path / "o.tw")
    code, text = run_command(["apply-code", f, "--code", code_file, "-o", out])
    assert code == 0, text
    assert Path(out).read_text() == "alphabet = -> 0\nperiod 2 = 0 ->\n"


def test_permute_round_trip(tmp_path):
    f = gen_file(tmp_path, 2)
    swap = "1,0;1,0;1,0;1,0;1,0"
    once = str(tmp_path / "once.tw")
    twice = str(tmp_path / "twice.tw")
    assert run_command(["permute", f, "--period", "5", "--perms", swap, "-o", once])[0] == 0
    assert run_command(["permute", once, "--period", "5", "--perms", swap, "-o", twice])[0] == 0
    assert Path(twice).read_text() == Path(f).read_text()

    code, text = run_command(["permute", f, "--period", "5", "--perms", "1,0", "-o", once])
    assert code == 3 and "5 permutations required, got 1" in text


def test_corpus_matrix_and_determinism(tmp_path):
    gen_file(tmp_path, 2, "a.tw")
    run_command(["rotate", str(tmp_path / "a.tw"), "-k", "5", "-o", str(tmp_path / "b.tw")])
    write(tmp_path / "c.tw", "alphabet = 0 1\nscale = 3^inf\nperiod 3 = 0 _ _\n")
    code, text = run_command(["--format", "json", "corpus", str(tmp_path)])
    assert code == 0  # the matrix itself is the deliverable; cells carry verdicts
    d = json.loads(text)
    assert d["files"] == ["a.tw", "b.tw", "c.tw"]
    assert d["matrix"]["a.tw"]["b.tw"] == "conjugate-certified"
    assert d["matrix"]["a.tw"]["c.tw"] == "not-conjugate"

    files = [tmp_path / n for n in ("a.tw", "b.tw", "c.tw")]
    reports = [corpus_matrix(random.Random(i).sample(files, 3), 2) for i in range(4)]
    assert all(r == reports[0] for r in reports)


def test_corpus_cells_are_the_compare_tags(tmp_path):
    rng = random.Random(4)
    g1, g2 = reference_example(1), reference_example(2)
    t = random_tower(rng, depth=3, base_periods=(2,), multipliers=(2,), with_scale=True)
    towers = {
        "g1.tw": g1,
        "g2.tw": g2,  # the same tower one level deeper
        "g2r.tw": rotate_tower(g2, 7),
        "g2c.tw": apply_block_code(g2, random_block_code(rng, g2.alphabet, 1)),
        "t.tw": t,
        "tp.tw": apply_positionwise_permutation(t, random_positionwise(rng, t.alphabet, 2)),
        "tc.tw": apply_block_code(t, random_block_code(rng, t.alphabet, 1)),
    }
    for name, tw in towers.items():
        write(tmp_path / name, serialize_tower(tw))
    code, text = run_command(["--format", "json", "corpus", str(tmp_path)])
    assert code == 0
    matrix = json.loads(text)["matrix"]
    tags = set()
    for a in towers:
        for b in towers:
            _, compared = run_command(["--format", "json", "compare", str(tmp_path / a), str(tmp_path / b)])
            tag = json.loads(compared)["verdict"]
            assert matrix[a][b] == tag, (a, b)
            tags.add(tag)
    assert tags == {"conjugate-certified", "not-conjugate", "refuted-up-to", "unknown"}, tags


def test_corpus_invalid_file_is_exit_3(tmp_path):
    gen_file(tmp_path, 1, "a.tw")
    write(tmp_path / "b.tw", "period 2 = 0 1\n")
    code, text = run_command(["corpus", str(tmp_path)])
    assert code == 3


def test_usage_errors(tmp_path):
    assert run_command(["no-such-command"])[0] == 3
    assert run_command(["compare"])[0] == 3
    assert run_command([])[0] == 3
    f = gen_file(tmp_path, 1)
    code, text = run_command(["compare", f, f, "--max-radius", "-1"])
    assert code == 3 and "--max-radius" in text
    code, text = run_command(["corpus", str(tmp_path), "--max-radius", "-1"])
    assert code == 3 and "--max-radius" in text
    code, text = run_command(["generate", "paper-example", "--stages", "17", "-o", str(tmp_path / "x.tw")])
    assert code == 3 and "--stages" in text and not (tmp_path / "x.tw").exists()
    code, text = run_command(["--help"])
    assert code == 0 and "subcommand" in text or "usage" in text


def test_rotate_inverse(tmp_path):
    f = gen_file(tmp_path, 2)
    r = str(tmp_path / "r.tw")
    rr = str(tmp_path / "rr.tw")
    run_command(["rotate", f, "-k", "7", "-o", r])
    run_command(["rotate", r, "-k", "-7", "-o", rr])
    assert Path(rr).read_text() == Path(f).read_text()


def test_factor_prime_above_index_limit_is_exit_3():
    start = time.perf_counter()
    code, text = run_command(["factor", "--scale", "2305843009213693951", "--count", "1"])
    assert time.perf_counter() - start < 2.0
    assert code == 3 and text.startswith("error:")


def test_compare_huge_radius_is_fast(tmp_path):
    a = gen_file(tmp_path, 2, "a.tw")
    b = gen_file(tmp_path, 3, "b.tw")
    start = time.perf_counter()
    code, text = run_command(["compare", a, b, "--max-radius", "1000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "unknown" in text


def test_compare_two_depths_is_fast(tmp_path):
    # every candidate shift of every stage is tested for the Unknown diagnostics
    a = gen_file(tmp_path, 9, "a.tw")
    b = gen_file(tmp_path, 11, "b.tw")
    start = time.perf_counter()
    code, text = run_command(["compare", a, b])
    assert time.perf_counter() - start < 2.0
    assert code == 2 and "verdict = unknown" in text


REFUTED_CODE = (  # radius 1: the refute-ladder code that the reference towers refute up to radius 2
    "len = 1\n0 0 0 -> 0\n0 0 1 -> 1\n0 1 0 -> 1\n0 1 1 -> 1\n"
    "1 0 0 -> 0\n1 0 1 -> 0\n1 1 0 -> 1\n1 1 1 -> 0\n"
)


def test_compare_refuted_code_image_is_fast(tmp_path):
    # N = 40960: one call per candidate shift took 1.3 s; the refutation reads each target shape's rotations once
    a = gen_file(tmp_path, 13, "a.tw")
    b = str(tmp_path / "b.tw")
    assert run_command(["apply-code", a, "--code", write(tmp_path / "c.txt", REFUTED_CODE), "-o", b])[0] == 0
    start = time.perf_counter()
    code, text = run_command(["compare", a, b])
    assert time.perf_counter() - start < 0.8
    assert code == 1 and "verdict = refuted-up-to" in text.splitlines()


UNKNOWN_CODE = (  # radius 1: the refute-ladder code whose images of the reference towers compare Unknown
    "len = 1\n0 0 0 -> 0\n0 0 1 -> 0\n0 1 0 -> 0\n0 1 1 -> 1\n"
    "1 0 0 -> 0\n1 0 1 -> 1\n1 1 0 -> 0\n1 1 1 -> 1\n"
)


def test_compare_unknown_code_image_is_fast(tmp_path):
    # N = 81920: cutting every candidate offset class for the Unknown count took about 4 s; the count derives
    # each stage's class shapes from the stage below
    a = gen_file(tmp_path, 14, "a.tw")
    b = str(tmp_path / "b.tw")
    assert run_command(["apply-code", a, "--code", write(tmp_path / "c.txt", UNKNOWN_CODE), "-o", b])[0] == 0
    start = time.perf_counter()
    code, text = run_command(["compare", a, b])
    assert time.perf_counter() - start < 1.5
    assert code == 2 and "verdict = unknown" in text.splitlines()


def test_compare_single_hole_tower_is_fast(tmp_path):
    # a rotation d is told apart only by the residue pairs that meet the hole, which a scan from r = 0 reaches late
    a = write(tmp_path / "a.tw", "alphabet = 0 1\nperiod 8000 = " + "0 " * 7999 + "_\n")
    b = str(tmp_path / "b.tw")
    assert run_command(["rotate", a, "-k", "7", "-o", b])[0] == 0
    start = time.perf_counter()
    code, text = run_command(["compare", a, b])
    assert time.perf_counter() - start < 2.0
    assert code == 0 and "conjugate-certified" in text


def test_compare_many_symbols_is_fast(tmp_path):
    # 4000 cells of 4000 distinct symbols: one certified kind per residue in phase_separated
    symbols = " ".join(f"s{i}" for i in range(4000))
    a = write(tmp_path / "a.tw", f"alphabet = {symbols}\nperiod 4000 = {symbols}\n")
    b = str(tmp_path / "b.tw")
    assert run_command(["rotate", a, "-k", "7", "-o", b])[0] == 0
    start = time.perf_counter()
    code, text = run_command(["compare", a, b])
    assert time.perf_counter() - start < 2.0
    assert code == 0 and "conjugate-certified" in text


@pytest.mark.parametrize("k", [None, 7], ids=["itself", "rotated"])
def test_invariant_hole_every_fourth_cell_is_fast(tmp_path, k):
    # stage 512 has 128 chi parts a side, each a witness of every other; comparing
    # all pairs took 9.5 s against itself (8128 pairs) and 39 s rotated (32640)
    rng = random.Random(5)
    cells = " ".join("_" if x % 4 == 3 else rng.choice("01") for x in range(512))
    a = write(tmp_path / "a.tw", f"alphabet = 0 1\nscale = 2^inf\nperiod 512 = {cells}\n")
    b = str(tmp_path / "b.tw")
    assert run_command(["rotate", a, "-k", str(k or 0), "-o", b])[0] == 0
    start = time.perf_counter()
    code, text = run_command(["invariant", a, b if k else a, "--stages", "12"])
    assert time.perf_counter() - start < 1.0
    lines = text.splitlines()
    assert code == 2 and "stage.512.result = CertifiedEqual" in lines and "stage.512.detail = 128 vs 128 parts" in lines


def test_analyze_one_filled_cell_is_fast(tmp_path):
    # every table below 55440 is all Unknown, so no pair of its 120 divisors separates
    f = write(tmp_path / "one.tw", "alphabet = 0 1\nperiod 55440 = 0" + " _" * 55439 + "\n")
    start = time.perf_counter()
    code, text = run_command(["analyze", f])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert "scale.certified = 1" in text.splitlines()
    assert "scale.pending = 1 2 3 4 5 6 7 8 9 10 " in text


def test_non_utf8_files_are_exit_3(tmp_path):
    f = gen_file(tmp_path, 1, "a.tw")
    binary = str(tmp_path / "bin.tw")
    Path(binary).write_bytes(b"\xff\xfe")
    out = str(tmp_path / "out.tw")
    for argv in (
        ["validate", binary],
        ["analyze", binary],
        ["compare", f, binary],
        ["invariant", binary, f, "--stages", "1"],
        ["rotate", binary, "-k", "1", "-o", out],
        ["permute", binary, "--period", "1", "--perms", "0,1", "-o", out],
        ["apply-code", binary, "--code", binary, "-o", out],
        ["apply-code", f, "--code", binary, "-o", out],
        ["corpus", str(tmp_path)],
    ):
        code, text = run_command(argv)
        assert code == 3 and text.startswith("error:") and "utf-8" in text, argv
    assert not Path(out).exists()


def test_read_errors_name_the_file(tmp_path):
    gen_file(tmp_path, 1, "a.tw")
    Path(tmp_path / "bin.tw").write_bytes(b"\xff\xfe")
    code, text = run_command(["corpus", str(tmp_path)])
    assert code == 3 and text.startswith("error:") and "bin.tw" in text and "utf-8" in text

    bad = write(tmp_path / "bad.tw", "alphabet = 0 1\nperiod 4 = 0 1 0\n")
    for argv in (["validate", bad], ["compare", bad, bad], ["corpus", str(tmp_path)]):
        code, text = run_command(argv)
        assert code == 3 and text.startswith("error:") and "bad.tw" in text, argv
    code, text = run_command(["validate", bad])
    assert "expected 4 cells" in text

    good = str(tmp_path / "a.tw")
    code_file = write(tmp_path / "bad.code", "radius = 1\n")
    code, text = run_command(["apply-code", good, "--code", code_file, "-o", str(tmp_path / "o.tw")])
    assert code == 3 and text.startswith("error:") and "bad.code" in text


def test_files_with_a_byte_order_mark_read_as_without(tmp_path):
    f = gen_file(tmp_path, 2)
    swap = "len = 0\n0 -> 1\n1 -> 0\n"
    code_file = write(tmp_path / "swap.code", swap)
    bom_tower, bom_code = tmp_path / "bom.tw", tmp_path / "bom.code"
    bom_tower.write_bytes(b"\xef\xbb\xbf" + Path(f).read_bytes())
    bom_code.write_bytes(b"\xef\xbb\xbf" + swap.encode("utf-8"))
    for argv in (["validate", "{}"], ["analyze", "{}"], ["compare", "{}", f]):
        assert run_command([a.format(bom_tower) for a in argv]) == run_command([a.format(f) for a in argv]), argv
    outputs = []
    for tw, code in ((f, code_file), (bom_tower, code_file), (f, bom_code), (bom_tower, bom_code)):
        out = tmp_path / f"out{len(outputs)}.tw"
        status, _ = run_command(["apply-code", str(tw), "--code", str(code), "-o", str(out)])
        assert status == 0, (tw, code)
        outputs.append(out.read_text(encoding="utf-8"))
    assert len(set(outputs)) == 1 and not outputs[0].startswith("\ufeff")


def test_module_runs_the_readme_example(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(toepcalc.__file__).parents[1])}

    def toepcalc_main(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "toepcalc", *args], cwd=tmp_path, env=env, capture_output=True, text=True
        )

    assert toepcalc_main("generate", "paper-example", "--stages", "2", "-o", "a.tw").returncode == 0
    assert toepcalc_main("rotate", "a.tw", "-k", "7", "-o", "b.tw").returncode == 0
    done = toepcalc_main("compare", "a.tw", "b.tw")
    assert done.returncode == 0, done.stderr
    assert {"verdict = conjugate-certified", "stage = 5", "shift = 13"} <= set(done.stdout.splitlines())


def test_integer_literals_python_cannot_read_are_exit_3(tmp_path):
    # '²' passes str.isdigit but not int(); 5000 digits pass the grammar but not Python's int-string limit
    long = "9" * 5000
    files = {
        "alphabet = 0 1\nperiod ² = 0 1\n": 2,
        f"alphabet = 0 1\nperiod {long} = 0 1\n": 2,
        f"alphabet = 0 1\n\nscale = {long}\nperiod 1 = 0\n": 3,
        f"alphabet = 0 1\nscale = 2^{long}\nperiod 1 = 0\n": 2,
    }
    for n, (text, line) in enumerate(files.items()):
        f = write(tmp_path / f"{n}.tw", text)
        for argv in (["validate", f], ["compare", f, f]):
            code, report = run_command(argv)
            assert code == 3 and report.startswith("error:") and f"(line {line}" in report, (argv, report[:200])
    for scale in (long, f"2^{long}", f"3 * {long}^inf"):
        with pytest.raises(OdometerError):
            SupernaturalNumber.parse(scale)
        code, report = run_command(["factor", "--scale", scale, "--count", "2"])
        assert code == 3 and report.startswith("error:") and len(report) < 200, report[:200]


def test_closed_pipe_exits_with_the_command_code_and_no_traceback(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(toepcalc.__file__).parents[1])}
    a, b = gen_file(tmp_path, 2, "a.tw"), str(tmp_path / "b.tw")
    assert run_command(["rotate", a, "-k", "7", "-o", b])[0] == 0
    bad = write(tmp_path / "bad.tw", "alphabet = 0 1\nperiod 4 = 0 1 0\n")

    def into_closed_pipe(argv: list[str], stream: str) -> subprocess.CompletedProcess:
        """Run the CLI with ``stream`` a pipe whose reader is closed before the child writes."""
        reader, writer = os.pipe()
        os.close(reader)
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: writer}
        try:
            return subprocess.run([sys.executable, "-m", "toepcalc", *argv], env=env, timeout=60, **pipes)
        finally:
            os.close(writer)

    done = into_closed_pipe(["compare", a, b], "stdout")
    assert done.returncode == 0
    assert b"Traceback" not in done.stderr and b"Exception ignored" not in done.stderr, done.stderr
    assert into_closed_pipe(["compare", bad, b], "stderr").returncode == 3


def test_corpus_over_different_alphabets_names_two_files(tmp_path):
    binary = serialize_tower(reference_example(1))
    write(tmp_path / "b.tw", binary)
    write(tmp_path / "a.tw", binary)
    write(tmp_path / "d.tw", "alphabet = x y\nperiod 2 = x y\n")
    write(tmp_path / "c.tw", "alphabet = 0 1 2\nperiod 3 = 0 1 2\n")
    code, text = run_command(["corpus", str(tmp_path)])
    # the first file in sorted order, and the first after it over another alphabet
    assert (code, text) == (3, f"error: towers use different alphabets: {tmp_path / 'a.tw'} and {tmp_path / 'c.tw'}")
    (tmp_path / "a.tw").unlink()
    (tmp_path / "b.tw").unlink()
    code, text = run_command(["corpus", str(tmp_path)])
    assert (code, text) == (3, f"error: towers use different alphabets: {tmp_path / 'c.tw'} and {tmp_path / 'd.tw'}")
