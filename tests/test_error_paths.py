"""Each error that no other test raised: its type and message, and for errors
that reach the command line, exit code 3 and the ``error:`` line."""

import random
import re

import pytest

from toepcalc import (
    Alphabet,
    AlphabetError,
    AlphabetMismatch,
    CodeError,
    NonDivisorError,
    OdometerError,
    OdometerPoint,
    ParseError,
    Part,
    PartialCyclicWord,
    PeriodicWord,
    PositionwisePermutation,
    SupernaturalNumber,
    TowerError,
    apply_positionwise_permutation,
    conjugacy_verdict,
    dp_equivalent,
    exact_conjugacy_search,
    gamma_map,
    natural_factorization,
    parse_block_code,
    parse_tower_text,
    period_status,
    reference_example,
    serialize_tower,
)
from toepcalc.cli import run_command
from toepcalc.codes import PeriodMismatch
from toepcalc.odometer import INF, factor_int, prime_index
from toepcalc.randomgen import deepen
from helpers import BINARY, tower

LETTERS = Alphabet(("a", "b"))


def exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def cli_error(argv: list[str], message: str) -> None:
    code, text = run_command(argv)
    assert (code, text) == (3, f"error: {message}")


def test_corpus_of_a_missing_directory(tmp_path):
    for target in (tmp_path / "missing", tmp_path / "file.tw"):
        if target.suffix:
            target.write_text(serialize_tower(reference_example(1)))
        cli_error(["corpus", str(target)], f"not a directory: {target}")


@pytest.mark.parametrize(
    "text, message",
    [
        ("len = x\n0 -> 1\n", "bad code length 'x' (line 1)"),
        ("len = 0\n0 1\n", "expected 'window -> symbol' (line 2)"),
        ("# a comment only\n\n", "missing 'len = m' header"),
    ],
)
def test_code_file_errors(tmp_path, text, message):
    with pytest.raises(ParseError, match=exactly(message)):
        parse_block_code(text, BINARY)
    a, code = tmp_path / "a.tw", tmp_path / "bad.code"
    a.write_text(serialize_tower(reference_example(1)))
    code.write_text(text)
    cli_error(["apply-code", str(a), "--code", str(code), "-o", str(tmp_path / "o.tw")], f"{code}: {message}")
    assert not (tmp_path / "o.tw").exists()


def test_permutation_errors(tmp_path):
    with pytest.raises(CodeError, match=exactly("block period must be positive, got 0")):
        PositionwisePermutation(BINARY, 0, ())
    t = reference_example(1)  # periods 5 and 10
    with pytest.raises(AlphabetMismatch, match=exactly("permutation and tower alphabets differ")):
        apply_positionwise_permutation(t, PositionwisePermutation.identity(LETTERS, 5))
    with pytest.raises(PeriodMismatch, match=exactly("4 does not divide the deepest period")):
        apply_positionwise_permutation(t, PositionwisePermutation.identity(BINARY, 4))
    shallow = tower("0_1", "0_10_1")
    with pytest.raises(PeriodMismatch, match=exactly("2 does not divide the declared period 3")):
        apply_positionwise_permutation(shallow, PositionwisePermutation.identity(BINARY, 2))

    a, b = tmp_path / "a.tw", tmp_path / "b.tw"
    a.write_text(serialize_tower(t))
    b.write_text(serialize_tower(shallow))
    for f, period, perms, message in (
        (a, 0, "0,1", "block period must be positive, got 0"),
        (a, 4, "0,1;0,1;0,1;0,1", "4 does not divide the deepest period"),
        (b, 2, "1,0;0,1", "2 does not divide the declared period 3"),
    ):
        argv = ["permute", str(f), "--period", str(period), "--perms", perms, "-o", str(tmp_path / "o.tw")]
        cli_error(argv, message)
    assert not (tmp_path / "o.tw").exists()


def test_conjugacy_inputs_must_match(tmp_path):
    a = reference_example(1)
    other = tower("ab_ab", "ab_abab_ab", alphabet=LETTERS)
    for compare in (lambda a, b: gamma_map(a, b, 5, 0), lambda a, b: conjugacy_verdict(a, b, 1)):
        with pytest.raises(AlphabetMismatch, match=exactly("towers use different alphabets")):
            compare(a, other)
    files = tmp_path / "a.tw", tmp_path / "b.tw"
    for f, t in zip(files, (a, other)):
        f.write_text(serialize_tower(t))
    cli_error(["compare", *map(str, files)], "towers use different alphabets")
    with pytest.raises(AlphabetMismatch, match=exactly("parts use different alphabets")):
        dp_equivalent(Part(a, 5, 0), Part(other, 5, 0))
    with pytest.raises(PeriodMismatch, match=exactly("parts rest on towers of different depth")):
        dp_equivalent(Part(a, 5, 0), Part(reference_example(2), 5, 0))
    with pytest.raises(AlphabetMismatch, match=exactly("words use different alphabets")):
        exact_conjugacy_search(PeriodicWord(BINARY, ("0", "1")), PeriodicWord(LETTERS, ("a", "b")), 1)


def test_word_and_alphabet_errors():
    for bad in ("", 1):
        with pytest.raises(AlphabetError, match=exactly(f"bad symbol {bad!r}")):
            Alphabet(("0", bad))
    with pytest.raises(TowerError, match=exactly("a cyclic word needs at least one cell")):
        PartialCyclicWord(())
    for times in (0, -1):
        with pytest.raises(TowerError, match=exactly("repetition count must be positive")):
            PartialCyclicWord.from_text("01").repeated(times)
    with pytest.raises(TowerError, match=exactly("symbol '01' has no single-character form")):
        PartialCyclicWord(("1", None, "01")).text()
    with pytest.raises(NonDivisorError, match=exactly("period 0 is not positive")):
        period_status(reference_example(1), 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: prime_index(4), "4 is not prime"),
        (lambda: factor_int(0), "positive integer required, got 0"),
        (lambda: SupernaturalNumber(((2,),)), "factor must be a (prime, exponent) pair, got (2,)"),
        (lambda: SupernaturalNumber(((2, 0),)), "bad exponent 0 for prime 2"),
        (lambda: SupernaturalNumber(((3, True),)), "bad exponent True for prime 3"),
        (lambda: OdometerPoint((), ()), "at least one period is required"),
        (lambda: OdometerPoint((2, 4), (1,)), "periods and coordinates must pair up"),
        (lambda: OdometerPoint((1, 2), (0, 0)), "periods must be integers > 1, got 1"),
        (lambda: OdometerPoint((2, 3), (0, 0)), "period chain broken: 2 does not divide 3"),
        (lambda: OdometerPoint((2, 4), (1, 4)), "coordinate 4 out of range for modulus 4"),
        (lambda: OdometerPoint((2, 4), (1, 2)), "coordinates incoherent at stage 0: 2 mod 2 != 1"),
    ],
)
def test_odometer_errors(build, message):
    with pytest.raises(OdometerError, match=exactly(message)):
        build()


def test_negative_stage_count():
    with pytest.raises(OdometerError, match=exactly("count must be nonnegative")):
        natural_factorization(SupernaturalNumber.parse("2"), -1)
    cli_error(["factor", "--scale", "2", "--count", "-1"], "count must be nonnegative")


def test_a_repeated_prime_is_named(tmp_path):
    # parse sorts the factors, so a repeat is the only way its primes are not strictly increasing
    for text, prime in (("2^inf * 2", 2), ("3 * 2 * 3", 3), ("2 * 2", 2)):
        with pytest.raises(OdometerError, match=exactly(f"prime {prime} appears twice")):
            SupernaturalNumber.parse(text)
    cli_error(["factor", "--scale", "2^inf * 2", "--count", "3"], "prime 2 appears twice")
    tower_text = "alphabet = 0 1\nscale = 3 * 2 * 3\nperiod 2 = 0 1\n"
    with pytest.raises(ParseError, match=exactly("prime 3 appears twice (line 2)")):
        parse_tower_text(tower_text)
    path = tmp_path / "a.tw"
    path.write_text(tower_text)
    cli_error(["validate", str(path)], f"{path}: prime 3 appears twice (line 2)")
    # a tuple passed to the constructor names a repeat too, and keeps the order rule otherwise
    with pytest.raises(OdometerError, match=exactly("prime 5 appears twice")):
        SupernaturalNumber(((2, 1), (5, 1), (5, INF)))
    with pytest.raises(OdometerError, match=exactly("primes must be strictly increasing")):
        SupernaturalNumber(((3, 1), (2, 1)))


def test_deepen_needs_a_proper_multiplier():
    for multiplier in (1, 0):
        with pytest.raises(ValueError, match=exactly("multiplier must be at least 2")):
            deepen(random.Random(0), reference_example(1), multiplier)


@pytest.mark.parametrize(
    "text, message",
    [
        ("alphabet = 0 1\n= 0 1\n", "missing directive name (line 2, column 1)"),
        ("alphabet x = 0 1\nperiod 2 = 0 1\n", "malformed alphabet directive (line 1, column 1)"),
        ("alphabet = 0 1\nscale x = 2\nperiod 2 = 0 1\n", "malformed scale directive (line 2, column 1)"),
        ("scale = 2\nalphabet = 0 1\nperiod 2 = 0 1\n", "scale line before alphabet line (line 1, column 1)"),
        ("alphabet = 0 1\nperiod 2 = 0 1\nlevel 4 = 0 1 0 1\n", "unknown directive 'level' (line 3, column 1)"),
        ("alphabet = 0 1\nscale = 2\nscale = 2\nperiod 2 = 0 1\n", "duplicate scale line (line 3, column 1)"),
    ],
)
def test_tower_file_directive_errors(tmp_path, text, message):
    with pytest.raises(ParseError, match=exactly(message)):
        parse_tower_text(text)
    f = tmp_path / "bad.tw"
    f.write_text(text)
    cli_error(["validate", str(f)], f"{f}: {message}")
