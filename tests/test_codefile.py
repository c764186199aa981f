"""The code-file parser against the parser that checked the code-table rules
itself: the rules now live in ``BlockCode``, and the parser only parses."""

import random
from itertools import product
from typing import Optional

import pytest

from toepcalc import Alphabet, BlockCode, CodeError, ParseError, parse_block_code, serialize_block_code
from toepcalc.codes import Window


# --- the parser that checked the code-table rules itself, kept as the reference ---


def reference_parse_block_code(text: str, alphabet: Optional[Alphabet] = None) -> BlockCode:
    length: Optional[int] = None
    rows: list[tuple[int, Window, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if length is None:
            left, eq, right = line.partition("=")
            if eq != "=" or left.strip() != "len":
                raise ParseError("expected header 'len = m'", lineno, 1)
            try:
                length = int(right.strip())
            except ValueError:
                raise ParseError(f"bad code length {right.strip()!r}", lineno) from None
            if length < 0:
                raise ParseError("code length must be non-negative", lineno)
            continue
        tokens = line.split()
        if "->" not in tokens:
            raise ParseError("expected 'window -> symbol'", lineno)
        arrow = tokens.index("->")
        window, rhs = tokens[:arrow], tokens[arrow + 1 :]
        if len(window) != 2 * length + 1 or len(rhs) != 1:
            raise ParseError(
                f"expected {2 * length + 1} window symbols and one output", lineno
            )
        rows.append((lineno, tuple(window), rhs[0]))
    if length is None:
        raise ParseError("missing 'len = m' header")
    if alphabet is None:
        seen: set[str] = set()
        for _, window, out in rows:
            seen.update(window)
            seen.add(out)
        try:
            alphabet = Alphabet(tuple(sorted(seen)))
        except ValueError as exc:
            raise ParseError(f"cannot infer an alphabet: {exc}") from None
    table: dict[Window, str] = {}
    for lineno, window, out in rows:
        for s in (*window, out):
            if s not in alphabet:
                raise ParseError(f"symbol {s!r} is not in the alphabet", lineno)
        if window in table:
            raise ParseError(f"window {' '.join(window)!r} listed twice", lineno)
        table[window] = out
    try:
        return BlockCode(alphabet, length, tuple(table.items()))
    except CodeError as exc:
        raise ParseError(str(exc)) from None


# --- code files with at most one defect ---

DEFECTS = ("none", "drop", "add", "no-output", "two-outputs", "non-symbol", "duplicate", "missing", "negative")


def defective_code_file(rng: random.Random, defect: str) -> tuple[str, Alphabet, Optional[Alphabet]]:
    """A random radius-0..2 code over 2 or 3 symbols, serialized with its rows
    shuffled among blank and comment lines and the given defect; returns the
    text, the code's alphabet and the alphabet to parse with (None to infer)."""
    alphabet = Alphabet(rng.choice((("0", "1"), ("0", "1", "2"))))
    m = rng.randint(0, 2)
    table = tuple((w, rng.choice(alphabet.symbols)) for w in product(alphabet.symbols, repeat=2 * m + 1))
    header, *rows = serialize_block_code(BlockCode(alphabet, m, table)).splitlines()
    rng.shuffle(rows)
    i = rng.randrange(len(rows))
    window, _, out = rows[i].partition(" -> ")
    tokens = window.split()
    if defect == "drop":
        del tokens[rng.randrange(len(tokens))]
        rows[i] = f"{' '.join(tokens)} -> {out}"
    elif defect == "add":
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(alphabet.symbols))
        rows[i] = f"{' '.join(tokens)} -> {out}"
    elif defect == "no-output":
        rows[i] = f"{window} ->"
    elif defect == "two-outputs":
        rows[i] = f"{window} -> {out} {rng.choice(alphabet.symbols)}"
    elif defect == "non-symbol":
        bad = rng.choice([s for s in ("x", "2", "01") if s not in alphabet])
        tokens.append(out)
        tokens[rng.randrange(len(tokens))] = bad
        rows[i] = f"{' '.join(tokens[:-1])} -> {tokens[-1]}"
    elif defect == "duplicate":
        rows.insert(rng.randint(0, len(rows)), rows[i])
    elif defect == "missing":
        del rows[i]
    elif defect == "negative":
        header = f"len = {-rng.randint(1, 3)}"
    lines = [header]
    for row in rows:
        while rng.random() < 0.1:
            lines.append(rng.choice(("", "# a comment", "   ")))
        lines.append(row if rng.random() < 0.9 else f"{row}  # trailing comment")
    return "\n".join(lines) + "\n", alphabet, alphabet if rng.random() < 0.5 else None


def _message(exc: Exception) -> str:
    return str(exc).rsplit(" (line", 1)[0]


def _outcome(parse, text: str, alphabet: Optional[Alphabet]):
    try:
        return parse(text, alphabet)
    except ParseError as exc:
        return exc


def _header_line(text: str) -> int:
    return next(n for n, line in enumerate(text.splitlines(), 1) if line.split("#", 1)[0].strip())


def test_parser_matches_the_reference_on_defective_files():
    seen = {"accepted": 0, "row": 0, "header": 0, "unlocated": 0, "inferred first": 0}
    defects = dict.fromkeys(DEFECTS, 0)
    for seed in range(2200):
        rng = random.Random(seed)
        defect = DEFECTS[seed % len(DEFECTS)]
        text, code_alphabet, alphabet = defective_code_file(rng, defect)
        defects[defect] += 1
        ref = _outcome(reference_parse_block_code, text, alphabet)
        new = _outcome(parse_block_code, text, alphabet)
        context = (seed, defect, alphabet, text, ref, new)
        if isinstance(ref, BlockCode):
            seen["accepted"] += 1
            assert isinstance(new, BlockCode), context
            assert new == ref and new.length == ref.length and new.table == ref.table, context
            assert defect != "none" or new.alphabet == code_alphabet, context
            continue
        assert isinstance(new, ParseError), context
        old_text, new_text = _message(ref), _message(new)
        if ref.line is None and old_text.startswith("table has "):
            # a whole-table error now names the header line
            seen["header"] += 1
            assert new.line == _header_line(text) and new_text == old_text, context
            continue
        if ref.line is None:
            seen["unlocated"] += 1
            assert new.line is None and new_text == old_text, context
            continue
        if new.line is None:
            # with one symbol in the rows, inferring the alphabet now fails
            # before the width of a row is checked
            seen["inferred first"] += 1
            tokens = {t for line in text.splitlines()[_header_line(text):] for t in line.split("#", 1)[0].split()}
            assert alphabet is None and len(tokens - {"->"}) < 2, context
            assert old_text.endswith(" window symbols and one output"), context
            assert new_text.startswith("cannot infer an alphabet: "), context
            continue
        seen["row" if ref.line != _header_line(text) else "header"] += 1
        assert new.line == ref.line, context
        if old_text.endswith(" window symbols and one output"):
            # the parser names the output count, BlockCode the window width
            window, _, output = text.splitlines()[ref.line - 1].split("#", 1)[0].partition("->")
            width = int(old_text.split()[1])
            if len(output.split()) != 1:
                assert new_text == f"expected one output symbol, got {len(output.split())}", context
            else:
                assert new_text == f"expected {width} window symbols, got {len(window.split())}", context
        else:
            assert new_text == old_text, context
    assert all(defects.values()), defects
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("len = 1\n0 0 0 -> 1\n", 1, "table has 1 of 8 required windows"),
        ("# code\n\nlen = 0\n0 -> 1\n", 3, "table has 1 of 2 required windows"),
        ("len = -1\n0 -> 1\n1 -> 0\n", 1, "code length must be non-negative"),
        ("len = 0\n0 -> 1\n\n0 -> 0\n", 4, "window '0' listed twice"),
        ("len = 0\n0 -> 1\n1 1 -> 0\n", 3, "expected 1 window symbols, got 2"),
        ("len = 0\n0 -> 1 0\n1 -> 0\n", 2, "expected one output symbol, got 2"),
    ],
)
def test_code_file_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as e:
        parse_block_code(text)
    assert e.value.line == line and _message(e.value) == message


def test_inferred_alphabet_of_one_symbol_fails_before_the_width():
    # the reference checked the width while reading the row, before inferring
    text = "len = 1\n0 0 -> 0\n"
    with pytest.raises(ParseError) as e:
        reference_parse_block_code(text)
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_block_code(text)
    assert e.value.line is None and _message(e.value).startswith("cannot infer an alphabet")


def test_block_code_errors_carry_the_row():
    binary = Alphabet(("0", "1"))
    for table, row in (
        (((("0",), "0"), (("1", "1"), "0")), 1),
        (((("0",), "0"), (("1",), "2")), 1),
        (((("0",), "0"), (("1",), "1"), (("0",), "1")), 2),
        (((("0",), "0"),), None),
    ):
        with pytest.raises(CodeError) as e:
            BlockCode(binary, 0, table)
        assert e.value.row == row, table
    with pytest.raises(CodeError) as e:
        BlockCode(binary, -1, ())
    assert e.value.row is None
