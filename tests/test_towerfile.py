import random
import re
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepcalc import (
    Alphabet,
    AlphabetError,
    ConsistencyError,
    ParseError,
    PartialCyclicWord,
    ScaleError,
    SkeletonTower,
    SupernaturalNumber,
    TowerError,
    parse_tower_text,
    reference_example,
    serialize_tower,
    status_masks,
)
from toepcalc.core import BLANK
from toepcalc.odometer import INF, OdometerError, divides
from toepcalc.randomgen import random_tower
from helpers import OldParsedTower, divisors, old_parse_tower_text, old_serialize_tower, tower


GOOD = """\
# a comment
alphabet = 0 1
scale = 2^inf * 5   # trailing comment
period 5 = 0 _ _ _ 0
period 10 = 0 _ 1 _ 0 0 _ _ _ 0
"""


def test_parse_good_file():
    t = parse_tower_text(GOOD)
    assert t.periods == (5, 10)
    assert t.deepest_word.text() == "0_1_00___0"
    assert str(t.declared_scale) == "2^inf * 5"


def test_serialize_round_trip_reference():
    t = reference_example(2)
    assert parse_tower_text(serialize_tower(t)) == t


def test_serialize_shape():
    text = serialize_tower(tower("0_", "0100", scale="2^2"))
    lines = text.splitlines()
    assert lines[0] == "alphabet = 0 1"
    assert lines[1] == "scale = 2^2"
    assert lines[2] == "period 2 = 0 _"
    assert lines[3] == "period 4 = 0 1 0 0"
    assert text.endswith("\n")


def test_serialize_matches_the_per_token_writer():
    rng = random.Random(2028)
    for _ in range(200):
        symbols = rng.choice((("0", "1"), ("a", "bb", "ccc")))
        fill = rng.choice((1.0, 0.6, 0.0))  # 0.0: every cell blank
        t = random_tower(rng, symbols, depth=rng.randint(1, 3), fill=fill, with_scale=rng.random() < 0.5)
        assert serialize_tower(t) == old_serialize_tower(t)
    t = reference_example(8)
    assert serialize_tower(t) == old_serialize_tower(t)


def test_parse_errors_are_located():
    bad = "alphabet = 0 1\nperiod 4 = 0 1 0\n"
    with pytest.raises(ParseError) as e:
        parse_tower_text(bad)
    assert "expected 4 cells, got 3" in str(e.value)
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_tower_text("alphabet = 0 1\nperiod 2 = 0 2\n")
    assert "not in alphabet" in str(e.value)
    assert e.value.line == 2 and e.value.column is not None


def test_parse_rejects_bad_period_structure():
    with pytest.raises(ParseError) as e:
        parse_tower_text("alphabet = 0 1\nperiod 4 = 0 1 0 1\nperiod 2 = 0 1\n")
    assert "periods must increase" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_tower_text("alphabet = 0 1\nperiod 2 = 0 1\nperiod 3 = 0 1 0\n")
    assert "not a multiple" in str(e.value)


def test_parse_directive_ordering():
    with pytest.raises(ParseError):
        parse_tower_text("period 2 = 0 1\nalphabet = 0 1\n")
    with pytest.raises(ParseError):
        parse_tower_text("alphabet = 0 1\nperiod 2 = 0 1\nscale = 2\n")
    with pytest.raises(ParseError):
        parse_tower_text("alphabet = 0 1\nalphabet = 0 1\nperiod 2 = 0 1\n")
    with pytest.raises(ParseError):
        parse_tower_text("alphabet = 0 1\n")  # no levels
    with pytest.raises(ParseError):
        parse_tower_text("")


def test_parse_rejects_inconsistent_levels():
    text = "alphabet = 0 1\nperiod 2 = 0 1\nperiod 4 = 0 0 0 1\n"
    with pytest.raises(Exception):
        parse_tower_text(text)


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=80)
def test_round_trip_random_towers(seed, with_scale):
    rng = random.Random(seed)
    t = random_tower(rng, with_scale=with_scale)
    assert parse_tower_text(serialize_tower(t)) == t


def test_structural_errors_name_the_line():
    # consistency: the deeper level is at fault, at the cell that disagrees
    text = "# two levels\nalphabet = 0 1\n\nperiod 2 = 0 1\nperiod 4 = 0 0 0 1  # cell 1 breaks cell 1 above\n"
    with pytest.raises(ParseError) as e:
        parse_tower_text(text)
    assert "levels 2/4 disagree at position 1" in str(e.value)
    assert (e.value.line, e.value.column) == (5, 14)
    assert isinstance(e.value.__cause__, ConsistencyError)

    # scale: the first level whose period the scale does not divide
    text = "alphabet = 0 1\nscale = 2^inf\nperiod 2 = 0 1\n# next\nperiod 6 = 0 1 0 1 0 1\n"
    with pytest.raises(ParseError) as e:
        parse_tower_text(text)
    assert "declared period 6 does not divide scale 2^inf" in str(e.value)
    assert (e.value.line, e.value.column) == (5, None)
    assert isinstance(e.value.__cause__, ScaleError)

    # a symbol: its own column; a count: the line
    with pytest.raises(ParseError) as e:
        parse_tower_text("alphabet = 0 1\nperiod 2 = 0 1\nperiod 4 = 0 _  x _\n")
    assert "symbol 'x' not in alphabet" in str(e.value)
    assert (e.value.line, e.value.column) == (3, 17)
    with pytest.raises(ParseError) as e:
        parse_tower_text("alphabet = 0 1\nperiod 2 = 0 1\n\nperiod 4 = 0 _ _\n")
    assert "expected 4 cells, got 3" in str(e.value) and e.value.line == 4


# --- the parser that checked the tower rules itself, kept as the reference ---

_TOKEN = re.compile(r"\S+")


def reference_parse_tower_text(text: str) -> SkeletonTower:
    alphabet: Optional[Alphabet] = None
    scale: Optional[SupernaturalNumber] = None
    levels: list[tuple[int, PartialCyclicWord]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head, eq, payload = line.partition("=")
        if not eq:
            raise ParseError("expected 'name = ...' directive", line=ln, column=1)
        name = head.split()
        if not name:
            raise ParseError("missing directive name", line=ln, column=1)
        if name[0] == "alphabet":
            if len(name) != 1:
                raise ParseError("malformed alphabet directive", line=ln, column=1)
            if alphabet is not None:
                raise ParseError("duplicate alphabet line", line=ln, column=1)
            if levels or scale is not None:
                raise ParseError("alphabet line must come first", line=ln, column=1)
            symbols = tuple(payload.split())
            try:
                alphabet = Alphabet(symbols)
            except AlphabetError as exc:
                raise ParseError(str(exc), line=ln) from exc
        elif name[0] == "scale":
            if len(name) != 1:
                raise ParseError("malformed scale directive", line=ln, column=1)
            if alphabet is None:
                raise ParseError("scale line before alphabet line", line=ln, column=1)
            if scale is not None:
                raise ParseError("duplicate scale line", line=ln, column=1)
            if levels:
                raise ParseError("scale line must precede period lines", line=ln, column=1)
            try:
                scale = SupernaturalNumber.parse(payload.strip())
            except OdometerError as exc:
                raise ParseError(str(exc), line=ln) from exc
        elif name[0] == "period":
            if alphabet is None:
                raise ParseError("period line before alphabet line", line=ln, column=1)
            if len(name) != 2 or not name[1].isdigit():
                raise ParseError("expected 'period N = ...'", line=ln, column=1)
            period = int(name[1])
            if period < 1:
                raise ParseError("period must be positive", line=ln, column=1)
            if levels:
                prev = levels[-1][0]
                if period <= prev:
                    raise ParseError("periods must increase", line=ln, column=1)
                if period % prev:
                    raise ParseError(
                        f"period {period} is not a multiple of {prev}", line=ln, column=1
                    )
            offset = line.index("=") + 1
            tokens = list(_TOKEN.finditer(line, offset))
            if len(tokens) != period:
                raise ParseError(
                    f"expected {period} cells, got {len(tokens)}", line=ln, column=offset + 1
                )
            cells: list[Optional[str]] = []
            for tok in tokens:
                t = tok.group()
                if t == BLANK:
                    cells.append(None)
                elif t in alphabet:
                    cells.append(t)
                else:
                    raise ParseError(
                        f"symbol {t!r} not in alphabet", line=ln, column=tok.start() + 1
                    )
            levels.append((period, PartialCyclicWord(tuple(cells))))
        else:
            raise ParseError(f"unknown directive {name[0]!r}", line=ln, column=1)
    if alphabet is None:
        raise ParseError("missing alphabet line")
    if not levels:
        raise ParseError("missing period lines")
    return SkeletonTower(alphabet, tuple(levels), scale)


# --- files with at most one defect ---

DEFECTS = (
    "none", "smaller", "zero", "non-multiple", "long", "drop", "add", "non-symbol", "inconsistent", "scale", "swap",
)


def _set_period(line: str, period) -> str:
    return re.sub(r"^period \d+", f"period {period}", line)


def defective_file(rng: random.Random, defect: str) -> Optional[str]:
    """A serialized random tower with the given defect, or None where the
    drawn tower has no place for it."""
    symbols = rng.choice((("0", "1"), ("0", "1", "2"), ("a", "bb", "c01")))
    t = random_tower(
        rng,
        symbols=symbols,
        depth=rng.randint(1, 4),
        fill=rng.choice((0.0, 0.4, 0.8, 1.0)),
        with_scale=rng.random() < 0.5,
    )
    lines = serialize_tower(t).splitlines()
    first = 2 if t.declared_scale is not None else 1  # the line index of level 0
    deep = len(t.levels) - 1
    i = rng.randint(0, deep)
    p = t.levels[i][0]
    head, _, payload = lines[first + i].partition(" = ")
    tokens = payload.split()
    if defect == "smaller":
        lines[first + i] = _set_period(lines[first + i], rng.randint(1, p - 1))
    elif defect == "zero":
        lines[first + i] = _set_period(lines[first + i], 0)
    elif defect == "non-multiple":
        lines[first + i] = _set_period(lines[first + i], p + rng.randint(1, t.levels[i - 1][0] - 1) if i else p + 1)
    elif defect == "long":
        lines[first + i] = _set_period(lines[first + i], rng.randrange(10**29, 10**30))
    elif defect in ("drop", "add", "non-symbol"):
        k = rng.randrange(len(tokens))
        if defect == "drop":
            del tokens[k]
        elif defect == "add":
            tokens.insert(k, rng.choice((*symbols, BLANK)))
        else:
            tokens[k] = rng.choice([s for s in ("x", "2", "01", "__") if s not in symbols])
        lines[first + i] = f"{head} = {' '.join(tokens)}"
    elif defect == "inconsistent":
        if i == deep:
            return None
        q, below = t.levels[i + 1]
        filled = [x for x in range(q) if below.cells[x] is not None]
        if not filled:
            return None
        x = rng.choice(filled)
        tokens[x % p] = rng.choice([s for s in symbols if s != below.cells[x]])
        lines[first + i] = f"{head} = {' '.join(tokens)}"
    elif defect == "scale":
        factors = dict(SupernaturalNumber.from_int(t.deepest_period).factors)
        q = rng.choice(sorted(factors))
        factors[q] -= 1  # q stays finite, the others may be inf
        exponents = ((r, e if r == q or rng.random() < 0.5 else INF) for r, e in sorted(factors.items()))
        scale = SupernaturalNumber(tuple((r, e) for r, e in exponents if e))
        if t.declared_scale is None:
            lines.insert(1, f"scale = {scale}")
        else:
            lines[1] = f"scale = {scale}"
    elif defect == "swap":
        if i == deep:
            return None
        lines[first + i], lines[first + i + 1] = lines[first + i + 1], lines[first + i]
    return "\n".join(lines) + "\n"


def _message(exc: Exception) -> str:
    return str(exc).rsplit(" (line", 1)[0]


def _same_rule(reference: str, message: str) -> bool:
    """The parser's texts are the rule texts, but for two that now name the periods."""
    for old, new in (("period must be positive", "period must be a positive integer, got "),
                     ("periods must increase", "periods must increase, got ")):
        if reference == old:
            return message.startswith(new)
    return message == reference


def _outcome(parse, text: str):
    try:
        return parse(text)
    except (ParseError, TowerError) as exc:
        return exc


def test_parser_matches_the_reference_on_defective_files():
    seen = {"accepted": 0, "rejected": 0, ParseError: 0, ConsistencyError: 0, ScaleError: 0}
    defects = dict.fromkeys(DEFECTS, 0)
    seed = 0
    while sum(defects.values()) < 2200:
        seed += 1
        rng = random.Random(seed)
        defect = DEFECTS[seed % len(DEFECTS)]
        text = defective_file(rng, defect)
        if text is None:
            continue
        defects[defect] += 1
        _parses_as_before(text)  # the parser that built each level's cell tuple, in every detail
        ref, new = _outcome(reference_parse_tower_text, text), _outcome(parse_tower_text, text)
        context = (seed, defect, text, ref, new)
        if isinstance(ref, SkeletonTower):
            seen["accepted"] += 1
            assert new == ref, context
            continue
        seen["rejected"] += 1
        seen[type(ref)] += 1
        assert type(new) is ParseError, context
        lines = text.splitlines()
        if isinstance(ref, ParseError):
            assert new.line == ref.line and _same_rule(_message(ref), _message(new)), context
            continue
        level_line = {int(line.split()[1]): n for n, line in enumerate(lines, 1) if line.startswith("period")}
        if isinstance(ref, ScaleError):
            scale = SupernaturalNumber.parse(lines[1].split("=")[1])
            assert new.line == min(level_line[p] for p in level_line if not divides(p, scale)), context
            assert new.column is None and _message(new) == str(ref), context
            continue
        assert isinstance(ref, ConsistencyError), context
        assert new.line == level_line[ref.deep_period] and _message(new) == str(ref), context
        line = lines[new.line - 1]
        assert len(line[: new.column - 1].split("=", 1)[1].split()) == ref.index, context
        assert line[new.column - 2] == " " and line[new.column - 1] != " ", context
    assert all(defects.values()), defects
    assert all(seen.values()), seen


# --- the parser that built each level's cell tuple, kept as the reference ---


def _parses_as_before(text: str):
    """The file's outcome under the new and the old parser: one tower (equal as a tower, in its
    code points, bit planes, periods and status masks) or one error text, line and column."""
    old, new = _outcome(old_parse_tower_text, text), _outcome(parse_tower_text, text)
    if isinstance(old, SkeletonTower):
        assert (new._text, new._planes, new.periods) == (old._text, old._planes, old.periods), text
        for p in divisors(new.deepest_period):
            assert status_masks(new, p) == status_masks(old, p), (text, p)
        assert new == SkeletonTower(old.alphabet, old.levels, old.declared_scale), text
        return old
    assert type(new) is type(old) is ParseError, (text, old, new)
    assert (str(new), new.line, new.column) == (str(old), old.line, old.column), text
    return old


BAD_LINES = ("bogus", "x = 1", "period = 0 1", "period 4x = 0", " = 1", "alphabet = 0 1", "scale = 2", "period 5 =")


def two_defect_file(rng: random.Random, kind: str) -> Optional[str]:
    """A serialized random tower with two defects, the one the old parser named first listed first:
    "syntax" a bad line after a bad symbol on an earlier level, "count" a wrong cell count on a level
    and a bad symbol on a deeper one, "period" a bad period and a bad symbol on one level."""
    symbols = rng.choice((("0", "1"), ("0", "1", "2"), ("a", "bb", "c01")))
    t = random_tower(rng, symbols=symbols, depth=rng.randint(1, 4), fill=rng.choice((0.0, 0.5, 1.0)),
                     with_scale=rng.random() < 0.5)
    lines = serialize_tower(t).splitlines()
    first, deep = 2 if t.declared_scale is not None else 1, len(t.levels) - 1
    i = rng.randint(0, deep)

    def edit(level: int, change) -> None:
        head, _, payload = lines[first + level].partition(" = ")
        tokens = payload.split()
        change(tokens)
        lines[first + level] = f"{head} = {' '.join(tokens)}"

    def bad_symbol(tokens: list) -> None:
        tokens[rng.randrange(len(tokens))] = rng.choice([s for s in ("x", "2", "01", "__") if s not in symbols])

    if kind == "syntax":
        edit(i, bad_symbol)
        lines.insert(rng.randint(first + i + 1, len(lines)), rng.choice(BAD_LINES))
    elif kind == "count":
        if i == deep:
            return None
        edit(i, lambda tokens: tokens.pop() if len(tokens) > 1 and rng.random() < 0.5 else tokens.append("0"))
        edit(rng.randint(i + 1, deep), bad_symbol)
    else:
        edit(i, bad_symbol)
        prev = t.levels[i - 1][0] if i else 0  # 0, not above prev, or above it but no multiple of it
        periods = (0, rng.randint(1, prev) if prev else 0, prev + rng.randint(1, prev - 1) if prev > 1 else 0)
        lines[first + i] = _set_period(lines[first + i], rng.choice(periods))
    return "\n".join(lines) + "\n"


def test_parser_matches_the_old_parser_on_files_with_two_defects():
    named = {"syntax": 0, "count": 0, "period": 0}
    for seed in range(900):
        rng = random.Random(seed)
        kind = ("syntax", "count", "period")[seed % 3]
        text = two_defect_file(rng, kind)
        if text is None:
            continue
        message = _message(_parses_as_before(text))
        if kind == "syntax":  # the old parser read every line before it checked a symbol
            assert "not in alphabet" not in message, text
        elif kind == "count":
            assert message.startswith("expected "), text
        else:
            assert message.startswith(("period must be", "periods must", "period ")), text
        named[kind] += 1
    assert min(named.values()) > 100, named
    examples = {
        "alphabet = 0 1\nperiod 2 = 0 x\nperiod 4 = 0 1 0 1\nperod 8 = 0 1 0 1 0 1 0 1\n":
            "unknown directive 'perod' (line 4, column 1)",
        "alphabet = 0 1\nperiod 2 = 0 1 0\nperiod 4 = 0 1 x 1\n": "expected 2 cells, got 3 (line 2)",
        "alphabet = 0 1\nperiod 2 = 0 1\nperiod 3 = 0 x 1\n": "period 3 is not a multiple of 2 (line 3)",
        "alphabet = 0 1\nperiod 5 =\n": "a cyclic word needs at least one cell (line 2)",
        "alphabet = 0 1\nperiod 2 = 0 x\nperiod 4 =   # no cells\nbogus\n":
            "a cyclic word needs at least one cell (line 3)",
    }
    for text, error in examples.items():
        assert str(_parses_as_before(text)) == error


def test_parser_matches_the_old_parser_on_short_levels_and_large_alphabets():
    texts = [
        "alphabet = ab cd\nperiod 1 = cd\nperiod 2 = cd _\n",
        "alphabet = ab cd\nperiod 1 = _\nperiod 3 = _ ab _\n",
        "alphabet = ab cd\nperiod 1 = ab\nperiod 2 = cd ab\n",
        "alphabet = ab cd\nperiod 1 = x\n",
        "alphabet = 0 1\nperiod 1 = 0 1\n",
        "\ufeffalphabet = 0 1\nperiod 2 = 0 1\n",
        "alphabet = 0 1\ufeff\nperiod 2 = 0 1\ufeff\n",
        "alphabet = 0 1\nperiod 2 = 0 \ufeff1\n",
    ]
    rng = random.Random(3131)
    for _ in range(60):
        t = random_tower(rng, symbols=("ab", "cd", "e"), depth=rng.randint(1, 4), base_periods=(1,),
                         fill=rng.choice((0.0, 0.5, 1.0)))
        texts.append(serialize_tower(t))
    wide = tuple(f"s{i}" for i in range(300))
    huge = tuple(f"{i:x}" for i in range(70000))  # code points up to 70000, past the surrogates at 0xD800
    for symbols, count in ((wide, 40), (huge, 2)):
        for _ in range(count):
            t = random_tower(rng, symbols=symbols, depth=rng.randint(1, 3), fill=0.8)
            texts.append(serialize_tower(t))
            texts.append(defective_text(rng, serialize_tower(t)))
    levels = "period 4 = d800 dfff _ 1116f\nperiod 8 = d800 dfff _ 1116f d800 dfff 0 1116f\n"
    texts.append(f"alphabet = {' '.join(huge)}\n{levels}")
    outcomes = [_parses_as_before(text) for text in texts]
    assert {type(o) for o in outcomes} == {ParseError, OldParsedTower}


def defective_text(rng: random.Random, text: str) -> str:
    """``text`` with one token of a random period line replaced by a symbol of none of the alphabets here."""
    lines = text.splitlines()
    k = rng.choice([k for k, line in enumerate(lines) if line.startswith("period")])
    head, _, payload = lines[k].partition(" = ")
    tokens = payload.split()
    tokens[rng.randrange(len(tokens))] = rng.choice(("x", "__", "zz"))
    lines[k] = f"{head} = {' '.join(tokens)}"
    return "\n".join(lines) + "\n"
