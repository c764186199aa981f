"""The oracle's images from the gcd root and its bulk-checked code tables,
against the search and the per-row checks they replace (both kept verbatim
in tests/helpers.py), and the oracle's cost on coprime periods."""

import random
import time
from collections import Counter
from itertools import product
from math import gcd

import pytest

from toepcalc import Alphabet, AlphabetError, BlockCode, CodeError, exact_conjugacy_search
from toepcalc.oracle import PeriodicWord
from helpers import BINARY, OldBlockCode, old_exact_conjugacy_search

# ternary, not in string order, and multi-character symbols
ALPHABETS = (
    BINARY, Alphabet(("a", "b", "c")), Alphabet(("1", "0")), Alphabet(("b", "a", "c")), Alphabet(("01", "->", "x"))
)


def _random(rng: random.Random, alphabet: Alphabet, n: int) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet.symbols) for _ in range(n))


def _rotate(cells: tuple[str, ...], k: int) -> tuple[str, ...]:
    k %= len(cells)
    return cells[k:] + cells[:k]


def _code_image(rng: random.Random, alphabet: Alphabet, cells: tuple[str, ...], m: int) -> tuple[str, ...]:
    """The image of the cyclic word under a random radius-m code."""
    table = {w: rng.choice(alphabet.symbols) for w in product(alphabet.symbols, repeat=2 * m + 1)}
    n = len(cells)
    return tuple(table[tuple(cells[(x + d) % n] for d in range(-m, m + 1))] for x in range(n))


def _pair(rng: random.Random, alphabet: Alphabet) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Two words of periods up to 30, often of one least period, so that
    every gcd case meets witnesses as well as failures."""
    kind = rng.randrange(6)
    if kind == 0:  # unrelated words
        return _random(rng, alphabet, rng.randint(1, 30)), _random(rng, alphabet, rng.randint(1, 30))
    q = rng.randint(1, 8)
    u = _random(rng, alphabet, q)
    if kind == 1:  # a rotation of the same root
        image = u
    elif kind == 2:  # a relabelling of the root
        image = tuple(map(dict(zip(alphabet.symbols, rng.sample(alphabet.symbols, len(alphabet)))).get, u))
    else:  # a code image of the root, whose least period may be smaller
        image = _code_image(rng, alphabet, u, kind - 3)
    a, b = rng.randint(1, 30 // q), rng.randint(1, 30 // q)
    return u * a, _rotate(image, rng.randrange(q)) * b


def _gcd_kind(v: PeriodicWord, w: PeriodicWord) -> str:
    g = gcd(v.period, w.period)
    if g == 1:
        return "gcd 1"
    if g == w.period:
        return "gcd w.period"
    return "gcd proper divisor"


def test_search_matches_the_lcm_search():
    rng = random.Random(30)
    cases = []
    for alphabet in ALPHABETS:
        for _ in range(300):
            v, w = _pair(rng, alphabet)
            cases.append((PeriodicWord(alphabet, v), PeriodicWord(alphabet, w), rng.randint(0, 2)))
    # the gcd root itself has a smaller period: root 0101 of (01)^6 against period 4
    for v in ("0101", "1010", "0110", "0011"):
        for radius in (0, 1, 2):
            cases.append((PeriodicWord.from_text(BINARY, v), PeriodicWord.from_text(BINARY, "01" * 6), radius))
    seen = Counter()
    for v, w, radius in cases:
        got = exact_conjugacy_search(v, w, radius)
        assert repr(got) == repr(old_exact_conjugacy_search(v, w, radius)), (v, w, radius)
        seen[_gcd_kind(v, w), got is not None] += 1
        if got is not None:
            seen[f"radius {got.forward.length}"] += 1
            seen["nonzero shift"] += got.shift != 0
    for kind in ("gcd 1", "gcd w.period", "gcd proper divisor"):
        assert seen[kind, True] > 0 and seen[kind, False] > 0, (kind, seen)
    for kind in ("radius 0", "radius 1", "radius 2", "nonzero shift"):
        assert seen[kind] > 0, (kind, seen)
    w = PeriodicWord.from_text(BINARY, "01" * 6)
    shifts = [exact_conjugacy_search(PeriodicWord.from_text(BINARY, v), w, 0).shift for v in ("0101", "1010")]
    assert shifts == [0, 1]  # the least shifts, below the root's 4 rotations


@pytest.mark.parametrize("periods", [(400, 401), (1000, 1001)])
def test_coprime_periods_search_fast(periods):
    rng = random.Random(periods[0])
    v, w = (PeriodicWord(BINARY, _random(rng, BINARY, n)) for n in periods)
    start = time.perf_counter()
    assert exact_conjugacy_search(v, w, 1) is None
    assert time.perf_counter() - start < 1.0


def test_word_without_the_gcd_period_searches_fast():
    # gcd(800, 1200) = 400, and a random w of period 1200 has no period 400
    rng = random.Random(400)
    v, w = (PeriodicWord(BINARY, _random(rng, BINARY, n)) for n in (800, 1200))
    assert w.cells != w.cells[:400] * 3
    start = time.perf_counter()
    assert exact_conjugacy_search(v, w, 1) is None
    assert time.perf_counter() - start < 1.0


def test_periodic_word_names_the_first_bad_symbol():
    for cells, bad in ((("0", "2", "x"), "'2'"), (("1", None), "None"), (("0", "01"), "'01'")):
        with pytest.raises(AlphabetError) as e:
            PeriodicWord(BINARY, cells)
        assert str(e.value) == f"symbol {bad} not in alphabet"


def _malformed(rng: random.Random, alphabet: Alphabet, m: int) -> tuple[str, list]:
    """A shuffled valid table with one fault of a drawn kind."""
    rows = [[w, rng.choice(alphabet.symbols)] for w in product(alphabet.symbols, repeat=2 * m + 1)]
    rng.shuffle(rows)
    i = rng.randrange(len(rows))
    kind = rng.choice(("short", "long", "window symbol", "output symbol", "duplicate", "missing", "list windows"))
    if kind == "short":
        rows[i][0] = rows[i][0][:-1]
    elif kind == "long":
        rows[i][0] = rows[i][0] + (rng.choice(alphabet.symbols),)
    elif kind == "window symbol":
        window = list(rows[i][0])
        window[rng.randrange(len(window))] = "?"
        rows[i][0] = tuple(window)
    elif kind == "output symbol":
        rows[i][1] = "?"
    elif kind == "duplicate":
        rows.insert(rng.randint(0, len(rows)), list(rows[i]))
    elif kind == "missing":
        del rows[i]
    else:  # valid, with every window given as a list
        rows = [[list(w), out] for w, out in rows]
    if rng.random() < 0.3 and kind != "list windows":  # a second fault elsewhere
        j = rng.randrange(len(rows))
        rows[j] = [rows[j][0], "!"]
    return kind, [tuple(row) for row in rows]


def test_block_code_rows_match_the_row_loop():
    rng = random.Random(14)
    seen = Counter()
    for alphabet in ALPHABETS:
        for _ in range(150):
            m = rng.randint(0, 2)
            kind, rows = _malformed(rng, alphabet, m)
            try:
                expected = OldBlockCode(alphabet, m, tuple(rows))
            except CodeError as exc:
                with pytest.raises(CodeError) as e:
                    BlockCode(alphabet, m, tuple(rows))
                assert (type(e.value), str(e.value), e.value.row) == (type(exc), str(exc), exc.row), (kind, rows)
                seen[kind, "row" if exc.row is not None else "table"] += 1
                continue
            got = BlockCode(alphabet, m, tuple(rows))
            assert got.table == expected.table and all(got.apply(w) == expected.apply(w) for w, _ in got.table)
            seen[kind, "valid"] += 1
    for kind in ("short", "long", "window symbol", "output symbol", "duplicate"):
        assert seen[kind, "row"] > 0, (kind, seen)
    assert seen["missing", "table"] > 0 and seen["list windows", "valid"] > 0, seen


def test_valid_block_codes_match_in_any_row_order():
    rng = random.Random(15)
    for alphabet in ALPHABETS:
        for m in (0, 1, 2):
            rows = [(w, rng.choice(alphabet.symbols)) for w in product(alphabet.symbols, repeat=2 * m + 1)]
            for order in ("product", "shuffled", "reversed"):
                if order == "shuffled":
                    rows = rng.sample(rows, len(rows))
                elif order == "reversed":
                    rows = rows[::-1]
                got, expected = BlockCode(alphabet, m, tuple(rows)), OldBlockCode(alphabet, m, tuple(rows))
                assert got.table == expected.table
                assert all(got.apply(list(w)) == expected.apply(w) == out for w, out in rows)
