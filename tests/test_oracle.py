"""Brute-force ground truth for small totally periodic words.

These are deliberately independent of the skeleton machinery: membership in
Per_p is computed by scanning, conjugacy by enumerating block-code tables.
"""

import itertools
import math
import random
import time
from collections import Counter
from itertools import product
from math import lcm
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepcalc import (
    Alphabet,
    ConjugateCertified,
    NotConjugateCertified,
    RefutedUpTo,
    Status,
    Unknown,
    conjugacy_verdict,
    exact_conjugacy_search,
    exact_periodic_analysis,
    periodic_part,
)
from toepcalc.codes import AlphabetMismatch, BlockCode, Window
from toepcalc.core import AlphabetError
from toepcalc.oracle import PeriodicWord, SearchWitness, _full_code
from toepcalc.skeleton import NonDivisorError
from helpers import BINARY, tower


def word(text):
    return PeriodicWord.from_text(BINARY, text)


def apply_cycle(code, cells):
    m, n = code.length, len(cells)
    return tuple(
        code.apply(tuple(cells[(i + d) % n] for d in range(-m, m + 1))) for i in range(n)
    )


def test_periodic_word_validation():
    with pytest.raises(AlphabetError):
        PeriodicWord.from_text(BINARY, "01_")
    with pytest.raises(Exception):
        PeriodicWord.from_text(BINARY, "")
    assert word("0010").cell(-1) == "0"


def test_exact_per_residues():
    assert exact_periodic_analysis(word("0010"), 2).per_residues == frozenset({1})
    assert exact_periodic_analysis(word("0101"), 2).per_residues == frozenset({0, 1})
    assert exact_periodic_analysis(word("0011"), 4).per_residues == frozenset({0, 1, 2, 3})
    with pytest.raises(NonDivisorError):
        exact_periodic_analysis(word("0011"), 3)


def test_essential_values():
    assert exact_periodic_analysis(word("0101"), 2).essential
    assert not exact_periodic_analysis(word("0101"), 4).essential
    assert exact_periodic_analysis(word("0010"), 4).essential
    assert not exact_periodic_analysis(word("0010"), 1).essential  # Per_1 empty here


def test_search_identity_up_to_rotation():
    wit = exact_conjugacy_search(word("0011"), word("1100"), 0)
    assert wit is not None
    assert wit.shift == 2
    assert wit.forward.length == 0
    assert dict(wit.forward.table) == {("0",): "0", ("1",): "1"}


def test_search_finds_radius_one_witness():
    v, w = word("0011"), word("0111")
    assert exact_conjugacy_search(v, w, 0) is None  # frequencies differ, no relabel works
    wit = exact_conjugacy_search(v, w, 1)
    assert wit is not None and wit.shift == 3
    y = apply_cycle(wit.forward, v.cells)
    span = math.lcm(v.period, w.period)
    assert all(w.cells[(x + wit.shift) % w.period] == y[x % v.period] for x in range(span))
    assert apply_cycle(wit.backward, y) == v.cells


def test_search_distinguishes_orbit_sizes():
    assert exact_conjugacy_search(word("01"), word("0001"), 1) is None
    assert exact_conjugacy_search(word("0"), word("01"), 2) is None


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_oracle_agrees_with_skeleton_on_full_words(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4, 6])
    text = "".join(rng.choice("01") for _ in range(n))
    if len(set(text)) == 1 and n > 1:
        text = text[:-1] + ("1" if text[0] == "0" else "0")
    t = tower(text)
    for p in (d for d in range(1, n + 1) if n % d == 0):
        rss = periodic_part(t, p)
        per = exact_periodic_analysis(word(text), p).per_residues
        for r in range(p):
            assert (rss.status_at(r) is Status.IN) == (r in per)


@given(st.integers(0, 10**9))
@settings(max_examples=20)
def test_search_round_trips_when_found(seed):
    rng = random.Random(seed)
    v = word("".join(rng.choice("01") for _ in range(4)))
    w = word("".join(rng.choice("01") for _ in range(4)))
    wit = exact_conjugacy_search(v, w, 1)
    if wit is None:
        return
    y = apply_cycle(wit.forward, v.cells)
    assert apply_cycle(wit.backward, y) == v.cells
    span = math.lcm(v.period, w.period)
    assert all(w.cells[(x + wit.shift) % w.period] == y[x % v.period] for x in range(span))


# The search as it was before windows were numbered once per (word, radius)
# and the shift found by one rotation lookup, kept verbatim as the reference.


def _occurring_windows(word: PeriodicWord, m: int) -> list[Window]:
    n = word.period
    return sorted({tuple(word.cell(x + d) for d in range(-m, m + 1)) for x in range(n)})


def _apply_table(word: PeriodicWord, m: int, table: dict[Window, str]) -> tuple[str, ...]:
    n = word.period
    return tuple(
        table[tuple(word.cell(x + d) for d in range(-m, m + 1))] for x in range(n)
    )


def reference_conjugacy_search(
    v: PeriodicWord, w: PeriodicWord, max_radius: int
) -> Optional[SearchWitness]:
    if v.alphabet != w.alphabet:
        raise AlphabetMismatch("words use different alphabets")
    symbols = v.alphabet.symbols
    span = lcm(v.period, w.period)
    w_long = tuple(w.cell(x) for x in range(span))
    for m in range(max_radius + 1):
        windows_v = _occurring_windows(v, m)
        for values in product(symbols, repeat=len(windows_v)):
            table = dict(zip(windows_v, values))
            y_cells = _apply_table(v, m, table)
            y_long = tuple(y_cells[x % v.period] for x in range(span))
            for shift in range(span):
                if any(y_long[x] != w_long[(x + shift) % span] for x in range(span)):
                    continue
                y = PeriodicWord(v.alphabet, y_cells)
                back = _inverse_search(y, v, max_radius)
                if back is not None:
                    return SearchWitness(
                        _full_code(v.alphabet, m, table), back, shift
                    )
                break  # other shifts give the same orbit; inverse cannot differ
    return None


def _inverse_search(y: PeriodicWord, v: PeriodicWord, max_radius: int) -> Optional[BlockCode]:
    for m in range(max_radius + 1):
        windows = _occurring_windows(y, m)
        for values in product(y.alphabet.symbols, repeat=len(windows)):
            table = dict(zip(windows, values))
            if _apply_table(y, m, table) == v.cells:
                return _full_code(y.alphabet, m, table)
    return None


def test_search_matches_table_enumeration():
    binary = [
        word("".join(bits)) for n in range(1, 5) for bits in itertools.product("01", repeat=n)
    ]
    cases = [(v, w, 2) for v in binary for w in binary]
    rng = random.Random(8)
    # a radius-2 forward code first appears at period 6 (3.5% of those pairs)
    six = ["".join(bits) for bits in itertools.product("01", repeat=6)]
    cases += [(word(rng.choice(six)), word(rng.choice(six)), 2) for _ in range(150)]
    ternary = Alphabet(("a", "b", "c"))
    for i in range(500):
        v = "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        if i % 3:
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
        else:
            r = rng.randrange(len(v))
            w = v[r:] + v[:r]
        pair = (PeriodicWord.from_text(ternary, v), PeriodicWord.from_text(ternary, w))
        cases.append((*pair, rng.randint(0, 2)))
    # alphabets not in string order: the forward tables are ranked by alphabet, not by text
    for alphabet in (Alphabet(("1", "0")), Alphabet(("b", "a", "c"))):
        symbols = "".join(alphabet.symbols)
        for _ in range(150):
            v, w = ("".join(rng.choice(symbols) for _ in range(rng.randint(1, 4))) for _ in "vw")
            cases.append((PeriodicWord.from_text(alphabet, v), PeriodicWord.from_text(alphabet, w), 2))
    # one period a proper multiple of the other, either way round
    for n, d in ((2, 1), (4, 2), (6, 2), (6, 3), (8, 4)):
        for _ in range(20):
            short, long = ("".join(rng.choice("01") for _ in range(k)) for k in (d, n))
            radius = rng.randint(1, 2)
            cases += [(word(short), word(long), radius), (word(long), word(short), radius)]
            cases.append((word(short), word(short * (n // d)), radius))
    # binary periods 7 and 8 at radius 1: up to 8 windows, 256 tables for the reference
    for _ in range(60):
        v, w = ("".join(rng.choice("01") for _ in range(rng.randint(7, 8))) for _ in "vw")
        cases.append((word(v), word(w), 1))
        r = rng.randrange(len(v))
        cases.append((word(v), word(v[r:] + v[:r]), 1))
    seen = Counter()
    for v, w, radius in cases:
        expected = reference_conjugacy_search(v, w, radius)
        got = exact_conjugacy_search(v, w, radius)
        assert repr(got) == repr(expected), (v.cells, w.cells, radius)
        if got is None:
            seen["none"] += 1
        else:
            seen[f"radius {got.forward.length}"] += 1
            seen["nonzero shift"] += got.shift != 0
    for kind in ("none", "radius 0", "radius 1", "radius 2", "nonzero shift"):
        assert seen[kind] > 0, (kind, seen)


def _distinct_window_word(rng: random.Random, n: int, m: int) -> str:
    """A binary word of period n whose n cyclic radius-m windows are all
    distinct, by a depth-first search over random extensions."""
    width = 2 * m + 1

    def extend(prefix: str, seen: frozenset) -> Optional[str]:
        if len(prefix) == n:
            wrap = prefix + prefix[: width - 1]
            tail = [wrap[i : i + width] for i in range(n - width + 1, n)]
            return prefix if len(seen | set(tail)) == n else None
        for bit in rng.sample("01", 2):
            window = (prefix + bit)[-width:]
            if len(prefix) + 1 < width or window not in seen:
                found = extend(prefix + bit, seen | {window} if len(prefix) + 1 >= width else seen)
                if found:
                    return found
        return None

    return extend("", frozenset())


def test_search_of_period_24_with_distinct_windows_is_fast():
    # every table over 24 windows is one of 2^24: enumerating them took minutes
    rng = random.Random(24)
    text = _distinct_window_word(rng, 24, 2)
    v = word(text)
    assert len({tuple(v.cell(x + d) for d in range(-2, 3)) for x in range(24)}) == 24
    for other in ("".join(rng.choice("01") for _ in range(24)), text[5:] + text[:5]):
        start = time.perf_counter()
        wit = exact_conjugacy_search(v, word(other), 2)
        assert time.perf_counter() - start < 1.0, other
        if wit is not None:
            y = apply_cycle(wit.forward, v.cells)
            assert all(other[(x + wit.shift) % 24] == y[x] for x in range(24))
            assert apply_cycle(wit.backward, y) == v.cells
    assert exact_conjugacy_search(v, word(text[5:] + text[:5]), 2).shift == 19


def test_verdicts_are_sound_against_the_oracle():
    words = ["".join(bits) for n in range(1, 7) for bits in itertools.product("01", repeat=n)]
    towers = {bits: tower(bits) for bits in words}
    counts = Counter()
    violations = []
    for v, w in itertools.product(words, words):
        verdict = conjugacy_verdict(towers[v], towers[w], 2)
        witness = exact_conjugacy_search(word(v), word(w), 2)
        kind = type(verdict).__name__
        if isinstance(verdict, Unknown):
            kind += " with witness" if witness else " without witness"
        counts[kind] += 1
        if isinstance(verdict, ConjugateCertified) and witness is None:
            violations.append((v, w, verdict))
        if isinstance(verdict, NotConjugateCertified) and witness is not None:
            violations.append((v, w, verdict))
        if isinstance(verdict, RefutedUpTo) and witness and witness.forward.length <= verdict.radius:
            violations.append((v, w, verdict, witness.forward.length))
    assert not violations, violations[:5]
    for kind in ("ConjugateCertified", "RefutedUpTo", "Unknown with witness", "Unknown without witness"):
        assert counts[kind] > 0, (kind, counts)
