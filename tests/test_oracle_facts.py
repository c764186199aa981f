"""The facts a ``PeriodicWord`` keeps for the oracle (numbered windows per
radius, and solved inverses on the source word), against the search and the
inverse search on fresh words kept verbatim in tests/helpers.py; a word's
cells held as a tuple; and the essential-period check by distinct gcd."""

import copy
import pickle
import random
from collections import Counter
from itertools import product
from math import gcd

import pytest

from toepcalc import Alphabet, AlphabetError, exact_conjugacy_search, exact_periodic_analysis
from toepcalc.oracle import PeriodicWord, _inverse_search
from helpers import BINARY, _old_inverse_search, divisors, old_exact_conjugacy_search, old_exact_periodic_analysis
from test_oracle_images import ALPHABETS, _pair


def _fresh(word: PeriodicWord) -> PeriodicWord:
    return PeriodicWord(word.alphabet, word.cells)


def _check_inverses(v: PeriodicWord, w: PeriodicWord, radius: int) -> None:
    """Each image's inverse read from w's windows is the one solved on a fresh word of the image."""
    g = gcd(v.period, w.period)
    if w.cells != w.cells[:g] * (w.period // g):
        return
    for shift in range(g):
        y = (w.cells[shift:g] + w.cells[:shift]) * (v.period // g)
        expected = _old_inverse_search(PeriodicWord(v.alphabet, y), _fresh(v), radius)
        assert repr(_inverse_search(w, shift, v, radius)) == repr(expected), (v, w, shift, radius)


def _check_sweeps(cases: list, seed: int) -> Counter:
    """Sweep the cases (v, w, radius) over shared words twice, cold in order
    and then warm in a seeded shuffled order, against the old search on
    fresh words; returns what the searches found."""
    expected = [repr(old_exact_conjugacy_search(_fresh(v), _fresh(w), r)) for v, w, r in cases]
    order = list(range(len(cases)))
    for sweep in ("cold", "warm"):
        for i in order:
            v, w, r = cases[i]
            assert repr(exact_conjugacy_search(v, w, r)) == expected[i], (sweep, v, w, r)
        random.Random(seed).shuffle(order)
    for v, w, r in cases:
        _check_inverses(v, w, r)
    seen = Counter(("witness" if e != "None" else "none", r) for e, (_, _, r) in zip(expected, cases))
    for v in {v for v, _, _ in cases}:  # one index per radius, one inverse per distinct image and radius
        assert all(k in (0, 1, 2) or (len(k[0]) == v.period and k[1] in (0, 1, 2)) for k in v._facts), v
        seen["inverses kept"] += sum(not isinstance(k, int) for k in v._facts)
    return seen


def test_kept_facts_match_fresh_words_on_binary_words():
    words = [PeriodicWord(BINARY, bits) for n in range(1, 7) for bits in product("01", repeat=n)]
    cases = [(v, w, i % 3) for i, (v, w) in enumerate(product(words, words))]  # radii interleaved
    seen = _check_sweeps(cases, 6)
    for r in (0, 1, 2):
        assert seen["witness", r] > 0 and seen["none", r] > 0, seen
    assert seen["inverses kept"] > 0, seen


def test_kept_facts_match_fresh_words_on_ternary_and_multi_character_alphabets():
    rng = random.Random(38)
    shared: dict = {}  # one word per (alphabet, cells)
    cases = []
    for alphabet in (a for a in ALPHABETS if len(a) == 3):
        for _ in range(150):
            v, w = (shared.setdefault((alphabet, c), PeriodicWord(alphabet, c)) for c in _pair(rng, alphabet))
            r = rng.randint(0, 2)
            cases += [(v, w, r), (w, v, r)]
    seen = _check_sweeps(cases, 38)
    for r in (0, 1, 2):
        assert seen["witness", r] > 0 and seen["none", r] > 0, seen


def test_periodic_word_holds_its_cells_as_a_tuple():
    as_tuple = PeriodicWord(BINARY, ("0", "1"))
    for cells in ("01", ["0", "1"]):
        word = PeriodicWord(BINARY, cells)
        assert word.cells == ("0", "1") and word == as_tuple and hash(word) == hash(as_tuple)
    witness = exact_conjugacy_search(PeriodicWord(BINARY, "01"), PeriodicWord(BINARY, "10"), 0)
    assert witness is not None
    assert repr(witness) == repr(exact_conjugacy_search(as_tuple, PeriodicWord(BINARY, ("1", "0")), 0))
    assert repr(exact_conjugacy_search(PeriodicWord(BINARY, ["0", "1"]), PeriodicWord(BINARY, ["1", "0"]), 0)) == repr(witness)
    # a str is read one character per cell, so symbols of several characters are not in it
    with pytest.raises(AlphabetError):
        PeriodicWord(Alphabet(("01", "->", "x")), "01->")


def test_a_word_with_warm_facts_behaves_as_a_value():
    cold, warm = PeriodicWord(BINARY, tuple("010011")), PeriodicWord(BINARY, tuple("010011"))
    for bits in ("100110", "101100", "01", "0"):
        for r in (0, 1, 2):
            exact_conjugacy_search(warm, PeriodicWord(BINARY, bits), r)
    assert any(isinstance(k, tuple) for k in warm._facts) and 0 in warm._facts  # an inverse and an index kept
    assert cold == warm and hash(cold) == hash(warm) and repr(cold) == repr(warm)
    assert pickle.dumps(cold) == pickle.dumps(warm)
    for duplicate in (lambda u: pickle.loads(pickle.dumps(u)), copy.copy, copy.deepcopy):
        u = duplicate(warm)
        assert u == warm and u is not warm and u._facts == {}


def test_essential_flag_matches_the_per_q_loop():
    seen = Counter()
    for n in range(1, 11):
        for bits in product("01", repeat=n):
            word = PeriodicWord(BINARY, bits)
            for p in divisors(n):
                got = exact_periodic_analysis(word, p)
                assert got == old_exact_periodic_analysis(word, p), (bits, p)
                seen[p > 1, got.essential] += 1
    assert seen[True, True] > 0 and seen[True, False] > 0, seen
