"""The facts a ``PeriodicWord`` keeps for the oracle (numbered windows per
radius, and on the source word one solve per rotation class of images and
radius), against the search and the inverse search on fresh words kept
verbatim in tests/helpers.py; radii capped at half the source's period, and
backward at half the common period; a word's cells held as a tuple; and the
essential-period check by distinct gcd."""

import copy
import pickle
import random
import time
from collections import Counter
from itertools import product
from math import gcd

import pytest

import toepcalc.oracle as oracle
from toepcalc import Alphabet, AlphabetError, exact_conjugacy_search, exact_periodic_analysis
from toepcalc.oracle import PeriodicWord, _inverse_search
from helpers import BINARY, _old_inverse_search, divisors, old_exact_conjugacy_search, old_exact_periodic_analysis
from test_oracle_images import ALPHABETS, _pair


def _fresh(word: PeriodicWord) -> PeriodicWord:
    return PeriodicWord(word.alphabet, word.cells)


def _least(cells: tuple) -> tuple:
    return min(cells[i:] + cells[:i] for i in range(len(cells)))


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
    radii = {r for _, _, r in cases}
    for u in {u for v, w, _ in cases for u in (v, w)}:  # one index per radius up to half the period
        assert all(k <= min(max(radii), u.period // 2) for k in u._facts if isinstance(k, int)), u
    for v in {v for v, _, _ in cases}:  # one solve per rotation class of images and radius, named by its least member
        classes = [k for k in v._facts if not isinstance(k, int)]
        assert all(len(c) == v.period and c == _least(c) and r in radii and r <= v.period // 2 for c, r in classes), v
        seen["classes kept"] += len(classes)
    return seen


def test_kept_facts_match_fresh_words_on_binary_words():
    words = [PeriodicWord(BINARY, bits) for n in range(1, 7) for bits in product("01", repeat=n)]
    cases = [(v, w, i % 3) for i, (v, w) in enumerate(product(words, words))]  # radii interleaved
    seen = _check_sweeps(cases, 6)
    for r in (0, 1, 2):
        assert seen["witness", r] > 0 and seen["none", r] > 0, seen
    assert seen["classes kept"] > 0, seen


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


def test_rotations_and_divisor_periods_of_a_class_share_one_solve():
    """Every rotation of every class of period n, and the shorter words whose
    tilings are in it ("01", "10" and "0101" against period 4), meet one
    shared source; the source keeps exactly one solve per class and radius."""
    rng = random.Random(39)
    cases = []
    for alphabet, n, count in ((BINARY, 4, 16), (BINARY, 6, 10), (Alphabet(("b", "a", "c")), 4, 6)):
        shared: dict = {}
        word = lambda c: shared.setdefault(c, PeriodicWord(alphabet, c))  # noqa: E731
        sources = [word(c) for c in rng.sample(list(product(alphabet.symbols, repeat=n)), count)]
        targets = [word(c) for d in divisors(n) for c in product(alphabet.symbols, repeat=d)]
        cases += [(v, w, r) for v in sources for w in targets for r in (0, 1, 2)]
    seen = _check_sweeps(cases, 39)
    for r in (0, 1, 2):
        assert seen["witness", r] > 0 and seen["none", r] > 0, seen
    for v in {v for v, _, _ in cases}:
        expected = {(_least(w.cells * (v.period // w.period)), r) for u, w, r in cases if u is v}
        assert {k for k in v._facts if not isinstance(k, int)} == expected, v
    # each w of one class gets its own least shift onto the one chosen image
    for source, targets, shifts in (
        ("0011", ("0011", "0110", "1100", "1001"), [0, 3, 2, 1]),
        ("0101", ("01", "10", "0101", "1010"), [0, 1, 0, 1]),
    ):
        v = PeriodicWord(BINARY, source)
        assert [exact_conjugacy_search(v, PeriodicWord(BINARY, w), 0).shift for w in targets] == shifts
        assert [k for k in v._facts if not isinstance(k, int)] == [(tuple(source), 0)]


def test_capped_radii_match_the_uncapped_search():
    """Radii 0 to two past the larger period, over binary words of length
    <= 3 and random pairs on every alphabet, shared words cold and warm."""
    words = [PeriodicWord(BINARY, bits) for n in range(1, 4) for bits in product("01", repeat=n)]
    cases = [(v, w, r) for v, w in product(words, words) for r in range(max(v.period, w.period) + 3)]
    rng = random.Random(7)
    for alphabet in ALPHABETS:
        for _ in range(8):
            v, w = (PeriodicWord(alphabet, c) for c in _pair(rng, alphabet))
            cases += [(v, w, r) for r in range(max(v.period, w.period) + 3)]
    seen = _check_sweeps(cases, 7)
    for r in range(6):
        assert seen["witness", r] > 0 and seen["none", r] > 0, seen


def test_a_huge_radius_returns_at_once_and_keeps_few_windows():
    rng = random.Random(9)
    pairs = [(BINARY, tuple("01"), tuple("0")), (BINARY, tuple("0110"), tuple("1100")), (BINARY, tuple("001011"), tuple("011001"))]
    pairs += [(a, *_pair(rng, a)) for a in ALPHABETS for _ in range(4)]
    start = time.perf_counter()
    for alphabet, v_cells, w_cells in pairs:
        v, w = PeriodicWord(alphabet, v_cells), PeriodicWord(alphabet, w_cells)
        got = exact_conjugacy_search(v, w, 10**9)
        for u in (v, w):
            assert sum(isinstance(k, int) for k in u._facts) <= u.period // 2 + 1, u
        radius = max(v.period, w.period) + 2
        assert repr(got) == repr(old_exact_conjugacy_search(_fresh(v), _fresh(w), radius)), (v, w)
    assert exact_conjugacy_search(PeriodicWord(BINARY, "01"), PeriodicWord(BINARY, "0"), 10**9) is None
    assert time.perf_counter() - start < 1


def test_radii_past_half_the_source_period_share_one_solve():
    """0110 searched from 0011 at every max_radius below 1000 leaves three
    solves on the source, at radii 0, 1 and 2, and each answer is the old
    search's at min(max_radius, 6) on fresh words."""
    v, w = PeriodicWord(BINARY, "0011"), PeriodicWord(BINARY, "0110")
    expected = [repr(old_exact_conjugacy_search(_fresh(v), _fresh(w), r)) for r in range(7)]
    for max_radius in range(1000):
        assert repr(exact_conjugacy_search(v, w, max_radius)) == expected[min(max_radius, 6)], max_radius
    assert sorted(k for k in v._facts if not isinstance(k, int)) == [(tuple("0011"), r) for r in (0, 1, 2)]


def test_an_inverse_search_stops_at_half_the_common_period():
    """010101 from 0011: g = 2, every image fails backward, and the target
    numbers its windows at radii 0 and 1 only, not up to half its period."""
    v, w = PeriodicWord(BINARY, "0011"), PeriodicWord(BINARY, "010101")
    assert exact_conjugacy_search(v, w, 10) is None
    assert sorted(k for k in w._facts if isinstance(k, int)) == [0, 1]
    for shift in range(2):
        y = PeriodicWord(BINARY, (w.cells[shift:2] + w.cells[:shift]) * 2)
        expected = _old_inverse_search(y, _fresh(v), 10)
        assert expected is None and repr(_inverse_search(_fresh(w), shift, _fresh(v), 10)) == repr(expected), shift


def test_a_warm_sweep_forces_and_builds_nothing(monkeypatch):
    """Over the 62 binary words of length <= 5 at radius 2 on shared words:
    the first sweep builds one forward code per solved class with a witness
    and one code per inverse found, and searches each image backward at most
    once per source; the second calls none of the three."""
    calls, backward = Counter(), Counter()

    def counted(name, f):
        def run(*args):
            calls[name] += 1
            got = f(*args)
            if name == "_inverse_search":
                w, shift, v, max_radius = args
                g = gcd(v.period, w.period)
                backward[v.cells, (w.cells[shift:g] + w.cells[:shift]) * (v.period // g), max_radius] += 1
                calls["inverses found"] += got is not None
            return got

        return run

    for name in ("_forced", "_full_code", "_inverse_search"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    words = [PeriodicWord(BINARY, bits) for n in range(1, 6) for bits in product("01", repeat=n)]
    first = [repr(exact_conjugacy_search(v, w, 2)) for v in words for w in words]
    witnessed = sum(found is not None for v in words for k, found in v._facts.items() if not isinstance(k, int))
    assert calls["_full_code"] == witnessed + calls["inverses found"] and witnessed > 0, calls
    assert max(backward.values()) == 1, backward.most_common(1)
    calls.clear()
    assert [repr(exact_conjugacy_search(v, w, 2)) for v in words for w in words] == first
    assert calls == Counter(), calls


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
    assert any(isinstance(k, tuple) for k in warm._facts) and 0 in warm._facts  # a solved class and an index kept
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
