"""Differential tests: ``phase_separated`` by an anchored rotation filter
against the two definitions it replaced, kept here verbatim as references:
the residue-pair scan and the rotation scan over every d in 1..p-1."""

import random
import time

import pytest

from toepcalc import (
    Alphabet,
    NonDivisorError,
    PartialCyclicWord,
    SkeletonTower,
    Status,
    period_status,
    phase_separated,
    reference_example,
    rotate_tower,
    status_masks,
)
from toepcalc.randomgen import random_tower

WIDE = tuple(f"s{i}" for i in range(300))  # a large alphabet: many residues of distinct certified kinds


def _certified_distinct(rss, r: int, d: int) -> bool:
    s1, s2 = rss.status_at(r), rss.status_at(r + d)
    if s1 is Status.IN and s2 is Status.IN:
        return rss.symbol(r) != rss.symbol(r + d)
    return {s1, s2} == {Status.IN, Status.OUT}


def reference_phase_separated(tower: SkeletonTower, p: int) -> bool:
    rss = period_status(tower, p)
    return all(
        any(_certified_distinct(rss, r, d) for r in range(p)) for d in range(1, p)
    )


def reference_rotation_scan(rss, p: int) -> bool:
    """Every rotation d tried on one p-bit mask per certified kind."""
    if rss.modulus < p:
        return False  # the statuses repeat at the rotation d = modulus
    kinds = [a if s is Status.IN else s for s, a in zip(rss.statuses, rss.symbols)]  # symbol, Out or Unknown
    bits = {kind: bytearray(p // 8 + 1) for kind in set(kinds)}
    for r, kind in enumerate(kinds):
        bits[kind][r >> 3] |= 1 << (r & 7)
    bits.pop(Status.UNKNOWN, None)
    masks = [int.from_bytes(b, "little") for b in bits.values()]
    certified = sum(masks)
    # each kind's residues x against the other certified residues y; rotating y by d puts residue r + d at bit r
    pairs = [(x, certified ^ x) for x in masks]
    return all(any(x & (y >> d | y << (p - d)) for x, y in pairs) for d in range(1, p))


def fresh(t: SkeletonTower) -> SkeletonTower:
    """The same tower without its cached answers."""
    return SkeletonTower(t.alphabet, t.levels, t.declared_scale)


def check(t: SkeletonTower, p: int, pair_scan: bool = True) -> bool:
    want = reference_rotation_scan(period_status(t, p), p)
    if pair_scan:
        assert reference_phase_separated(t, p) == want, (t, p)
    assert phase_separated(fresh(t), p) == want, (t, p)
    return want


def test_phase_separated_matches_pair_scan():
    rng = random.Random(4096)
    seen = set()
    for _ in range(1500):
        symbols = rng.choice((("0", "1"), ("a", "b", "c"), WIDE))
        fill = rng.choice((1.0, 0.9, 0.7, 0.4))
        t = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 5, 6), fill=fill)
        t = rotate_tower(t, rng.randrange(t.deepest_period))
        non_divisor = next(q for q in range(2, 2 * t.deepest_period + 2) if t.deepest_period % q)
        for p in (*t.periods, non_divisor, 1):
            want = reference_phase_separated(t, p)
            assert phase_separated(t, p) == want, (t, p)
            seen.add((p == t.deepest_period, want))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_phase_separated_matches_rotation_scan_on_random_towers():
    rng = random.Random(4097)
    seen = set()
    for _ in range(600):
        symbols = rng.choice((("0", "1"), ("a", "b", "c"), WIDE))
        fill = rng.choice((1.0, 0.9, 0.7, 0.4))
        t = random_tower(rng, symbols, depth=rng.randint(1, 4), base_periods=(1, 2, 3, 4, 5, 6, 8), fill=fill)
        t = rotate_tower(t, rng.randrange(t.deepest_period))
        for p in (*t.periods, 1):
            seen.add((len(symbols), check(t, p, pair_scan=t.deepest_period <= 200)))
    assert seen == {(n, s) for n in (2, 3, 300) for s in (True, False)}


def wide_word(rng, p: int, unknown: float, q: int = 0) -> PartialCyclicWord:
    """A ``2p``-cell word over WIDE whose stage ``p`` has each residue Unknown
    with probability ``unknown``, else In or (rarely) Out; with ``q`` dividing
    ``p``, the residues repeat with period ``q``, so the rotation by ``q`` is
    not separated."""
    cells = [None] * (2 * p)
    for r in range(q or p):
        x = rng.random()
        if x < unknown:
            cells[r + rng.choice((0, p))] = rng.choice((None, rng.choice(WIDE)))  # one blank cell at least
        elif x < unknown + (1 - unknown) * 0.9:
            cells[r] = cells[r + p] = rng.choice(WIDE)
        else:
            cells[r], cells[r + p] = rng.sample(WIDE, 2)
    for r in range(q, p if q else 0):
        cells[r], cells[r + p] = cells[r % q], cells[r % q + p]
    return PartialCyclicWord(tuple(cells))


def test_phase_separated_on_300_symbol_towers():
    rng = random.Random(4098)
    alphabet = Alphabet(WIDE)
    seen = set()
    for _ in range(60):
        p = rng.choice((300, 500, 700))
        q = rng.choice((0, 0, p // 100, p // 5))
        t = SkeletonTower(alphabet, ((2 * p, wide_word(rng, p, rng.choice((0.0, 0.3, 0.8)), q)),))
        for stage in (p, 2 * p):
            seen.add((stage, check(t, stage, pair_scan=False)))
    assert {s for _, s in seen} == {True, False}


def test_phase_separated_on_mostly_unknown_stages():
    """Few certified residues among many Unknown ones: the anchors filter
    few rotations, and many survivors need the exact test.  With more than
    64 certified residues the filter alone is not exact."""
    rng = random.Random(4099)
    alphabet = Alphabet(WIDE)
    seen = set()
    for _ in range(120):
        p = rng.choice((40, 120, 400, 1200, 2000))
        t = SkeletonTower(alphabet, ((2 * p, wide_word(rng, p, rng.choice((0.9, 0.95, 0.99, 1.0)))),))
        certified = sum(s is not Status.UNKNOWN for s in period_status(t, p).statuses)
        seen.add((certified > 64, check(t, p, pair_scan=p <= 120)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_phase_separated_on_one_rare_symbol_words():
    """A word of 0s with one to three 1s and some blanks, repeated m times."""
    rng = random.Random(4100)
    seen = set()
    for _ in range(300):
        q, m = rng.randint(1, 100), rng.choice((1, 1, 2, 3))
        cells = ["0"] * q
        for x in rng.sample(range(q), min(q, rng.choice((1, 1, 2, 3)))):
            cells[x] = "1"
        for x in rng.sample(range(q), rng.choice((0, 0, 1, q // 4))):
            cells[x] = None
        t = SkeletonTower(Alphabet(("0", "1")), ((q * m, PartialCyclicWord(tuple(cells * m))),))
        for p in {q * m, q, rng.choice([d for d in range(1, q + 1) if q % d == 0])}:
            seen.add((p == q * m, check(t, p, pair_scan=q * m <= 200)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_phase_separated_on_reference_example_stages():
    seen = set()
    for k in range(1, 13):
        t = reference_example(k)
        n = t.deepest_period
        for p in (*t.periods, n // 4 if n % 4 == 0 else 1, 3):
            seen.add(check(t, p, pair_scan=p <= 160))
    assert seen == {True, False}


def test_phase_separated_deepest_stage_of_15_is_fast():
    # the rotation scan tried every d of p = 163840 with a few big-int operations per kind: 2.9 s
    t = reference_example(15)
    start = time.perf_counter()
    assert phase_separated(t, t.deepest_period)
    assert time.perf_counter() - start < 0.5


def test_phase_separated_rejects_a_stage_below_1():
    t = reference_example(2)
    n = t.deepest_period
    for p in (0, -1, -3, -5, -n, -n - 1):  # zero, and stages below 1 that Python's % finds dividing n or not
        with pytest.raises(NonDivisorError, match=f"^{p} does not divide the deepest period {n}$"):
            phase_separated(t, p)
        with pytest.raises(NonDivisorError, match=f"^{p} does not divide the deepest period {n}$"):
            status_masks(t, p)
        assert ("separated", p) not in t._status
    for p in (3, 7, n + 1):  # a non-divisor stage of at least 1 is not separated
        assert n % p and phase_separated(t, p) is False and t._status["separated", p] is False
