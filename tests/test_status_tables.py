"""Differential test: status tables and essential periods from folded bit
planes, against the per-residue ``set`` scan and the lcm-window ``zip`` they
replaced, kept here verbatim as the references (their table cache is a dict
passed in, since the tower's own cache now holds the bit-plane tables)."""

import math
import random
import re

import pytest

from toepcalc import (
    EssentialOutcome,
    EssentialStatus,
    NonDivisorError,
    SkeletonTower,
    Status,
    essential_period_status,
    periodic_part,
    rotate_tower,
)
from toepcalc.skeleton import ResidueStatusSet
from toepcalc.randomgen import random_tower
from helpers import one_level

BINARY = ("0", "1")
TERNARY = ("a", "b", "c")
WIDE = tuple(f"s{i}" for i in range(300))  # codes up to 300: nine bit planes


def reference_periodic_part(tower: SkeletonTower, p: int, cache: dict) -> ResidueStatusSet:
    deep = tower.deepest_period
    if p < 1 or deep % p:
        raise NonDivisorError(f"{p} does not divide the deepest period {deep}")
    cached = cache.get(p)
    if cached is not None:
        return cached
    w = tower.deepest_word
    statuses: list[Status] = []
    symbols: list = []
    for r in range(p):
        cells = set(w.cells[r::p])
        if len(cells) == 1 and None not in cells:
            statuses.append(Status.IN)
            symbols.append(*cells)
        else:
            statuses.append(Status.OUT if len(cells - {None}) > 1 or p == deep else Status.UNKNOWN)
            symbols.append(None)
    rss = cache[p] = ResidueStatusSet(p, tuple(statuses), tuple(symbols))
    return rss


def reference_period_status(tower: SkeletonTower, q: int, cache: dict) -> ResidueStatusSet:
    if q < 1:
        raise NonDivisorError(f"period {q} is not positive")
    return reference_periodic_part(tower, math.gcd(q, tower.deepest_period), cache)


def reference_essential_period_status(tower: SkeletonTower, p: int, cache: dict) -> EssentialStatus:
    rp = reference_period_status(tower, p, cache)
    if all(s is Status.OUT for s in rp.statuses):
        return EssentialStatus(p, EssentialOutcome.NOT_ESSENTIAL, "periodic part certified empty")
    deep = tower.deepest_period
    undetermined: list[int] = []
    for q in (d for d in range(1, min(p, deep + 1)) if deep % d == 0):
        rq = reference_periodic_part(tower, q, cache)
        window = math.lcm(rp.modulus, rq.modulus)
        pairs = zip(rp.statuses * (window // rp.modulus), rq.statuses * (window // rq.modulus))
        if any(a is not b and Status.UNKNOWN not in (a, b) for a, b in pairs):  # In against Out
            continue
        if Status.UNKNOWN not in (*rp.statuses, *rq.statuses):
            return EssentialStatus(
                p, EssentialOutcome.NOT_ESSENTIAL, f"certified equal to the {q}-periodic part"
            )
        undetermined.append(q)
    if undetermined:
        return EssentialStatus(
            p,
            EssentialOutcome.UNKNOWN,
            "separation undecided against " + ", ".join(map(str, undetermined)),
            tuple(undetermined),
        )
    if Status.IN not in rp.statuses:
        return EssentialStatus(
            p, EssentialOutcome.UNKNOWN, "separated everywhere but nonemptiness uncertified"
        )
    return EssentialStatus(p, EssentialOutcome.ESSENTIAL, "separated from every shorter period")


def patterned(rng: random.Random, symbols, n: int, fill: float, noise: float) -> SkeletonTower:
    """A word of period ``n`` that repeats a random word of a random period
    ``d | n``, with each cell blank with probability ``1 - fill`` and else
    replaced by a random symbol with probability ``noise``."""
    d = rng.choice([d for d in range(1, 61) if n % d == 0])
    base = [rng.choice(symbols) for _ in range(d)]
    cells = [
        None if rng.random() >= fill else rng.choice(symbols) if rng.random() < noise else base[x % d]
        for x in range(n)
    ]
    return one_level(symbols, cells)


def one_filled_cell(rng: random.Random, symbols, n: int) -> SkeletonTower:
    cells = [None] * n
    cells[rng.randrange(n)] = rng.choice(symbols)
    return one_level(symbols, cells)


def small_towers():
    rng = random.Random(1313)
    for symbols in (BINARY, TERNARY, WIDE):
        for _ in range(80):
            fill = rng.choice((1.0, 0.9, 0.6, 0.3, 0.05))
            t = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 5, 6), fill=fill)
            yield rotate_tower(t, rng.randrange(t.deepest_period))
        yield one_filled_cell(rng, symbols, rng.choice((1, 6, 12, 30)))
    # two codes that differ only in their top bit (1 and 257) share residue 0 mod 2
    yield one_level(WIDE, (WIDE[0], WIDE[1], WIDE[256], WIDE[1]))


def composite_towers():
    rng = random.Random(2520)
    for n, alphabets in ((720, (BINARY, TERNARY, WIDE)), (2520, (BINARY, WIDE))):
        for symbols in alphabets:
            for fill, noise in ((1.0, 0.0), (1.0, 0.002), (0.97, 0.0), (0.6, 0.01), (0.02, 0.0)):
                yield patterned(rng, symbols, n, fill, noise)
            yield one_filled_cell(rng, symbols, n)


def check(t: SkeletonTower, periods, seen: set) -> None:
    """Tables and essential statuses at ``periods``, divisors of the deepest
    period or not, against the references."""
    cache: dict = {}
    for p in periods:
        if t.deepest_period % p:
            with pytest.raises(NonDivisorError):
                periodic_part(t, p)
        else:
            want = reference_periodic_part(t, p, cache)
            got = periodic_part(t, p)
            assert got == want, (t, p)
            for status in Status:
                assert got.residues(status) == tuple(r for r, s in enumerate(want.statuses) if s is status)
            seen.update(got.statuses)
        want = reference_essential_period_status(t, p, cache)
        assert essential_period_status(t, p) == want, (t, p)
        seen.add(re.sub(r" (to the|against) .*", "", want.reason))


REASONS = {
    "periodic part certified empty",
    "certified equal",
    "separation undecided",
    "separated everywhere but nonemptiness uncertified",
    "separated from every shorter period",
}


def test_small_towers_match_references():
    seen: set = set()
    for t in small_towers():
        check(t, range(1, 2 * t.deepest_period + 2), seen)
    assert seen == {*Status, *REASONS}


def test_highly_composite_periods_match_references():
    seen: set = set()
    for t in composite_towers():
        n = t.deepest_period
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        check(t, (*divisors, 11, 13, 64, 1000, n + 1, 2 * n - 1), seen)
    assert seen == {*Status, *REASONS}
