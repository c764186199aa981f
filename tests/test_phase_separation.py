"""Differential test: ``phase_separated`` by rotated bitmasks against the
residue-pair scan it replaced, kept here verbatim as the reference."""

import random

from toepcalc import SkeletonTower, Status, period_status, phase_separated, rotate_tower
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

