"""Certified periodic parts, blocks, essential periods, scale truncation.

The exhaustive checks compare against brute force over every periodic
completion of the deepest word: certified In/Out claims must hold in all of
them (blanks at the deepest level are declared holes, so at that exact period
they certify Out by fiat and are not re-checked against fillings).
"""

import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toepcalc
from toepcalc import (
    EssentialOutcome,
    EssentialStatus,
    NonDivisorError,
    ScaleError,
    Status,
    essential_period_status,
    filled_blocks,
    growth_profile,
    period_status,
    periodic_part,
    phase_separated,
    reference_example,
    scale_truncation,
    skeleton_word,
)
from toepcalc.conjugacy import Part
from toepcalc.randomgen import deepen, random_tower
from helpers import completions, per_residues, tower


def statuses(t, p):
    rss = periodic_part(t, p)
    return {
        r: (rss.status_at(r), rss.symbol(r) if rss.status_at(r) is Status.IN else None)
        for r in range(p)
    }


def test_depth_one_blanks_are_declared_out():
    t = tower("0_1_0")
    s = statuses(t, 5)
    assert s[0] == (Status.IN, "0")
    assert s[2] == (Status.IN, "1")
    assert s[1][0] is Status.OUT and s[3][0] is Status.OUT


def test_below_deepest_only_conflicts_certify_out():
    t = tower("0_1_00___0")
    s = statuses(t, 5)
    # class {1, 6} is blank+blank, {3, 8} blank+blank: nothing certified
    assert s[0] == (Status.IN, "0")
    assert s[1][0] is Status.UNKNOWN
    assert s[2][0] is Status.UNKNOWN  # '1' over '_' could agree or not
    assert s[4] == (Status.IN, "0")


def test_reference_frozen_periodic_parts():
    g2 = reference_example(2)
    s5 = statuses(g2, 5)
    assert {r for r in range(5) if s5[r][0] is Status.IN} == {0, 4}
    assert {r for r in range(5) if s5[r][0] is Status.OUT} == {1, 2, 3}
    s10 = statuses(g2, 10)
    assert {r for r in range(10) if s10[r][0] is Status.IN} == {0, 2, 4, 5, 9}
    assert {r for r in range(10) if s10[r][0] is Status.OUT} == {1, 3}
    assert {r for r in range(10) if s10[r][0] is Status.UNKNOWN} == {6, 7, 8}

    g4 = reference_example(4)
    s20 = statuses(g4, 20)
    assert {r for r in range(20) if s20[r][0] is Status.OUT} == {6, 7, 8}
    s40 = statuses(g4, 40)
    assert {r for r in range(40) if s40[r][0] is Status.OUT} == {6, 8}
    assert {r for r in range(40) if s40[r][0] is Status.UNKNOWN} == {26, 27, 28}


def test_non_divisor_rejected():
    with pytest.raises(NonDivisorError):
        periodic_part(tower("01"), 3)


def test_status_table_cache_is_invisible(monkeypatch):
    a, b = reference_example(2), reference_example(2)
    with pytest.raises(NonDivisorError):
        periodic_part(a, 3)  # cold
    first = periodic_part(a, 10)
    separated = {p: phase_separated(a, p) for p in (3, 5, 10, 20)}  # 3 divides no period: not separated
    assert separated == {3: False, 5: True, 10: False, 20: True}
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    monkeypatch.setattr("toepcalc.conjugacy._separated", lambda rss, p: pytest.fail("recomputed"))
    assert {p: phase_separated(a, p) for p in separated} == separated  # kept on a
    monkeypatch.undo()
    assert {p: phase_separated(b, p) for p in separated} == separated
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert {a, b} == {b}
    assert a._planes is a._planes and a._planes == b._planes
    assert periodic_part(a, 10) == first  # the view is built anew on each call
    assert periodic_part(a, 10) == periodic_part(b, 10)
    with pytest.raises(NonDivisorError):
        periodic_part(a, 3)  # warm
    with pytest.raises(NonDivisorError):
        periodic_part(a, 0)


def test_hash_is_the_field_hash_kept_per_tower():
    t = reference_example(3)
    fields = hash((t.alphabet, t._pieces, t.declared_scale))  # the code points == compares
    assert "_hash" not in vars(t) and hash(t) == fields  # hash and status caches empty
    assert "levels" not in vars(t)  # hashing decodes no level
    for p in (5, 10, 20):
        periodic_part(t, p), phase_separated(t, p)
    assert set(vars(t)) >= {"_text", "_planes", "_hash"} and t._status
    assert hash(t) == fields == hash(reference_example(3))  # caches full, and a fresh tower
    assert hash(Part(t, 5, 1)) == hash((t, 5, 1))
    vars(t)["_hash"] = 7  # read from the cache, not recomputed
    assert hash(t) == 7 and hash(Part(t, 5, 1)) == hash((t, 5, 1)) != hash(Part(reference_example(3), 5, 1))


def test_unpickled_tower_is_rebuilt_under_this_hash_seed():
    """A tower pickled, with its hash and caches full, by a process with
    another hash seed loads as a fresh tower: equal, of equal hash, one in a
    set, and so are its parts."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(toepcalc.__file__).parents[1])}
    script = (
        "import pickle, sys; from toepcalc import Part, periodic_part, reference_example; t = reference_example(3); "
        "periodic_part(t, 10); sys.stdout.buffer.write(pickle.dumps((t, Part(t, 5, 1), {t}, hash(t))))"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True).stdout
    u, part, family, their_hash = pickle.loads(out)
    t = reference_example(3)
    assert not u._status and u._text == t._text and u._planes == t._planes  # every cache rebuilt on load
    assert their_hash != hash(t)  # the other seed's hash
    assert u == t and hash(u) == hash(t) and repr(u) == repr(t) and len({t, u}) == 1
    assert part == Part(t, 5, 1) and hash(part) == hash(Part(t, 5, 1)) and len({part, Part(t, 5, 1)}) == 1
    assert family == {t} and t in family


def test_period_status_reduces_by_gcd():
    g2 = reference_example(2)
    for q in (3, 7, 8, 12, 30, 50, 1000):
        rss = period_status(g2, q)
        ref = periodic_part(g2, math.gcd(q, 20))
        assert rss.modulus == ref.modulus
        for r in range(rss.modulus):
            assert rss.status_at(r) is ref.status_at(r)


def test_skeleton_word_blanks_non_in():
    w, unknown = skeleton_word(reference_example(2), 5)
    assert w.text() == "0___0"
    assert unknown == (False,) * 5
    w10, unknown10 = skeleton_word(reference_example(2), 10)
    assert w10.text() == "0_1_00___0"
    assert unknown10 == (False, False, False, False, False, False, True, True, True, False)


def test_filled_blocks_reference():
    fb = filled_blocks(reference_example(1), 10)
    assert fb.holes == (1, 3, 6, 7, 8)
    assert [(s.start, s.length, s.wraps) for s in fb.spans] == [(2, 1, False), (4, 2, False), (9, 2, True)]
    assert not fb.fully_periodic

    fb20 = filled_blocks(reference_example(2), 20)
    assert fb20.holes == (6, 7, 8)
    assert [(s.start, s.length) for s in fb20.spans] == [(9, 17)]
    assert fb20.spans[0].wraps


def test_essential_statuses():
    g2 = reference_example(2)
    assert essential_period_status(g2, 10).outcome is EssentialOutcome.ESSENTIAL
    assert essential_period_status(g2, 4).outcome is EssentialOutcome.NOT_ESSENTIAL
    g3 = reference_example(3)
    e40 = essential_period_status(g3, 40)
    assert e40.outcome is EssentialOutcome.UNKNOWN
    assert e40.undetermined == (20,)


def _essential_all_q(t, p):
    """Reference: compare ``p`` against every ``q < p``, one at a time."""
    rp = period_status(t, p)
    if all(s is Status.OUT for s in rp.statuses):
        return EssentialStatus(p, EssentialOutcome.NOT_ESSENTIAL, "periodic part certified empty")
    has_in = any(s is Status.IN for s in rp.statuses)
    undetermined = []
    for q in range(1, p):
        rq = period_status(t, q)
        window = math.lcm(rp.modulus, rq.modulus)
        separated = False
        determined_equal = True
        for x in range(window):
            a, b = rp.status_at(x), rq.status_at(x)
            if a is Status.UNKNOWN or b is Status.UNKNOWN:
                determined_equal = False
            elif a is not b:
                separated = True
                break
        if separated:
            continue
        if determined_equal:
            return EssentialStatus(
                p, EssentialOutcome.NOT_ESSENTIAL, f"certified equal to the {q}-periodic part"
            )
        undetermined.append(q)
    if undetermined:
        return EssentialStatus(p, EssentialOutcome.UNKNOWN, "undecided", tuple(undetermined))
    if not has_in:
        return EssentialStatus(
            p, EssentialOutcome.UNKNOWN, "separated everywhere but nonemptiness uncertified"
        )
    return EssentialStatus(p, EssentialOutcome.ESSENTIAL, "separated from every shorter period")


@given(st.integers(0, 10**9), st.sampled_from([2, 3]))
@settings(max_examples=60)
def test_essential_status_over_divisors_matches_all_q(seed, depth):
    t = random_tower(random.Random(seed), depth=depth)
    n = t.deepest_period
    for p in range(1, 2 * n + 2):
        got = essential_period_status(t, p)
        ref = _essential_all_q(t, p)
        assert got.outcome is ref.outcome
        classes = tuple(sorted({math.gcd(q, n) for q in ref.undetermined}))
        assert got.undetermined == classes
        if ref.undetermined:
            assert got.reason == "separation undecided against " + ", ".join(map(str, classes))
        else:
            assert got.reason == ref.reason


def test_scale_truncation_reference():
    t2 = scale_truncation(reference_example(2))
    assert str(t2.certified) == "2^2 * 5"
    assert t2.pending == ()
    assert t2.essentials == (5, 10, 20)
    t3 = scale_truncation(reference_example(3))
    assert str(t3.certified) == "2^2 * 5"
    assert t3.pending == (40,)


def test_scale_truncation_rejects_incompatible_declaration():
    with pytest.raises(ScaleError):
        scale_truncation(tower("01", scale="3^inf"))


def test_growth_profile_reference():
    gp = growth_profile(reference_example(4))
    assert [r.min_block_length for r in gp.rows] == [2, 1, 17, 1, 77]
    assert gp.trend == "non-monotone"
    assert [r.unknown_count for r in gp.rows] == [0, 0, 0, 3, 0]


# --- exhaustive soundness over periodic completions -------------------------

small_words = st.text(alphabet="01_", min_size=1, max_size=8).filter(
    lambda s: any(c != "_" for c in s)
)


@given(small_words)
@settings(max_examples=120)
def test_certified_statuses_hold_in_every_periodic_completion(text):
    t = tower(text)
    n = t.deepest_period
    for p in range(1, n):  # p == n is declared semantics, not filling-checkable
        if n % p:
            continue
        rss = periodic_part(t, p)
        for cells in completions(t.deepest_word):
            per = per_residues(cells, p)
            for r in range(p):
                if rss.status_at(r) is Status.IN:
                    assert r in per and cells[r] == rss.symbol(r)
                elif rss.status_at(r) is Status.OUT:
                    assert r not in per


@given(small_words)
@settings(max_examples=120)
def test_fully_filled_statuses_are_exact(text):
    text = text.replace("_", "1")
    t = tower(text)
    n = t.deepest_period
    for p in (d for d in range(1, n + 1) if n % d == 0):
        rss = periodic_part(t, p)
        per = per_residues(t.deepest_word.cells, p)
        for r in range(p):
            assert (rss.status_at(r) is Status.IN) == (r in per)
            assert (rss.status_at(r) is Status.OUT) == (r not in per)


# --- monotonicity properties -------------------------------------------------


@given(st.integers(0, 10**9))
@settings(max_examples=80)
def test_divisor_monotonicity(seed):
    rng = random.Random(seed)
    t = random_tower(rng)
    n = t.deepest_period
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for p in divisors:
        sp = periodic_part(t, p)
        for q in divisors:
            if q % p:
                continue
            sq = periodic_part(t, q)
            for r in range(q):
                # In at p forces In at every multiple q, same symbol
                if sp.status_at(r) is Status.IN:
                    assert sq.status_at(r) is Status.IN
                    assert sq.symbol(r) == sp.symbol(r)
                # conflict-certified Out at q forces Out at p
                if q < n and sq.status_at(r) is Status.OUT:
                    assert sp.status_at(r) is Status.OUT


@given(st.integers(0, 10**9), st.sampled_from([2, 3]))
@settings(max_examples=60)
def test_hole_preserving_deepening_never_flips(seed, mult):
    rng = random.Random(seed)
    shallow = random_tower(rng)
    deep = deepen(rng, shallow, multiplier=mult)
    n = shallow.deepest_period
    for p in (d for d in range(1, n + 1) if n % d == 0):
        before = periodic_part(shallow, p)
        after = period_status(deep, p)
        for r in range(p):
            if before.status_at(r) is Status.IN:
                assert after.status_at(r) is Status.IN
                assert after.symbol(r) == before.symbol(r)
            if before.status_at(r) is Status.OUT:
                assert after.status_at(r) is not Status.IN


def test_min_hole_gap_reference():
    gaps = {k: [r.min_hole_gap for r in growth_profile(reference_example(k)).rows] for k in (2, 3, 4)}
    assert gaps == {2: [1, 2, 1], 3: [1, 2, None, 1], 4: [1, 1, 1, 2, 1]}
    # one hole, two adjacent holes, the hole of period 1
    assert [r.min_hole_gap for r in growth_profile(tower("01_")).rows] == [3]
    assert [r.min_hole_gap for r in growth_profile(tower("0__1")).rows] == [1]
    assert [r.min_hole_gap for r in growth_profile(tower("_")).rows] == [1]


def reference_min_hole_gap(fb, p):
    """The hole-to-hole walk ``growth_profile`` used before it read the spans."""
    unknown = set(fb.unknown_residues)
    gaps: list[int] = []
    for i, h in enumerate(fb.holes):
        nxt = fb.holes[(i + 1) % len(fb.holes)]
        gap = (nxt - h) % p or p
        if all((h + 1 + j) % p not in unknown for j in range(gap - 1)):
            gaps.append(gap)
    return min(gaps) if gaps else None


def test_min_hole_gap_matches_hole_walk():
    rng = random.Random(2161)
    seen = set()
    for _ in range(1500):
        t = random_tower(
            rng,
            depth=rng.randint(1, 3),
            base_periods=(1, 2, 3, 4, 5),
            fill=rng.choice((0.9, 0.7, 0.4, 0.1)),
        )
        for row in growth_profile(t).rows:
            p = row.period
            fb = filled_blocks(t, p)
            assert row.min_hole_gap == reference_min_hole_gap(fb, p), (t, p)
            if len(fb.holes) > len(fb.spans):
                seen.add("adjacent holes" if len(fb.holes) > 1 else "period 1 hole")
            if len(fb.holes) == 1 and p > 1:
                seen.add("single hole")
            if fb.holes and row.min_hole_gap is None:
                seen.add("every gap crosses an Unknown")
    assert seen == {"adjacent holes", "period 1 hole", "single hole", "every gap crosses an Unknown"}
