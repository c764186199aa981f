"""Correspondences, verdicts, starred parts, chi stages, invariant table."""

import pickle
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toepcalc import (
    ChiStage,
    ConjugateCertified,
    Consistent,
    Contradicted,
    DpKind,
    EfinResult,
    IncompatiblePeriods,
    MissingScaleDeclaration,
    NotConjugateCertified,
    Part,
    PositionwisePermutation,
    RefutedUpTo,
    SkeletonTower,
    StarStatus,
    SupernaturalNumber,
    Undetermined,
    Unknown,
    apply_positionwise_permutation,
    chi_stage,
    conjugacy_verdict,
    dp_equivalent,
    efin_equal,
    gamma_map,
    invariant_compare,
    parts_star,
    phase_separated,
    reference_example,
    rotate_tower,
    with_common_depth,
)
from toepcalc.codes import PeriodMismatch
from toepcalc import conjugacy
from toepcalc.conjugacy import _Pair
from toepcalc.randomgen import deepen, random_positionwise, random_tower
from helpers import BINARY, tower


def blocks(text):
    return tuple(None if c == "_" else c for c in text)


# --- gamma_map ---------------------------------------------------------------


def test_gamma_identity_is_consistent():
    g1 = reference_example(1)
    g = gamma_map(g1, g1, 5, 0)
    assert isinstance(g, Consistent)
    assert set(g.correspondence) == {
        (blocks("0_1_0"), blocks("0_1_0")),
        (blocks("0___0"), blocks("0___0")),
    }


def test_gamma_swap_is_consistent():
    g1 = reference_example(1)
    swap = PositionwisePermutation(BINARY, 5, (("1", "0"),) * 5)
    b = apply_positionwise_permutation(g1, swap)
    assert b.deepest_word.text() == "1_0_11___1"
    g = gamma_map(g1, b, 5, 0)
    assert isinstance(g, Consistent)
    assert set(g.correspondence) == {
        (blocks("0_1_0"), blocks("1_0_1")),
        (blocks("0___0"), blocks("1___1")),
    }


def test_gamma_mask_mismatch_is_undetermined():
    g1 = reference_example(1)
    g = gamma_map(g1, rotate_tower(g1, 1), 5, 0)
    assert isinstance(g, Undetermined)
    assert "mask" in g.reason


def test_gamma_contradicted_needs_full_blocks():
    a = tower("0101")
    b = tower("0001")
    g = gamma_map(a, b, 2, 0)
    assert isinstance(g, Contradicted)
    # same source content "01" twice, targets "00" vs "01"
    assert "distinct" in g.reason

    # with a blank in the offending source block nothing is certified
    a2 = tower("01_1")
    g2 = gamma_map(a2, b, 2, 0)
    assert not isinstance(g2, Contradicted)


def test_gamma_rejects_mismatched_structure():
    with pytest.raises(IncompatiblePeriods):
        gamma_map(tower("0101"), tower("010101"), 2, 0)


def test_gamma_pads_divisible_depths():
    a = tower("01")
    b = tower("0101")
    assert isinstance(gamma_map(a, b, 2, 0), Consistent)


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_gamma_symmetry_kinds_transfer(seed):
    rng = random.Random(seed)
    a = random_tower(rng, depth=1, base_periods=(2, 3, 4), fill=0.8)
    b = random_tower(rng, depth=1, base_periods=(a.deepest_period,), fill=0.8)
    n = a.deepest_period
    for p in (d for d in range(1, n + 1) if n % d == 0):
        for k in range(n):
            fwd = gamma_map(a, b, p, k)
            rev = gamma_map(b, a, p, -k)
            assert type(fwd) is type(rev)
            if p and k % p == 0 and isinstance(fwd, Consistent):
                assert set(rev.correspondence) == {(y, x) for x, y in fwd.correspondence}


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_contradicted_persists_under_deepening(seed):
    rng = random.Random(seed)
    a = random_tower(rng, depth=1, base_periods=(4, 6), fill=0.9)
    b = random_tower(rng, depth=1, base_periods=(a.deepest_period,), fill=0.9)
    n = a.deepest_period
    found = [
        (p, k)
        for p in range(1, n)
        if n % p == 0
        for k in range(n)
        if isinstance(gamma_map(a, b, p, k), Contradicted)
    ]
    assume(found)
    da = deepen(rng, a, multiplier=2)
    db = deepen(rng, b, multiplier=2)
    for p, k in found:
        assert isinstance(gamma_map(da, db, p, k), Contradicted)


@given(st.integers(0, 10**9), st.integers(0, 5))
@settings(max_examples=40)
def test_consistent_persists_under_coherent_deepening(seed, rot):
    rng = random.Random(seed)
    t = random_tower(rng, depth=2, base_periods=(2, 3, 4), fill=0.7)
    p = t.periods[0]
    phi = random_positionwise(rng, t.alphabet, p)
    r = rot * p
    b = rotate_tower(apply_positionwise_permutation(t, phi), r)
    g = gamma_map(t, b, p, -r)  # same integer shift below, mod-reduced inside
    assert isinstance(g, Consistent)
    # the same construction applied to a deepening of t deepens b coherently
    dt = deepen(rng, t, multiplier=2)
    db = rotate_tower(apply_positionwise_permutation(dt, phi), r)
    assert isinstance(gamma_map(dt, db, p, -r), Consistent)


# --- phase separation --------------------------------------------------------


def test_phase_separation_examples():
    assert phase_separated(tower("01"), 2)
    assert not phase_separated(tower("00"), 2)
    # a deepest-level blank is a declared hole, hence certified Out
    assert phase_separated(tower("0_"), 2)
    # but an Unknown below the deepest level never certifies
    assert not phase_separated(tower("0_", "010_"), 2)
    g2 = reference_example(2)
    assert phase_separated(g2, 5)
    assert not phase_separated(g2, 10)  # a completion can make it 5-periodic
    assert phase_separated(g2, 20)
    assert phase_separated(g2, 1)  # vacuous


# --- conjugacy_verdict -------------------------------------------------------


def test_verdict_self_certifies_at_first_stage():
    g2 = reference_example(2)
    v = conjugacy_verdict(g2, g2, 3)
    assert isinstance(v, ConjugateCertified)
    assert (v.stage, v.shift) == (5, 0)


def test_verdict_certifies_constructed_pair():
    g2 = reference_example(2)
    swap = PositionwisePermutation(BINARY, 5, (("1", "0"),) * 5)
    b = rotate_tower(apply_positionwise_permutation(g2, swap), 7)
    v = conjugacy_verdict(g2, b, 3)
    assert isinstance(v, ConjugateCertified)
    assert v.stage == 5 and v.shift == 13  # 13 = -7 mod 20


def test_verdict_scale_mismatch():
    a = reference_example(2)
    b = tower("0__", scale="3^inf")
    v = conjugacy_verdict(a, b, 3)
    assert isinstance(v, NotConjugateCertified)
    assert "scale" in v.reason


def test_verdict_degenerate_stage_stays_unknown():
    a = tower("01")
    b = tower("00")
    v = conjugacy_verdict(a, b, 2)
    assert isinstance(v, Unknown)
    assert any("phases not certified distinct" in d for d in v.diagnostics)


def test_verdict_refutes_period_drop():
    # a is genuinely 6-periodic, b is 3-periodic in content
    a = tower("01_", "010011")
    b = tower("010", "010010")
    v = conjugacy_verdict(a, b, 3)
    assert isinstance(v, RefutedUpTo)
    assert v.radius == 0
    assert 3 in v.stages


def test_verdict_different_depths_of_same_system_stay_unknown():
    # the shallower tower has strictly more completions; no certificate fires
    v = conjugacy_verdict(reference_example(2), reference_example(3), 2)
    assert isinstance(v, Unknown)


# --- parts, chi, dp, efin ----------------------------------------------------


def test_part_normalizes_and_validates():
    g2 = reference_example(2)
    assert Part(g2, 5, 7).k == 2
    with pytest.raises(Exception):
        Part(g2, 3, 0)


def test_parts_star_reference_values():
    with_status = {sp.part.k: (sp.status, sp.length) for sp in parts_star(reference_example(2), 5)}
    assert with_status[4] == (StarStatus.STARRED, 2)
    assert all(with_status[k] == (StarStatus.NOT_STARRED, None) for k in range(4))

    g3 = parts_star(reference_example(3), 10)
    by_k = {sp.part.k: (sp.status, sp.length) for sp in g3}
    assert by_k[2] == (StarStatus.STARRED, 1)
    assert by_k[4] == (StarStatus.STARRED, None)  # length runs into an Unknown
    assert by_k[8][0] is StarStatus.UNKNOWN
    assert by_k[9][0] is StarStatus.UNKNOWN
    assert by_k[6][0] is StarStatus.NOT_STARRED


def test_chi_reference_values():
    g2 = reference_example(2)
    c5 = chi_stage(g2, 5)
    assert c5.complete and {p.k for p in c5.parts} == {0}
    c20 = chi_stage(g2, 20)
    assert c20.complete and {p.k for p in c20.parts} == {17}
    c40 = chi_stage(reference_example(3), 40)
    assert c40.complete and {p.k for p in c40.parts} == {7, 17, 37}


def test_dp_reference_and_refuted():
    w = Part(tower("0_1_00___0"), 5, 0)
    z = Part(tower("0_1_00_0_0"), 5, 0)
    assert dp_equivalent(w, z).kind is DpKind.UNDETERMINED

    w2 = Part(tower("0000"), 2, 0)
    z2 = Part(tower("0001"), 2, 0)
    assert dp_equivalent(w2, z2).kind is DpKind.REFUTED

    with pytest.raises(PeriodMismatch):
        dp_equivalent(Part(tower("0101"), 2, 0), Part(tower("01"), 1, 0))


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_dp_reflexive_and_symmetric(seed):
    rng = random.Random(seed)
    t = random_tower(rng, depth=1, base_periods=(4, 6), fill=1.0)
    n = t.deepest_period
    p = rng.choice([d for d in range(1, n) if n % d == 0])
    w = Part(t, p, rng.randrange(p))
    assert dp_equivalent(w, w).kind is DpKind.CONSISTENT_WITNESS
    t2 = random_tower(rng, depth=1, base_periods=(n,), fill=1.0)
    z = Part(t2, p, rng.randrange(p))
    assert dp_equivalent(w, z).kind is dp_equivalent(z, w).kind


def test_efin_empty_conventions():
    assert efin_equal([], [], 5) is EfinResult.CERTIFIED_EQUAL
    w = Part(tower("0_1_00___0"), 5, 0)
    assert efin_equal([w], [], 5) is EfinResult.REFUTED
    assert efin_equal([], [w], 5) is EfinResult.REFUTED
    assert efin_equal([w], [w], 5) is EfinResult.CERTIFIED_EQUAL
    with pytest.raises(PeriodMismatch):
        efin_equal([w], [Part(tower("0101"), 2, 0)], 5)


def test_efin_refuted_and_equal_cases():
    a = Part(tower("0000"), 2, 0)
    b = Part(tower("0001"), 2, 0)
    # a's class is refuted against everything on the other side
    assert efin_equal([a], [b], 2) is EfinResult.REFUTED
    c = Part(tower("0010"), 2, 0)  # same content as b up to shift of blocks
    r = dp_equivalent(b, c)
    assert r.kind is DpKind.CONSISTENT_WITNESS
    assert efin_equal([b], [c], 2) is EfinResult.CERTIFIED_EQUAL


def test_encoding_cache_is_invisible(monkeypatch):
    a, b = reference_example(2), reference_example(2)
    cold_repr, cold_hash, cold_pickle = repr(a), hash(a), pickle.dumps(a)
    assert isinstance(conjugacy_verdict(a, rotate_tower(a, 7), 2), ConjugateCertified)
    assert a == b and hash(a) == hash(b) == cold_hash
    assert repr(a) == repr(b) == cold_repr
    assert {a, b} == {b}
    assert {Part(a, 5, k) for k in range(5)} | {Part(b, 5, k) for k in range(5)} == {Part(b, 5, k) for k in range(5)}
    calls = []
    scan = conjugacy.dp_scan  # efin_equal's dp_equivalent, short of decoding witnesses
    monkeypatch.setattr(conjugacy, "dp_scan", lambda w, z: calls.append((w, z)) or scan(w, z))
    s = [Part(a, 5, k) for k in range(5)]
    t = [Part(b, 5, k) for k in range(5)]
    assert efin_equal(s, t, 5) is EfinResult.CERTIFIED_EQUAL
    assert calls == []  # each of a's parts deduplicated with b's: one family, equal before any comparison
    # with a's part 4 on one side only, it alone lacks a witness: it is compared
    # with each of the four shared parts once, and none is a witness; b's parts read as a's
    assert efin_equal(s, t[:4], 5) is EfinResult.UNDETERMINED
    assert len(calls) == 4 and len({frozenset(c) for c in calls}) == 4
    assert all(x.base is a for c in calls for x in c)
    # the per-tower facts (status tables, shapes, blank masks) are not pickled: a
    # warm tower pickles as it did cold and loads with none, equal and alike
    assert any(isinstance(key, tuple) and key[0] == "shape" for key in a._status) and "blanks" in a._status
    assert pickle.dumps(a) == cold_pickle
    loaded = pickle.loads(pickle.dumps(a))
    assert not loaded._status and loaded == a and hash(loaded) == cold_hash and repr(loaded) == cold_repr
    assert conjugacy_verdict(loaded, b, 2) == conjugacy_verdict(a, b, 2) == conjugacy_verdict(b, a, 2)
    assert efin_equal(s, t[:4], 5) is efin_equal([Part(loaded, 5, k) for k in range(5)], t[:4], 5)


def test_efin_compares_only_across_the_sides(monkeypatch):
    """The tower with a hole at every 4th cell (N = 512) against a copy with
    cell 1 blanked: stage 512 has 128 chi parts against 129, so at most the
    128 × 129 cross pairs are compared (24895 calls when same-side pairs ran)."""
    rng = random.Random(5)
    cells = ["_" if x % 4 == 3 else rng.choice("01") for x in range(512)]
    a = tower("".join(cells), scale="2^inf")
    cells[1] = "_"
    b = tower("".join(cells), scale="2^inf")
    calls = []
    scan = conjugacy.dp_scan  # efin_equal's dp_equivalent, short of decoding witnesses
    monkeypatch.setattr(conjugacy, "dp_scan", lambda w, z: calls.append(1) or scan(w, z))
    rows = [(r.period, r.evaluated, r.result, r.detail) for r in invariant_compare(a, b, 12).stages]
    assert rows == [
        (2, True, EfinResult.CERTIFIED_EQUAL, "0 vs 0 parts"),
        *((2**i, True, EfinResult.UNDETERMINED, "incomplete chi stage") for i in range(2, 9)),
        (512, True, EfinResult.UNDETERMINED, "128 vs 129 parts"),
        *((2**i, False, None, "stage does not divide the deepest periods") for i in range(10, 13)),
    ]
    assert len(calls) <= 128 * 129


def test_certified_verdict_cuts_each_shape_once(monkeypatch):
    """The certificate path cuts blocks only into the shapes ``gamma`` reads:
    one cut for the source and one for the certifying target class."""
    cuts = []
    cut = _Pair.blocks
    monkeypatch.setattr(_Pair, "blocks", lambda self, *a: cuts.append(a) or cut(self, *a))
    g = reference_example(12)
    v = conjugacy_verdict(g, rotate_tower(g, 1234), 3)
    assert isinstance(v, ConjugateCertified), v
    assert sorted(cuts, key=str) == [(v.stage, v.shift % v.stage), (v.stage, None)]  # 4 with a block scan


def test_conflicts_are_located_only_for_gamma_map(monkeypatch):
    """Only ``gamma_map`` reports where a conflict is, so only it calls
    ``_Pair.conflict``: never over the verdicts of all pairs of the 62
    complete binary words of length 1-5, nor over ``dp_equivalent`` of all
    pairs of parts of ``reference_example(4)`` at stages 5 and 10 and of a
    complete word at stage 2 (some mask-compatible shifts contradicted there),
    and once per Contradicted ``gamma_map`` over every stage and shift of a pair."""
    calls = []
    locate = _Pair.conflict
    monkeypatch.setattr(_Pair, "conflict", lambda self, p, k: calls.append((p, k)) or locate(self, p, k))
    words = [tower("".join(bits)) for n in range(1, 6) for bits in product("01", repeat=n)]
    verdicts = [conjugacy_verdict(v, w, 2) for v in words for w in words]
    assert len(verdicts) == 3844 and any(isinstance(v, RefutedUpTo) for v in verdicts)
    assert calls == []
    for g, p in ((reference_example(4), 5), (reference_example(4), 10), (tower("00010111"), 2)):
        parts = [Part(g, p, k) for k in range(p)]
        kinds = {dp_equivalent(w, z).kind for w, z in product(parts, repeat=2)}
        assert DpKind.REFUTED in kinds and DpKind.CONSISTENT_WITNESS in kinds, p
    assert calls == []
    a = reference_example(2)
    b = rotate_tower(a, 7)
    kinds = set()
    for p in (1, 2, 4, 5, 10, 20):
        for k in range(20):
            before = len(calls)
            r = gamma_map(a, b, p, k)
            assert len(calls) - before == isinstance(r, Contradicted), (p, k)
            kinds.add(type(r))
    assert kinds == {Consistent, Contradicted, Undetermined}


# --- invariant_compare -------------------------------------------------------


def test_invariant_requires_scales():
    with pytest.raises(MissingScaleDeclaration):
        invariant_compare(tower("01"), tower("01", scale="2"), 2)


def test_invariant_scale_mismatch():
    ic = invariant_compare(tower("01", scale="2"), tower("01", scale="2^inf"), 2)
    assert not ic.scale_equal
    assert ic.equal_suffix == 0
    assert "NotEquivalent" in ic.summary


def test_invariant_self_comparison_reference():
    g3 = reference_example(3)
    ic = invariant_compare(g3, g3, 3)
    assert ic.scale_equal
    assert [r.period for r in ic.stages] == [2, 4, 40]
    assert all(r.evaluated and r.result is EfinResult.CERTIFIED_EQUAL for r in ic.stages)
    assert ic.equal_suffix == 3
    assert ic.stages[2].detail == "3 vs 3 parts"


def test_invariant_conjugate_images_certify():
    g2 = reference_example(2)
    b = rotate_tower(g2, 5)
    ic = invariant_compare(g2, b, 3)
    assert ic.scale_equal
    evaluated = [r for r in ic.stages if r.evaluated]
    assert evaluated and all(r.result is EfinResult.CERTIFIED_EQUAL for r in evaluated)


# --- with_common_depth -------------------------------------------------------


def test_with_common_depth_pads_shallower():
    a, b = with_common_depth(reference_example(1), reference_example(2))
    assert a.deepest_period == b.deepest_period == 20
    assert a.deepest_word.text() == "0_1_00___0" * 2
    with pytest.raises(IncompatiblePeriods):
        with_common_depth(tower("0101"), tower("010101"))


def test_rotations_and_relabellings_are_never_refuted():
    # a rotation of a tower, relabelled symbol by symbol or not, is conjugate
    # to it, so no verdict may refute it and no invariant stage may differ
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        symbols = rng.choice((("0", "1"), ("a", "b", "c")))
        fill = rng.choice((1.0, 0.9, 0.6))
        t = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 5, 6), fill=fill)
        scale = SupernaturalNumber.parse(rng.choice(("2^inf * 3^inf * 5", "2^inf * 3^inf * 5^inf")))
        a = SkeletonTower(t.alphabet, t.levels, scale)
        n = a.deepest_period
        b = rotate_tower(a, rng.randrange(-3 * n, 3 * n))
        if rng.random() < 0.5:
            b = apply_positionwise_permutation(b, random_positionwise(rng, b.alphabet, 1))
        verdict = conjugacy_verdict(a, b, rng.randint(0, 3))
        assert not isinstance(verdict, (RefutedUpTo, NotConjugateCertified)), (a, b, verdict)
        seen.add(type(verdict))
        for row in invariant_compare(a, b, 8).stages:
            assert row.result is not EfinResult.REFUTED, (a, b, row)
            seen.add(row.result)
    assert seen == {ConjugateCertified, Unknown, EfinResult.CERTIFIED_EQUAL, EfinResult.UNDETERMINED, None}
