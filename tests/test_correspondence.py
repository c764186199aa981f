"""Differential tests: the linear-time block correspondence kernel against the
quadratic definitions it replaced, plus what a verdict evaluates lazily."""

import random
from itertools import combinations

import pytest

import toepcalc.conjugacy as conjugacy
from toepcalc import (
    ConjugateCertified,
    Consistent,
    Contradicted,
    DpKind,
    DpResult,
    IncompatiblePeriods,
    Part,
    PartialCyclicWord,
    SkeletonTower,
    Undetermined,
    Unknown,
    apply_positionwise_permutation,
    conjugacy_verdict,
    dp_equivalent,
    gamma_map,
    reference_example,
    rotate_tower,
)
from toepcalc.codes import apply_block_code
from toepcalc.randomgen import random_block_code, random_positionwise, random_tower


def reference_gamma(a, b, p, k):
    """The O(B²) pair scan, kept as the definition of ``gamma_map``."""
    na, nb = a.deepest_period, b.deepest_period
    if na % nb and nb % na:
        raise IncompatiblePeriods(f"deepest periods {na} and {nb} do not divide one another")
    n = max(na, nb)
    if p < 1 or n % p:
        raise IncompatiblePeriods(f"stage {p} does not divide the common period {n}")
    wa = a.deepest_word.repeated(n // na).cells
    wb = b.deepest_word.repeated(n // nb).cells
    shifted = tuple(wb[(x + k) % n] for x in range(n))
    blocks = n // p
    src = [wa[j * p : (j + 1) * p] for j in range(blocks)]
    tgt = [shifted[j * p : (j + 1) * p] for j in range(blocks)]

    def full(block):
        return all(c is not None for c in block)

    for j1, j2 in combinations(range(blocks), 2):
        if src[j1] == src[j2] and tgt[j1] != tgt[j2]:
            if full(src[j1]) and full(tgt[j1]) and full(tgt[j2]):
                return Contradicted("equal full blocks map to distinct full blocks", (j1, j2))
        if tgt[j1] == tgt[j2] and src[j1] != src[j2]:
            if full(tgt[j1]) and full(src[j1]) and full(src[j2]):
                return Contradicted("distinct full blocks map to one full block", (j1, j2))

    for j in range(blocks):
        if tuple(c is None for c in src[j]) != tuple(c is None for c in tgt[j]):
            return Undetermined(f"blank masks differ at block {j}")

    forward, backward, order = {}, {}, []
    for j in range(blocks):
        s, t = src[j], tgt[j]
        if s in forward:
            if forward[s][0] != t:
                return Undetermined(f"partial blocks {j} and {forward[s][1]} break well-definedness")
        else:
            forward[s] = (t, j)
            order.append((s, t))
        if t in backward:
            if backward[t][0] != s:
                return Undetermined(f"partial blocks {j} and {backward[t][1]} break injectivity")
        else:
            backward[t] = (s, j)

    if any(not full(s) for s in src):
        for u in range(p):
            seen, hit = {}, {}
            for j in range(blocks):
                x, y = src[j][u], tgt[j][u]
                if x is None:
                    continue
                if seen.setdefault(x, y) != y:
                    return Undetermined(f"no positionwise witness at offset {u}")
                if hit.setdefault(y, x) != x:
                    return Undetermined(f"no positionwise witness at offset {u}")
    return Consistent(tuple(order))


def reference_dp(w, z):
    """``dp_equivalent`` by its definition: rotate both towers, scan aligned shifts."""
    a = rotate_tower(w.base, w.k)
    b = rotate_tower(z.base, z.k)
    all_contradicted = True
    for j in range(w.base.deepest_period // w.p):
        g = reference_gamma(a, b, w.p, j * w.p)
        if isinstance(g, Consistent):
            return DpResult(DpKind.CONSISTENT_WITNESS, g.correspondence, j)
        if not isinstance(g, Contradicted):
            all_contradicted = False
    return DpResult(DpKind.REFUTED if all_contradicted else DpKind.UNDETERMINED)


def single_level(alphabet, cells):
    return SkeletonTower(alphabet, ((len(cells), PartialCyclicWord(tuple(cells))),))


def random_pair(rng):
    """A tower and a partner: unrelated, a rotated positionwise image (so
    Consistent occurs), that image with a few cells changed or blanked, or
    the tower's blank mask filled afresh (so partial blocks disagree); the
    partner's depth may be a multiple of the tower's."""
    symbols = rng.choice((("0", "1"), ("a", "b", "c")))
    fill = rng.choice((1.0, 1.0, 0.9, 0.7, 0.5))
    a = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 6), fill=fill)
    n = a.deepest_period
    kind = rng.randrange(4)
    if kind == 0:
        b = random_tower(rng, symbols, depth=1, base_periods=(n * rng.choice((1, 1, 2)),), fill=fill)
    elif kind == 3:
        cells = rotate_tower(a, rng.randrange(n)).deepest_word.cells * rng.choice((1, 2))
        b = single_level(a.alphabet, [c and rng.choice(symbols) for c in cells])
    else:
        q = a.periods[0]  # a positionwise period must divide every level
        p = rng.choice([d for d in range(1, q + 1) if q % d == 0])
        b = rotate_tower(apply_positionwise_permutation(a, random_positionwise(rng, a.alphabet, p)), rng.randrange(n))
        if kind == 2:
            cells = list(b.deepest_word.cells) * rng.choice((1, 2))
            for _ in range(rng.randint(1, 3)):
                x = rng.randrange(len(cells))
                if cells[x] is not None:  # mostly keep the blank mask
                    cells[x] = rng.choice((None, *symbols, *symbols))
            b = single_level(a.alphabet, cells)
    return (a, b) if rng.random() < 0.5 else (b, a)


def mask_shifts(a, b):
    """The shifts at which the blank masks of the tiled deepest words agree."""
    n = max(a.deepest_period, b.deepest_period)
    words = (t.deepest_word.repeated(n // t.deepest_period).cells for t in (a, b))
    ma, mb = ("".join("_" if c is None else "x" for c in w) for w in words)
    return [k for k in range(n) if mb[k:] + mb[:k] == ma]  # x of a meets x + k of b


def outcome(g):
    """The class and the reason with its block and offset numbers removed."""
    reason = getattr(g, "reason", "")
    return f"{type(g).__name__}: {''.join(c for c in reason if not c.isdigit()).strip()}"


def test_gamma_matches_quadratic_definition():
    rng = random.Random(20161)
    seen = set()
    for _ in range(2500):
        a, b = random_pair(rng)
        n = max(a.deepest_period, b.deepest_period)
        p = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        k = rng.choice(mask_shifts(a, b) or [0]) if rng.random() < 0.4 else rng.randrange(-n, 2 * n)
        if rng.random() < 0.3:
            k -= k % p  # block-aligned, as in dp_equivalent
        want = reference_gamma(a, b, p, k)
        assert repr(gamma_map(a, b, p, k)) == repr(want), (a, b, p, k)
        seen.add(outcome(want))
        if p == n and isinstance(want, Consistent) and None in want.correspondence[0][0]:
            seen.add("one partial block")  # a single block pair is a witness without the offset scan
    assert seen == {  # every branch of the definition was exercised
        "one partial block",
        "Consistent: ",
        "Contradicted: equal full blocks map to distinct full blocks",
        "Contradicted: distinct full blocks map to one full block",
        "Undetermined: blank masks differ at block",
        "Undetermined: partial blocks  and  break well-definedness",
        "Undetermined: partial blocks  and  break injectivity",
        "Undetermined: no positionwise witness at offset",
    }


def test_mask_shifts_match_definition():
    rng = random.Random(20162)
    pairs = [random_pair(rng) for _ in range(300)]
    for n, blanks in ((1000, 1), (1280, 3), (1536, 1), (2000, 1), (2187, 3), (2300, 3)):
        cells = [rng.choice("01") for _ in range(n)]
        spread = [i * (n // blanks) for i in range(blanks)]  # a mask of period n / 3 when 3 divides n
        for x in rng.sample(range(n), blanks) if rng.random() < 0.5 else spread:
            cells[x] = None
        a = single_level(reference_example(0).alphabet, cells)
        pairs += [(a, rotate_tower(a, rng.randrange(n))), (a, a), (rotate_tower(a, 1), a)]
        more = list(cells)
        more[rng.choice([x for x in range(n) if cells[x]])] = None  # one blank more: no shift matches
        pairs.append((a, single_level(a.alphabet, more)))
    seen = set()
    for a, b in pairs:
        n = max(a.deepest_period, b.deepest_period)
        pair = conjugacy._Pair(a, b, n)
        want = mask_shifts(a, b)
        assert list(pair.mask_shifts) == want, (a, b)
        seen.add(min(len(want), 2))
    assert seen == {0, 1, 2}


def test_gamma_rejects_like_the_definition():
    a, b = single_level(reference_example(0).alphabet, "0101"), single_level(reference_example(0).alphabet, "010")
    for p, k in ((2, 0), (3, 1)):
        with pytest.raises(IncompatiblePeriods) as got:
            gamma_map(a, b, p, k)
        with pytest.raises(IncompatiblePeriods) as want:
            reference_gamma(a, b, p, k)
        assert str(got.value) == str(want.value)
    with pytest.raises(IncompatiblePeriods, match="stage 3"):
        gamma_map(a, a, 3, 0)


def test_dp_matches_rotation_definition():
    rng = random.Random(2016)
    kinds = set()
    for _ in range(600):
        a, b = random_pair(rng)
        if a.deepest_period != b.deepest_period:
            continue
        n = a.deepest_period
        p = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        w, z = Part(a, p, rng.randrange(p)), Part(b, p, rng.randrange(p))
        want = reference_dp(w, z)
        assert repr(dp_equivalent(w, z)) == repr(want), (w, z)
        kinds.add(want.kind)
    assert kinds == set(DpKind)


def test_certified_verdict_checks_separation_only_where_it_stops(monkeypatch):
    g = reference_example(8)
    h = rotate_tower(g, 731)
    checked = []

    def recording(tower, p):
        checked.append(p)
        return separated(tower, p)

    separated = conjugacy.phase_separated
    monkeypatch.setattr(conjugacy, "phase_separated", recording)
    v = conjugacy_verdict(g, h, 2)
    assert isinstance(v, ConjugateCertified) and v.stage == 5
    assert set(checked) == {5}


def test_unknown_explanation_reads_each_stage_separation_from_the_towers(monkeypatch):
    """The decision's record keeps no separation; the explanation reads the
    answers the towers kept under ("separated", p), so it separates nothing again."""
    expected = conjugacy_verdict(reference_example(2), reference_example(3), 2)
    a, b = reference_example(2), reference_example(3)
    decision = conjugacy.conjugacy_decision(a, b, 2)
    assert isinstance(decision, conjugacy.Undecided) and "separated" not in decision._fields
    assert {p: a._status["separated", p] and b._status["separated", p] for p in decision.margins} == {
        5: True, 10: False, 20: True, 40: False
    }
    monkeypatch.setattr(conjugacy, "_separated", lambda tower, p: pytest.fail("separated again"))
    assert conjugacy_verdict(a, b, 2) == expected


def test_unknown_diagnostics_text_is_unchanged():
    # the expected lines were produced by the quadratic kernel
    v = conjugacy_verdict(reference_example(2), reference_example(3), 2)
    assert v == Unknown((
        "stage 5: no consistent shift; usable source margin radius 0; 16 candidate shifts at radius 0: 0 contradicted, 16 not",
        "stage 10: phases not certified distinct; no certificate possible",
        "stage 20: no consistent shift; usable source margin radius 2; 40 candidate shifts at radius 2: 0 contradicted, 40 not",
        "stage 40: phases not certified distinct; no certificate possible",
    ))
    g = reference_example(6)
    image = apply_block_code(g, random_block_code(random.Random(1), g.alphabet, 1))
    assert conjugacy_verdict(g, image, 2) == Unknown((
        "stage 5: phases not certified distinct; no certificate possible",
        "stage 10: no consistent shift; usable source margin radius 0; 224 candidate shifts at radius 0: 219 contradicted, 5 not",
        "stage 20: no consistent shift; usable source margin radius 2; 192 candidate shifts at radius 2: 180 contradicted, 12 not",
        "stage 40: no consistent shift; usable source margin radius 2; 216 candidate shifts at radius 2: 108 contradicted, 108 not",
        "stage 80: no consistent shift; usable source margin radius 2; 288 candidate shifts at radius 2: 0 contradicted, 288 not",
        "stage 160: phases not certified distinct; no certificate possible",
        "stage 320: no consistent shift; usable source margin radius 2; 311 candidate shifts at radius 2: 0 contradicted, 311 not",
    ))
