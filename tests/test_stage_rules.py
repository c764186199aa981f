"""Differential tests: the one-rule stage facts (residue-class statuses, arcs
between holes, stage rows, part-class comparison, stage values, chi stages,
part equivalence, essential periods) against the case-split code they
replaced, kept here verbatim as references; and ``parts_star`` and
``efin_equal`` against their forms before they read the table's digits and
kept one set of spared parts, kept verbatim in ``helpers``."""

import math
import random
from itertools import combinations
from typing import Optional

import pytest

from toepcalc import (
    BlockSpan,
    ChiStage,
    DpKind,
    DpResult,
    EfinResult,
    EssentialOutcome,
    EssentialStatus,
    FilledBlocks,
    IncompatiblePeriods,
    MissingScaleDeclaration,
    Part,
    PeriodMismatch,
    ResidueStatusSet,
    SkeletonTower,
    StageReport,
    InvariantComparison,
    StarStatus,
    Status,
    SupernaturalNumber,
    apply_positionwise_permutation,
    chi_stage,
    dp_equivalent,
    efin_equal,
    essential_period_status,
    filled_blocks,
    invariant_compare,
    natural_factorization,
    parts_star,
    period_status,
    periodic_part,
    reference_example,
    rotate_tower,
    status_masks,
    with_common_depth,
)
from toepcalc import conjugacy
from toepcalc.codes import AlphabetMismatch
from toepcalc.conjugacy import Consistent
from toepcalc.odometer import INF, OdometerError, prime_index, supernatural_equal
from toepcalc.randomgen import deepen, random_positionwise, random_tower
import helpers
from helpers import divisors, old_efin_equal, old_parts_star, one_level, shift_contradicted, text_pair, tower


def reference_periodic_part(tower, p):
    """The table build with a separate literal loop at the deepest period."""
    deep = tower.deepest_period
    w = tower.deepest_word
    statuses: list[Status] = []
    symbols: list[Optional[str]] = []
    if p == deep:
        for c in w.cells:
            statuses.append(Status.OUT if c is None else Status.IN)
            symbols.append(c)
    else:
        for r in range(p):
            cells = [w.cells[x] for x in range(r, deep, p)]
            filled = {c for c in cells if c is not None}
            if len(filled) > 1:
                statuses.append(Status.OUT)
                symbols.append(None)
            elif filled and None not in cells:
                statuses.append(Status.IN)
                symbols.append(next(iter(filled)))
            else:
                statuses.append(Status.UNKNOWN)
                symbols.append(None)
    return ResidueStatusSet(p, tuple(statuses), tuple(symbols))


def reference_filled_blocks(tower, p):
    """The arc walk with a single-hole case and a residue list per arc; it
    reads the reference table, so the two rules are checked independently."""
    rss = reference_periodic_part(tower, p)
    holes = rss.residues(Status.OUT)
    unknown = rss.residues(Status.UNKNOWN)
    if not holes:
        return FilledBlocks(p, True, (), (), unknown)
    spans: list[BlockSpan] = []
    for i, h in enumerate(holes):
        nxt = holes[(i + 1) % len(holes)]
        arc_len = (nxt - h - 1) % p if len(holes) > 1 else p - 1
        if arc_len == 0:
            continue
        start = (h + 1) % p
        arc = [(start + j) % p for j in range(arc_len)]
        certified = all(rss.statuses[r] is Status.IN for r in arc)
        spans.append(BlockSpan(start, arc_len if certified else None, p))
    return FilledBlocks(p, False, tuple(spans), holes, unknown)


def reference_efin_equal(s, t, p):
    """``efin_equal`` with sorted-pair keys, an explicit self-pair test and
    set copies of the two sides."""
    s_list = list(dict.fromkeys(s))
    t_list = list(dict.fromkeys(t))
    for part in (*s_list, *t_list):
        if part.p != p:
            raise PeriodMismatch(f"part at period {part.p} in a comparison at {p}")
    elems = list(dict.fromkeys((*s_list, *t_list)))
    index = {e: i for i, e in enumerate(elems)}
    parent = list(range(len(elems)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    results: dict[tuple[int, int], DpKind] = {}
    for x, y in combinations(elems, 2):
        kind = dp_equivalent(x, y).kind
        results[(index[x], index[y])] = kind
        if kind is DpKind.CONSISTENT_WITNESS:
            parent[find(index[x])] = find(index[y])

    s_set, t_set = set(s_list), set(t_list)
    roots_s = {find(index[e]) for e in s_list}
    roots_t = {find(index[e]) for e in t_list}
    if roots_s == roots_t:
        return EfinResult.CERTIFIED_EQUAL

    def refuted(x: Part, other: list[Part]) -> bool:
        for y in other:
            if x == y:
                return False
            i, j = index[x], index[y]
            if results.get((min(i, j), max(i, j))) is not DpKind.REFUTED:
                return False
        return True

    if any(refuted(x, t_list) for x in s_set) or any(refuted(y, s_list) for y in t_set):
        return EfinResult.REFUTED
    return EfinResult.UNDETERMINED


def reference_invariant_compare(a, b, stages):
    """``invariant_compare`` with a skipped-row branch per reason and a
    divisibility check on each tower."""
    if a.declared_scale is None or b.declared_scale is None:
        raise MissingScaleDeclaration("both towers must declare a scale")
    if not supernatural_equal(a.declared_scale, b.declared_scale):
        return InvariantComparison(False, (), 0, "NotEquivalent(scale)")
    tau = natural_factorization(a.declared_scale, stages)
    try:
        a, b = with_common_depth(a, b)
        incompatible = None
    except IncompatiblePeriods as exc:
        incompatible = str(exc)
    rows: list[StageReport] = []
    for p in tau:
        if incompatible is not None:
            rows.append(StageReport(p, False, None, incompatible, None, None))
            continue
        if a.deepest_period % p or b.deepest_period % p:
            rows.append(
                StageReport(p, False, None, "stage does not divide the deepest periods", None, None)
            )
            continue
        lengths = [
            span.length
            for t in (a, b)
            for span in filled_blocks(t, p).spans
            if span.length is not None
        ]
        min_len = min(lengths) if lengths else None
        trust = (min_len - 7) // 4 if min_len is not None and min_len >= 7 else None
        ca = chi_stage(a, p)
        cb = chi_stage(b, p)
        if not (ca.complete and cb.complete):
            rows.append(
                StageReport(p, True, EfinResult.UNDETERMINED, "incomplete chi stage", min_len, trust)
            )
            continue
        res = reference_efin_equal(ca.parts, cb.parts, p)
        rows.append(StageReport(p, True, res, f"{len(ca.parts)} vs {len(cb.parts)} parts", min_len, trust))
    evaluated = [r for r in rows if r.evaluated]
    suffix = 0
    for r in reversed(evaluated):
        if r.result is EfinResult.CERTIFIED_EQUAL:
            suffix += 1
        else:
            break
    summary = (
        f"{suffix} of {len(evaluated)} evaluated stages certified equal (trailing suffix)"
        if evaluated
        else "no evaluable stages"
    )
    return InvariantComparison(True, tuple(rows), suffix, summary)


def reference_natural_factorization(u, count):
    """The stage sequence with t stepped one at a time until the scale is reached."""
    target = u.as_int() if u.is_finite else None
    entries = [(prime_index(p), p, k) for p, k in u.factors]
    out: list[int] = []
    t = 0
    while len(out) < count:
        value = 1
        for index, p, k in entries:
            if index <= t + 1:
                value *= p ** int(min(k, t + 1))
        if value != 1 and (not out or out[-1] != value):
            out.append(value)
        if target is not None and value == target:
            break
        t += 1
    return tuple(out)


def random_stage_tower(rng):
    symbols = rng.choice((("0", "1"), ("0", "1"), ("a", "b", "c")))
    return random_tower(
        rng,
        symbols,
        depth=rng.randint(1, 3),
        base_periods=(1, 2, 3, 4, 5, 6),
        fill=rng.choice((1.0, 0.9, 0.7, 0.4, 0.1, 0.0)),
    )


def test_status_tables_and_arcs_match_case_split_rules():
    rng = random.Random(51)
    seen = set()
    for _ in range(1600):
        t = random_stage_tower(rng)
        deep = t.deepest_period
        for p in divisors(deep):
            want = reference_periodic_part(t, p)
            assert periodic_part(t, p) == want, (t, p)
            fb = reference_filled_blocks(t, p)
            assert filled_blocks(t, p) == fb, (t, p)
            if len(fb.holes) == 1:
                seen.add("single hole")
            if any((h + 1) % p in fb.holes for h in fb.holes) and p > 1:
                seen.add("adjacent holes")
            if any(s.wraps for s in fb.spans):
                seen.add("certified wrapping arc")
            if any(s.length is None for s in fb.spans):
                seen.add("uncertified arc")
            if p < deep and Status.UNKNOWN in want.statuses:
                seen.add("blank below the deepest period")
        if len(t.levels) == 1:
            seen.add("depth 1")
        if deep == 1:
            seen.add("period 1")
        if t.deepest_word.blank_positions() == tuple(range(deep)):
            seen.add("all blank")
        if len(t.alphabet) == 3:
            seen.add("three symbols")
    assert seen == {
        "single hole",
        "adjacent holes",
        "certified wrapping arc",
        "uncertified arc",
        "blank below the deepest period",
        "depth 1",
        "period 1",
        "all blank",
        "three symbols",
    }


def part_pool(rng):
    """Parts at one stage of a tower and of two partners of the same depth,
    each a rotation, a rotated positionwise image (so witnesses occur) or an
    unrelated tower."""
    symbols = rng.choice((("0", "1"), ("a", "b", "c")))
    a = random_tower(rng, symbols, depth=rng.randint(1, 2), base_periods=(2, 3, 4, 6), fill=rng.choice((1.0, 0.8)))
    n = a.deepest_period
    towers = [a]
    for kind in rng.choices(("rotated", "permuted", "unrelated"), k=2):
        if kind == "unrelated":
            b = random_tower(rng, symbols, depth=1, base_periods=(n,), fill=rng.choice((1.0, 0.8)))
        else:
            phi = random_positionwise(rng, a.alphabet, a.periods[0])
            b = rotate_tower(a if kind == "rotated" else apply_positionwise_permutation(a, phi), rng.randrange(n))
        towers.append(b)
    p = rng.choice([d for d in divisors(n) if d > 1] or [1])
    return p, [Part(t, p, k) for t in towers for k in range(p)]


def test_efin_matches_sorted_pair_rule():
    rng = random.Random(52)
    seen = set()
    for _ in range(600):
        p, pool = part_pool(rng)
        s = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        t = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        if s and rng.random() < 0.3:
            t.append(rng.choice(s))  # a part on both sides
        want = reference_efin_equal(s, t, p)
        assert efin_equal(s, t, p) is want, (s, t, p)
        seen.add(want)
        if not s or not t:
            seen.add("empty side")
        if set(s) & set(t):
            seen.add("part on both sides")
        if len(set(s)) == 4 and len(set(t)) >= 4:
            seen.add("four parts a side")
    assert seen == {*EfinResult, "empty side", "part on both sides", "four parts a side"}


def test_efin_matches_sorted_pair_rule_on_any_kinds(monkeypatch):
    # efin_equal certifies iff every part lies on both sides or has a witness
    # on the other side; the reference iff every class that witnesses join
    # meets both sides.  They agree because witnesses compose: if
    # dp_equivalent(w, z) is Consistent at block rotation j1 and
    # dp_equivalent(w, y) at j2, then at the block-aligned shift (j2 - j1)·p
    # the blank masks of z and y match; the block-type map g∘f⁻¹ is
    # well-defined and injective, since f and g are bijections on the block
    # types they pair; the per-offset symbol relations compose to partial
    # bijections; and no full-block conflict exists.  dp_equivalent(z, y)
    # scans every mask-compatible block-aligned shift, so it finds a
    # Consistent one; with symmetry, witnesses form an equivalence relation
    # (test_dp_witnesses_compose checks both on towers).  So a stand-in
    # dp_equivalent reads each pair's kind from a random partition: a witness
    # iff both parts lie in one class, else Refuted or Undetermined at random.
    table: dict[frozenset, DpKind] = {}

    def stand_in(w, z):
        return DpResult(table[frozenset((w, z))])

    monkeypatch.setattr("toepcalc.conjugacy.dp_scan", stand_in)  # efin_equal's dp_equivalent, short of decoding
    monkeypatch.setitem(globals(), "dp_equivalent", stand_in)  # the reference's
    rng = random.Random(53)
    pool = [Part(tower("01_0_1"), 6, k) for k in range(6)]
    seen = set()
    for _ in range(3000):
        classes = rng.randint(1, 6)
        label = {x: rng.randrange(classes) for x in pool}
        weights = rng.choice(((1, 1), (3, 1), (1, 3)))
        for x, z in combinations(pool, 2):
            apart = rng.choices((DpKind.REFUTED, DpKind.UNDETERMINED), weights)[0]
            table[frozenset((x, z))] = DpKind.CONSISTENT_WITNESS if label[x] == label[z] else apart
        s = rng.sample(pool, rng.randint(1, 4))
        t = rng.sample(pool, rng.randint(1, 4))
        want = reference_efin_equal(s, t, 6)
        assert efin_equal(s, t, 6) is want, (s, t, table)
        seen.add(want)
        if want is EfinResult.CERTIFIED_EQUAL and any(sum(label[x] == label[y] for y in s) > 1 for x in t):
            seen.add("certified with a class of two parts on one side")
    assert seen == {*EfinResult, "certified with a class of two parts on one side"}


def test_dp_witnesses_compose():
    """The property efin_equal's cross rule rests on, over parts of towers with
    blanks, their rotations and rotated positionwise images: every pair has one
    kind in both orders, and two witnesses of one part witness each other."""
    rng = random.Random(58)
    seen = set()
    for _ in range(120):
        _, pool = part_pool(rng)
        kinds = {(w, z): dp_equivalent(w, z).kind for w in pool for z in pool}
        for (w, z), kind in kinds.items():
            assert kind is kinds[z, w], (w, z)
            seen.add(kind)
        for w in pool:
            witnesses = [z for z in pool if kinds[w, z] is DpKind.CONSISTENT_WITNESS]
            for z, y in combinations(witnesses, 2):
                assert kinds[z, y] is DpKind.CONSISTENT_WITNESS, (w, z, y)
                if len({w.base, z.base, y.base}) == 3:
                    seen.add("three towers")
                    if any(x.base.deepest_word.blank_positions() for x in (w, z, y)):
                        seen.add("three towers with blanks")
    assert seen == {*DpKind, "three towers", "three towers with blanks"}


def test_efin_shared_part_is_never_refuted_against_itself():
    # x is on both sides and refuted against the rest of the other side, so
    # only the missing self-pair keeps its family from being refuted
    x, y, z = (Part(tower(w), 2, 0) for w in ("0000", "_00_", "0010"))
    assert dp_equivalent(x, z).kind is DpKind.REFUTED
    assert dp_equivalent(x, y).kind is dp_equivalent(y, z).kind is DpKind.UNDETERMINED
    assert efin_equal([x, y], [x, z], 2) is reference_efin_equal([x, y], [x, z], 2) is EfinResult.UNDETERMINED
    assert efin_equal([x], [x], 2) is EfinResult.CERTIFIED_EQUAL


SCALES = ("2^inf * 3^inf", "2^inf * 3^inf * 5")


def scaled(t, scale):
    return SkeletonTower(t.alphabet, t.levels, SupernaturalNumber.parse(scale))


def random_scaled_pair(rng):
    """Two towers over periods 2^i·3^j declaring one scale: a rotated
    positionwise image, a deepened copy, or an unrelated tower whose depth
    may be incompatible with the first."""
    a = random_tower(rng, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 6), fill=rng.choice((1.0, 0.9, 0.6)))
    kind = rng.randrange(3)
    if kind == 0:
        phi = random_positionwise(rng, a.alphabet, a.periods[0])
        b = rotate_tower(apply_positionwise_permutation(a, phi), rng.randrange(a.deepest_period))
    elif kind == 1:
        b = deepen(rng, a, rng.choice((2, 3)), fill=0.7)
    else:
        b = random_tower(rng, depth=rng.randint(1, 2), base_periods=(1, 2, 3, 4, 6), fill=0.9)
    scale = rng.choice(SCALES)
    return scaled(a, scale), scaled(b, scale)


def test_invariant_rows_match_two_branch_rule():
    rng = random.Random(53)
    seen = set()
    for _ in range(300):
        a, b = random_scaled_pair(rng)
        stages = rng.randint(1, 5)
        want = reference_invariant_compare(a, b, stages)
        assert invariant_compare(a, b, stages) == want, (a, b, stages)
        for row in want.stages:
            if not row.evaluated:
                seen.add("does not divide" if "stage does not divide" in row.detail else "incompatible")
            else:
                seen.add(row.result)
    assert seen == {"does not divide", "incompatible", *EfinResult}


def test_invariant_unevaluated_reference_rows():
    u = "2^inf * 3^inf"  # stages 2, 36, 216, ...
    a, b = tower("0001", scale=u), tower("000011", scale=u)
    msg = "deepest periods 4 and 6 do not divide one another"
    assert invariant_compare(a, b, 3).stages == tuple(
        StageReport(p, False, None, msg, None, None) for p in (2, 36, 216)
    )
    # stage 36 does not divide the common deepest period 12 of a and its padding
    c = tower("000100010011", scale=u)
    rows = invariant_compare(a, c, 2).stages
    assert rows[1] == StageReport(36, False, None, "stage does not divide the deepest periods", None, None)
    assert rows[0].evaluated and rows == reference_invariant_compare(a, c, 2).stages


def test_stage_values_match_t_stepping():
    rng = random.Random(54)
    primes = (2, 3, 5, 7, 11, 13, 29, 101)
    for _ in range(400):
        factors = sorted(rng.sample(primes, rng.randint(1, 3)))
        u = SupernaturalNumber(tuple((q, rng.choice((1, 2, 3, 4, INF))) for q in factors))
        count = rng.randint(0, 30)
        assert natural_factorization(u, count) == reference_natural_factorization(u, count), (u, count)


def test_stage_value_bound():
    # values must stay below 2^10000; 3^6309 < 2^10000 < 2·3^6309 < 2^10001
    for q, e in ((2, 9999), (3, 6309)):
        assert natural_factorization(SupernaturalNumber(((q, e),)), 10**6)[-1] == q**e
    for factors in (((2, 10000),), ((2, 1), (3, 6309)), ((3, INF),)):
        u = SupernaturalNumber(factors)
        with pytest.raises(OdometerError, match="not below 2\\^10000"):
            natural_factorization(u, 10**6)


def reference_chi_stage(tower, p):
    """``chi_stage`` through the star status of every residue."""
    entries = parts_star(tower, p)
    parts: set[Part] = set()
    complete = True
    for e in entries:
        if e.status is StarStatus.UNKNOWN or (e.status is StarStatus.STARRED and e.length is None):
            complete = False
        elif e.status is StarStatus.STARRED:
            parts.add(Part(tower, p, (e.part.k + e.length // 2) % p))
    return ChiStage(p, frozenset(parts), complete)


def reference_dp_equivalent(w, z):
    """``dp_equivalent`` testing ``contradicted`` before ``gamma`` at every
    block-aligned shift, with a flag for the refutation."""
    if w.p != z.p:
        raise PeriodMismatch(f"parts live at different periods {w.p} and {z.p}")
    if w.base.alphabet != z.base.alphabet:
        raise AlphabetMismatch("parts use different alphabets")
    if w.base.deepest_period != z.base.deepest_period:
        raise PeriodMismatch("parts rest on towers of different depth")
    a, b = w.base.deepest_word.cells, z.base.deepest_word.cells
    pair = text_pair(*(x.base._text[x.k :] + x.base._text[: x.k] for x in (w, z)), w.base.alphabet)
    all_contradicted = True
    for j in range(w.base.deepest_period // w.p):
        if not shift_contradicted(pair, w.p, j * w.p):  # gamma is not Contradicted there
            g = pair.gamma(w.p, j * w.p)
            if isinstance(g, Consistent):
                return DpResult(DpKind.CONSISTENT_WITNESS, g.correspondence, j)
            all_contradicted = False
    return DpResult(DpKind.REFUTED if all_contradicted else DpKind.UNDETERMINED)


def reference_essential_period_status(tower, p):
    """``essential_period_status`` with separation, equality and nonemptiness
    flags and a per-position loop over the window."""
    rp = period_status(tower, p)
    if all(s is Status.OUT for s in rp.statuses):
        return EssentialStatus(p, EssentialOutcome.NOT_ESSENTIAL, "periodic part certified empty")
    has_in = any(s is Status.IN for s in rp.statuses)
    deep = tower.deepest_period
    undetermined: list[int] = []
    for q in (d for d in range(1, min(p, deep + 1)) if deep % d == 0):
        rq = periodic_part(tower, q)
        window = math.lcm(rp.modulus, rq.modulus)
        separated = False
        determined_equal = True
        for x in range(window):
            a = rp.status_at(x)
            b = rq.status_at(x)
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
        return EssentialStatus(
            p,
            EssentialOutcome.UNKNOWN,
            "separation undecided against " + ", ".join(map(str, undetermined)),
            tuple(undetermined),
        )
    if not has_in:
        return EssentialStatus(
            p, EssentialOutcome.UNKNOWN, "separated everywhere but nonemptiness uncertified"
        )
    return EssentialStatus(p, EssentialOutcome.ESSENTIAL, "separated from every shorter period")


def tower_shapes(t, p):
    """The shapes of a tower at stage ``p`` that the stage rules treat apart."""
    shapes = set()
    fb = filled_blocks(t, p)
    if p == 1:
        shapes.add("period 1")
    if len(fb.holes) == 1:
        shapes.add("single hole")
    if not fb.holes and fb.unknown_residues:
        shapes.add("unknown without a hole")
    if any(s.length is not None and s.length % 2 for s in fb.spans):
        shapes.add("odd certified span")
    if t.deepest_word.blank_positions() == tuple(range(t.deepest_period)):
        shapes.add("all blank")
    if len(t.alphabet) == 3:
        shapes.add("three symbols")
    return shapes


def test_chi_stage_matches_starred_parts():
    rng = random.Random(55)
    seen = set()
    for _ in range(1200):
        t = random_stage_tower(rng)
        for p in divisors(t.deepest_period):
            want = reference_chi_stage(t, p)
            assert chi_stage(t, p) == want, (t, p)
            seen |= tower_shapes(t, p)
            seen.add("complete" if want.complete else "incomplete")
    assert seen == {
        "period 1",
        "single hole",
        "unknown without a hole",
        "odd certified span",
        "all blank",
        "three symbols",
        "complete",
        "incomplete",
    }


def dp_pool(rng):
    """Parts at one stage of a tower and of a partner of the same depth: a
    rotation, a rotated positionwise image or an unrelated tower."""
    symbols = rng.choice((("0", "1"), ("a", "b", "c")))
    fill = rng.choice((1.0, 0.8, 0.5))
    a = random_tower(rng, symbols, depth=rng.randint(1, 2), base_periods=(1, 2, 3, 4, 6), fill=fill)
    n = a.deepest_period
    kind = rng.randrange(3)
    if kind == 0:
        b = rotate_tower(a, rng.randrange(n))
    elif kind == 1:
        phi = random_positionwise(rng, a.alphabet, a.periods[0])
        b = rotate_tower(apply_positionwise_permutation(a, phi), rng.randrange(n))
    else:
        b = random_tower(rng, symbols, depth=1, base_periods=(n,), fill=fill)
    p = rng.choice(divisors(n))
    return p, [Part(a, p, k) for k in range(p)] + [Part(b, p, k) for k in range(p)]


def test_dp_equivalent_matches_contradicted_then_gamma_loop():
    rng = random.Random(56)
    seen = set()
    for _ in range(500):
        p, pool = dp_pool(rng)
        for _ in range(4):
            w, z = rng.choice(pool), rng.choice(pool)
            want = reference_dp_equivalent(w, z)
            assert dp_equivalent(w, z) == want, (w, z)
            seen.add(want.kind)
            if want.block_rotation:
                seen.add("witness after a block rotation")
            if p == 1:
                seen.add("period 1")
    assert seen == {*DpKind, "witness after a block rotation", "period 1"}


def test_essential_period_status_matches_flag_loop():
    rng = random.Random(57)
    seen = set()
    for _ in range(1200):
        t = random_stage_tower(rng)
        deep = t.deepest_period
        non_divisors = [q for q in range(2, 2 * deep + 2) if deep % q][:2]
        for p in (*divisors(deep), *non_divisors):
            want = reference_essential_period_status(t, p)
            assert essential_period_status(t, p) == want, (t, p)
            seen.add(want.outcome)
            if want.reason.startswith("certified equal"):
                seen.add("certified equal")
            if deep % p:
                seen.add("non-divisor")
    assert seen == {*EssentialOutcome, "certified equal", "non-divisor"}


def digit_towers(rng):
    """Random towers over 2, 3 and multi-character symbols, each with and
    without blanks, then towers whose stages below the deepest are all
    Unknown (one filled cell, or none) or have no hole (a constant word)."""
    for symbols in (("0", "1"), ("a", "b", "c"), ("ab", "c", "10", "xyz")):
        for _ in range(40):
            fill = rng.choice((1.0, 0.9, 0.6, 0.3))
            t = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 6), fill=fill)
            yield rotate_tower(t, rng.randrange(t.deepest_period))
            yield one_level(symbols, [rng.choice(symbols) for _ in range(rng.choice((1, 4, 6, 12)))])
        for n in (1, 6, 12, 60):
            cells = [None] * n
            yield one_level(symbols, cells)
            cells[rng.randrange(n)] = rng.choice(symbols)
            yield one_level(symbols, cells)
            yield one_level(symbols, [symbols[0]] * n)


def stage_kinds(t, p):
    _, outs, unknowns = status_masks(t, p)
    blanks = None in t.deepest_word.cells
    return {
        "blanks" if blanks else "no blanks",
        f"{len(t.alphabet.symbols)} symbols, {'with' if blanks else 'without'} blanks",
        *(["no hole"] if not outs else []),
        *(["all Unknown"] if unknowns == (1 << p) - 1 else []),
        *(["deepest"] if p == t.deepest_period else []),
    }


def test_parts_star_matches_the_view_reader():
    rng = random.Random(3707)
    seen = set()
    for t in (*digit_towers(rng), *map(reference_example, range(13))):
        for p in divisors(t.deepest_period):
            got = parts_star(t, p)
            assert got == old_parts_star(t, p), (t, p)
            seen |= stage_kinds(t, p) | {sp.status for sp in got}
            seen |= {"no length" if sp.length is None else "length" for sp in got if sp.status is StarStatus.STARRED}
    assert seen == {
        "blanks", "no blanks", "no hole", "all Unknown", "deepest", "length", "no length", *StarStatus,
        *(f"{n} symbols, {w} blanks" for n in (2, 3, 4) for w in ("with", "without")),
    }, seen


def record_scans(monkeypatch):
    """Record the ``dp_scan`` calls of ``efin_equal`` and of ``old_efin_equal`` in one list."""
    calls, scan = [], conjugacy.dp_scan

    def recorded(w, z):
        calls.append((w, z))
        return scan(w, z)

    monkeypatch.setattr(conjugacy, "dp_scan", recorded)
    monkeypatch.setattr(helpers, "dp_scan", recorded)
    return calls


def check_efin(calls, s, t, p):
    """``efin_equal`` and ``old_efin_equal`` give one result by the same scans: that result and the number of scans."""
    calls.clear()
    got = efin_equal(s, t, p)
    new_calls = calls[:]
    calls.clear()
    assert got is old_efin_equal(s, t, p) and new_calls == calls, (s, t, p)
    return got, len(calls)


def test_efin_equal_matches_the_kind_table_on_part_pools(monkeypatch):
    calls = record_scans(monkeypatch)
    rng = random.Random(3708)
    seen = set()
    for _ in range(400):
        p, pool = part_pool(rng)
        s = rng.sample(pool, rng.randint(0, min(5, len(pool))))
        t = rng.sample(pool, rng.randint(0, min(5, len(pool))))
        if s and rng.random() < 0.3:
            t.append(rng.choice(s))  # a part on both sides
        got, scans = check_efin(calls, s, t, p)
        seen |= {got, "scans" if scans else "no scan"}
    assert seen == {*EfinResult, "scans", "no scan"}


def test_efin_equal_matches_the_kind_table_on_chi_stages(monkeypatch):
    """The tower with a hole at every 4th cell against its copy with cell 1
    blanked at N = 128..512, and ``reference_example(5..8)`` against a
    rotation and a rotated positionwise image, at every stage."""
    calls = record_scans(monkeypatch)
    rng = random.Random(3709)
    pairs = []
    for n in (128, 256, 512):
        cells = ["_" if x % 4 == 3 else rng.choice("01") for x in range(n)]
        a = tower("".join(cells), scale="2^inf")
        cells[1] = "_"
        pairs.append((a, tower("".join(cells), scale="2^inf")))
    for k in range(5, 9):
        g = reference_example(k)
        moved = rotate_tower(g, rng.randrange(1, g.deepest_period))
        pairs += [(g, moved), (g, apply_positionwise_permutation(moved, random_positionwise(rng, g.alphabet, 5)))]
    seen, total = set(), 0
    for a, b in pairs:
        for p in divisors(a.deepest_period):
            got, scans = check_efin(calls, chi_stage(a, p).parts, chi_stage(b, p).parts, p)
            seen.add(got)
            total += scans
    assert seen == set(EfinResult) and total > 1000, (seen, total)
