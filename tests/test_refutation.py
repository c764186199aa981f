"""Differential tests: refutation decided once per stage at its own margin,
against the descending-radius search it replaced, and the closed-form margin
against its window definition."""

import random
import time
from collections import Counter

import toepcalc.conjugacy as conjugacy
from toepcalc import (
    ConjugateCertified,
    Consistent,
    NotConjugateCertified,
    PartialCyclicWord,
    RefutedUpTo,
    SkeletonTower,
    Status,
    Unknown,
    apply_block_code,
    apply_positionwise_permutation,
    conjugacy_verdict,
    period_status,
    phase_separated,
    reference_example,
    rotate_tower,
)
from toepcalc.odometer import supernatural_equal
from toepcalc.randomgen import random_block_code, random_positionwise, random_tower
from toepcalc.skeleton import ResidueStatusSet, _modulus, status_masks

from helpers import BINARY, check_status_readers, old_unknown_diagnostics, shift_contradicted, text_pair


def reference_verdict(a, b, max_radius):
    """``conjugacy_verdict`` with its refutation searched from ``max_radius``
    down to 0, every stage re-checked at every radius, kept as the definition."""
    if (
        a.declared_scale is not None
        and b.declared_scale is not None
        and not supernatural_equal(a.declared_scale, b.declared_scale)
    ):
        return NotConjugateCertified(
            f"declared scales differ: {a.declared_scale} vs {b.declared_scale}"
        )
    try:
        n = conjugacy._common_length(a, b)
    except conjugacy.IncompatiblePeriods as exc:
        return Unknown((str(exc),))
    stages = sorted(set(a.periods) | set(b.periods))
    pair = text_pair(*(t._text * (n // t.deepest_period) for t in (a, b)), a.alphabet)
    separated = {}
    for p in stages:
        separated[p] = phase_separated(a, p) and phase_separated(b, p)
        if not separated[p]:
            continue
        for k in pair.mask_shifts:
            g = pair.gamma(p, k)
            if isinstance(g, Consistent):
                return ConjugateCertified(p, k, g.correspondence)

    def margin_radius(pp) -> int:
        t = -1
        while t < max_radius and all(
            pp.status_at(x) is Status.IN for x in range(-2 * (t + 1), 2 * (t + 1) + 1)
        ):
            t += 1
        return t

    def candidates(pp, radius: int) -> list[int]:
        g = pp.modulus
        reach = range(-radius, radius + 1) if 2 * radius < g else range(g)
        bad = {(r - x) % g for r in pp.residues(Status.OUT) for x in reach}
        return [k for k in range(n) if k % g not in bad]

    for m_prime in range(max_radius, -1, -1):
        refuting = []
        for p in stages:
            if not all(
                period_status(a, p).status_at(x) is Status.IN
                for x in range(-2 * m_prime, 2 * m_prime + 1)
            ):
                continue
            ks = candidates(period_status(b, p), m_prime)
            if all(shift_contradicted(pair, p, k) for k in ks):
                refuting.append(p)
        if refuting:
            return RefutedUpTo(m_prime, tuple(refuting))

    diagnostics = []
    for p in stages:
        if not separated[p]:
            diagnostics.append(f"stage {p}: phases not certified distinct; no certificate possible")
            continue
        t = margin_radius(period_status(a, p))
        line = f"stage {p}: no consistent shift; usable source margin radius {t}"
        if t >= 0:
            ks = candidates(period_status(b, p), t)
            contradicted = sum(shift_contradicted(pair, p, k) for k in ks)
            line += (
                f"; {len(ks)} candidate shifts at radius {t}:"
                f" {contradicted} contradicted, {len(ks) - contradicted} not"
            )
        diagnostics.append(line)
    return Unknown(tuple(diagnostics))


def random_verdict_pair(rng):
    """A tower and a partner: an unrelated tower, a rotation, a block-code
    image (which loses structure, so refutations occur), or a rotated
    positionwise image; sometimes the example tower instead of a random one."""
    if rng.random() < 0.2:
        a = rotate_tower(reference_example(rng.randint(0, 3)), rng.randrange(40))
        symbols = a.alphabet.symbols
    else:
        symbols = rng.choice((("0", "1"), ("0", "1"), ("a", "b", "c")))
        fill = rng.choice((1.0, 0.9, 0.8, 0.6))
        a = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 5, 6), fill=fill)
    n = a.deepest_period
    kind = rng.randrange(4)
    if kind == 0:
        b = random_tower(rng, symbols, depth=1, base_periods=(n * rng.choice((1, 1, 2)),), fill=0.8)
    elif kind == 1:
        b = rotate_tower(a, rng.randrange(n))
    elif kind == 2:
        radius = rng.choice((0, 1, 1, 2)) if len(symbols) == 2 else rng.choice((0, 1))
        b = rotate_tower(apply_block_code(a, random_block_code(rng, a.alphabet, radius)), rng.randrange(n))
    else:
        q = a.periods[0]  # a positionwise period must divide every level
        p = rng.choice([d for d in range(1, q + 1) if q % d == 0])
        b = rotate_tower(apply_positionwise_permutation(a, random_positionwise(rng, a.alphabet, p)), rng.randrange(n))
    return (a, b) if rng.random() < 0.5 else (b, a)


def test_verdict_matches_descending_radius_search():
    rng = random.Random(4161)
    seen = set()
    for _ in range(2400):
        a, b = random_verdict_pair(rng)
        max_radius = rng.choice((0, 1, 2, 3, 5, 20))
        want = reference_verdict(a, b, max_radius)
        assert conjugacy_verdict(a, b, max_radius) == want, (a, b, max_radius)
        if isinstance(want, RefutedUpTo):
            seen.add("refuted at 0" if want.radius == 0 else "refuted above 0")
        elif isinstance(want, Unknown) and any("margin radius" in d for d in want.diagnostics):
            seen.add("unknown with margins")
    assert seen == {"refuted at 0", "refuted above 0", "unknown with margins"}


def random_status_table(rng):
    g = rng.randint(1, 24)
    weights = rng.choice(((8, 1, 1), (3, 1, 1), (1, 1, 1), (1, 0, 0)))
    statuses = tuple(rng.choices(list(Status), weights, k=g))
    return ResidueStatusSet(g, statuses, tuple("0" if s is Status.IN else None for s in statuses))


def table_masks(rss) -> tuple[int, int, int]:
    """The In, Out and Unknown masks of a per-residue table, as ``status_masks`` gives them."""
    return tuple(sum(1 << r for r in rss.residues(s)) for s in (Status.IN, Status.OUT, Status.UNKNOWN))


def stage_candidates(a, b, p, max_radius) -> tuple[int, list[int]]:
    """``a``'s margin and ``b``'s candidate classes at stage ``p``, read as ``conjugacy_verdict`` reads them."""
    ga, gb = _modulus(a, p), _modulus(b, p)
    t = conjugacy._margin(status_masks(a, ga)[0], ga, max_radius)
    return t, conjugacy._candidates(status_masks(b, gb)[1], gb, t, p) if t >= 0 else []


def test_closed_form_margin_matches_window_definition():
    rng = random.Random(2016)
    for _ in range(3000):
        rss = random_status_table(rng)
        max_radius = rng.randint(0, 30)
        t = conjugacy._margin(table_masks(rss)[0], rss.modulus, max_radius)
        assert -1 <= t <= max_radius
        for m in range(max_radius + 1):
            window_in = all(rss.status_at(x) is Status.IN for x in range(-2 * m, 2 * m + 1))
            assert (m <= t) == window_in, (rss, max_radius, m)


def reference_candidates(rss, radius: int, n: int) -> list[int]:
    """Shifts ``k`` in ``[0, n)`` whose window ``[k - radius, k + radius]``
    meets no Out residue of the target: those strictly inside a gap between
    cyclically consecutive Out residues, by more than ``radius`` at each end."""
    g, outs = rss.modulus, rss.residues(Status.OUT)
    if not outs:
        return list(range(n))
    good = set()
    for r1, r2 in zip(outs, (*outs[1:], outs[0] + g)):
        good.update(x % g for x in range(r1 + radius + 1, r2 - radius))
    return [k for k in range(n) if k % g in good]


def test_candidates_match_window_scan():
    """The candidate offset classes mod p, expanded to their shifts in
    ``[0, n)``, are the shifts of the window scan and of the shift list the
    classes replaced."""
    rng = random.Random(2017)
    for _ in range(3000):
        rss = random_status_table(rng)
        p = rss.modulus * rng.randint(1, 3)
        n = p * rng.randint(1, 3)
        radius = rng.randint(0, 30)
        want = [
            k for k in range(n)
            if all(rss.status_at(k + x) is not Status.OUT for x in range(-radius, radius + 1))
        ]
        assert reference_candidates(rss, radius, n) == want, (rss, radius, n)
        classes = conjugacy._candidates(table_masks(rss)[1], rss.modulus, radius, p)
        assert classes == sorted(set(classes)) and all(0 <= c < p for c in classes)
        assert sorted(c + j * p for c in classes for j in range(n // p)) == want, (rss, radius, p, n)


def code_image_pairs(rng):
    """``reference_example(k)``, k = 4..8, against its rotated image under a
    drawn radius-1 or radius-2 code, whose stages meet several target shapes;
    and against the image of a shallower ``reference_example(j)``, whose
    status tables at the deeper stages have a modulus below the stage."""
    for k in range(4, 9):
        a = reference_example(k)
        for radius in (1, 1, 2, 2):
            image = apply_block_code(a, random_block_code(rng, a.alphabet, radius))
            yield a, rotate_tower(image, rng.randrange(a.deepest_period))
        j = rng.randrange(k)
        image = apply_block_code(reference_example(j), random_block_code(rng, a.alphabet, rng.choice((0, 1, 2))))
        yield a, rotate_tower(image, rng.randrange(image.deepest_period))


def shallower_pairs(rng):
    """A random tower against an image of itself with its deepest level cut."""
    for _ in range(300):
        fill = rng.choice((1.0, 0.9, 0.8))
        a = random_tower(rng, ("0", "1"), depth=rng.randint(2, 4), base_periods=(2, 3, 4, 5, 6), fill=fill)
        image = apply_block_code(a, random_block_code(rng, a.alphabet, rng.choice((0, 1, 1, 2))))
        b = SkeletonTower(image.alphabet, image.levels[: rng.randint(1, len(image.levels) - 1)])
        yield a, rotate_tower(b, rng.randrange(b.deepest_period))


def test_verdict_matches_descending_radius_search_on_code_images():
    rng = random.Random(4162)
    seen = set()
    for a, b in (*code_image_pairs(rng), *shallower_pairs(rng)):
        max_radius = rng.choice((0, 1, 2, 3))
        want = reference_verdict(a, b, max_radius)
        assert conjugacy_verdict(a, b, max_radius) == want, (a, b, max_radius)
        n = conjugacy._common_length(a, b)
        pair = conjugacy._Pair(a, b, n)
        for p in a.periods if isinstance(want, (RefutedUpTo, Unknown)) else ():
            _, classes = stage_candidates(a, b, p, max_radius)
            if len({id(pair.shape(p, c)) for c in classes}) > 1:
                seen.add((type(want), "several shapes"))
            if classes and period_status(b, p).modulus < p:
                seen.add((type(want), "modulus below the stage"))
    assert seen >= {
        (RefutedUpTo, "several shapes"),
        (Unknown, "several shapes"),
        (RefutedUpTo, "modulus below the stage"),
        (Unknown, "modulus below the stage"),
    }


def test_unknown_diagnostics_match_the_per_class_count():
    """The ``Unknown`` diagnostics, counted from the ``class_shapes`` tables,
    against the count that cut every candidate class, on random pairs, code
    images and shallower images; ``seen`` holds stages counted from a table
    derived from a dividing stage, by whether some are contradicted and some
    not, and stages whose classes are cut."""
    rng = random.Random(4163)
    seen = Counter()
    pairs = [random_verdict_pair(rng) for _ in range(800)]
    for a, b in (*pairs, *code_image_pairs(rng), *shallower_pairs(rng)):
        max_radius = rng.choice((0, 1, 2, 3, 5))
        verdict = conjugacy_verdict(a, b, max_radius)
        if not isinstance(verdict, Unknown) or "do not divide" in verdict.diagnostics[0]:
            continue
        assert verdict.diagnostics == old_unknown_diagnostics(a, b, max_radius), (a, b, max_radius)
        n, stages = conjugacy._common_length(a, b), sorted(set(a.periods) | set(b.periods))
        pair = conjugacy._Pair(a, b, n)
        for p, line in zip(stages, verdict.diagnostics):
            if "candidate shifts" not in line:
                continue
            pair.class_shapes(p, stages, stage_candidates(a, b, p, max_radius)[1])
            derived = ("classes", n, p, 0) in b._status  # the tables are kept on the target's tower
            seen["cut"] += not derived
            if derived and not line.endswith(" 0 not"):
                seen["derived, some not contradicted"] += 1
            if derived and " 0 contradicted" not in line:
                seen["derived, some contradicted"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 10, seen


def test_mask_readers_match_the_view_readers_on_verdict_pairs():
    """Margins, candidate classes, skeleton words and views at every stage of
    random verdict pairs, code images and shallower images, against the view
    readers they replaced (``helpers.check_status_readers``)."""
    rng = random.Random(2701)
    pairs = [random_verdict_pair(rng) for _ in range(600)]
    for a, b in (*pairs, *code_image_pairs(rng), *shallower_pairs(rng)):
        max_radius = rng.choice((0, 1, 2, 3, 5, 20))
        for p in sorted(set(a.periods) | set(b.periods)):
            check_status_readers(a, b, p, max_radius)


def test_unknown_count_cuts_classes_above_a_long_jump():
    """At stages {1, 3000}, deriving each of the 3000 stage-3000 classes from
    stage 1 takes 3000 tuple steps (0.7 s in all), so they are cut (0.02 s)."""
    rng = random.Random(4164)
    cells = tuple(rng.choice("01") if rng.random() < 0.97 else None for _ in range(3000))
    a = SkeletonTower(BINARY, ((1, PartialCyclicWord((None,))), (3000, PartialCyclicWord(cells))))
    b = rotate_tower(apply_block_code(a, random_block_code(rng, BINARY, 1)), 17)
    start = time.perf_counter()
    verdict = conjugacy_verdict(a, b, 3)
    assert time.perf_counter() - start < 0.3
    assert isinstance(verdict, Unknown) and "stage 3000: no consistent shift" in verdict.diagnostics[-1]
    assert "candidate shifts" in verdict.diagnostics[-1]


def test_huge_radius_costs_no_more_than_the_period():
    a, b = reference_example(2), reference_example(3)
    # every stage has a hole, so no margin exceeds the deepest period 40
    assert conjugacy_verdict(a, b, 10**9) == reference_verdict(a, b, 40)
