"""Differential tests of the tower builders that build from code points.

``rotate_tower``, ``with_common_depth``'s padding (``_pad``),
``apply_block_code``, ``apply_positionwise_permutation`` and
``reference_example`` build each level's code points and hand them to
``SkeletonTower._encoded``.  The versions that built cell tuples through the
public constructor are kept verbatim in ``helpers`` as ``old_cells_*``.  Each
pair of towers must agree on ``==``, the code points, the bit planes, the file
text and the status masks at every divisor, or fail with the same error.
"""

import random
import re
from collections import Counter

import pytest

from toepcalc import (
    Alphabet,
    PositionwisePermutation,
    TowerError,
    apply_block_code,
    apply_positionwise_permutation,
    parse_tower_text,
    reference_example,
    rotate_tower,
    serialize_tower,
    status_masks,
    symbol_at,
    with_common_depth,
)
from toepcalc.codes import CodeError
from toepcalc.conjugacy import _pad
from toepcalc.randomgen import random_block_code, random_positionwise, random_tower
from toepcalc.skeleton import _divisors
from helpers import (
    BINARY,
    old_cells_apply_block_code,
    old_cells_apply_positionwise_permutation,
    old_cells_pad,
    old_cells_reference_example,
    old_cells_rotate_tower,
    tower,
)

ALPHABETS = (("0", "1"), ("a", "b", "c"), ("ab", "c", "def"), tuple(f"s{i}" for i in range(300)))


def same(build, old_build, *args) -> bool:
    """Whether the old builder returned a tower (else both raised the same error)."""
    try:
        want = old_build(*args)
    except (TowerError, CodeError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            build(*args)
        return False
    got = build(*args)
    assert got._pieces == want._pieces and got._planes == want._planes, args
    assert serialize_tower(got) == serialize_tower(want), args
    for p in _divisors(got.deepest_period):
        assert status_masks(got, p) == status_masks(want, p), (args, p)
    assert got == want and want == got and hash(got) == hash(want), args
    return True


def random_towers(rng: random.Random):
    """Towers over 2, 3, multi-character and 300 symbols, with and without a
    scale, every other one parsed from its file so that its levels are not
    decoded."""
    for symbols in ALPHABETS:
        for i in range(16):
            fill = rng.choice((1.0, 0.8, 0.4, 0.05))
            t = random_tower(
                rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 5, 6), fill=fill, with_scale=i % 4 < 2
            )
            yield parse_tower_text(serialize_tower(t)) if i % 2 else t


def test_rotations_match_the_cell_rotation():
    rng = random.Random(3201)
    for t in (*random_towers(rng), *map(reference_example, (0, 3, 10))):
        n = t.deepest_period
        for k in (-2 * n, -n - 1, -1, 0, 1, n, 2 * n - 1, 2 * n, *rng.sample(range(-2 * n, 2 * n + 1), 3)):
            assert same(rotate_tower, old_cells_rotate_tower, t, k)
            assert symbol_at(t, k) == t.deepest_word.cell(k)


def test_padding_matches_the_repeated_word():
    """Deeper periods, some of which the declared scale does not allow."""
    rng = random.Random(3202)
    padded = Counter()
    for t in (*random_towers(rng), reference_example(6)):
        for m in (1, 2, 3, 6):
            padded[same(_pad, old_cells_pad, t, m * t.deepest_period)] += 1
    assert padded[True] >= 150 and padded[False] >= 50, padded
    a, b = reference_example(4), parse_tower_text(serialize_tower(reference_example(7)))
    for got, want in zip(with_common_depth(a, b), (old_cells_pad(a, 640), b)):
        assert same(lambda: got, lambda: want)


def test_code_images_match_the_cell_images():
    """Codes of radius 0-2 (radius 0 only over 300 symbols, whose radius-1
    table has 27 million windows), and a code over another alphabet."""
    rng = random.Random(3203)
    radii = Counter()
    for t in (*random_towers(rng), *map(reference_example, (0, 5, 9))):
        for radius in (0, 1, 2) if len(t.alphabet) <= 3 else (0,):
            code = random_block_code(rng, t.alphabet, radius)
            radii[radius] += same(apply_block_code, old_cells_apply_block_code, t, code)
    assert min(radii.values()) >= 30, radii
    other = random_block_code(rng, Alphabet(("x", "y")), 1)
    assert not same(apply_block_code, old_cells_apply_block_code, reference_example(3), other)


def test_permutations_match_the_cell_relabelling():
    """Periods that divide every level, periods past a shallow period (the
    images of a shallow cell must agree on all the residues it meets, those
    of its class mod the gcd), and periods that hit either ``PeriodMismatch``."""
    rng = random.Random(3204)
    seen = Counter()
    for t in (*random_towers(rng), *map(reference_example, (2, 8))):
        n, periods = t.deepest_period, t.periods
        for p in {*rng.sample(_divisors(n), min(3, len(_divisors(n)))), n + 1, 2 * n, 4}:
            pool = random_positionwise(rng, t.alphabet, 2).perms  # two bijections, so residues often agree
            phi = PositionwisePermutation(t.alphabet, p, [rng.choice(pool) for _ in range(p)])
            try:
                apply_positionwise_permutation(t, phi)
            except CodeError as exc:
                seen["deepest" if "deepest" in str(exc) else "declared"] += 1
            else:
                seen["shallower"] += any(q < p for q in periods)
                seen["divides"] += all(q % p == 0 for q in periods)
            same(apply_positionwise_permutation, old_cells_apply_positionwise_permutation, t, phi)
    assert min(seen.values()) >= 10 and len(seen) == 4, seen
    wrong = PositionwisePermutation.identity(Alphabet(("x", "y")), 5)
    assert not same(apply_positionwise_permutation, old_cells_apply_positionwise_permutation, reference_example(2), wrong)


def test_gcd_agreement_keeps_only_agreed_images():
    """At period 6 a cell of the period-2 level meets residues r, r + 2 and
    r + 4; it keeps its image only when the three permutations agree."""
    t = tower("01", "010101")
    swap, keep = ("1", "0"), ("0", "1")
    phi = PositionwisePermutation(BINARY, 6, (swap, swap, swap, keep, swap, keep))
    got = apply_positionwise_permutation(t, phi)
    assert serialize_tower(got).splitlines()[1:] == ["period 2 = 1 _", "period 6 = 1 0 1 1 1 1"]
    assert same(apply_positionwise_permutation, old_cells_apply_positionwise_permutation, t, phi)


def test_reference_example_matches_the_cell_tuples():
    for k in range(15):
        assert same(reference_example, old_cells_reference_example, k)
    for k in (-1, -5):
        with pytest.raises(ValueError, match="^stages must be nonnegative$"):
            reference_example(k)
