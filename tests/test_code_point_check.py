"""Differential and count tests of the check of code-point levels.

Every tower the package derives from another (rotations, code images,
positionwise permutations, common-depth padding, the built-in example and
unpickled towers) hands ``_check_levels`` each level as a ``str`` of code
points, which one ``str.translate`` checks against the alphabet.  The check
that looked each code point up in an identity table by one ``itemgetter`` is
kept verbatim in ``helpers`` as ``old_identity_encoded``: both must build the
same code points and bit planes, or raise the same error at the same level and
cell.  The count guard requires that towers built from code points make no
per-cell lookup, while tower files and the public constructor still make one
per level.
"""

import pickle
import random
import sys

import pytest

from toepcalc import (
    Alphabet,
    PositionwisePermutation,
    SkeletonTower,
    TowerError,
    apply_block_code,
    apply_positionwise_permutation,
    parse_block_code,
    parse_tower_text,
    reference_example,
    rotate_tower,
    serialize_tower,
    validate_tower,
    with_common_depth,
)
from toepcalc import core
from toepcalc.cli import run_command
from helpers import old_identity_encoded

# 2 and 3 symbols stay in the ASCII fast path of str.translate; 130 and 300 pass it and Latin-1
ALPHABETS = {k: Alphabet(("0", "1") if k == 2 else ("a", "b", "c") if k == 3 else tuple(f"s{i}" for i in range(k)))
             for k in (2, 3, 130, 300)}
CHAINS = ((1, 3, 12, 48), (4, 8, 40), (6,))


def levels_of(rng: random.Random, k: int, periods) -> list[tuple[int, str]]:
    """Consistent code-point levels over ``k`` symbols: each level repeats the filled cells above it."""
    levels, above = [], "\0"
    for p in periods:
        fresh = ("\0" if rng.random() < 0.3 else chr(rng.randint(1, k)) for _ in range(p))
        above = "".join(c if c != "\0" else f for c, f in zip(above * (p // len(above)), fresh))
        levels.append((p, above))
    return levels


def agree(alphabet: Alphabet, levels, scale=None):
    """The old check's error, which the new one raises alike, or None when both build the same tower."""
    try:
        want = old_identity_encoded(alphabet, levels, scale)
    except TowerError as exc:
        with pytest.raises(TowerError) as got:
            SkeletonTower._encoded(alphabet, levels, scale)
        assert type(got.value) is type(exc), levels
        assert (str(got.value), got.value.level, got.value.position) == (str(exc), exc.level, exc.position)
        return exc
    got = SkeletonTower._encoded(alphabet, levels, scale)
    assert (got._periods, got._pieces, got._text) == (want._periods, want._pieces, want._text)
    assert got._planes == want._planes and got == want
    return None


@pytest.mark.parametrize("k", ALPHABETS)
def test_valid_code_points_build_the_old_tower(k):
    rng = random.Random(k)
    for chain in CHAINS:
        for _ in range(20):
            assert agree(ALPHABETS[k], levels_of(rng, k, chain)) is None
    top = [(2, chr(k) + "\0"), (4, chr(k) + "\1" + chr(k) + "\0")]  # the last symbol's code point
    assert agree(ALPHABETS[k], top) is None


@pytest.mark.parametrize("k", ALPHABETS)
def test_a_bad_code_point_is_named_as_before(k):
    rng = random.Random(k + 1)
    for chain in CHAINS:
        levels = levels_of(rng, k, chain)
        for bad in (k + 1, 127, 128, 255, 256, 0xD800, 0x10FFFF):  # a lone surrogate among them
            for level, (p, piece) in enumerate(levels):  # shallow levels and the deepest
                for i in sorted({0, p // 2, p - 1}):
                    changed = [*levels]
                    changed[level] = (p, piece[:i] + chr(bad) + piece[i + 1 :])
                    exc = agree(ALPHABETS[k], changed)
                    if bad > k:  # a code point past the alphabet's is no symbol: the first bad cell is named
                        assert (type(exc), exc.level, exc.position) == (core.AlphabetError, level, i)
                        assert str(exc) == f"symbol {chr(bad)!r} not in alphabet"
                if p > 2:  # two bad cells: the first is named
                    changed = [*levels]
                    changed[level] = (p, piece[: p // 2] + chr(k + 1) + piece[p // 2 + 1 : -1] + chr(bad))
                    exc = agree(ALPHABETS[k], changed)
                    assert (exc.level, exc.position) == (level, p // 2)


def test_towers_built_from_code_points_look_up_no_cell(monkeypatch, tmp_path):
    t = reference_example(9)
    text, levels = serialize_tower(t), t.levels
    code = parse_block_code("len = 1\n0 0 0 -> 0\n0 0 1 -> 1\n0 1 0 -> 1\n0 1 1 -> 1\n"
                            "1 0 0 -> 0\n1 0 1 -> 0\n1 1 0 -> 1\n1 1 1 -> 0\n", t.alphabet)
    phi = PositionwisePermutation(t.alphabet, 5, (("1", "0"), ("0", "1"), ("0", "1"), ("1", "0"), ("0", "1")))
    (tmp_path / "a.tw").write_text(text)
    lookups, real = [], core.itemgetter

    def counted(*keys):  # the keys of each itemgetter that _check_levels makes; the writer's are not counted
        if sys._getframe(1).f_code is core._check_levels.__code__:
            lookups.append(len(keys))
        return real(*keys)

    monkeypatch.setattr(core, "itemgetter", counted)
    u = parse_tower_text(text)
    assert lookups == [*t.periods]  # tokens: one lookup per level, one key per cell
    lookups.clear()
    rotate_tower(u, 7), apply_positionwise_permutation(u, phi), apply_block_code(u, code), reference_example(9)
    assert pickle.loads(pickle.dumps(u)) == u and with_common_depth(reference_example(7), u)[1] is u
    validate_tower(u)
    assert run_command(["generate", "paper-example", "--stages", "9", "-o", str(tmp_path / "b.tw")])[0] == 0
    assert lookups == []
    assert run_command(["rotate", str(tmp_path / "a.tw"), "-k", "7", "-o", str(tmp_path / "c.tw")])[0] == 0
    assert lookups == [*t.periods]  # the file's, and none for the rotation
    lookups.clear()
    SkeletonTower(t.alphabet, levels, t.declared_scale)
    assert lookups == [*t.periods]  # cell tuples: one lookup per level
