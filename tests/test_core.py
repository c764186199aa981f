import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toepcalc import (
    Alphabet,
    AlphabetError,
    ConsistencyError,
    DivisibilityError,
    PartialCyclicWord,
    SkeletonTower,
    TowerError,
    rotate_tower,
    symbol_at,
    validate_tower,
)
from helpers import BINARY, tower


def test_alphabet_rejects_degenerate():
    with pytest.raises(AlphabetError):
        Alphabet(("0",))
    with pytest.raises(AlphabetError):
        Alphabet(("0", "0"))
    with pytest.raises(AlphabetError):
        Alphabet(("0", "_"))
    with pytest.raises(AlphabetError):
        Alphabet(("a", "b c"))


def test_alphabet_size_is_bounded_by_the_cell_encoding():
    # a tower encodes symbol i as code point i + 1, so 0x10FFFF symbols is the most; the size is
    # checked before the symbols, so the repeated symbol below is never reached when too many
    with pytest.raises(AlphabetError, match="at most 1114111 symbols"):
        Alphabet(("0",) * 0x110000)
    with pytest.raises(AlphabetError, match="duplicate"):
        Alphabet(("0",) * 0x10FFFF)


def test_word_round_trip_and_cells():
    w = PartialCyclicWord.from_text("0_1_0")
    assert w.period == 5
    assert w.cells == ("0", None, "1", None, "0")
    assert w.cell(7) == "1"
    assert w.cell(-4) == None  # noqa: E711  (cell, not status)
    assert w.text() == "0_1_0"
    assert not w.is_complete
    assert w.blank_positions() == (1, 3)
    assert w.filled_positions() == (0, 2, 4)


def test_word_rotation_convention():
    # rotated(k)(x) = w(x + k)
    w = PartialCyclicWord.from_text("01_")
    assert w.rotated(1).text() == "1_0"
    assert w.rotated(-1).text() == "_01"
    assert w.rotated(3).text() == w.text()


def test_word_repeated():
    w = PartialCyclicWord.from_text("0_")
    assert w.repeated(3).text() == "0_0_0_"


@given(st.text(alphabet="01_", min_size=1, max_size=30), st.integers(-60, 60))
def test_rotation_pointwise(text, k):
    w = PartialCyclicWord.from_text(text)
    r = w.rotated(k)
    assert all(r.cell(x) == w.cell(x + k) for x in range(w.period))


def test_tower_validation_catches_mismatches():
    with pytest.raises(DivisibilityError):
        tower("01", "010")  # 2 does not divide 3
    with pytest.raises(ConsistencyError):
        tower("01", "0100")  # cell 3 contradicts cell 1
    with pytest.raises(TowerError):
        SkeletonTower(BINARY, ())
    with pytest.raises(AlphabetError):
        tower("02")
    # blanks may refine to symbols going deeper, never the reverse
    t = tower("0_", "0100")
    validate_tower(t)
    with pytest.raises(ConsistencyError):
        tower("01", "0_01")


def old_consistency_check(tower):
    """``validate_tower``'s adjacent-level check as it was, one ``cell`` call
    per deep cell, verbatim."""
    for level, ((p, shallow), (q, deep)) in enumerate(zip(tower.levels, tower.levels[1:]), start=1):
        for x in range(q):
            s = shallow.cell(x)
            if s is not None and deep.cells[x] != s:
                raise ConsistencyError(
                    p, q, x, f"{s!r} above, {deep.cells[x]!r} below", level
                )


def test_consistency_check_matches_the_cell_by_cell_loop():
    """Seeded towers with valid geometry whose deeper levels refine, blank or
    overwrite cells of the level above: the same first error, or none."""
    rng = random.Random(20261018)
    alphabet = Alphabet(("0", "1", "01"))
    outcomes = set()
    for _ in range(400):
        p = rng.randint(1, 6)
        cells = [rng.choice((None, *alphabet)) for _ in range(p)]
        levels = [(p, PartialCyclicWord(cells))]
        for _ in range(rng.randint(1, 3)):
            mult = rng.randint(2, 3)
            p *= mult
            cells = [
                c if c is not None and rng.random() < 0.97 else rng.choice((None, *alphabet)) for c in cells * mult
            ]
            levels.append((p, PartialCyclicWord(cells)))
        try:
            old_consistency_check(SimpleNamespace(levels=levels))
            expected = None
        except ConsistencyError as exc:
            expected = (str(exc), exc.level, exc.position, exc.shallow_period, exc.deep_period, exc.index)
        try:
            SkeletonTower(alphabet, tuple(levels))
            got = None
        except ConsistencyError as exc:
            got = (str(exc), exc.level, exc.position, exc.shallow_period, exc.deep_period, exc.index)
        assert got == expected
        outcomes.add(None if got is None else (got[1] > 1, "None" in got[0]))  # a deeper level, a blank below
    assert len(outcomes) == 5, outcomes


def test_tower_accessors():
    t = tower("0_", "010_")
    assert t.periods == (2, 4)
    assert t.deepest_period == 4
    assert t.deepest_word.text() == "010_"
    assert symbol_at(t, 0) == "0"
    assert symbol_at(t, 7) is None
    assert symbol_at(t, -3) == "1"


def test_rotate_tower_rotates_all_levels():
    t = tower("0_", "010_", scale="2^inf")
    r = rotate_tower(t, 1)
    assert r.levels[0][1].text() == "_0"
    assert r.levels[1][1].text() == "10_0"
    assert r.declared_scale is t.declared_scale  # conjugacy keeps the scale
    assert rotate_tower(r, -1).levels == t.levels


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_rotate_tower_composes(j, k):
    t = tower("0_", "010_")
    a = rotate_tower(rotate_tower(t, j), k)
    b = rotate_tower(t, j + k)
    assert a.levels == b.levels
