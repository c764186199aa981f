import dataclasses
import pickle
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
    ScaleError,
    SkeletonTower,
    SupernaturalNumber,
    TowerError,
    parse_tower_text,
    rotate_tower,
    serialize_tower,
    symbol_at,
    validate_tower,
)
from helpers import BINARY, old_planes, old_text, old_validate_tower, tower


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


def _refined_levels(rng: random.Random, symbols) -> list:
    """A seeded chain of 2 to 4 levels whose deeper levels refine, blank or
    overwrite cells of the level above."""
    p = rng.randint(1, 6)
    cells = [rng.choice((None, *symbols)) for _ in range(p)]
    levels = [(p, PartialCyclicWord(cells))]
    for _ in range(rng.randint(1, 3)):
        mult = rng.randint(2, 3)
        p *= mult
        cells = [c if c is not None and rng.random() < 0.97 else rng.choice((None, *symbols)) for c in cells * mult]
        levels.append((p, PartialCyclicWord(cells)))
    return levels


def _first_error(check, *args):
    """What ``check`` raises, as the fields a caller can read, or None."""
    try:
        check(*args)
    except TowerError as exc:
        detail = getattr(exc, "shallow_period", None), getattr(exc, "index", None)
        return type(exc), str(exc), exc.level, exc.position, *detail
    return None


def _assert_validates_as_before(alphabet, levels, scale=None):
    """The same first error as the old ``validate_tower``, or none and the
    old encoding of the deepest word in ``_text`` and ``_planes``."""
    expected = _first_error(old_validate_tower, SimpleNamespace(alphabet=alphabet, levels=levels, declared_scale=scale))
    built = []
    assert _first_error(lambda: built.append(SkeletonTower(alphabet, tuple(levels), scale))) == expected
    for t in built:
        assert t._text == old_text(t) and t._planes == old_planes(t)
    return expected


def test_consistency_check_matches_the_cell_by_cell_loop():
    """Seeded towers with valid geometry whose deeper levels refine, blank or
    overwrite cells of the level above: the same first error, or none."""
    rng = random.Random(20261018)
    alphabet = Alphabet(("0", "1", "01"))
    outcomes = set()
    for _ in range(400):
        levels = _refined_levels(rng, alphabet)
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
        _assert_validates_as_before(alphabet, levels)
        outcomes.add(None if got is None else (got[1] > 1, "None" in got[0]))  # a deeper level, a blank below
    assert len(outcomes) == 5, outcomes
    # 300 symbols take 9 bit planes; 70000 reach past the BMP, drawn here near
    # the surrogate code points, the BMP's end and the last symbol
    big = Alphabet(tuple(f"s{i}" for i in range(70000)))
    small = Alphabet(tuple(f"s{i}" for i in range(300)))
    pools = {
        small: ([small.symbols[i] for i in (0, 1, 254, 255, 256, 299)], 200),
        big: ([big.symbols[i] for i in (0, 1, 0xD7FE, 0xD7FF, 0xDBFF, 0xDFFE, 0xDFFF, 0xFFFE, 0xFFFF, 69999)], 80),
    }
    for alphabet, (pool, count) in pools.items():
        outcomes = set()
        for _ in range(count):
            got = _assert_validates_as_before(alphabet, _refined_levels(rng, pool))
            outcomes.add(None if got is None else (got[2] > 1, "None" in got[1]))
        assert len(outcomes) == 5, outcomes


def test_two_defects_give_the_old_first_error():
    """Two defects on different levels of a seeded valid tower, with or
    without a declared scale that stops short: the old first error."""
    rng = random.Random(20261019)
    alphabet = Alphabet(("0", "1", "01"))

    def defect(levels, kind, level, valid):
        p, w = levels[level]
        cells = list(w.cells)
        x = rng.randrange(p)
        if kind == "symbol":
            cells[x] = "2"
        elif kind == "period":
            p += 1
        elif kind == "count":
            cells.append(cells[x])
        elif kind == "period first":
            p = rng.choice((0, -p, float(p)))
        else:  # a filled cell above overwritten or blanked below
            q, above = valid[level - 1]
            filled = [y for y in range(p) if above.cells[y % q] is not None]
            if not filled:
                return
            x = rng.choice(filled)
            cells[x] = None if kind == "blank" else next(s for s in alphabet if s != cells[x])
        levels[level] = (p, PartialCyclicWord(cells))

    kinds = set()
    for _ in range(600):
        levels = _refined_levels(rng, alphabet)
        for level in range(1, len(levels)):  # undo the overwrites: a valid tower
            (q, above), (p, w) = levels[level - 1], levels[level]
            levels[level] = (p, PartialCyclicWord(tuple(above.cells[x % q] or w.cells[x] for x in range(p))))
        valid = list(levels)
        for level in rng.sample(range(len(levels)), 2) if len(levels) > 2 else range(len(levels)):
            kind = rng.choice(("symbol", "period", "count", "period first") + ("overwrite", "blank") * (level > 0))
            defect(levels, kind, level, valid)
        scale = None
        if rng.random() < 0.3:
            periods = [p for p, _ in levels if isinstance(p, int) and p > 0]
            scale = SupernaturalNumber.from_int(rng.choice(periods or [1]))
        got = _assert_validates_as_before(alphabet, levels, scale)
        kinds.add(None if got is None else (got[0].__name__, got[2]))
    assert len(kinds) == 10, kinds  # the 3 kinds of per-level error on any level, consistency on levels 1 and 2
    # per-level rules first, level by level; then consistency, shallowest first; then the scale
    w = PartialCyclicWord.from_text
    cases = {
        ((2, w("02")), (3, w("010"))): (AlphabetError, 0),  # a bad symbol above a bad period
        ((1, w("0")), (2, w("01")), (4, w("0120"))): (AlphabetError, 2),  # above an inconsistent level
        ((1, w("0")), (2, w("01")), (4, w("1011"))): (ConsistencyError, 1),  # two inconsistent levels
        ((1, w("_")), (2, w("0_")), (6, w("001010"))): (ConsistencyError, 2),  # ... before a scale of 2
        ((1, w("_")), (2, w("0_")), (6, w("000000"))): (ScaleError, 2),
        ((3, w("0__")), (6, w("01_0__"))): (ScaleError, 0),  # the first level whose period does not divide 2
    }
    for levels, first in cases.items():
        got = _assert_validates_as_before(alphabet, list(levels), SupernaturalNumber.from_int(2))
        assert (got[0], got[2]) == first


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


SURFACE_REPR = (  # the dataclass repr of the three public fields
    "SkeletonTower(alphabet=Alphabet(symbols=('0', '1')), levels=((2, PartialCyclicWord(cells=('0', None))), "
    "(6, PartialCyclicWord(cells=('0', '1', '0', None, '0', '1')))), "
    "declared_scale=SupernaturalNumber(factors=((2, 1), (3, inf))))"
)


def test_a_tower_keeps_its_dataclass_surface():
    levels = ((2, PartialCyclicWord(("0", None))), (6, PartialCyclicWord(("0", "1", "0", None, "0", "1"))))
    public = SkeletonTower(BINARY, levels, SupernaturalNumber.parse("2 * 3^inf"))
    parsed = parse_tower_text(serialize_tower(public))
    built = rotate_tower(rotate_tower(public, 5), 1)
    unscaled = SkeletonTower(BINARY, levels)
    for t in (public, parsed, built):
        state = dict(vars(t))
        for name in ("alphabet", "levels", "declared_scale", "_status", "_periods", "_pieces", "_text", "_planes",
                     "_hash", "periods", "deepest_word", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)
        assert vars(t) == state
        names = [f.name for f in dataclasses.fields(t)]
        assert names == ["alphabet", "levels", "declared_scale", "_status"]
        assert [f.name for f in dataclasses.fields(t) if f.init and f.repr] == names[:3]
        assert dataclasses.replace(t, declared_scale=None) == unscaled and dataclasses.replace(t) == public
        assert repr(t) == SURFACE_REPR and hash(t) == hash(public) and t == public and t.levels == levels


def test_a_tower_equals_no_other_type():
    t = tower("0_", "010_")
    assert (t == "x") is False and (t != 0) is True
    assert t.__eq__(object()) is NotImplemented  # the other operand decides
    assert t in [1, "x", t] and t not in [1, "x", "0_010_"]


def test_an_alphabet_pickles_as_its_symbols():
    wide = Alphabet(tuple(f"s{i}" for i in range(70000)))  # code points past the surrogates
    data = pickle.dumps(wide)
    assert len(data) < len(pickle.dumps(wide.symbols)) + 100  # 2.79 MB with the code tables, 0.62 MB without
    loaded = pickle.loads(data)
    assert loaded == wide and loaded is not wide
    assert (loaded._code, loaded._decode, loaded._erase) == (wide._code, wide._decode, wide._erase)
    t = SkeletonTower(wide, ((3, PartialCyclicWord(("s69999", None, "s55295"))),))
    u = pickle.loads(pickle.dumps(t))
    assert u == t and u.alphabet._decode == wide._decode and u._pieces == t._pieces and u.levels == t.levels
    twice = pickle.loads(pickle.dumps([t, rotate_tower(t, 1)]))
    assert twice[0].alphabet is twice[1].alphabet  # one alphabet per pickle
    bad = Alphabet(BINARY.symbols)
    object.__setattr__(bad, "symbols", ("0", "0"))
    with pytest.raises(AlphabetError, match="duplicate symbol '0'"):  # the symbols are checked on load
        pickle.loads(pickle.dumps(bad))
