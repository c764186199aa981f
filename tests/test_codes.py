import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepcalc import (
    Alphabet,
    AlphabetMismatch,
    BlockCode,
    CodeError,
    ParseError,
    PositionwisePermutation,
    apply_block_code,
    apply_positionwise_permutation,
    parse_block_code,
    reference_example,
    rotate_tower,
    serialize_block_code,
    validate_tower,
)
from toepcalc.randomgen import random_block_code, random_positionwise, random_tower
from helpers import BINARY, old_apply_block_code, tower


def center_code(radius=1):
    table = {w: w[radius] for w in product(BINARY.symbols, repeat=2 * radius + 1)}
    return BlockCode(BINARY, radius, tuple(table.items()))


def flip_code():
    table = {w: ("1" if w[0] == "0" else "0") for w in product(BINARY.symbols, repeat=1)}
    return BlockCode(BINARY, 0, tuple(table.items()))


def test_block_code_requires_total_table():
    with pytest.raises(CodeError):
        BlockCode(BINARY, 1, ((("0", "0", "0"), "0"),))
    with pytest.raises(CodeError):
        BlockCode(BINARY, 0, ((("0",), "0"), (("0",), "1")))  # duplicate window
    with pytest.raises(CodeError):
        BlockCode(BINARY, 0, ((("0",), "2"), (("1",), "0")))


def test_code_serialization_round_trip():
    code = center_code(1)
    text = serialize_block_code(code)
    back = parse_block_code(text)
    assert back == code
    assert "len = 1" in text.splitlines()[0]


def test_code_over_the_arrow_symbol_round_trips():
    # the separator is the second-to-last token of a row, so '->' may be a symbol
    arrow = Alphabet(("->", "0"))
    for radius in (0, 1):
        code = random_block_code(random.Random(radius), arrow, radius)
        text = serialize_block_code(code)
        assert parse_block_code(text, arrow) == code
        assert parse_block_code(text) == code  # '->' sorts before '0'
    assert dict(parse_block_code("len = 0\n-> -> 0\n0 -> ->\n", arrow).table) == {("->",): "0", ("0",): "->"}
    for row, got in (("0 -> 0 0", 2), ("0 0 ->", 0), ("->", 0)):  # other rows keep their messages
        with pytest.raises(ParseError, match=f"expected one output symbol, got {got} \\(line 2\\)"):
            parse_block_code(f"len = 0\n{row}\n", BINARY)


def test_parse_block_code_errors_carry_location():
    bad = "len = 1\n0 0 0 -> 0\n0 0 1 ->\n"
    with pytest.raises(Exception) as e:
        parse_block_code(bad)
    assert "line" in str(e.value) or getattr(e.value, "line", None) is not None


def test_apply_block_code_margin_semantics():
    # windows crossing a blank stay blank; full windows are coded
    t = reference_example(2)
    out = apply_block_code(t, center_code(1))
    w = out.deepest_word
    blanks = set(t.deepest_word.blank_positions())
    for x in range(20):
        window_blank = any((x + d) % 20 in blanks for d in (-1, 0, 1))
        assert (w.cell(x) is None) == window_blank
    assert out.declared_scale is None  # factor maps do not carry the scale


def test_flip_code_is_positionwise_relabel():
    t = reference_example(1)
    out = apply_block_code(t, flip_code())
    assert out.deepest_word.text() == "1_0_11___1"


def test_apply_block_code_levels_are_certified_skeletons():
    out = apply_block_code(reference_example(2), center_code(1))
    assert out.periods == (5, 10, 20)
    validate_tower(out)
    assert out.levels[0][1].text() == "_____"
    assert out.levels[1][1].text() == "0_1_0_____"


def test_positionwise_requires_bijections():
    with pytest.raises(CodeError):
        PositionwisePermutation(BINARY, 2, (("0", "0"), ("0", "1")))
    with pytest.raises(CodeError):
        PositionwisePermutation(BINARY, 2, (("0", "1"),))


def test_positionwise_identity_and_inverse():
    phi = PositionwisePermutation(BINARY, 3, (("1", "0"), ("0", "1"), ("1", "0")))
    assert phi.image(0, "0") == "1"
    assert phi.image(4, "0") == "0"
    inv = phi.inverse()
    for x in range(6):
        for s in BINARY.symbols:
            assert inv.image(x, phi.image(x, s)) == s
    ident = PositionwisePermutation.identity(BINARY, 3)
    assert all(ident.image(x, s) == s for x in range(3) for s in BINARY.symbols)


def test_positionwise_preserves_structure():
    t = reference_example(2)
    swap = PositionwisePermutation(BINARY, 5, (("1", "0"),) * 5)
    out = apply_positionwise_permutation(t, swap)
    validate_tower(out)
    assert out.declared_scale is t.declared_scale
    assert out.deepest_word.blank_positions() == t.deepest_word.blank_positions()
    assert out.deepest_word.text() == t.deepest_word.text().translate(str.maketrans("01", "10"))


def test_positionwise_uniform_gcd_rule():
    # period-4 family acting on a period-2 level: residue r of the level meets
    # offsets {r, r+2} mod 4, so the cell survives only if those agree
    phi = PositionwisePermutation(BINARY, 4, (("1", "0"), ("0", "1"), ("1", "0"), ("1", "0")))
    t = tower("01", "0101", scale=None)
    out = apply_positionwise_permutation(t, phi)
    assert out.levels[1][1].text() == "1110"
    assert out.levels[0][1].text() == "1_"  # offsets 1 and 3 disagree on '1'


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_positionwise_round_trip(seed):
    # exact only when p divides every level period: no cell is ever blanked
    rng = random.Random(seed)
    t = random_tower(rng)
    p0 = t.periods[0]
    p = rng.choice([d for d in range(1, p0 + 1) if p0 % d == 0])
    phi = random_positionwise(rng, t.alphabet, p)
    out = apply_positionwise_permutation(t, phi)
    validate_tower(out)
    back = apply_positionwise_permutation(out, phi.inverse())
    assert back.levels == t.levels


@given(st.integers(0, 10**9), st.integers(-25, 25))
@settings(max_examples=60)
def test_positionwise_commutes_with_rotation(seed, k):
    rng = random.Random(seed)
    t = random_tower(rng)
    p = rng.choice(t.periods)
    phi = random_positionwise(rng, t.alphabet, p)
    shifted_family = PositionwisePermutation(
        t.alphabet, p, tuple(phi.perms[(u + k) % p] for u in range(p))
    )
    a = rotate_tower(apply_positionwise_permutation(t, phi), k)
    b = apply_positionwise_permutation(rotate_tower(t, k), shifted_family)
    assert a.levels == b.levels


@given(st.integers(0, 10**9), st.integers(0, 2))
@settings(max_examples=40)
def test_block_code_on_full_tower_matches_pointwise(seed, radius):
    rng = random.Random(seed)
    t = random_tower(rng, fill=1.0)
    code = random_block_code(rng, t.alphabet, radius)
    out = apply_block_code(t, code)
    n = t.deepest_period
    w = t.deepest_word
    for x in range(n):
        window = tuple(w.cell(x + d) for d in range(-radius, radius + 1))
        assert out.deepest_word.cell(x) == code.apply(window)


def test_apply_block_code_matches_the_per_cell_slide():
    """The code slid over the tower's encoding against the per-cell slide it
    replaced: random towers with blanks, codes of radius 0-3, windows wider
    than the deepest period, multi-character symbols, reference images."""
    rng = random.Random(2027)
    seen = Counter()
    for _ in range(400):
        symbols = rng.choice((("0", "1"), ("0", "1"), ("a", "bb", "ccc"), ("01", "1", "0")))
        radius = rng.choice((0, 1, 2, 3) if len(symbols) == 2 else (0, 1, 2))
        fill = rng.choice((1.0, 0.8, 0.5, 0.0))
        t = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 5), fill=fill)
        code = random_block_code(rng, t.alphabet, radius)
        assert apply_block_code(t, code) == old_apply_block_code(t, code), (t, code)
        seen["wider than the deepest period"] += 2 * radius + 1 > t.deepest_period
        seen["blank"] += None in t.deepest_word.cells
        seen["multi-character symbols"] += len(symbols) == 3
    for k in range(7):
        image = reference_example(k)
        for radius in (1, 2, 1):  # an image of an image
            code = random_block_code(rng, BINARY, radius)
            image, want = apply_block_code(image, code), old_apply_block_code(image, code)
            assert image == want, (k, code)
    assert min(seen.values()) >= 40, seen
    other = random_tower(rng, ("a", "b"))
    with pytest.raises(AlphabetMismatch):
        apply_block_code(other, center_code())
