"""Positionwise permutations read from agreement tables, and code tables built
in ``product`` order, against the per-cell loop and the keyed sort they
replace (both kept verbatim in tests/helpers.py)."""

import math
import random
import re
from itertools import product

import pytest

from toepcalc import (
    Alphabet,
    BlockCode,
    PositionwisePermutation,
    apply_positionwise_permutation,
    parse_block_code,
    serialize_block_code,
    serialize_tower,
)
from toepcalc.codes import PeriodMismatch
from toepcalc.randomgen import random_positionwise, random_tower
from helpers import old_apply_positionwise_permutation, old_canonical_table

ALPHABETS = (("0", "1"), ("b", "a", "c"), ("01", "->", "x"), tuple(f"s{i}" for i in range(300)))


def pooled_positionwise(rng: random.Random, alphabet: Alphabet, p: int, pool: int) -> PositionwisePermutation:
    """Permutations drawn from ``pool`` random ones, so that residues often agree."""
    perms = [tuple(rng.sample(alphabet.symbols, len(alphabet.symbols))) for _ in range(pool)]
    return PositionwisePermutation(alphabet, p, tuple(rng.choice(perms) for _ in range(p)))


def test_permuted_towers_match_the_per_cell_loop():
    rng = random.Random(24)
    shallow = kept = mismatches = blanks = 0
    for symbols in ALPHABETS:
        for _ in range(6 if len(symbols) > 3 else 25):
            t = random_tower(
                rng, symbols, depth=rng.choice((1, 2, 3)), base_periods=(2, 3, 4, 6),
                multipliers=(2, 3), fill=0.7, with_scale=rng.random() < 0.5,
            )
            for p in (d for d in range(1, t.deepest_period + 1) if t.deepest_period % d == 0):
                phis = [random_positionwise(rng, t.alphabet, p)]
                phis += [pooled_positionwise(rng, t.alphabet, p, pool) for pool in (1, 2)]
                for phi in phis:
                    try:
                        want = old_apply_positionwise_permutation(t, phi)
                    except PeriodMismatch as exc:
                        with pytest.raises(PeriodMismatch, match=f"^{re.escape(str(exc))}$"):
                            apply_positionwise_permutation(t, phi)
                        mismatches += 1
                        continue
                    got = apply_positionwise_permutation(t, phi)
                    assert got == want, (t, phi)
                    assert serialize_tower(got) == serialize_tower(want)
                    blanks += None in t.deepest_word.cells
                    for q, w in got.levels:
                        if q < p and math.gcd(q, p) < q:
                            shallow += 1
                            kept += sum(c is not None for c in w.cells)
    # levels below p whose gcd with p is a proper divisor were reached, some of
    # their cells kept a value (the permutations agreed), towers had blanks,
    # and periods that p does not divide raised
    assert min(shallow, kept, mismatches, blanks) > 50, (shallow, kept, mismatches, blanks)


@pytest.mark.parametrize("radius", (0, 1, 2))
@pytest.mark.parametrize("symbols", (("1", "0"), ("b", "01", "a"), ("->", "z", "01", "a")))
def test_code_tables_match_the_sorted_rows(radius, symbols):
    # the alphabet is not in sorted order, so product order is rank order, not string order
    rng = random.Random(f"{radius} {symbols}")
    alphabet = Alphabet(symbols)
    for _ in range(3):
        mapping = {w: rng.choice(symbols) for w in product(symbols, repeat=2 * radius + 1)}
        rows = [(list(w) if rng.random() < 0.5 else w, out) for w, out in mapping.items()]
        rng.shuffle(rows)
        code = BlockCode(alphabet, radius, tuple(rows))
        sorted_rows = old_canonical_table(alphabet, mapping)
        assert code.table == sorted_rows
        assert all(type(w) is tuple for w, _ in code.table)
        for w, out in mapping.items():
            assert code.apply(w) == code.apply(list(w)) == out
        text = serialize_block_code(code)
        assert text == f"len = {radius}\n" + "".join(f"{' '.join(w)} -> {out}\n" for w, out in sorted_rows)
        assert parse_block_code(text, alphabet) == code
        shuffled = f"len = {radius}\n" + "".join(f"{' '.join(w)} -> {out}\n" for w, out in rows)
        assert serialize_block_code(parse_block_code(shuffled, alphabet)) == text
