"""Seeded random instances for stress tests.

All generators take an explicit ``random.Random`` so callers own the seed.
``deepen`` refines a tower by one level; it never completes a residue class
that the old deepest word had declared blank to a constant, so declared holes
may relax to Unknown but never flip to In.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .codes import BlockCode, PositionwisePermutation, Window
from .core import Alphabet, PartialCyclicWord, SkeletonTower
from .odometer import INF, SupernaturalNumber, divides


def _refine(
    rng: random.Random, cells: Sequence[Optional[str]], multiplier: int, fill: float, symbols: Sequence[str]
) -> list[Optional[str]]:
    """``cells`` repeated ``multiplier`` times, each blank filled with a
    random symbol with probability ``fill``, one cell at a time."""
    deeper: list[Optional[str]] = []
    for c in cells * multiplier:
        if c is None and rng.random() < fill:
            c = rng.choice(symbols)
        deeper.append(c)
    return deeper


def random_tower(
    rng: random.Random,
    symbols: Sequence[str] = ("0", "1"),
    depth: int = 2,
    base_periods: Sequence[int] = (2, 3, 4, 5),
    multipliers: Sequence[int] = (2, 3),
    fill: float = 0.7,
    with_scale: bool = False,
) -> SkeletonTower:
    alphabet = Alphabet(tuple(symbols))
    p = rng.choice(list(base_periods))
    cells: list[Optional[str]] = [
        rng.choice(alphabet.symbols) if rng.random() < fill else None for _ in range(p)
    ]
    levels = [(p, PartialCyclicWord(tuple(cells)))]
    for _ in range(depth - 1):
        mult = rng.choice(list(multipliers))
        p *= mult
        cells = _refine(rng, cells, mult, fill, alphabet.symbols)
        levels.append((p, PartialCyclicWord(tuple(cells))))
    scale = None
    if with_scale:
        scale = SupernaturalNumber.from_int(p)
        if scale.factors and rng.random() < 0.5:
            first = scale.factors[0][0]
            rest = scale.factors[1:]
            scale = SupernaturalNumber(((first, INF), *rest))
    return SkeletonTower(alphabet, tuple(levels), scale)


def deepen(
    rng: random.Random,
    tower: SkeletonTower,
    multiplier: int = 2,
    fill: float = 0.5,
) -> SkeletonTower:
    if multiplier < 2:
        raise ValueError("multiplier must be at least 2")
    n = tower.deepest_period
    old = tower.deepest_word.cells
    new = _refine(rng, old, multiplier, fill, tower.alphabet.symbols)
    for r in range(n):
        if old[r] is not None:
            continue
        spots = [r + j * n for j in range(multiplier)]
        values = {new[x] for x in spots}
        if None not in values and len(values) == 1:
            new[rng.choice(spots)] = None
    scale = tower.declared_scale
    if scale is not None and not divides(n * multiplier, scale):
        scale = None
    level = (n * multiplier, PartialCyclicWord(tuple(new)))
    return SkeletonTower(tower.alphabet, (*tower.levels, level), scale)


def random_positionwise(
    rng: random.Random, alphabet: Alphabet, p: int
) -> PositionwisePermutation:
    perms = tuple(
        tuple(rng.sample(alphabet.symbols, len(alphabet.symbols))) for _ in range(p)
    )
    return PositionwisePermutation(alphabet, p, perms)


def random_block_code(rng: random.Random, alphabet: Alphabet, radius: int) -> BlockCode:
    from itertools import product

    table: dict[Window, str] = {
        w: rng.choice(alphabet.symbols)
        for w in product(alphabet.symbols, repeat=2 * radius + 1)
    }
    return BlockCode(alphabet, radius, tuple(table.items()))
