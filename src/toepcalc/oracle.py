"""Exact ground truth on fully periodic words.

Everything here is exact and independent of the skeleton machinery: residue
sets by direct comparison, conjugacy by solving for sliding block code
tables.  An image word forces the one table that could produce it, so a
search solves at most one table per rotation of its target and radius
instead of trying every table; binary words of period 24 with 24 distinct
radius-2 windows search in milliseconds.  The library imposes no limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product, repeat
from math import gcd, lcm
from typing import Optional

from .codes import AlphabetMismatch, BlockCode, Window
from .core import Alphabet, AlphabetError, PartialCyclicWord
from .skeleton import NonDivisorError


@dataclass(frozen=True)
class PeriodicWord:
    alphabet: Alphabet
    cells: tuple[str, ...]
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # see exact_conjugacy_search

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))  # a str or list of cells is held as the tuple
        if not self.cells:
            raise ValueError("periodic word must be nonempty")
        if not set(self.cells).issubset(self.alphabet.symbols):  # then name the first bad cell
            raise AlphabetError(f"symbol {next(c for c in self.cells if c not in self.alphabet)!r} not in alphabet")

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str) -> "PeriodicWord":
        return cls(alphabet, text)

    def __reduce__(self):  # rebuilt from its cells: the facts start empty
        return type(self), (self.alphabet, self.cells)

    @property
    def period(self) -> int:
        return len(self.cells)

    def cell(self, i: int) -> str:
        return self.cells[i % len(self.cells)]


def _per_residues(word: PeriodicWord, modulus: int) -> frozenset[int]:
    n = word.period
    g = gcd(modulus, n)
    return frozenset(
        r
        for r in range(modulus)
        if len({word.cells[i] for i in range(r % g, n, g)}) == 1
    )


@dataclass(frozen=True)
class ExactAnalysis:
    per_residues: frozenset[int]
    skeleton: PartialCyclicWord
    essential: bool


def exact_periodic_analysis(word: PeriodicWord, p: int) -> ExactAnalysis:
    """Residues of the exact p-periodic part, the exact p-skeleton, and
    whether p is an essential period (nonempty part differing, as a set of
    integers, from every Per_q with q < p)."""
    n = word.period
    if p < 1 or n % p:
        raise NonDivisorError(f"{p} does not divide the period {n}")
    per = _per_residues(word, p)
    skeleton = PartialCyclicWord(
        tuple(word.cells[r] if r in per else None for r in range(p))
    )
    essential = bool(per)
    if essential:
        for g in {gcd(q, n) for q in range(1, p)}:  # Per_q is Per_g as a set of integers
            per_g = _per_residues(word, g)
            if all((x % g in per_g) == (x % p in per) for x in range(lcm(g, p))):
                essential = False
                break
    return ExactAnalysis(per, skeleton, essential)


@dataclass(frozen=True)
class SearchWitness:
    forward: BlockCode
    backward: BlockCode
    shift: int


def _window_index(word: PeriodicWord, m: int) -> tuple[tuple[Window, ...], tuple[int, ...]]:
    """The sorted occurring radius-m windows of word, and for each position
    the index of its window in that tuple; kept on the word under m."""
    if m not in word._facts:
        n, width = word.period, 2 * m + 1
        start = -m % n  # position x's window is tiled[start + x : start + x + width]
        tiled = word.cells * ((start + n + width) // n + 1)
        at = [tiled[x : x + width] for x in range(start, start + n)]
        windows = tuple(sorted(set(at)))
        number = {window: i for i, window in enumerate(windows)}
        word._facts[m] = windows, tuple(map(number.__getitem__, at))
    return word._facts[m]


def _forced(index: tuple[int, ...], y: tuple[str, ...]) -> Optional[tuple[str, ...]]:
    """The values, by window number, of the one table that maps the word
    numbered by ``index`` onto ``y``, or None when two positions with one
    window carry different symbols of ``y``."""
    values = dict(zip(index, y))
    if tuple(map(values.__getitem__, index)) != y:
        return None
    return tuple(map(values.__getitem__, range(len(values))))


def _full_code(alphabet: Alphabet, m: int, table: dict[Window, str]) -> BlockCode:
    windows = tuple(product(alphabet.symbols, repeat=2 * m + 1))
    return BlockCode(alphabet, m, tuple(zip(windows, map(table.get, windows, repeat(alphabet.symbols[0])))))


def exact_conjugacy_search(
    v: PeriodicWord, w: PeriodicWord, max_radius: int
) -> Optional[SearchWitness]:
    """Exact search for a conjugacy between the orbits of v and w.

    A radius-m table is a function on the occurring windows of its source,
    so an image word y forces it, and it exists iff all positions with one
    window carry one symbol of y.  The forward images are the period-n words
    y (n = v.period) whose tiling is a rotation of w's; the shift is the
    least one rotating w's tiling onto y's.  The order is fixed: radius
    ascending, then forward tables in lexicographic order over the sorted
    occurring windows of v (values ranked in alphabet order).  The first
    forward table whose image has a backward table restoring v exactly is
    returned with the backward table of least radius, both completed to
    total codes (unused windows map to the first symbol).  Returns None when
    every radius up to max_radius is exhausted.  Radii past n // 2 (g // 2
    backward; w has period g, below) are skipped: a window as wide as a period
    numbers the positions by residue modulo the least period, as wider ones do.

    Cost: a period-n rotation of w's tiling also has period w.period, so
    period g = gcd(n, w.period), and so has w; else None at once.  The images
    are the g rotations of w's root tiled to n, O(g·n), with least shifts
    below g: a rotation class, named by its least member.  The order depends
    only on the class and an inverse only on its image, so v keeps the chosen
    image and both codes (or None) under (least image, min(max_radius, n // 2)),
    at most n // 2 + 1 per rotation class of period-n words; only the shift is
    w's.  A solve forces each image's table per radius m, O(n), and searches
    each image backward at most once, O(n) per radius m <= g // 2; a word keeps
    its numbered windows per radius m up to the deciding one, O(period·(2m+1)).
    The facts are not pickled or compared.
    """
    if v.alphabet != w.alphabet:
        raise AlphabetMismatch("words use different alphabets")
    n, g = v.period, gcd(v.period, w.period)
    if w.cells != w.cells[:g] * (w.period // g):
        return None
    images: dict[tuple[str, ...], int] = {}  # each image to its least shift
    for shift in range(g):
        images.setdefault((w.cells[shift:g] + w.cells[:shift]) * (n // g), shift)
    key = min(images), max_radius if max_radius < n // 2 else n // 2  # min(max_radius, n // 2), without a call
    if key not in v._facts:
        v._facts[key] = _solve(v, w, images, key[1])
    found = v._facts[key]  # (chosen image, forward code, backward code) or None
    return None if found is None else SearchWitness(found[1], found[2], images[found[0]])


def _solve(v: PeriodicWord, w: PeriodicWord, images: dict, max_radius: int) -> Optional[tuple]:
    """The search over ``images`` up to ``max_radius`` <= v.period // 2, dropping each that fails backward."""
    rank = {s: i for i, s in enumerate(v.alphabet.symbols)}
    for m in range(max_radius + 1):
        if not images:
            break
        windows, index = _window_index(v, m)
        tables = []
        for y_cells, shift in images.items():
            values = _forced(index, y_cells)
            if values is not None:
                tables.append((tuple(map(rank.__getitem__, values)), values, y_cells, shift))
        tables.sort()  # distinct images force distinct tables: the ranks decide
        for _, values, y_cells, shift in tables:
            back = _inverse_search(w, shift, v, max_radius)
            if back is not None:
                return y_cells, _full_code(v.alphabet, m, dict(zip(windows, values))), back
            del images[y_cells]
    return None


def _inverse_search(w: PeriodicWord, shift: int, v: PeriodicWord, max_radius: int) -> Optional[BlockCode]:
    """The table of least radius mapping the image y of w at ``shift`` onto v
    exactly, completed to a total code, of radius <= g // 2.  y is w's tiling rotated by the
    shift: it has w's windows, and w's index (period g) so rotated and tiled is y's."""
    g = gcd(v.period, w.period)
    for m in range(min(max_radius, g // 2) + 1):
        windows, index = _window_index(w, m)
        values = _forced((index[shift:g] + index[:shift]) * (v.period // g), v.cells)
        if values is not None:
            return _full_code(v.alphabet, m, dict(zip(windows, values)))
    return None
