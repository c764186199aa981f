"""Brute-force ground truth on fully periodic words.

Everything here is exact and exhaustive: residue sets by direct comparison,
conjugacy by enumerating sliding block code tables.  Intended for small
instances (tests cap the radius at 2 and the period at 16); the library
itself imposes no limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm
from typing import Optional

from .codes import AlphabetMismatch, BlockCode, Window
from .core import Alphabet, AlphabetError, PartialCyclicWord
from .skeleton import NonDivisorError


@dataclass(frozen=True)
class PeriodicWord:
    alphabet: Alphabet
    cells: tuple[str, ...]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("periodic word must be nonempty")
        for c in self.cells:
            if c not in self.alphabet:
                raise AlphabetError(f"symbol {c!r} not in alphabet")

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str) -> "PeriodicWord":
        return cls(alphabet, tuple(text))

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
        for q in range(1, p):
            g = gcd(q, n)
            per_g = _per_residues(word, g)
            window = lcm(g, p)
            if all((x % g in per_g) == (x % p in per) for x in range(window)):
                essential = False
                break
    return ExactAnalysis(per, skeleton, essential)


@dataclass(frozen=True)
class SearchWitness:
    forward: BlockCode
    backward: BlockCode
    shift: int


def _window_index(word: PeriodicWord, m: int) -> tuple[list[Window], tuple[int, ...]]:
    """The sorted occurring radius-m windows of word, and for each position
    the index of its window in that list."""
    n, cells = word.period, word.cells
    at = [tuple(cells[(x + d) % n] for d in range(-m, m + 1)) for x in range(n)]
    windows = sorted(set(at))
    number = {window: i for i, window in enumerate(windows)}
    return windows, tuple(number[window] for window in at)


def _full_code(alphabet: Alphabet, m: int, table: dict[Window, str]) -> BlockCode:
    filler = alphabet.symbols[0]
    entries = {
        w: table.get(w, filler) for w in product(alphabet.symbols, repeat=2 * m + 1)
    }
    return BlockCode(alphabet, m, tuple(entries.items()))


def exact_conjugacy_search(
    v: PeriodicWord, w: PeriodicWord, max_radius: int
) -> Optional[SearchWitness]:
    """Exhaustive search for a conjugacy between the orbits of v and w.

    Enumeration order is fixed: radius ascending, forward table in
    lexicographic order over the sorted occurring windows of v (values in
    alphabet order), shift ascending, then the backward table the same way
    over the image word.  The first tuple whose forward image is the shifted
    w and whose backward image restores v exactly is returned, with both
    tables completed to total codes (unused windows map to the first symbol).
    Returns None when every radius up to max_radius is exhausted.

    Cost: O(n·(2m+1)) per radius m to number the windows of v (period n),
    O(w.period·span) once for the dict from each rotation of w, tiled to
    span = lcm of the periods, to its first shift, then O(n + span) per table.
    """
    if v.alphabet != w.alphabet:
        raise AlphabetMismatch("words use different alphabets")
    span = lcm(v.period, w.period)
    w_long = w.cells * (span // w.period)
    first_shift: dict[tuple[str, ...], int] = {}
    for shift in range(w.period):  # shift + w.period gives the same rotation
        first_shift.setdefault(w_long[shift:] + w_long[:shift], shift)
    for m in range(max_radius + 1):
        windows, index = _window_index(v, m)
        for values in product(v.alphabet.symbols, repeat=len(windows)):
            y_cells = tuple(values[i] for i in index)
            shift = first_shift.get(y_cells * (span // v.period))
            if shift is None:
                continue
            # other shifts give the same orbit; the inverse cannot differ
            back = _inverse_search(PeriodicWord(v.alphabet, y_cells), v, max_radius)
            if back is not None:
                code = _full_code(v.alphabet, m, dict(zip(windows, values)))
                return SearchWitness(code, back, shift)
    return None


def _inverse_search(y: PeriodicWord, v: PeriodicWord, max_radius: int) -> Optional[BlockCode]:
    for m in range(max_radius + 1):
        windows, index = _window_index(y, m)
        for values in product(y.alphabet.symbols, repeat=len(windows)):
            if tuple(values[i] for i in index) == v.cells:
                return _full_code(y.alphabet, m, dict(zip(windows, values)))
    return None
