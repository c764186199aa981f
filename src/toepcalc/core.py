"""Partial cyclic words and skeleton towers.

These are the finite descriptions everything else computes on: an alphabet of
symbols, cyclic words whose cells may be blank, and towers of such words along
a divisibility chain of periods.  A tower records a sequence built by
successive periodic refinement: the word at period ``p`` holds what is pinned
down with that period, and deeper levels extend shallower ones without ever
contradicting a filled cell.

Indexing is mathematical throughout: ``cell(i)`` reduces ``i`` modulo the
period, so negative positions are always meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from operator import or_
from typing import Optional

from .odometer import SupernaturalNumber, divides

BLANK = "_"
MAX_SYMBOLS = 0x10FFFF  # symbol i is code point i + 1 in SkeletonTower._text; 0 is the blank
# _BIT_DIGITS[k] maps a byte to b"1" when its bit k is set, else to b"0"
_BIT_DIGITS = tuple(bytes(48 + (c >> k & 1) for c in range(256)) for k in range(8))


class TowerError(ValueError):
    """Base for structural failures of alphabets, words and towers; ``level``
    indexes the tower level at fault and ``position`` its cell, when known."""

    def __init__(self, message: str, level: int | None = None, position: int | None = None):
        super().__init__(message)
        self.level = level
        self.position = position


class AlphabetError(TowerError):
    pass


class DivisibilityError(TowerError):
    """Period geometry is broken: chain order, divisibility, or word length."""


class ConsistencyError(TowerError):
    """Adjacent levels disagree on a filled cell."""

    def __init__(self, shallow_period: int, deep_period: int, index: int, detail: str, level: int | None = None):
        super().__init__(
            f"levels {shallow_period}/{deep_period} disagree at position {index}: {detail}", level, index
        )
        self.shallow_period = shallow_period
        self.deep_period = deep_period
        self.index = index


class ScaleError(TowerError):
    """Declared scale is incompatible with the declared periods."""


class ParseError(ValueError):
    """Text input rejected; carries 1-based line and column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", column {column}" if column is not None else "")
            loc = f" ({loc})"
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set.  Symbols are nonempty, whitespace-free, distinct
    tokens; ``"_"`` is reserved as the blank marker and ``"#"`` would collide
    with comments in the text format, so both are rejected."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) < 2:
            raise AlphabetError("an alphabet needs at least two symbols")
        if len(self.symbols) > MAX_SYMBOLS:
            raise AlphabetError(f"an alphabet has at most {MAX_SYMBOLS} symbols")
        seen = set()
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise AlphabetError(f"bad symbol {s!r}")
            if s == BLANK:
                raise AlphabetError("'_' is reserved for blank cells")
            if any(c.isspace() for c in s) or "#" in s:
                raise AlphabetError(f"symbol {s!r} contains whitespace or '#'")
            if s in seen:
                raise AlphabetError(f"duplicate symbol {s!r}")
            seen.add(s)

    def __contains__(self, s: object) -> bool:
        return s in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class PartialCyclicWord:
    """Cyclic word over an alphabet with ``None`` for blank cells."""

    cells: tuple[Optional[str], ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise TowerError("a cyclic word needs at least one cell")

    @property
    def period(self) -> int:
        return len(self.cells)

    def cell(self, i: int) -> Optional[str]:
        return self.cells[i % len(self.cells)]

    @property
    def is_complete(self) -> bool:
        return all(c is not None for c in self.cells)

    def blank_positions(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cells) if c is None)

    def filled_positions(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cells) if c is not None)

    def rotated(self, k: int) -> "PartialCyclicWord":
        """The word ``w'`` with ``w'(x) = w(x + k)``."""
        k %= len(self.cells)
        return PartialCyclicWord(self.cells[k:] + self.cells[:k])

    def repeated(self, times: int) -> "PartialCyclicWord":
        if times < 1:
            raise TowerError("repetition count must be positive")
        return PartialCyclicWord(self.cells * times)

    @classmethod
    def from_text(cls, text: str) -> "PartialCyclicWord":
        """One character per cell, ``_`` blank.  Single-character symbols only."""
        return cls(tuple(None if c == BLANK else c for c in text))

    def text(self) -> str:
        for c in self.cells:
            if c is not None and len(c) != 1:
                raise TowerError(f"symbol {c!r} has no single-character form")
        return "".join(BLANK if c is None else c for c in self.cells)


@dataclass(frozen=True)
class SkeletonTower:
    """Divisibility chain of periods with one partial cyclic word per level.

    ``levels`` is ordered shallow to deep; the deepest word is the
    authoritative description, shallower words are coarser views of it.
    ``declared_scale`` optionally asserts the limit scale of the structure the
    tower approximates.
    """

    alphabet: Alphabet
    levels: tuple[tuple[int, PartialCyclicWord], ...]
    declared_scale: Optional[SupernaturalNumber] = None
    # periodic_part's status tables, with their residue bit masks, by period, and
    # phase_separated's answers by ("separated", stage); the tower is immutable, so
    # each entry is built once and stays valid for its lifetime
    _status: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple((p, w) for p, w in self.levels))
        validate_tower(self)

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.levels)

    @property
    def deepest_period(self) -> int:
        return self.levels[-1][0]

    @property
    def deepest_word(self) -> PartialCyclicWord:
        return self.levels[-1][1]

    @cached_property
    def _text(self) -> str:
        """The deepest word, one code point per cell: 0 for a blank, the alphabet index + 1 for a symbol."""
        code = {cell: chr(i) for i, cell in enumerate((None, *self.alphabet.symbols))}
        return "".join(map(code.__getitem__, self.deepest_word.cells))

    @cached_property
    def _planes(self) -> tuple[int, ...]:
        """``_text`` as bit masks over the cells: the filled mask, then one mask
        per bit of the cell codes (bit ``x`` of mask ``b + 1`` is bit ``b`` of
        the code of cell ``x``).  A blank has code 0, so the filled mask is the
        union of the others."""
        # the cells last to first, four bytes each, most significant byte first
        code = self._text[::-1].encode("utf-32-be", "surrogatepass")
        planes = [
            int(code[3 - b // 8 :: 4].translate(_BIT_DIGITS[b % 8]), 2)
            for b in range(len(self.alphabet.symbols).bit_length())
        ]
        return (reduce(or_, planes), *planes)


def validate_tower(tower: SkeletonTower) -> None:
    """Raise a ``TowerError`` subclass describing the first defect found.

    The only checks of a tower's structure, also for parsed files.  Level by
    level: a positive period, greater than and a multiple of the one above, one
    cell per period, symbols of the alphabet; then adjacent-level consistency (a
    filled cell at period ``p`` must reappear verbatim at every congruent
    position of the next level, which is at fault) and declared-scale divisibility.
    """
    if not tower.levels:
        raise TowerError("a tower needs at least one level")
    cell_values = {None, *tower.alphabet}
    prev = 0
    for level, (p, w) in enumerate(tower.levels):
        if not isinstance(p, int) or p < 1:
            raise DivisibilityError(f"period must be a positive integer, got {p!r}", level)
        if prev and p <= prev:
            raise DivisibilityError(f"periods must increase, got {p} after {prev}", level)
        if prev and p % prev:
            raise DivisibilityError(f"period {p} is not a multiple of {prev}", level)
        if w.period != p:
            raise DivisibilityError(f"expected {p} cells, got {w.period}", level)
        if not cell_values.issuperset(w.cells):
            i = next(i for i, c in enumerate(w.cells) if c not in cell_values)
            raise AlphabetError(f"symbol {w.cells[i]!r} not in alphabet", level, i)
        prev = p
    for level, ((p, shallow), (q, deep)) in enumerate(zip(tower.levels, tower.levels[1:]), start=1):
        above = shallow.cells * (q // p)
        filled = [s is not None for s in shallow.cells] * (q // p)
        if list(compress(above, filled)) != list(compress(deep.cells, filled)):
            x = next(x for x, s in enumerate(above) if s is not None and deep.cells[x] != s)
            raise ConsistencyError(p, q, x, f"{above[x]!r} above, {deep.cells[x]!r} below", level)
    if tower.declared_scale is not None:
        for level, (p, _) in enumerate(tower.levels):
            if not divides(p, tower.declared_scale):
                raise ScaleError(
                    f"declared period {p} does not divide scale {tower.declared_scale}", level
                )


def rotate_tower(tower: SkeletonTower, k: int) -> SkeletonTower:
    """Shift the origin: every level word ``w`` becomes ``x -> w(x + k)``.

    Rotation is a conjugacy of the described structure, so the declared scale
    travels with it.
    """
    return SkeletonTower(
        tower.alphabet,
        tuple((p, w.rotated(k)) for p, w in tower.levels),
        tower.declared_scale,
    )


def symbol_at(tower: SkeletonTower, x: int) -> Optional[str]:
    """Authoritative cell value at position ``x``: the deepest word decides."""
    return tower.deepest_word.cell(x)
