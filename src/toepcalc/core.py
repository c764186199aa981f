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
from operator import itemgetter, or_
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
        code = {None: chr(0)}  # the code points of SkeletonTower._text: 0 for a blank, i + 1 for symbol i
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise AlphabetError(f"bad symbol {s!r}")
            if s == BLANK:
                raise AlphabetError("'_' is reserved for blank cells")
            if any(c.isspace() for c in s) or "#" in s:
                raise AlphabetError(f"symbol {s!r} contains whitespace or '#'")
            if s in code:
                raise AlphabetError(f"duplicate symbol {s!r}")
            code[s] = chr(len(code))
        object.__setattr__(self, "_code", code)
        object.__setattr__(self, "_decode", dict(zip(code.values(), code)))  # the cell of each code point
        object.__setattr__(self, "_erase", dict.fromkeys(range(len(code))))  # str.translate deletes each code point

    def __contains__(self, s: object) -> bool:
        return s in self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __reduce__(self):  # pickled as its symbols: the code tables are rebuilt and checked on load
        return Alphabet, (self.symbols,)


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
        return cls(map({BLANK: None}.get, text, text))

    def text(self) -> str:
        # "" is written as two characters, so each cell gives at least one: each gives one iff the lengths agree
        text = "".join(map({None: BLANK, "": BLANK * 2}.get, self.cells, self.cells))
        if len(text) != len(self.cells):
            bad = next(c for c in self.cells if c is not None and len(c) != 1)
            raise TowerError(f"symbol {bad!r} has no single-character form")
        return text


@dataclass(frozen=True, init=False, eq=False)
class SkeletonTower:
    """Divisibility chain of periods with one partial cyclic word per level.

    ``levels`` is ordered shallow to deep; the deepest word is the authoritative description, shallower
    words are coarser views of it.  ``declared_scale`` optionally asserts the limit scale of the structure
    the tower approximates.  Its state is its code points, written by ``_check_levels`` alone and read by
    ``==``, hashing and pickling: ``levels`` is decoded only when first read, by ``repr`` or a direct read.
    """

    alphabet: Alphabet
    levels: tuple[tuple[int, PartialCyclicWord], ...] = cached_property(  # decoded on first read and kept
        lambda t: tuple((p, PartialCyclicWord(_lookup(t.alphabet._decode, c))) for p, c in zip(t._periods, t._pieces)))
    declared_scale: Optional[SupernaturalNumber] = None
    # the status tables' residue bit masks by period (no per-residue view), phase_separated's answers by
    # ("separated", stage), the verdict's blank mask, block shapes by ("shape", length, stage, offset) and by
    # (stage, numbers, fullness) and derived class tables: the tower is immutable, so each entry stays valid
    _status: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # _periods; _pieces, each level one code point per cell by Alphabet._code; _text, the deepest piece; and
    # _planes, its filled mask then its _bit_planes (a blank has code 0, so the first is their union)

    def __init__(self, alphabet: Alphabet, levels, declared_scale: Optional[SupernaturalNumber] = None):
        _check_levels(self, alphabet, [(p, w.cells) for p, w in levels], declared_scale, alphabet._code)

    @classmethod
    def _encoded(cls, alphabet: Alphabet, levels, scale: Optional[SupernaturalNumber], code=None) -> "SkeletonTower":
        """The tower of (period, cells) ``levels``, each cell a key of ``code``, by default each level a
        ``str`` of code points of ``Alphabet._code``, checked in full by ``_check_levels``."""
        tower = object.__new__(cls)
        _check_levels(tower, alphabet, levels, scale, code)
        return tower

    @property
    def periods(self) -> tuple[int, ...]:
        return self._periods

    @property
    def deepest_period(self) -> int:
        return self._periods[-1]

    @property
    def deepest_word(self) -> PartialCyclicWord:
        return self.levels[-1][1]

    def __eq__(self, other: object) -> bool:  # the dataclass equality, read off the code points: nothing decoded
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.alphabet == other.alphabet and (self._pieces, self.declared_scale) == (
            other._pieces, other.declared_scale)

    def __hash__(self) -> int:  # hashes what == compares, the code points: once per tower, nothing decoded
        return self._hash

    _hash = cached_property(lambda self: hash((self.alphabet, self._pieces, self.declared_scale)))

    def __reduce__(self):  # rebuilt on load from the code points: the hash is this process's, the caches fresh
        return self._encoded, (self.alphabet, [*zip(self._periods, self._pieces)], self.declared_scale)


def _bit_planes(text: str, bits: int) -> list[int]:
    """One mask per bit of the code points: bit ``x`` of mask ``b`` is bit ``b`` of code point ``x``."""
    width = 1 if bits <= 8 else 4  # bytes per code point: Latin-1 when one byte holds them, else UTF-32
    code = text[::-1].encode("latin-1" if width == 1 else "utf-32-be", "surrogatepass")  # last to first
    return [int(code[width - 1 - b // 8 :: width].translate(_BIT_DIGITS[b % 8]), 2) for b in range(bits)]


def _lookup(table: dict, keys) -> tuple:  # table[k] for each of keys by one itemgetter, a tuple also for one key
    return itemgetter(*keys)(table) if len(keys) > 1 else (table[keys[0]],)


def validate_tower(tower: SkeletonTower) -> None:
    """Raise a ``TowerError`` subclass describing the first defect found.

    Every tower is checked when built by ``_check_levels``, which holds the only checks of a tower's
    structure; this checks a throwaway tower built from ``tower``'s code points and rewrites none of its state.
    Level by level: a positive period, greater than and a multiple of the one above, one cell per period,
    symbols of the alphabet; then adjacent-level consistency (a filled cell at period ``p`` must reappear
    verbatim at every congruent position of the next level, which is at fault) and declared-scale divisibility.

    Cost: C-level passes only, nothing decoded: one ``str.translate`` of each level's code points, their ``b``
    bit planes, then per level and plane a shift, a mask and a tile by doubling shifts, O(N·b) for N cells.
    """
    SkeletonTower._encoded(tower.alphabet, [*zip(tower._periods, tower._pieces)], tower.declared_scale)


def _check_levels(tower: SkeletonTower, alphabet: Alphabet, levels: list, scale, code: Optional[dict]) -> None:
    """``validate_tower``'s checks on (period, cells) pairs; the one writer of towers.  Cells are keys of ``code``,
    one ``itemgetter`` per level, or with no ``code`` each level is a ``str`` of code points, one ``str.translate``."""
    keys = alphabet._decode if code is None else code  # the code points are the keys of _decode
    if not levels:
        raise TowerError("a tower needs at least one level")
    pieces, prev = [], 0  # the code points of each level
    for level, (p, cells) in enumerate(levels):
        if not isinstance(p, int) or p < 1:
            raise DivisibilityError(f"period must be a positive integer, got {p!r}", level)
        if prev and p <= prev:
            raise DivisibilityError(f"periods must increase, got {p} after {prev}", level)
        if prev and p % prev:
            raise DivisibilityError(f"period {p} is not a multiple of {prev}", level)
        if len(cells) != p:
            raise DivisibilityError(f"expected {p} cells, got {len(cells)}", level)
        try:  # code points are kept once the translate deletes them all, else the itemgetter's miss names a cell
            kept = code is None and not cells.translate(alphabet._erase)
            pieces.append(cells if kept else "".join(itemgetter(*cells)(keys)))  # one cell gives a str: joins alike
        except KeyError:
            i = next(i for i, c in enumerate(cells) if c not in keys)
            raise AlphabetError(f"symbol {cells[i]!r} not in alphabet", level, i) from None
        prev = p
    planes, end, above = _bit_planes("".join(pieces), len(alphabet.symbols).bit_length()), 0, []
    for level, ((q, _), deep) in enumerate(zip(levels, pieces)):
        masks, filled, differ = [plane >> end & (1 << q) - 1 for plane in planes], 0, 0
        end += q
        for mask, tiled in zip(masks, above):  # each plane of the level above, tiled by doubling shifts
            r = p
            while r < q:
                tiled, r = tiled | tiled << r, 2 * r
            filled, differ = filled | tiled, differ | mask ^ tiled
        if bad := filled & differ & (1 << q) - 1:  # a cell filled above and different below: the first one
            x, decode = (bad & -bad).bit_length() - 1, alphabet._decode
            raise ConsistencyError(p, q, x, f"{decode[shallow[x % p]]!r} above, {decode[deep[x]]!r} below", level)
        p, shallow, above = q, deep, masks
    if scale is not None and not divides(prev, scale):  # the deepest period is a multiple of the others
        level, p = next((level, p) for level, (p, _) in enumerate(levels) if not divides(p, scale))
        raise ScaleError(f"declared period {p} does not divide scale {scale}", level)
    vars(tower).update(alphabet=alphabet, declared_scale=scale, _status={}, _periods=tuple(p for p, _ in levels))
    vars(tower).update(_pieces=tuple(pieces), _text=pieces[-1], _planes=(reduce(or_, above), *above))


def rotate_tower(tower: SkeletonTower, k: int) -> SkeletonTower:
    """Shift the origin: every level word ``w`` becomes ``x -> w(x + k)``.

    Rotation is a conjugacy of the described structure, so the declared scale
    travels with it.  Cost: each level's code points cut at ``k mod p`` and rejoined.
    """
    levels = [(p, piece[k % p :] + piece[: k % p]) for p, piece in zip(tower.periods, tower._pieces)]
    return SkeletonTower._encoded(tower.alphabet, levels, tower.declared_scale)


def symbol_at(tower: SkeletonTower, x: int) -> Optional[str]:
    """Authoritative cell value at position ``x``: the deepest word decides."""
    return tower.alphabet._decode[tower._text[x % tower.deepest_period]]
