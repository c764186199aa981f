"""Sliding block codes and positionwise alphabet permutations on towers.

A block code of length ``m`` maps (2m+1)-windows of symbols to symbols and
acts on the deepest level of a tower; an output cell is filled only when its
whole input window is.  Certification at shallower periods is then recomputed
from the output, which is exactly the sound margin rule: a residue stays
certified when its entire window was.

Positionwise permutations are the partial-data-compatible slice of the full
block-permutation group: one alphabet bijection per residue class mod ``p``.
Applying one is a conjugacy of the completed structures, so it preserves the
declared scale; a block code in general is only a factor map and drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle, product, repeat
from typing import Optional, Sequence

from .core import Alphabet, ParseError, SkeletonTower
from .skeleton import _view


class CodeError(ValueError):
    """Structural failure of a code or permutation family; ``row`` indexes
    the code-table entry at fault, when the failure is about one entry."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class AlphabetMismatch(CodeError):
    pass


class PeriodMismatch(CodeError):
    pass


Window = tuple[str, ...]


@dataclass(frozen=True)
class BlockCode:
    """Total map from (2·length+1)-windows over the alphabet to symbols; the rows
    are checked in bulk, the windows against canonical ``product`` order and the
    outputs by one set test, and one at a time only to name a bad row."""

    alphabet: Alphabet
    length: int
    table: tuple[tuple[Window, str], ...]

    def __post_init__(self):
        if not isinstance(self.length, int) or self.length < 0:
            raise CodeError("code length must be non-negative")
        symbols, width, rows, a = set(self.alphabet.symbols), 2 * self.length + 1, tuple(self.table), len(self.alphabet)
        # with two or more symbols, a width past the table size's bit length
        # already needs more windows; rows out of canonical order are looked up
        # in it, so that a window missing, listed twice or malformed leaves a None
        whole = width <= len(rows).bit_length() and len(rows) == a**width and set(map(len, rows)) <= {2}
        canonical = tuple(product(self.alphabet.symbols, repeat=width)) if whole else ()
        windows, outs = tuple(zip(*rows)) if whole else ((), ())
        if tuple(map(tuple, windows)) != canonical:
            outs = tuple(map(dict(zip(map(tuple, windows), outs)).get, canonical))
        if not (whole and symbols.issuperset(outs)):  # name the first bad row, else the count is wrong
            seen: set[Window] = set()
            for row, (window, out) in enumerate(rows):
                window = tuple(window)
                if len(window) != width:
                    raise CodeError(f"expected {width} window symbols, got {len(window)}", row)
                for s in (*window, out):
                    if s not in symbols:
                        raise CodeError(f"symbol {s!r} is not in the alphabet", row)
                if window in seen:
                    raise CodeError(f"window {' '.join(window)!r} listed twice", row)
                seen.add(window)
            # the count is built only when it has under 4000 digits (Python prints at most 4300), else as a power
            required = a**width if width * math.log10(a) < 4000 else f"{a}^{width}"
            raise CodeError(f"table has {len(rows)} of {required} required windows")
        object.__setattr__(self, "table", tuple(zip(canonical, outs)))  # every window a tuple, in canonical order
        object.__setattr__(self, "_lookup", dict(self.table))  # keyed by the table's own windows: each held once

    def apply(self, window: Sequence[str]) -> str:
        return self._lookup[tuple(window)]  # type: ignore[attr-defined]


def parse_block_code(text: str, alphabet: Optional[Alphabet] = None) -> BlockCode:
    """Parse the table format: header ``len = m``, then ``a b c -> d`` lines,
    whose second-to-last token is the ``->`` separator.

    Windows may come in any order; the table rules are ``BlockCode``'s, and
    an error about one row names that row's line, an error about the whole
    table the header's.  Without an explicit alphabet the symbol set is
    inferred from the tokens present.  Blank lines and ``#`` comments are
    skipped.
    """
    length: Optional[int] = None
    header = 0
    rows: list[tuple[Window, str]] = []
    row_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if length is None:
            left, eq, right = line.partition("=")
            if eq != "=" or left.strip() != "len":
                raise ParseError("expected header 'len = m'", lineno, 1)
            try:
                length = int(right.strip())
            except ValueError:
                raise ParseError(f"bad code length {right.strip()!r}", lineno) from None
            header = lineno
            continue
        tokens = line.split()
        # the separator is the second-to-last token, so '->' may also be a symbol
        if tokens[-2:-1] != ["->"]:
            if "->" not in tokens:
                raise ParseError("expected 'window -> symbol'", lineno)
            got = len(tokens) - tokens.index("->") - 1
            raise ParseError(f"expected one output symbol, got {got}", lineno)
        rows.append((tuple(tokens[:-2]), tokens[-1]))
        row_lines.append(lineno)
    if length is None:
        raise ParseError("missing 'len = m' header")
    if alphabet is None:
        try:
            alphabet = Alphabet(tuple(sorted({s for window, out in rows for s in (*window, out)})))
        except ValueError as exc:
            raise ParseError(f"cannot infer an alphabet: {exc}") from None
    try:
        return BlockCode(alphabet, length, tuple(rows))
    except CodeError as exc:
        raise ParseError(str(exc), header if exc.row is None else row_lines[exc.row]) from None


def serialize_block_code(code: BlockCode) -> str:
    lines = [f"len = {code.length}"]
    for window, out in code.table:
        lines.append(f"{' '.join(window)} -> {out}")
    return "\n".join(lines) + "\n"


def apply_block_code(tower: SkeletonTower, code: BlockCode) -> SkeletonTower:
    """Slide the code over the deepest level; recertify everything above.

    Output cell ``k`` is filled with the coded value exactly when the whole
    window ``k-m .. k+m`` is filled; shallower levels become the certified
    skeletons of the result.  The declared scale does not survive: a factor
    map certifies nothing about the limit scale.
    """
    if code.alphabet != tower.alphabet:
        raise AlphabetMismatch("code and tower alphabets differ")
    deep, m, width, enc = tower.deepest_period, code.length, 2 * code.length + 1, tower.alphabet._code
    image = {"".join(map(enc.__getitem__, w)): enc[out] for w, out in code.table}  # all by code points
    # the text from position -m, extended cyclically, so that the window of position x starts at x
    ring = (tower._text * (3 + 2 * m // deep))[-m % deep :][: deep + 2 * m]
    windows = map(ring.__getitem__, map(slice, range(deep), range(width, deep + width)))
    text = "".join(map(image.get, windows, repeat("\0")))  # a window with a blank has no key
    out = SkeletonTower._encoded(tower.alphabet, ((deep, text),), None)
    levels = [(p, _view(out, p)[1]) for p in tower.periods[:-1]]  # the certified skeletons, by code points
    return SkeletonTower._encoded(tower.alphabet, (*levels, (deep, text)), None)


@dataclass(frozen=True)
class PositionwisePermutation:
    """One alphabet bijection per residue class mod ``period``; each entry
    lists the images of the alphabet's symbols in alphabet order."""

    alphabet: Alphabet
    period: int
    perms: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(tuple(p) for p in self.perms))
        if not isinstance(self.period, int) or self.period < 1:
            raise CodeError(f"block period must be positive, got {self.period!r}")
        if len(self.perms) != self.period:
            raise CodeError(f"{self.period} permutations required, got {len(self.perms)}")
        for i, images in enumerate(self.perms):
            if sorted(images) != sorted(self.alphabet.symbols):
                raise CodeError(f"entry {i} is not a bijection of the alphabet")

    @classmethod
    def identity(cls, alphabet: Alphabet, period: int) -> "PositionwisePermutation":
        return cls(alphabet, period, tuple(alphabet.symbols for _ in range(period)))

    def image(self, x: int, symbol: str) -> str:
        return self.perms[x % self.period][self.alphabet.symbols.index(symbol)]

    def inverse(self) -> "PositionwisePermutation":
        inv = []
        for images in self.perms:
            back = {img: s for s, img in zip(self.alphabet.symbols, images)}
            inv.append(tuple(back[s] for s in self.alphabet.symbols))
        return PositionwisePermutation(self.alphabet, self.period, tuple(inv))


def apply_positionwise_permutation(
    tower: SkeletonTower, phi: PositionwisePermutation
) -> SkeletonTower:
    """Relabel cell contents by the permutation attached to ``x mod p``.

    A cell of a level with period ``q`` stands for every absolute position of
    its residue class; those positions meet the classes ``r + gcd(q, p)·Z``
    mod ``p``, so the cell keeps a (relabelled) value only when all the
    permutations involved agree on it — with ``p | q`` that is the single
    obvious one.  Blanks stay blank.  This is a conjugacy of the completed
    structures, so the declared scale is preserved.  Cost per level: a table
    of the agreed images per residue mod ``gcd(q, p)``, O(p·|A|) entries in
    all, then one C-level pass over its cells.
    """
    if phi.alphabet != tower.alphabet:
        raise AlphabetMismatch("permutation and tower alphabets differ")
    p, symbols, enc = phi.period, tower.alphabet.symbols, tower.alphabet._code
    if tower.deepest_period % p:
        raise PeriodMismatch(f"{p} does not divide the deepest period")
    levels = []
    for q, cells in zip(tower.periods, tower._pieces):
        if q >= p and q % p:
            raise PeriodMismatch(f"{p} does not divide the declared period {q}")
        g = math.gcd(q, p)  # per residue t < g, each code point's image y at t where its images ys at t + g, ... agree
        tables = [{enc[s]: enc[y] for s, y, *ys in zip(symbols, *phi.perms[t::g]) if {*ys} <= {y}} for t in range(g)]
        levels.append((q, "".join(map(dict.get, cycle(tables), cells, repeat("\0")))))  # blank: no key, so 0
    return SkeletonTower._encoded(tower.alphabet, levels, tower.declared_scale)
