"""Plain-text tower files.

    # optional comments anywhere, to end of line
    alphabet = 0 1
    scale = 2^inf * 5          # optional
    period 5 = 0 _ _ _ 0
    period 10 = 0 _ 1 _ 0 0 _ _ _ 0

One whitespace-separated token per cell, ``_`` for a blank.  The alphabet
line comes first, the optional scale line next, then the period lines with
strictly increasing periods, each dividing the next.  Parse errors carry the
1-based line (and column where it points at a token); cross-level
consistency violations surface as TowerError from tower validation.
"""

from __future__ import annotations

import re
from typing import Optional

from .core import BLANK, Alphabet, AlphabetError, ParseError, PartialCyclicWord, SkeletonTower
from .odometer import OdometerError, SupernaturalNumber

_TOKEN = re.compile(r"\S+")


def parse_tower_text(text: str) -> SkeletonTower:
    alphabet: Optional[Alphabet] = None
    scale: Optional[SupernaturalNumber] = None
    levels: list[tuple[int, PartialCyclicWord]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head, eq, payload = line.partition("=")
        if not eq:
            raise ParseError("expected 'name = ...' directive", line=ln, column=1)
        name = head.split()
        if not name:
            raise ParseError("missing directive name", line=ln, column=1)
        if name[0] == "alphabet":
            if len(name) != 1:
                raise ParseError("malformed alphabet directive", line=ln, column=1)
            if alphabet is not None:
                raise ParseError("duplicate alphabet line", line=ln, column=1)
            if levels or scale is not None:
                raise ParseError("alphabet line must come first", line=ln, column=1)
            symbols = tuple(payload.split())
            try:
                alphabet = Alphabet(symbols)
            except AlphabetError as exc:
                raise ParseError(str(exc), line=ln) from exc
        elif name[0] == "scale":
            if len(name) != 1:
                raise ParseError("malformed scale directive", line=ln, column=1)
            if alphabet is None:
                raise ParseError("scale line before alphabet line", line=ln, column=1)
            if scale is not None:
                raise ParseError("duplicate scale line", line=ln, column=1)
            if levels:
                raise ParseError("scale line must precede period lines", line=ln, column=1)
            try:
                scale = SupernaturalNumber.parse(payload.strip())
            except OdometerError as exc:
                raise ParseError(str(exc), line=ln) from exc
        elif name[0] == "period":
            if alphabet is None:
                raise ParseError("period line before alphabet line", line=ln, column=1)
            if len(name) != 2 or not name[1].isdigit():
                raise ParseError("expected 'period N = ...'", line=ln, column=1)
            period = int(name[1])
            if period < 1:
                raise ParseError("period must be positive", line=ln, column=1)
            if levels:
                prev = levels[-1][0]
                if period <= prev:
                    raise ParseError("periods must increase", line=ln, column=1)
                if period % prev:
                    raise ParseError(
                        f"period {period} is not a multiple of {prev}", line=ln, column=1
                    )
            offset = line.index("=") + 1
            tokens = list(_TOKEN.finditer(line, offset))
            if len(tokens) != period:
                raise ParseError(
                    f"expected {period} cells, got {len(tokens)}", line=ln, column=offset + 1
                )
            cells: list[Optional[str]] = []
            for tok in tokens:
                t = tok.group()
                if t == BLANK:
                    cells.append(None)
                elif t in alphabet:
                    cells.append(t)
                else:
                    raise ParseError(
                        f"symbol {t!r} not in alphabet", line=ln, column=tok.start() + 1
                    )
            levels.append((period, PartialCyclicWord(tuple(cells))))
        else:
            raise ParseError(f"unknown directive {name[0]!r}", line=ln, column=1)
    if alphabet is None:
        raise ParseError("missing alphabet line")
    if not levels:
        raise ParseError("missing period lines")
    return SkeletonTower(alphabet, tuple(levels), scale)


def serialize_tower(tower: SkeletonTower) -> str:
    lines = [f"alphabet = {' '.join(tower.alphabet.symbols)}"]
    if tower.declared_scale is not None:
        lines.append(f"scale = {tower.declared_scale}")
    for period, word in tower.levels:
        lines.append(f"period {period} = " + " ".join(c if c is not None else BLANK for c in word.cells))
    return "\n".join(lines) + "\n"
