"""Plain-text tower files.

    # optional comments anywhere, to end of line
    alphabet = 0 1
    scale = 2^inf * 5          # optional
    period 5 = 0 _ _ _ 0
    period 10 = 0 _ 1 _ 0 0 _ _ _ 0

One whitespace-separated token per cell, ``_`` for a blank.  The alphabet
line comes first, the optional scale line next, then the period lines with
strictly increasing periods, each dividing the next.  The parser checks only
the syntax and hands the tokens to ``SkeletonTower._encoded``, the one builder
of the package's towers, which runs ``validate_tower``'s checks on them; their
errors come back as a ``ParseError`` at the 1-based line of the level at fault
(and the column of the cell, when one is named), as do the parser's own errors.
"""

from __future__ import annotations

import re
from typing import Optional

from .core import BLANK, Alphabet, ParseError, SkeletonTower, TowerError, _lookup
from .odometer import OdometerError, SupernaturalNumber

_TOKEN = re.compile(r"\S+")


def parse_tower_text(text: str) -> SkeletonTower:
    """Cost: a few C-level string calls per line; a period line's tokens go by one ``str.split``
    and one ``itemgetter`` straight to code points, checked as ``validate_tower`` checks a tower,
    no Python step per token.  The levels' cells are decoded only when ``levels`` is first read."""
    alphabet: Optional[Alphabet] = None
    scale: Optional[SupernaturalNumber] = None
    levels: list[tuple[int, list[str]]] = []
    level_lines: list[tuple[int, str]] = []  # line number and text of each level, for errors
    try:
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
                if alphabet is not None:  # scale and period lines need an alphabet, so this one comes first
                    raise ParseError("duplicate alphabet line", line=ln, column=1)
                alphabet = Alphabet(tuple(payload.split()))
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
                if len(name) != 2 or not name[1].isdecimal():
                    raise ParseError("expected 'period N = ...'", line=ln, column=1)
                try:
                    period = int(name[1])
                except ValueError as exc:  # more digits than Python's int-string limit
                    raise ParseError(f"period of {len(name[1])} digits is too long", line=ln, column=1) from exc
                if not (tokens := payload.split()):
                    raise ParseError("a cyclic word needs at least one cell", line=ln)
                levels.append((period, tokens))
                level_lines.append((ln, line))
            else:
                raise ParseError(f"unknown directive {name[0]!r}", line=ln, column=1)
        if alphabet is None:
            raise ParseError("missing alphabet line")
        if not levels:
            raise ParseError("missing period lines")
        return SkeletonTower._encoded(alphabet, levels, scale, {**alphabet._code, BLANK: chr(0)})
    except TowerError as exc:  # a bad alphabet or word on line ln, or a rule of validate_tower at exc.level
        column = None
        if exc.level is not None:
            ln, line = level_lines[exc.level]
            if exc.position is not None:
                column = list(_TOKEN.finditer(line, line.index("=") + 1))[exc.position].start() + 1
        raise ParseError(str(exc), line=ln, column=column) from exc


def serialize_tower(tower: SkeletonTower) -> str:
    lines = [f"alphabet = {' '.join(tower.alphabet.symbols)}"]
    if tower.declared_scale is not None:
        lines.append(f"scale = {tower.declared_scale}")
    tokens = {**tower.alphabet._decode, chr(0): BLANK}  # written from the code points: nothing decoded
    for period, piece in zip(tower.periods, tower._pieces):
        lines.append(f"period {period} = " + " ".join(_lookup(tokens, piece)))
    return "\n".join(lines) + "\n"
