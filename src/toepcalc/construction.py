"""Reference tower built by the period-doubling filling procedure.

Stage 0 is the 5-periodic seed ``0 _ _ _ 0``.  Each later stage doubles the
previous word and resolves part of the blanks:

* odd stages fill the middle cell of the leftmost blank triple with ``1``;
* even stages fill the first two single blanks (by start position) with
  ``0`` and the remaining singles with ``1``, then write ``1 0 1`` into the
  rightmost blank triple, leaving the leftmost triple untouched.

Every stage keeps one unresolved triple, so the limit word is Toeplitz but
never eventually periodic; the declared scale is 2^inf * 5.

Cost: per stage, one doubling of the stage text, at most three C-level regex
passes over its 5·2^j cells and one ``str.translate`` to code points.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .core import Alphabet, SkeletonTower
from .odometer import SupernaturalNumber

ALPHABET = Alphabet(("0", "1"))
SCALE = SupernaturalNumber.parse("2^inf * 5")

# maximal blank runs of length one and three; the seed pins the first and
# last cells, so no run wraps around the doubled word
_SINGLE = re.compile(r"(?<!_)_(?!_)")
_TRIPLE = re.compile(r"(?<!_)___(?!_)")
_CODE = str.maketrans("_01", "\0\1\2")  # a stage text's cells to ALPHABET's code points


def _next_stage(text: str, stage: int) -> str:
    doubled = text * 2
    if stage % 2 == 1:
        return _TRIPLE.sub("_1_", doubled, count=1)
    filled = _SINGLE.sub("1", _SINGLE.sub("0", doubled, count=2))
    *_, last = _TRIPLE.finditer(filled)
    return filled[: last.start()] + "101" + filled[last.end() :]


def reference_example(stages: int) -> SkeletonTower:
    """Tower whose levels are the stage words 0..stages of the procedure."""
    if stages < 0:
        raise ValueError("stages must be nonnegative")
    texts = accumulate(range(1, stages + 1), _next_stage, initial="0___0")
    return SkeletonTower._encoded(ALPHABET, [(len(t), t.translate(_CODE)) for t in texts], SCALE)
