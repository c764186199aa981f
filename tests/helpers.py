"""Shared builders for the test suite."""

from collections import Counter
from itertools import product

from toepcalc import Alphabet, PartialCyclicWord, SkeletonTower, SupernaturalNumber
from toepcalc.conjugacy import Contradicted

BINARY = Alphabet(("0", "1"))


def tower(*words: str, scale: str | None = None, alphabet: Alphabet = BINARY) -> SkeletonTower:
    """Levels from literal strings ('_' = blank); periods are the lengths."""
    levels = tuple((len(w), PartialCyclicWord.from_text(w)) for w in words)
    declared = SupernaturalNumber.parse(scale) if scale else None
    return SkeletonTower(alphabet, levels, declared)


def completions(word: PartialCyclicWord, alphabet: Alphabet = BINARY):
    """Every total filling of the word's blanks, as cell tuples."""
    blanks = sorted(word.blank_positions())
    for fill in product(alphabet.symbols, repeat=len(blanks)):
        cells = list(word.cells)
        for i, s in zip(blanks, fill):
            cells[i] = s
        yield tuple(cells)


def per_residues(cells: tuple[str, ...], p: int) -> frozenset[int]:
    """Exact Per_p residues of a total periodic word given by one period."""
    n = len(cells)
    full = [cells[i % n] for i in range(n * p)]
    span = len(full)
    out = set()
    for r in range(p):
        if len({full[i] for i in range(r, span, p)}) == 1:
            out.add(r)
    return frozenset(out)


# The conflict locator of ``_Pair`` before it searched the shape masks,
# verbatim: a Counter search over the lists ``fully_filled`` cuts per shift.
def _first_conflict(src: list[int], tgt: list[int], index: list[int]) -> Contradicted:
    """The lexicographically first conflicting pair, given that one exists;
    counts of what lies at or after ``j1`` tell in O(1) if it has a partner."""
    n_src, n_tgt, n_pair = Counter(src), Counter(tgt), Counter(zip(src, tgt))
    for i1, (s, t) in enumerate(zip(src, tgt)):
        if n_src[s] != n_pair[s, t] or n_tgt[t] != n_pair[s, t]:
            # a partner shares exactly one of the source and the target
            i2 = next(i for i in range(i1 + 1, len(src)) if (src[i] == s) != (tgt[i] == t))
            if src[i2] == s:
                return Contradicted("equal full blocks map to distinct full blocks", (index[i1], index[i2]))
            return Contradicted("distinct full blocks map to one full block", (index[i1], index[i2]))
        n_src[s] -= 1
        n_tgt[t] -= 1
        n_pair[s, t] -= 1
    raise AssertionError("no conflict among the fully filled blocks")
