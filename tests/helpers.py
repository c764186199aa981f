"""Shared builders for the test suite."""

import math
import re
from collections import Counter
from functools import reduce
from itertools import accumulate, compress, count, cycle, product, repeat
from operator import attrgetter, is_, itemgetter, or_
from typing import Iterable, Iterator, Optional

from toepcalc import (
    Alphabet,
    AlphabetError,
    ConsistencyError,
    DivisibilityError,
    ParseError,
    PartialCyclicWord,
    ScaleError,
    SkeletonTower,
    SupernaturalNumber,
    TowerError,
)
from toepcalc.codes import AlphabetMismatch, BlockCode, CodeError, PeriodMismatch, PositionwisePermutation, Window
from toepcalc.conjugacy import (
    Consistent,
    Contradicted,
    DpKind,
    EfinResult,
    GammaResult,
    Part,
    StarredPart,
    StarStatus,
    Undetermined,
    _candidates,
    _common_length,
    _margin,
    _Pair,
    dp_scan,
    phase_separated,
)
from toepcalc import construction
from toepcalc.construction import ALPHABET, SCALE
from toepcalc.core import _BIT_DIGITS, BLANK, _bit_planes
from toepcalc.skeleton import (
    _STATUS_OF_DIGIT,
    BlockSpan,
    NonDivisorError,
    FilledBlocks,
    ResidueStatusSet,
    Status,
    _modulus,
    filled_blocks,
    periodic_part,
    skeleton_word,
    status_masks,
)
from toepcalc.odometer import OdometerError, divides
from toepcalc.oracle import ExactAnalysis, PeriodicWord, SearchWitness, _forced, _per_residues, _window_index

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


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def one_level(symbols, cells) -> SkeletonTower:
    return SkeletonTower(Alphabet(symbols), ((len(cells), PartialCyclicWord(tuple(cells))),))


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


def text_pair(src: str, tgt: str, alphabet: Alphabet, cls: type = _Pair) -> _Pair:
    """A ``cls`` pair of the words encoded as ``src`` and ``tgt`` (as in
    ``SkeletonTower._text``; ``len(tgt)`` divides ``len(src)``), each a new
    one-level tower, so the pair shares no per-tower cache."""
    decode = alphabet._decode.__getitem__
    a, b = (SkeletonTower(alphabet, ((len(w), PartialCyclicWord(map(decode, w))),)) for w in (src, tgt))
    return cls(a, b, len(src))


def shift_contradicted(pair: _Pair, p: int, k: int) -> bool:
    """``rotations_contradicted`` of the one shift ``k`` at stage ``p``."""
    j, c = divmod(k % pair.n, p)
    return next(pair.rotations_contradicted(p, pair.shape(p, c), j))


def _has_conflict(src, tgt):
    """Not a bijection: distinct sources, targets and pairs differ in number."""
    return not len(set(src)) == len(set(tgt)) == len(set(zip(src, tgt)))


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


# ``validate_tower`` before it read the tower from one encoding, verbatim: a
# set of cell values per level, then the consistency check on cell lists.
def old_validate_tower(tower: SkeletonTower) -> None:
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


# ``parse_tower_text`` and ``validate_tower`` before a file's tokens went straight to code points, verbatim
# but for the tower class: each period line's cells as a tuple, then the tower checked from its cells.
class OldParsedTower(SkeletonTower):
    """A tower checked by the old ``validate_tower``, with the periods read off its levels."""

    def __init__(self, alphabet, levels, declared_scale=None):
        vars(self).update(alphabet=alphabet, levels=tuple(levels), declared_scale=declared_scale, _status={})
        old_encoding_validate_tower(self)

    periods = property(lambda self: tuple(p for p, _ in self.levels))
    deepest_period = property(lambda self: self.levels[-1][0])


def old_encoding_validate_tower(tower: SkeletonTower) -> None:
    """Raise a ``TowerError`` subclass describing the first defect found.

    The only checks of a tower's structure, also for parsed files.  Level by
    level: a positive period, greater than and a multiple of the one above, one
    cell per period, symbols of the alphabet; then adjacent-level consistency (a
    filled cell at period ``p`` must reappear verbatim at every congruent
    position of the next level, which is at fault) and declared-scale divisibility.

    Cost: C-level passes only: each level's cells to code points by the alphabet's code table, the
    ``b`` bit planes of all of them, then per level and plane a shift, a mask and a tile by doubling
    shifts, O(N·b) bit operations for N cells.  The deepest level's share becomes ``_text`` and ``_planes``.
    """
    if not tower.levels:
        raise TowerError("a tower needs at least one level")
    pieces, prev = [], 0  # the code points of each level
    for level, (p, w) in enumerate(tower.levels):
        if not isinstance(p, int) or p < 1:
            raise DivisibilityError(f"period must be a positive integer, got {p!r}", level)
        if prev and p <= prev:
            raise DivisibilityError(f"periods must increase, got {p} after {prev}", level)
        if prev and p % prev:
            raise DivisibilityError(f"period {p} is not a multiple of {prev}", level)
        if w.period != p:
            raise DivisibilityError(f"expected {p} cells, got {w.period}", level)
        try:  # itemgetter of one cell gives its code point rather than a tuple; both join alike
            pieces.append("".join(itemgetter(*w.cells)(tower.alphabet._code)))
        except KeyError:
            i = next(i for i, c in enumerate(w.cells) if c not in tower.alphabet._code)
            raise AlphabetError(f"symbol {w.cells[i]!r} not in alphabet", level, i) from None
        prev = p
    planes, end, above = _bit_planes("".join(pieces), len(tower.alphabet.symbols).bit_length()), 0, []
    for level, (q, deep) in enumerate(tower.levels):
        masks, filled, differ = [plane >> end & (1 << q) - 1 for plane in planes], 0, 0
        end += q
        for mask, tiled in zip(masks, above):  # each plane of the level above, tiled by doubling shifts
            r = p
            while r < q:
                tiled, r = tiled | tiled << r, 2 * r
            filled, differ = filled | tiled, differ | mask ^ tiled
        if filled & differ & (1 << q) - 1:  # a cell filled above and different below
            cells = shallow.cells * (q // p)
            x = next(x for x, s in enumerate(cells) if s is not None and deep.cells[x] != s)
            raise ConsistencyError(p, q, x, f"{cells[x]!r} above, {deep.cells[x]!r} below", level)
        p, shallow, above = q, deep, masks
    scale = tower.declared_scale
    if scale is not None and not divides(prev, scale):  # the deepest period is a multiple of the others
        level, p = next((level, p) for level, (p, _) in enumerate(tower.levels) if not divides(p, scale))
        raise ScaleError(f"declared period {p} does not divide scale {scale}", level)
    vars(tower)["_text"], vars(tower)["_planes"] = pieces[-1], (reduce(or_, above), *above)


_TOKEN = re.compile(r"\S+")


def old_parse_tower_text(text: str) -> SkeletonTower:
    """Cost: a few C-level string calls per line; a period line's tokens become cells (``_`` as
    ``None``) by one ``str.split`` and one ``map``, no Python step per token.  Then ``validate_tower``."""
    alphabet: Optional[Alphabet] = None
    scale: Optional[SupernaturalNumber] = None
    levels: list[tuple[int, PartialCyclicWord]] = []
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
                tokens = payload.split()
                levels.append((period, PartialCyclicWord(map({BLANK: None}.get, tokens, tokens))))
                level_lines.append((ln, line))
            else:
                raise ParseError(f"unknown directive {name[0]!r}", line=ln, column=1)
        if alphabet is None:
            raise ParseError("missing alphabet line")
        if not levels:
            raise ParseError("missing period lines")
        return OldParsedTower(alphabet, tuple(levels), scale)
    except TowerError as exc:  # a bad alphabet or word on line ln, or a rule of validate_tower at exc.level
        column = None
        if exc.level is not None:
            ln, line = level_lines[exc.level]
            if exc.position is not None:
                column = list(_TOKEN.finditer(line, line.index("=") + 1))[exc.position].start() + 1
        raise ParseError(str(exc), line=ln, column=column) from exc


# ``SkeletonTower._text`` and ``_planes`` before ``validate_tower`` set them, verbatim.
def old_text(tower: SkeletonTower) -> str:
    """The deepest word, one code point per cell: 0 for a blank, the alphabet index + 1 for a symbol."""
    code = {cell: chr(i) for i, cell in enumerate((None, *tower.alphabet.symbols))}
    return "".join(map(code.__getitem__, tower.deepest_word.cells))


def old_planes(tower: SkeletonTower) -> tuple[int, ...]:
    """``_text`` as bit masks over the cells: the filled mask, then one mask
    per bit of the cell codes (bit ``x`` of mask ``b + 1`` is bit ``b`` of
    the code of cell ``x``).  A blank has code 0, so the filled mask is the
    union of the others."""
    # the cells last to first, four bytes each, most significant byte first
    code = old_text(tower)[::-1].encode("utf-32-be", "surrogatepass")
    planes = [
        int(code[3 - b // 8 :: 4].translate(_BIT_DIGITS[b % 8]), 2)
        for b in range(len(tower.alphabet.symbols).bit_length())
    ]
    return (reduce(or_, planes), *planes)


# ``apply_block_code`` before it slid the code over ``_text``, verbatim: one
# ``cell`` call per window cell.
def old_apply_block_code(tower: SkeletonTower, code: BlockCode) -> SkeletonTower:
    """Slide the code over the deepest level; recertify everything above.

    Output cell ``k`` is filled with the coded value exactly when the whole
    window ``k-m .. k+m`` is filled; shallower levels become the certified
    skeletons of the result.  The declared scale does not survive: a factor
    map certifies nothing about the limit scale.
    """
    if code.alphabet != tower.alphabet:
        raise AlphabetMismatch("code and tower alphabets differ")
    deep = tower.deepest_period
    w = tower.deepest_word
    m = code.length
    out_cells: list[Optional[str]] = []
    for k in range(deep):
        window = [w.cell(k + d) for d in range(-m, m + 1)]
        if any(c is None for c in window):
            out_cells.append(None)
        else:
            out_cells.append(code.apply(window))
    out = SkeletonTower(tower.alphabet, ((deep, PartialCyclicWord(tuple(out_cells))),), None)
    levels = tuple((p, skeleton_word(out, p)[0]) for p, _ in tower.levels[:-1])
    return SkeletonTower(tower.alphabet, (*levels, *out.levels), None)


# ``serialize_tower`` before it wrote a period line in one ``map``, verbatim.
def old_serialize_tower(tower: SkeletonTower) -> str:
    lines = [f"alphabet = {' '.join(tower.alphabet.symbols)}"]
    if tower.declared_scale is not None:
        lines.append(f"scale = {tower.declared_scale}")
    for period, word in tower.levels:
        lines.append(f"period {period} = " + " ".join(c if c is not None else BLANK for c in word.cells))
    return "\n".join(lines) + "\n"


class _ClassReads:
    """A ``_Pair`` read as the count below read it: ``rotations_contradicted``
    of an offset class, whose shape is cut on first use."""

    def __init__(self, pair: _Pair):
        self.pair = pair

    def shape(self, p, c=None):
        return self.pair.shape(p, c)

    def rotations_contradicted(self, p, c):
        return self.pair.rotations_contradicted(p, self.pair.shape(p, c))


def old_unknown_diagnostics(a: SkeletonTower, b: SkeletonTower, max_radius: int) -> tuple[str, ...]:
    """The diagnostics of an ``Unknown`` verdict on ``(a, b)`` as
    ``conjugacy_verdict`` wrote them before ``_Pair.class_shapes``: the
    margins, candidates and lines as there, and the count verbatim, each
    candidate class cut into its shape."""
    n = _common_length(a, b)
    stages = sorted(set(a.periods) | set(b.periods))
    pair = _ClassReads(text_pair(*(t._text * (n // t.deepest_period) for t in (a, b)), a.alphabet))
    margins = {p: old_margin(old_period_status(a, p), max_radius) for p in stages}
    candidates = {p: old_candidates(old_period_status(b, p), t, p) for p, t in margins.items() if t >= 0}

    def shape_firsts(p: int) -> Iterator[int]:  # per candidate class, the first candidate class of its shape
        first: dict[int, int] = {}
        return (first.setdefault(id(pair.shape(p, c)), c) for c in candidates[p])

    diagnostics = []
    for p, t in margins.items():
        if not (phase_separated(a, p) and phase_separated(b, p)):
            diagnostics.append(f"stage {p}: phases not certified distinct; no certificate possible")
            continue
        line = f"stage {p}: no consistent shift; usable source margin radius {t}"
        if t >= 0:
            total = len(candidates[p]) * (n // p)
            shapes = Counter(shape_firsts(p))  # a shape's first candidate class: its number of classes
            contradicted = sum(sum(pair.rotations_contradicted(p, c)) * k for c, k in shapes.items())
            line += (
                f"; {total} candidate shifts at radius {t}:"
                f" {contradicted} contradicted, {total - contradicted} not"
            )
        diagnostics.append(line)
    return tuple(diagnostics)


# ``_Pair.blocks``, ``gamma`` and ``_shaped`` before ``gamma`` read the
# shapes' block numbers and ``_shaped`` built name masks by translates,
# verbatim; methods for a ``_Pair`` subclass.  ``gamma`` cuts both sides'
# blocks once more and scans them in a Python loop; ``_shaped`` ORs each full
# block's bit into its name's mask.
def old_blocks(self, p: int, o: Optional[int] = None) -> list[str]:
    """Consecutive ``p``-slices of the source, or of the target from offset ``o``."""
    word, o = (self.src, 0) if o is None else (self.tgt2, o)
    return [word[i : i + p] for i in range(o, o + self.n, p)]


def old_gamma(self, p: int, k: int) -> GammaResult:
    if self.contradicted(p, k):
        return self.conflict(p, k)
    n, o = self.n, k % self.n
    smask, tmask = self.masks[0], self.masks[1][o : o + n]
    if smask != tmask:
        j = next(j for j, i in enumerate(range(0, n, p)) if smask[i : i + p] != tmask[i : i + p])
        return Undetermined(f"blank masks differ at block {j}")
    forward: dict[str, tuple[str, int]] = {}  # first target and index per source
    backward: dict[str, tuple[str, int]] = {}
    for j, (s, t) in enumerate(zip(self.blocks(p), self.blocks(p, o))):
        if forward.setdefault(s, (t, j))[0] != t:
            return Undetermined(f"partial blocks {j} and {forward[s][1]} break well-definedness")
        if backward.setdefault(t, (s, j))[0] != s:
            return Undetermined(f"partial blocks {j} and {backward[t][1]} break injectivity")
    if "\0" in self.src and len(forward) > 1:  # one block pair is a witness
        # per in-block offset, the distinct block pairs' symbols must pair off
        for u, (xs, ys) in enumerate(zip(zip(*forward), zip(*(t for t, _ in forward.values())))):
            if len(pairs := set(zip(xs, ys))) != len(set(xs)) or len(pairs) != len(set(ys)):
                return Undetermined(f"no positionwise witness at offset {u}")
    return Consistent(tuple((self.block(s), self.block(t)) for s, (t, _) in forward.items()))


def old_shaped(self, *key) -> tuple:  # the one shape of a key (p, numbers, fullness)
    if key not in self._shapes:
        _, ids, full = key
        at: dict[int, int] = {}
        for i in compress(count(), full):
            at[ids[i]] = at.get(ids[i], 0) | 1 << i
        b, fullness = len(ids), sum(at.values())
        names = {x: m | m << b for x, m in at.items() if m & (m - 1)}
        self._shapes[key] = ids, fullness | fullness << b, names, {}, full
    return self._shapes[key]


# ``_tile`` before ``_Pair.shape`` built a tiled side's repeated shapes by
# ``_shaped``, verbatim: it multiplies out the own-length shape's masks.
def old_tile(shape: tuple, m: int) -> tuple:
    """``shape`` repeated ``m > 1`` times, as ``_shaped`` builds it: there every name covers two or more full blocks."""
    (ids, full2, names, full), b = shape, len(shape[0])  # undoubled, a mask's top b bits; names of one block added
    at = {ids[i]: 1 << i for i in compress(count(), full) if ids[i] not in names} | {x: names[x] >> b for x in names}
    r = ((1 << 2 * m * b) - 1) // ((1 << b) - 1)  # a bit per block of the 2m copies of the doubled mask
    return ids * m, (full2 >> b) * r, {x: y * r for x, y in at.items()}, full * m


# ``_Pair.gamma`` before the witness ran once per distinct column, verbatim, a
# method for a ``_Pair`` subclass: it tests the witness once per in-block
# offset.  And ``_Pair.block`` before blocks decoded by one ``map``.
def per_offset_gamma(self, p: int, k: int) -> Optional[GammaResult]:  # None where contradicted: see gamma_map
    n, o = self.n, k % self.n
    (j, c), sids = divmod(o, p), self.shape(p)[0]  # a block's number is its first index
    if next(self.rotations_contradicted(p, target := self.shape(p, c), j)):
        return None
    smask, tmask = self.masks[0], self.masks[1][o : o + n]
    if smask != tmask:
        b = next(b for b, i in enumerate(range(0, n, p)) if smask[i : i + p] != tmask[i : i + p])
        return Undetermined(f"blank masks differ at block {b}")
    pairs = dict.fromkeys(zip(sids, tids := target[0][j:] + target[0][:j]))  # distinct block pairs, in order
    if not len(pairs) == len(set(sids)) == len(set(tids)):  # not well-defined or not injective
        forward, backward = {}, {}  # the first target per source; the first source and index per target
        for i, (x, y) in enumerate(zip(sids, tids)):
            if forward.setdefault(x, y) != y:  # x is the index of the source's first block
                return Undetermined(f"partial blocks {i} and {x} break well-definedness")
            if backward.setdefault(y, (x, i))[0] != x:
                return Undetermined(f"partial blocks {i} and {backward[y][1]} break injectivity")
    ss, ts = zip(*((self.src[x * p : x * p + p], self.tgt2[c + y * p : c + y * p + p]) for x, y in pairs))
    if "\0" in self.src and len(pairs) > 1:  # one block pair is a witness
        # per in-block offset, the distinct block pairs' symbols must pair off
        for u, (xs, ys) in enumerate(zip(zip(*ss), zip(*ts))):
            if len(both := set(zip(xs, ys))) != len(set(xs)) or len(both) != len(set(ys)):
                return Undetermined(f"no positionwise witness at offset {u}")
    return Consistent(tuple(zip(map(self.block, ss), map(self.block, ts))))


def ord_block(alphabet: Alphabet, text: str) -> tuple[Optional[str], ...]:
    """``_Pair.block`` of a pair over ``alphabet`` as it was: the cell of each code point by ``ord``."""
    return tuple(map((None, *alphabet).__getitem__, map(ord, text)))


# ``apply_positionwise_permutation`` before it read each level from one table
# of agreed images per residue class, verbatim: a set of ``phi.image`` calls
# per cell.
def old_apply_positionwise_permutation(
    tower: SkeletonTower, phi: PositionwisePermutation
) -> SkeletonTower:
    """Relabel cell contents by the permutation attached to ``x mod p``.

    A cell of a level with period ``q`` stands for every absolute position of
    its residue class; those positions meet the classes ``r + gcd(q, p)·Z``
    mod ``p``, so the cell keeps a (relabelled) value only when all the
    permutations involved agree on it — with ``p | q`` that is the single
    obvious one.  Blanks stay blank.  This is a conjugacy of the completed
    structures, so the declared scale is preserved.
    """
    if phi.alphabet != tower.alphabet:
        raise AlphabetMismatch("permutation and tower alphabets differ")
    p = phi.period
    if tower.deepest_period % p:
        raise PeriodMismatch(f"{p} does not divide the deepest period")
    for q, _ in tower.levels:
        if q >= p and q % p:
            raise PeriodMismatch(f"{p} does not divide the declared period {q}")
    levels: list[tuple[int, PartialCyclicWord]] = []
    for q, w in tower.levels:
        g = math.gcd(q, p)
        cells: list[Optional[str]] = []
        for r in range(q):
            s = w.cells[r]
            if s is None:
                cells.append(None)
                continue
            images = {phi.image(r + j * g, s) for j in range(p // g)}
            cells.append(images.pop() if len(images) == 1 else None)
        levels.append((q, PartialCyclicWord(tuple(cells))))
    return SkeletonTower(tower.alphabet, tuple(levels), tower.declared_scale)


# ``BlockCode``'s canonical table before it was built in ``product`` order,
# verbatim from ``__post_init__``: the checked rows sorted by alphabet rank.
def old_canonical_table(alphabet: Alphabet, mapping: dict[Window, str]) -> tuple[tuple[Window, str], ...]:
    order = {s: i for i, s in enumerate(alphabet.symbols)}
    canonical = tuple(
        sorted(mapping.items(), key=lambda kv: tuple(map(order.__getitem__, kv[0])))
    )
    return canonical


# ``reference_example`` before its stage rules became regex rewrites of the
# stage text, verbatim: a Python scan of the doubled cell list for its blank runs.
_SEED = ("0", None, None, None, "0")


def _blank_runs(cells: list[Optional[str]]) -> list[tuple[int, int]]:
    # (start, length); the seed pins cells 0 and -1, so runs never wrap
    runs = []
    i = 0
    while i < len(cells):
        if cells[i] is None:
            j = i
            while j < len(cells) and cells[j] is None:
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


def _next_stage(cells: tuple[Optional[str], ...], stage: int) -> tuple[Optional[str], ...]:
    doubled = list(cells) * 2
    runs = _blank_runs(doubled)
    if stage % 2 == 1:
        start, _ = next((s, n) for s, n in runs if n == 3)
        doubled[start + 1] = "1"
    else:
        singles = [s for s, n in runs if n == 1]
        for s in singles[:2]:
            doubled[s] = "0"
        for s in singles[2:]:
            doubled[s] = "1"
        start, _ = [(s, n) for s, n in runs if n == 3][-1]
        doubled[start : start + 3] = ["1", "0", "1"]
    return tuple(doubled)


def old_reference_example(stages: int) -> SkeletonTower:
    """Tower whose levels are the stage words 0..stages of the procedure."""
    if stages < 0:
        raise ValueError("stages must be nonnegative")
    cells = _SEED
    levels = [(5, PartialCyclicWord(cells))]
    for j in range(1, stages + 1):
        cells = _next_stage(cells, j)
        levels.append((5 * 2**j, PartialCyclicWord(cells)))
    return SkeletonTower(ALPHABET, tuple(levels), SCALE)


# ``filled_blocks`` and ``analyze``'s stage counts before they read the status
# table's bit masks, verbatim: scans of the per-residue status tuple.
def old_filled_blocks(tower: SkeletonTower, p: int) -> FilledBlocks:
    rss = periodic_part(tower, p)
    holes = rss.residues(Status.OUT)
    unknown = rss.residues(Status.UNKNOWN)
    if not holes:
        return FilledBlocks(p, True, (), (), unknown)
    # no residue between consecutive holes is Out; a wrapping arc is a slice of the doubled table
    statuses2 = rss.statuses * 2
    spans = tuple(
        BlockSpan((h + 1) % p, None if Status.UNKNOWN in statuses2[h + 1 : nxt] else nxt - h - 1, p)
        for h, nxt in zip(holes, (*holes[1:], holes[0] + p))
        if nxt > h + 1
    )
    return FilledBlocks(p, False, spans, holes, unknown)


def old_stage_counts(tower: SkeletonTower, p: int) -> dict[str, int]:
    rss = periodic_part(tower, p)
    return {
        "in": rss.statuses.count(Status.IN),
        "out": rss.statuses.count(Status.OUT),
        "unknown": rss.statuses.count(Status.UNKNOWN),
    }


# ``PartialCyclicWord.from_text`` and ``text`` before they became C-level
# ``map`` passes, verbatim: Python generators over the cells.
def old_from_text(text: str) -> PartialCyclicWord:
    return PartialCyclicWord(tuple(None if c == BLANK else c for c in text))


def old_word_text(word: PartialCyclicWord) -> str:
    for c in word.cells:
        if c is not None and len(c) != 1:
            raise TowerError(f"symbol {c!r} has no single-character form")
    return "".join(BLANK if c is None else c for c in word.cells)


# ``periodic_part``, ``_margin``, ``_candidates`` and ``skeleton_word`` before
# the margins, candidates and skeleton words read the status table's bit masks,
# verbatim: scans of the per-residue view, which ``periodic_part`` kept on the
# tower beside the masks.  ``old_period_status`` is ``period_status`` on it.
# ``_NONE_UNLESS_IN`` is the digit table the view read the deepest cells by.
_NONE_UNLESS_IN = {"1": None, "2": None}


def old_periodic_part(tower: SkeletonTower, p: int) -> ResidueStatusSet:
    rss = tower._status.get(("view", p))
    if rss is None:
        _, outs, unknowns = status_masks(tower, p)
        # read as hex, the binary digits of a mask put bit r in hex digit r: residue r gets digit outs_r + 2·unknowns_r
        digits = format(int(format(outs, "b"), 16) | int(format(unknowns, "b"), 16) << 1, f"0{p}x")[::-1]
        rss = tower._status["view", p] = ResidueStatusSet(
            p,
            tuple(map(_STATUS_OF_DIGIT.__getitem__, digits)),
            tuple(map(_NONE_UNLESS_IN.get, digits, tower.deepest_word.cells)),
        )
    return rss


def old_period_status(tower: SkeletonTower, q: int) -> ResidueStatusSet:
    return old_periodic_part(tower, _modulus(tower, q))


def old_margin(rss, max_radius: int) -> int:
    st = rss.statuses  # a status's residues nearest 0 are its first and its last
    d = min((min(st.index(s), st[::-1].index(s) + 1) for s in (Status.OUT, Status.UNKNOWN) if s in st), default=None)
    return max_radius if d is None else min(max_radius, (d - 1) // 2)


def old_candidates(rss, radius: int, p: int) -> list[int]:
    g, outs = rss.modulus, rss.residues(Status.OUT)
    if not outs:
        return list(range(p))
    good = set()
    for r1, r2 in zip(outs, (*outs[1:], outs[0] + g)):  # the last gap may run past g
        good.update(range(r1 + radius + 1, min(g, r2 - radius)), range(max(g, r1 + radius + 1) - g, r2 - radius - g))
    good = sorted(good)
    return [q + c for q in range(0, p, g) for c in good]


def old_skeleton_word(tower: SkeletonTower, p: int) -> tuple[PartialCyclicWord, tuple[bool, ...]]:
    rss = old_periodic_part(tower, p)
    return PartialCyclicWord(rss.symbols), tuple(map(is_, rss.statuses, repeat(Status.UNKNOWN)))


def check_status_readers(a: SkeletonTower, b: SkeletonTower, p: int, max_radius: int) -> None:
    """The mask readers against the view readers above at stage ``p``, as
    ``conjugacy_verdict`` reads them: ``a``'s margin, ``b``'s candidate classes
    at that margin and at radii 0-3; and, where ``p`` divides a tower's deepest
    period, its skeleton word with its ``Unknown`` mask and its view."""
    ga, gb = _modulus(a, p), _modulus(b, p)
    t = _margin(status_masks(a, ga)[0], ga, max_radius)
    assert t == old_margin(old_period_status(a, p), max_radius), (a, p, max_radius)
    for radius in {0, 1, 2, 3, t} - {-1}:
        want = old_candidates(old_period_status(b, p), radius, p)
        assert _candidates(status_masks(b, gb)[1], gb, radius, p) == want, (b, p, radius)
    for tower in (a, b):
        if tower.deepest_period % p == 0:
            assert skeleton_word(tower, p) == old_skeleton_word(tower, p), (tower, p)
            assert periodic_part(tower, p) == old_periodic_part(tower, p), (tower, p)


# ``BlockCode.__post_init__`` before its rows were checked in bulk, verbatim:
# one row at a time, then the table rebuilt in ``product`` order by lookup.
class OldBlockCode(BlockCode):
    def __post_init__(self):
        if not isinstance(self.length, int) or self.length < 0:
            raise CodeError("code length must be non-negative")
        symbols = set(self.alphabet.symbols)
        width = 2 * self.length + 1
        mapping: dict[Window, str] = {}
        for row, (window, out) in enumerate(self.table):
            window = tuple(window)
            if len(window) != width:
                raise CodeError(f"expected {width} window symbols, got {len(window)}", row)
            for s in (*window, out):
                if s not in symbols:
                    raise CodeError(f"symbol {s!r} is not in the alphabet", row)
            if window in mapping:
                raise CodeError(f"window {' '.join(window)!r} listed twice", row)
            mapping[window] = out
        # with two or more symbols, a width past the table size's bit length
        # already needs more windows; the count is built only when it has under
        # 4000 digits (Python prints at most 4300), else written as a power
        a = len(self.alphabet)
        if width > len(mapping).bit_length() or len(mapping) != a**width:
            required = a**width if width * math.log10(a) < 4000 else f"{a}^{width}"
            raise CodeError(f"table has {len(mapping)} of {required} required windows")
        # built from a list, not a generator, so that the tuple is allocated at its exact size
        object.__setattr__(self, "table", tuple([(w, mapping[w]) for w in product(self.alphabet, repeat=width)]))
        object.__setattr__(self, "_lookup", dict(self.table))  # keyed by the table's own windows: each held once


# ``exact_conjugacy_search`` before its images came from the gcd root,
# verbatim with its backward search and code completion: ``first_shift`` from
# every rotation of w tiled to the lcm of the periods, and one backward search
# per forced table.
def old_full_code(alphabet: Alphabet, m: int, table: dict[Window, str]) -> BlockCode:
    filler = alphabet.symbols[0]
    entries = {
        w: table.get(w, filler) for w in product(alphabet.symbols, repeat=2 * m + 1)
    }
    return BlockCode(alphabet, m, tuple(entries.items()))


def old_exact_conjugacy_search(
    v: PeriodicWord, w: PeriodicWord, max_radius: int
) -> Optional[SearchWitness]:
    if v.alphabet != w.alphabet:
        raise AlphabetMismatch("words use different alphabets")
    n, span = v.period, math.lcm(v.period, w.period)
    w_long = w.cells * (span // w.period)
    first_shift: dict[tuple[str, ...], int] = {}
    for shift in range(w.period):  # shift + w.period gives the same rotation
        first_shift.setdefault(w_long[shift:] + w_long[:shift], shift)
    # the images: rotations of w's tiling that are themselves tilings of a period-n word
    images = [(r[:n], k) for r, k in first_shift.items() if r == r[:n] * (span // n)]
    if not images:
        return None
    rank = {s: i for i, s in enumerate(v.alphabet.symbols)}
    for m in range(max_radius + 1):
        windows, index = _window_index(v, m)
        tables = []
        for y_cells, shift in images:
            values = _forced(index, y_cells)
            if values is not None:
                tables.append((tuple(map(rank.__getitem__, values)), values, y_cells, shift))
        tables.sort()  # distinct images force distinct tables: the ranks decide
        for _, values, y_cells, shift in tables:
            back = _old_inverse_search(PeriodicWord(v.alphabet, y_cells), v, max_radius)
            if back is not None:
                code = old_full_code(v.alphabet, m, dict(zip(windows, values)))
                return SearchWitness(code, back, shift)
    return None


def _old_inverse_search(y: PeriodicWord, v: PeriodicWord, max_radius: int) -> Optional[BlockCode]:
    """The table of least radius mapping y onto v exactly, completed to a total code."""
    for m in range(max_radius + 1):
        windows, index = _window_index(y, m)
        values = _forced(index, v.cells)
        if values is not None:
            return old_full_code(y.alphabet, m, dict(zip(windows, values)))
    return None



# ``exact_periodic_analysis`` before it checked each distinct g = gcd(q, n)
# once, verbatim but for the ``math.`` prefixes: one ``_per_residues``
# comparison per q < p.
def old_exact_periodic_analysis(word: PeriodicWord, p: int) -> ExactAnalysis:
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
            g = math.gcd(q, n)
            per_g = _per_residues(word, g)
            window = math.lcm(g, p)
            if all((x % g in per_g) == (x % p in per) for x in range(window)):
                essential = False
                break
    return ExactAnalysis(per, skeleton, essential)

# The five tower builders as they were before each built its tower's code points
# and handed them to ``SkeletonTower._encoded``, verbatim: each decoded the cell
# tuples of ``levels`` (or built them) and built through the public constructor.
# ``old_cells_reference_example`` names the stage rule ``construction._next_stage``,
# since this module's ``_next_stage`` is the older cell-list rule.
def old_cells_rotate_tower(tower: SkeletonTower, k: int) -> SkeletonTower:
    return SkeletonTower(
        tower.alphabet,
        tuple((p, w.rotated(k)) for p, w in tower.levels),
        tower.declared_scale,
    )


def old_cells_pad(t: SkeletonTower, n: int) -> SkeletonTower:
    if t.deepest_period == n:
        return t
    deeper = (n, t.deepest_word.repeated(n // t.deepest_period))
    return SkeletonTower(t.alphabet, (*t.levels, deeper), t.declared_scale)


def old_cells_apply_block_code(tower: SkeletonTower, code: BlockCode) -> SkeletonTower:
    if code.alphabet != tower.alphabet:
        raise AlphabetMismatch("code and tower alphabets differ")
    deep, m, width = tower.deepest_period, code.length, 2 * code.length + 1
    image = {"".join(map(tower.alphabet._code.__getitem__, w)): out for w, out in code.table}  # by code points
    # the text from position -m, extended cyclically, so that the window of position x starts at x
    ring = (tower._text * (3 + 2 * m // deep))[-m % deep :][: deep + 2 * m]
    windows = map(ring.__getitem__, map(slice, range(deep), range(width, deep + width)))
    out = SkeletonTower(tower.alphabet, ((deep, PartialCyclicWord(map(image.get, windows))),), None)  # blank: no key
    levels = tuple((p, skeleton_word(out, p)[0]) for p in tower.periods[:-1])
    return SkeletonTower(tower.alphabet, (*levels, *out.levels), None)


def old_cells_apply_positionwise_permutation(tower: SkeletonTower, phi: PositionwisePermutation) -> SkeletonTower:
    if phi.alphabet != tower.alphabet:
        raise AlphabetMismatch("permutation and tower alphabets differ")
    p, symbols = phi.period, tower.alphabet.symbols
    if tower.deepest_period % p:
        raise PeriodMismatch(f"{p} does not divide the deepest period")
    levels: list[tuple[int, PartialCyclicWord]] = []
    for q, w in tower.levels:
        if q >= p and q % p:
            raise PeriodMismatch(f"{p} does not divide the declared period {q}")
        g = math.gcd(q, p)  # per residue t < g, each symbol s's image where its images ys at t, t + g, ... agree
        tables = [{s: ys[0] for s, *ys in zip(symbols, *phi.perms[t::g]) if len(set(ys)) == 1} for t in range(g)]
        levels.append((q, PartialCyclicWord(map(dict.get, cycle(tables), w.cells))))  # blank: no key
    return SkeletonTower(tower.alphabet, tuple(levels), tower.declared_scale)


def old_cells_reference_example(stages: int) -> SkeletonTower:
    """Tower whose levels are the stage words 0..stages of the procedure."""
    if stages < 0:
        raise ValueError("stages must be nonnegative")
    texts = accumulate(range(1, stages + 1), construction._next_stage, initial="0___0")
    levels = tuple((len(t), PartialCyclicWord.from_text(t)) for t in texts)
    return SkeletonTower(ALPHABET, levels, SCALE)


# ``SkeletonTower._encoded`` and ``_check_levels`` before code points were checked
# by one ``str.translate``, verbatim but for the identity table, which ``Alphabet``
# kept as ``_identity`` then: each level's code points looked up in it by one
# ``itemgetter`` and joined again, a miss naming the first bad cell.
def old_identity_encoded(alphabet: Alphabet, levels, scale: Optional[SupernaturalNumber]) -> SkeletonTower:
    tower = object.__new__(SkeletonTower)
    code = alphabet._code
    old_check_levels(tower, alphabet, levels, scale, dict(zip(code.values(), code.values())))
    return tower


def old_check_levels(tower: SkeletonTower, alphabet: Alphabet, levels: list, scale, code: dict) -> None:
    """``validate_tower``'s checks on (period, cells) pairs, each cell a key of ``code``; the one writer of towers."""
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
        try:  # itemgetter of one cell gives its code point rather than a tuple; both join alike
            pieces.append("".join(itemgetter(*cells)(code)))
        except KeyError:
            i = next(i for i, c in enumerate(cells) if c not in code)
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


# ``parts_star`` and ``efin_equal`` before they read the table's digits and kept
# one set of spared parts, verbatim: the star statuses read off the
# ``periodic_part`` view, and the Refuted rule off a table of every scan's kind.
# Tests that record the scans patch ``dp_scan`` here as in ``conjugacy``.
def old_parts_star(tower: SkeletonTower, p: int) -> tuple[StarredPart, ...]:
    """Star status of every residue: Starred when position 0 is certified-In
    and position -1 certified-Out in the rotated skeleton; the certified block
    length is that of the ``filled_blocks`` span starting there (Unknown if an
    Unknown residue intervenes before the next certified hole)."""
    rss = periodic_part(tower, p)
    lengths = {span.start: span.length for span in filled_blocks(tower, p).spans}
    out: list[StarredPart] = []
    for k in range(p):
        s_here = rss.status_at(k)
        s_prev = rss.status_at(k - 1)
        length: Optional[int] = None
        if s_here is Status.IN and s_prev is Status.OUT:
            status = StarStatus.STARRED
            length = lengths[k]  # k follows a hole and is In, so a span starts there
        elif s_here is Status.OUT or s_prev is Status.IN:
            status = StarStatus.NOT_STARRED
        else:
            status = StarStatus.UNKNOWN
        out.append(StarredPart(Part(tower, p, k), status, length))
    return tuple(out)


def old_efin_equal(s: Iterable[Part], t: Iterable[Part], p: int) -> EfinResult:
    """Compare the two finite families of equivalence classes.

    Equality is certified iff every part lies on both sides or has a
    Consistent ``dp_equivalent`` witness on the other side.  Witnesses
    compose: if ``dp_equivalent(w, z)`` is Consistent at block rotation ``j1``
    (block-type map ``f``) and ``dp_equivalent(w, y)`` at ``j2`` (map ``g``),
    then at the block-aligned shift ``(j2 - j1)·p`` the blank masks of ``z``
    and ``y`` match; ``g∘f⁻¹`` is well-defined and injective, since ``f`` and
    ``g`` are bijections on the block types they pair; the per-offset symbol
    relations compose to partial bijections; and no full-block conflict
    exists.  ``dp_equivalent(z, y)`` scans every mask-compatible block-aligned
    shift, so it finds a Consistent one; with symmetry, witnesses form an
    equivalence relation, and the rule certifies exactly when every class
    they generate meets both sides.  A part without a witness whose
    comparisons against the entire other side are all Refuted certifies
    inequality.  Empty versus empty is equal; empty versus nonempty refuted.

    Cost: at most one ``dp_equivalent`` scan per pair across the sides, each side in
    residue order, run when first needed and only while one of its parts has no
    witness, until every part has one; the Refuted rule reads only the pairs run.
    """
    s_list = sorted(dict.fromkeys(s), key=attrgetter("k"))  # by residue, ties in input order
    same = dict(zip(s_list, s_list))
    t_list = sorted((same.get(y, y) for y in dict.fromkeys(t)), key=attrgetter("k"))  # a part on both sides as in s
    for part in (*s_list, *t_list):
        if part.p != p:
            raise PeriodMismatch(f"part at period {part.p} in a comparison at {p}")
    bare = set(s_list).symmetric_difference(t_list)  # the parts without a witness yet
    kinds: dict[tuple[Part, Part], DpKind] = {}
    for x, y in product(s_list, t_list):
        if not bare:
            break
        if not bare.isdisjoint((x, y)):
            kinds[x, y] = dp_scan(x, y).kind
            if kinds[x, y] is DpKind.CONSISTENT_WITNESS:
                bare -= {x, y}
    if not bare:
        return EfinResult.CERTIFIED_EQUAL
    spared = {u for pair, kind in kinds.items() if kind is not DpKind.REFUTED for u in pair}
    return EfinResult.REFUTED if bare - spared else EfinResult.UNDETERMINED  # a bare part's pairs all ran
