"""Conjugacy machinery: block correspondences, verdicts, and stage invariants.

All decisions quantify over completions of the towers involved.  A positive
certificate (``Consistent`` / ``ConjugateCertified``) asserts that the
completions of the two sides pair off into topologically conjugate pairs via
a blockwise permutation; a refutation rests exclusively on fully-filled block
conflicts, which no completion can repair.  Everything in between stays
``Undetermined`` — in particular a blank-mask mismatch between partially
filled blocks never refutes.

The block correspondence at stage ``p`` with shift ``k`` pairs the ``p``-block
at position ``j·p`` of the first deepest word with the block at ``j·p + k`` of
the second.  When blanks are present, ``Consistent`` additionally demands a
positionwise witness — for every in-block offset the observed symbol pairs
must extend to an alphabet bijection — which is exactly what makes the
certificate constructive: the witness family is itself a positionwise
permutation realizing the pairing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress, count, islice, product, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .codes import AlphabetMismatch, PeriodMismatch
from .core import _BIT_DIGITS, SkeletonTower
from .odometer import supernatural_equal
from .skeleton import (
    NonDivisorError,
    _digits,
    _fold,
    _modulus,
    _set_bits,
    filled_blocks,
    natural_factorization,
    periodic_part,  # unread here; bench/tests/test_benchmark.py checks that its tracer wraps this binding
    status_masks,
)

Block = tuple[Optional[str], ...]
Correspondence = tuple[tuple[Block, Block], ...]


class IncompatiblePeriods(ValueError):
    """Deepest periods do not divide one another (or the stage divides neither)."""


class MissingScaleDeclaration(ValueError):
    pass


class GammaResult:
    pass


@dataclass(frozen=True)
class Consistent(GammaResult):
    correspondence: Correspondence


@dataclass(frozen=True)
class Contradicted(GammaResult):
    reason: str
    positions: tuple[int, int]


@dataclass(frozen=True)
class Undetermined(GammaResult):
    reason: str


def _common_length(a: SkeletonTower, b: SkeletonTower) -> int:
    na, nb = a.deepest_period, b.deepest_period
    if na % nb and nb % na:
        raise IncompatiblePeriods(f"deepest periods {na} and {nb} do not divide one another")
    return max(na, nb)


def _cycle(text: str, n: int, k: int) -> str:
    """``text`` rotated by ``0 <= k < len(text)`` (``x -> text[x + k]``), repeated to length ``n``, a multiple of it."""
    return (text[k:] + text[:k]) * (n // len(text))


def _blanks(tower: SkeletonTower) -> tuple[str, int, int, int]:
    """The blank mask of ``tower._text`` (``1`` per blank), its blank count, the index ``r`` just past its first
    rarer character (0 if the mask is constant) and its least rotation period, per tower."""
    if (facts := tower._status.get("blanks")) is None:
        mask = tower._text.translate("1".ljust(len(tower.alphabet._decode), "0"))
        r = mask.find("1" if 2 * (blanks := mask.count("1")) <= len(mask) else "0") + 1
        m = mask[r:] + mask[:r]  # ends with its rarer character: str.find tries a match only where that is
        facts = tower._status["blanks"] = mask, blanks, r, (m + m).find(m, 1)
    return facts


def _shaped(cache: dict, *key) -> tuple:  # the one shape of a key (p, numbers, fullness) in a tower's or pair's cache
    if (shape := cache.get(key)) is None:
        _, ids, full = key
        # in ~4 ns steps: the OR loop f(32 + b/128) for f full blocks; count, code, K translates (8 + K)(b + 128)
        b, at, steps = len(ids), {}, (f := sum(full)) * (32 + len(ids) // 128)
        names = [x for x, m in Counter(compress(ids, full)).items() if m > 1] if steps > 8 * (b + 128) else ()
        if len(names) < 256 and (8 + len(names)) * (b + 128) < steps:
            rank = bytearray(b)  # of each block's name, 0 if none
            for r, x in enumerate(names, 1):
                rank[x] = r
            code = bytes(itemgetter(*ids[::-1])(rank))  # a tuple, as b > 1 here
            at = {x: int(code.translate(b"0" * r + b"1" + b"0" * (255 - r)), 2) for r, x in enumerate(names, 1)}
            fullness = int(full[::-1].translate(_BIT_DIGITS[0]), 2)
        else:
            for i in compress(count(), full):
                at[ids[i]] = at.get(ids[i], 0) | 1 << i
            fullness = sum(at.values())
        names = {x: m | m << b for x, m in at.items() if m & (m - 1)} if len(at) < f else {}
        shape = cache[key] = ids, fullness | fullness << b, names, full
    return shape


class _Pair:
    """Two towers' deepest words, encoded as in ``SkeletonTower._text`` and tiled to a common
    length ``n``, the source rotated by ``ka`` and the target by ``kb``: blocks are ``str`` slices
    of the source at offset 0 and of the doubled target at each offset class ``c`` mod ``p``;
    shift ``k`` sees class ``k mod p`` rotated by ``j = (k mod n) // p`` blocks.  A tower cuts its
    blocks from each offset once, for all its pairs, into a shape (see ``shape``): its ``B``-bit
    masks decide conflicts (and locate one for ``gamma_map``), ``gamma`` reads its numbers.  The
    pair keeps only what needs both sides: each target shape's rotations' conflict flags, a tiled
    side's repeated shapes (built by ``_shaped``), and its texts and masks, built when first read."""

    def __init__(self, a: SkeletonTower, b: SkeletonTower, n: int, ka: int = 0, kb: int = 0):
        self.n, self.sides, self.decode = n, ((a, ka), (b, kb)), a.alphabet._decode  # decode: each code point's cell
        self._contradicted: dict[int, dict[int, bool]] = {}  # id(target shape): its rotations' conflict flags
        self._shapes: dict = {}  # a tiled side's, by (p, numbers, fullness) and by id(shape repeated); class tables

    # the tiled texts, the target's doubled, and their blank masks (blank: 1), each built when first read
    src = cached_property(lambda self: _cycle(self.sides[0][0]._text, self.n, self.sides[0][1]))
    tgt2 = cached_property(lambda self: _cycle(self.sides[1][0]._text, 2 * self.n, self.sides[1][1]))
    masks = cached_property(
        lambda self: tuple(_cycle(_blanks(t)[0], m * self.n, k) for m, (t, k) in enumerate(self.sides, 1))
    )

    @cached_property
    def mask_shifts(self) -> range:
        """Shifts in ``[0, n)`` with matching blank masks, none unless the blanks are
        equally many: the first by one ``str.find`` of the source's mask, rotated to
        end with its rarer character so a match is tried only where that is, in the
        doubled target mask, then every least rotation period of the target's mask: O(n)
        C-level steps per match tried, on blank facts kept per tower."""
        (a, ka), (b, _) = self.sides
        mask, blanks, r, _ = _blanks(a)  # the source rotated by r - ka ends with its rarer character
        if blanks * b.deepest_period != _blanks(b)[1] * len(mask) or (
                q := self.masks[1].find(_cycle(mask, self.n, r % len(mask)))) < 0:
            return range(0)
        return range((q - r + ka) % (d := _blanks(b)[3]), self.n, d)  # a match makes d divide len(mask)

    def blocks(self, p: int, o: Optional[int] = None) -> list[str]:
        """Consecutive ``p``-slices of the source, or of the target from offset ``o``."""
        word, o = (self.src, 0) if o is None else (self.tgt2, o)
        return [word[i : i + p] for i in range(o, o + self.n, p)]

    def shape(self, p: int, c: Optional[int] = None) -> tuple:
        """The stage-``p`` shape of the source, or of the target at offset
        class ``c``: its block numbers (equal blocks share one); bitmasks,
        doubled to ``2B`` bits, of its full blocks and of each name of two or
        more full blocks; and each block's fullness, a byte.  A tower tiled to
        ``n`` cuts its blocks at its own length ``L`` where ``p`` divides it,
        and the pair keeps that shape repeated ``n/L`` times, for itself alone."""
        tower, k = self.sides[c is not None]
        own = tower.deepest_period if tower.deepest_period % p == 0 else self.n  # the blocks repeat after it
        key = ("shape", own, p, (k if c is None else k + c) % own)
        if (shape := tower._status.get(key)) is None:
            ids = tuple(map((first := {}).setdefault, self.blocks(p, c)[: own // p], count()))  # first indices
            full = b"\1" * len(ids)
            if _blanks(tower)[1]:  # a blank: fullness per distinct block
                full = bytes(map({x: "\0" not in s for s, x in first.items()}.__getitem__, ids))
            shape = tower._status[key] = _shaped(tower._status, p, ids, full)
        if own < self.n and id(shape) not in self._shapes:  # the shape repeated, kept by the pair
            m = self.n // own
            self._shapes[id(shape)] = _shaped(self._shapes, p, shape[0] * m, shape[3] * m)
        return shape if own == self.n else self._shapes[id(shape)]

    def class_shapes(self, p: int, stages: list[int], classes: Sequence[int]) -> list[tuple]:
        """The target's shapes of offset ``classes`` at stage ``p``.  Class
        ``c``'s blocks are the ``q = p/d`` consecutive blocks of class ``c mod
        d`` at the largest stage ``d`` of ``stages`` dividing ``p``, from block
        ``c // d`` on: its numbers are those ``q``-tuples of stage-``d`` numbers
        renumbered, and a block is full iff its ``q`` blocks are.  So a shape
        per distinct (stage-``d`` shape, ``c // d``) is derived in O(n/d) tuple
        steps (64 string steps each), and ``map`` gives each class its shape.
        Where no ``d`` exists or that costs more, each class is cut: O(n)
        string steps and a Python step (256 string steps) per block.  A table
        is kept beside the shapes: on the target's tower, or in a pair that tiles it."""
        d, n, (b, kb) = max((d for d in stages if d < p and p % d == 0), default=0), self.n, self.sides[1]
        cache = self._shapes if b.deepest_period < n and b.deepest_period % p == 0 else b._status
        if d and (key := ("classes", n, p, kb)) not in cache:
            below, q = self.class_shapes(d, stages, range(d)), p // d
            distinct = dict(zip(map(id, below), below))
            if 64 * len(distinct) * q * (n // d) < len(classes) * (n + 256 * (n // p)):
                table = cache[key] = []
                for a in range(q):  # the classes a·d + r
                    derived = {}
                    for i, (ids, _, _, full) in distinct.items():
                        ids, full = zip(*[iter(ids[a:] + ids[:a])] * q), zip(*[iter(full[a:] + full[:a])] * q)
                        derived[i] = _shaped(cache, p, tuple(map({}.setdefault, ids, count())), bytes(map(all, full)))
                    table += map(derived.__getitem__, map(id, below))
        if (table := cache.get(("classes", n, p, kb))) is not None:
            return list(map(table.__getitem__, classes))
        return list(map(self.shape, repeat(p), classes))

    def rotations_contradicted(self, p: int, target: tuple, start: int = 0) -> Iterator[bool]:
        """Per shift ``c + j·p`` (``j`` from ``start`` to ``n/p - 1``, ``target`` the
        shape of offset class ``c``): whether the names of the blocks full on both
        sides fail to pair off, that is, the names covering two or more of them cover
        unequal block sets on the two sides (one-block names cover the rest): a source
        name differs from the target name at its first block, or the target has more."""
        (_, sfull, snames, _), (tids, tfull, tnames, _) = self.shape(p), target
        table, b = self._contradicted.setdefault(id(target), {}), len(tids)
        for j in range(start, b):
            if j not in table:
                both = sfull & tfull >> j & (1 << b) - 1  # bit i: block i is full on both sides
                matched = 0
                for m in snames.values():
                    x = m & both
                    if x & (x - 1):
                        first = (x & -x).bit_length() - 1
                        if x != tnames.get(tids[(first + j) % b], 0) >> j & both:
                            table[j] = True
                            break
                        matched += 1
                else:  # no target name covers two or more blocks of source singletons
                    table[j] = matched != sum(1 for m in tnames.values() if (y := m >> j & both) & (y - 1))
            yield table[j]

    def conflict(self, p: int, k: int) -> Contradicted:
        """The lexicographically first conflicting pair ``(i1, i2)`` of blocks
        full on both sides, given that one exists: the first ``i1`` whose
        source name and target name cover unequal sets of the later such
        blocks, and ``i2`` the first block covered by only one of them."""
        j, c = divmod(k % self.n, p)
        sids, sfull, snames, *_ = self.shape(p)
        tids, tfull, tnames, *_ = self.shape(p, c)
        b = self.n // p
        both = sfull & tfull >> j & (1 << b) - 1  # bit i: block i is full on both sides
        later = both
        while later:
            i1 = (later & -later).bit_length() - 1
            later &= later - 1  # the blocks full on both sides after i1
            x = snames.get(sids[i1], 0) & later  # one-block names cover no later block
            y = tnames.get(tids[(i1 + j) % b], 0) >> j & later
            if x != y:
                i2 = ((x ^ y) & -(x ^ y)).bit_length() - 1
                if x >> i2 & 1:
                    return Contradicted("equal full blocks map to distinct full blocks", (i1, i2))
                return Contradicted("distinct full blocks map to one full block", (i1, i2))
        raise AssertionError("no conflict among the fully filled blocks")

    def gamma(self, p: int, k: int) -> Optional[GammaResult]:  # None where contradicted: see gamma_map
        pairs = self.matched(p, k)
        return Consistent(tuple(zip(*(map(self.block, side) for side in pairs)))) if isinstance(pairs, tuple) else pairs

    def matched(self, p: int, k: int) -> Union[None, Undetermined, tuple[tuple[str, ...], tuple[str, ...]]]:
        """``gamma`` short of decoding a Consistent witness: its distinct block pairs as slices."""
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
        if _blanks(self.sides[0][0])[1] and len(pairs) > 1:  # one block pair is a witness
            # per distinct in-block column of the distinct block pairs, named by its first offset: symbols pair off
            for xs, ys in dict.fromkeys(cols := list(zip(zip(*ss), zip(*ts)))):
                if len(both := set(zip(xs, ys))) != len(set(xs)) or len(both) != len(set(ys)):
                    return Undetermined(f"no positionwise witness at offset {cols.index((xs, ys))}")
        return ss, ts

    def block(self, text: str) -> Block:
        return tuple(map(self.decode.__getitem__, text))


def gamma_map(a: SkeletonTower, b: SkeletonTower, p: int, k: int) -> GammaResult:
    """Positional correspondence between the ``p``-blocks of ``a``'s deepest
    word and those of ``b``'s shifted by ``k``.

    Contradicted needs a quadruple of fully-filled blocks violating
    well-definedness or injectivity; the first such pair ``(j1, j2)`` in
    lexicographic order is reported.  Consistent needs matched blank masks,
    a well-defined injective map on block types, and (when blanks exist) a
    positionwise witness.  Everything else is Undetermined.

    Cost: O(n) for the common length ``n``: the source and the target's offset
    class ``k mod p`` are cut into the shapes the rest reads, once per tower.
    The conflict test takes a few operations on ``n/p``-bit masks per name of
    two or more full blocks, its location (found here alone, as verdicts keep
    only a Consistent) a few per block full on both sides up to it; the map
    O(n/p) C-level steps on the block numbers, and the ``D`` distinct block
    pairs' slices and columns O(D·p), with a Python step per distinct column for
    the witness and one ``map`` over ``Alphabet._decode`` per block decoded.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("towers use different alphabets")
    n = _common_length(a, b)
    if p < 1 or n % p:
        raise IncompatiblePeriods(f"stage {p} does not divide the common period {n}")
    return (pair := _Pair(a, b, n)).gamma(p, k) or pair.conflict(p, k)


class Verdict:
    pass


@dataclass(frozen=True)
class ConjugateCertified(Verdict):
    stage: int
    shift: int
    witness: Correspondence


@dataclass(frozen=True)
class NotConjugateCertified(Verdict):
    reason: str


@dataclass(frozen=True)
class RefutedUpTo(Verdict):
    radius: int
    stages: tuple[int, ...]


@dataclass(frozen=True)
class Unknown(Verdict):
    diagnostics: tuple[str, ...]


def phase_separated(tower: SkeletonTower, p: int) -> bool:
    """Whether the stage-p skeleton is certified distinct from all its proper
    rotations, i.e. for every d in 1..p-1 some residue pair (r, r+d) differs
    with certainty (In vs Out, or In with different symbols).

    This makes the p residue classes of every completion pairwise disjoint
    closed sets, which is what lets a blockwise permutation witness extend to
    a shift-commuting conjugacy (the phase of a point is recoverable).  A
    constant skeleton, for example, is not separated at any stage > 1: there
    a blockwise pairing says nothing about the shift dynamics.

    Cost: one p-bit mask per certified kind (Out, and In with each of K
    symbols), split off the status table's In mask by the b folded bit planes
    of the codes: O(b·(N + K·p)) bit operations, a machine word at a time.
    A rotation d is unseparated only if it moves each certified residue r0
    onto r0's kind or an Unknown one, so up to 64 anchors r0, rarest kind
    first, each keep only such d with one p-bit AND, stopping when none is
    left.  The survivors take the exact test in increasing d, a few p-bit
    operations per kind, up to the first unseparated d.  A mostly-Unknown
    stage keeps most d: there it costs the full scan plus the anchors.  The
    answer is kept per tower and stage beside its status tables.
    """
    separated = tower._status.get(("separated", p))
    if separated is None:
        separated = tower._status["separated", p] = _separated(tower, p)
    return separated


def _separated(tower: SkeletonTower, p: int) -> bool:
    if p > 0 and tower.deepest_period % p:  # status_masks rejects a p below 1
        return False  # the statuses repeat at the rotation d = gcd(p, deepest period) < p
    ins, outs, unknown = status_masks(tower, p)
    by_symbol = [ins]
    for plane in tower._planes[1:]:  # the In residues of one symbol agree on each folded bit plane of its code
        fold = _fold(plane, tower.deepest_period, p)
        by_symbol = [y for x in by_symbol for y in (x & fold, x & ~fold) if y]
    masks = sorted(filter(None, (outs, *by_symbol)), key=int.bit_count)  # one per certified kind
    left = (1 << p) - 2  # d in 1..p-1
    for m, r0 in islice(((x | unknown, r0) for x in masks for r0 in _set_bits(x)), 64):  # the anchors
        if not left:
            return True
        left &= m >> r0 | m << (p - r0)  # the d with r0 + d of r0's kind or Unknown
    certified = sum(masks)
    # each kind's residues x against the other certified residues y; rotating y by d puts residue r + d at bit r
    pairs = [(x, certified ^ x) for x in masks]
    return all(any(x & (y >> d | y << (p - d)) for x, y in pairs) for d in _set_bits(left))


def _margin(ins: int, g: int, max_radius: int) -> int:
    """Largest ``m' <= max_radius`` with the source certified In on ``[-2m', 2m']``, for its
    ``g``-bit In mask, else -1: the window first meets a non-In residue ``r`` when ``2m'``
    reaches its cyclic distance ``min(r, g - r)`` from 0.  Cost: a few big-int operations."""
    x = ins ^ (1 << g) - 1  # the non-In residues: those nearest 0 are the lowest and the highest
    d = min((x & -x).bit_length() - 1, g + 1 - x.bit_length())
    return min(max_radius, (d - 1) // 2) if x else max_radius


def _candidates(outs: int, g: int, radius: int, p: int) -> list[int]:
    """Classes ``c`` mod ``p`` of the shifts ``k`` whose window ``[k - radius, k + radius]``
    meets no Out residue of the target's ``g``-bit Out mask: those strictly inside a gap
    between Out residues, by more than ``radius`` at each end.  The modulus ``g`` divides
    ``p``, so a class holds all its ``n/p`` shifts or none.  Cost: O(p)."""
    outs = tuple(_set_bits(outs))
    if not outs:
        return list(range(p))
    good = set()
    for r1, r2 in zip(outs, (*outs[1:], outs[0] + g)):  # the last gap may run past g
        good.update(range(r1 + radius + 1, min(g, r2 - radius)), range(max(g, r1 + radius + 1) - g, r2 - radius - g))
    good = sorted(good)
    return [q + c for q in range(0, p, g) for c in good]


def conjugacy_verdict(a: SkeletonTower, b: SkeletonTower, max_radius: int) -> Verdict:
    """Decide as much as the finite stage allows, in fixed precedence.

    1. Declared scales present and unequal refute outright.
    2. A Consistent correspondence at the least (stage, shift), stages being
       the declared periods of either tower, certifies conjugacy of paired
       completions.  Only stages where both towers are ``phase_separated``
       are eligible: without that, distinct phases of a completion can land
       in the same closed set and a blockwise pairing fails to induce a
       well-defined shift-commuting map.
    3. Otherwise look for the largest radius ``m' <= max_radius`` refutable at
       some stage ``p``: the source must be certified-In on the doubled margin
       ``[-2m', 2m']``, candidate shifts are those where the target is nowhere
       certified-Out on ``[-m', m']``, and every candidate must be
       Contradicted.  Any shorter conjugacy would produce a candidate shift
       with a consistent correspondence, so none exists.
    4. Else Unknown, with a per-stage accounting.

    Cost: the decision (``conjugacy_decision``, all ``corpus`` runs) stops short of the
    ``Unknown`` count.  Each stage's blocks are cut as slices and numbered into a
    shape once per tower and offset reached, for all the tower's pairs, O(n)
    each, which a correspondence reads after an O(n) mask comparison; phase
    separation is checked only when reached; shifts with matching masks come
    from one O(n) string search on masks kept per tower.  Candidates are whole
    offset classes.  The refutation cuts them one at a time and reads each
    target shape's ``n/p`` rotations once, up to the first uncontradicted one;
    the count sums each shape's once, times its classes, and takes the shapes
    from ``_Pair.class_shapes``: O(n/d) per (stage-``d`` shape, ``c // d``)
    derived from a stage ``d | p`` and O(p) more, or O(n) per class cut.  So
    ``s`` shapes (3-5 on ``reference_example``) fill at most ``s·n/p``
    conflict-table entries per stage, each a few operations on ``n/p``-bit masks per name.
    Margins read the tables' In masks in a few big-int operations, independent of ``max_radius``.
    """
    if isinstance(decision := conjugacy_decision(a, b, max_radius), Verdict):
        return decision
    pair, stages, separated, margins, candidates = decision  # the explanation: an Unknown's per-stage accounting
    diagnostics = []
    for p, t in margins.items():
        if not separated[p]:
            diagnostics.append(f"stage {p}: phases not certified distinct; no certificate possible")
            continue
        line = f"stage {p}: no consistent shift; usable source margin radius {t}"
        if t >= 0:
            total = len(candidates[p]) * (pair.n // p)
            of = pair.class_shapes(p, stages, candidates[p])
            shapes, classes = dict(zip(map(id, of), of)), Counter(map(id, of))  # each shape's number of classes
            contradicted = sum(sum(pair.rotations_contradicted(p, s)) * classes[i] for i, s in shapes.items())
            line += f"; {total} candidate shifts at radius {t}: {contradicted} contradicted, {total - contradicted} not"
        diagnostics.append(line)
    return Unknown(tuple(diagnostics))


Undecided = NamedTuple(  # the per-stage facts an Unknown verdict's diagnostics are rendered from
    "Undecided", [("pair", _Pair), ("stages", list), ("separated", dict), ("margins", dict), ("candidates", dict)]
)


def conjugacy_decision(a: SkeletonTower, b: SkeletonTower, max_radius: int) -> Union[Verdict, Undecided]:
    """``conjugacy_verdict`` short of rendering ``Unknown`` diagnostics: the verdict, or
    the facts they are rendered from."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("towers use different alphabets")
    if None not in (a.declared_scale, b.declared_scale) and not supernatural_equal(a.declared_scale, b.declared_scale):
        return NotConjugateCertified(f"declared scales differ: {a.declared_scale} vs {b.declared_scale}")
    try:
        n = _common_length(a, b)
    except IncompatiblePeriods as exc:
        return Unknown((str(exc),))
    stages, pair = sorted(set(a.periods) | set(b.periods)), _Pair(a, b, n)
    separated: dict[int, bool] = {}
    for p in stages:
        separated[p] = phase_separated(a, p) and phase_separated(b, p)
        if not separated[p]:
            continue  # phases indistinct: a blockwise pairing would not pin the shift
        for k in pair.mask_shifts:  # mask match is necessary for Consistent
            g = pair.gamma(p, k)
            if isinstance(g, Consistent):
                return ConjugateCertified(p, k, g.correspondence)

    # A stage is eligible up to its margin and its candidates shrink as the
    # radius grows, so it refutes at some radius iff it refutes at its margin:
    # the largest refuted radius is the largest margin of a refuting stage.
    margins = {p: _margin(status_masks(a, g := _modulus(a, p))[0], g, max_radius) for p in stages}
    candidates = {  # g: the modulus of a tower's status table at stage p
        p: _candidates(status_masks(b, g := _modulus(b, p))[1], g, t, p) for p, t in margins.items() if t >= 0
    }

    def refutes(p: int) -> bool:  # each target shape's rotations once, up to the first uncontradicted one
        read: set[int] = set()  # the classes are cut one at a time, up to the first uncontradicted shape
        shapes = map(pair.shape, repeat(p), candidates[p])
        return all(all(pair.rotations_contradicted(p, s)) for s in shapes if not (id(s) in read or read.add(id(s))))

    for m in sorted(set(margins.values()) - {-1}, reverse=True):
        if refuting := tuple(p for p in stages if margins[p] == m and refutes(p)):
            return RefutedUpTo(m, refuting)
    return Undecided(pair, stages, separated, margins, candidates)


@dataclass(frozen=True)
class Part:
    """Finite-stage stand-in for the closed set of shifts of a completion by
    indices in one residue class mod ``p``; its skeleton is the ``p``-skeleton
    of the base rotated by the residue."""

    base: SkeletonTower
    p: int
    k: int

    def __post_init__(self):
        if self.p < 1 or self.base.deepest_period % self.p:
            raise NonDivisorError(f"{self.p} does not divide the deepest period")
        object.__setattr__(self, "k", self.k % self.p)


class StarStatus(Enum):
    STARRED = "Starred"
    NOT_STARRED = "NotStarred"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class StarredPart:
    part: Part
    status: StarStatus
    length: Optional[int]


def parts_star(tower: SkeletonTower, p: int) -> tuple[StarredPart, ...]:
    """Star status of every residue: Starred when position 0 is certified-In
    and position -1 certified-Out in the rotated skeleton; the certified block
    length is that of the ``filled_blocks`` span starting there (Unknown if an
    Unknown residue intervenes before the next certified hole).
    Cost: the table's O(p) digits, the ``filled_blocks`` spans, and a ``Part`` per residue."""
    digits, lengths = _digits(tower, p), {span.start: span.length for span in filled_blocks(tower, p).spans}
    out: list[StarredPart] = []
    for k in range(p):
        prev, here = digits[k - 1], digits[k]  # 0 In, 1 Out, 2 Unknown
        if prev + here == "10":  # k follows a hole and is In, so a span starts there
            out.append(StarredPart(Part(tower, p, k), StarStatus.STARRED, lengths[k]))
        else:
            status = StarStatus.NOT_STARRED if here == "1" or prev == "0" else StarStatus.UNKNOWN
            out.append(StarredPart(Part(tower, p, k), status, None))
    return tuple(out)


@dataclass(frozen=True)
class ChiStage:
    period: int
    parts: frozenset[Part]
    complete: bool


def chi_stage(tower: SkeletonTower, p: int) -> ChiStage:
    """Midpoint-centered starred parts, read from the ``filled_blocks``
    spans: a span starts right after a hole, so its first residue is starred
    iff it is In, and each span of certified length ``j`` starting at ``k``
    contributes the part at ``(k + j//2) mod p``.  The stage is complete iff
    no residue is Unknown: an Unknown residue lies in an uncertified span or,
    with no hole at all, leaves the star status of the next residue Unknown.
    Cost: one ``filled_blocks`` and a Python step per span."""
    return _chi(tower, filled_blocks(tower, p))


def _chi(tower: SkeletonTower, fb) -> ChiStage:  # chi_stage from the tower's filled blocks
    parts = {Part(tower, fb.period, (s.start + s.length // 2) % fb.period) for s in fb.spans if s.length is not None}
    return ChiStage(fb.period, frozenset(parts), not fb.unknown_residues)


class DpKind(Enum):
    CONSISTENT_WITNESS = "ConsistentWitness"
    REFUTED = "Refuted"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class DpResult:
    kind: DpKind
    witness: Optional[Correspondence] = None
    block_rotation: Optional[int] = None


def dp_equivalent(w: Part, z: Part) -> DpResult:
    """Orbit comparison of two parts under blockwise permutations over the
    block-aligned shifts ``j·p``: the first Consistent correspondence is a
    witness, Contradicted everywhere is a refutation.  Only shifts with
    matching blank masks can be Consistent, so ``gamma`` runs only there.

    Cost: O(n) to find the mask-compatible shifts (``_Pair.mask_shifts``); a
    part ``(tower, k)`` reads its ``B = n/p`` blocks' shape at offset ``k`` of its
    tower, cut once per tower (every shift reads the target's, rotated); then
    ``gamma_map``'s steps per mask-compatible block-aligned shift, and, when none
    is Consistent, one conflict-table entry (a few operations on ``B``-bit masks
    per name) per block-aligned shift, already filled where ``gamma`` ran.  The
    scan (``dp_scan``, all ``efin_equal`` runs) decodes no witness: a found
    one is decoded by one more ``gamma`` at its rotation.
    """
    if (found := dp_scan(w, z)).block_rotation is None:
        return found
    pair, j = _Pair(w.base, z.base, w.base.deepest_period, w.k, z.k), found.block_rotation
    return DpResult(found.kind, pair.gamma(w.p, j * w.p).correspondence, j)


def dp_scan(w: Part, z: Part) -> DpResult:
    """``dp_equivalent`` short of decoding the witness: its kind and block rotation."""
    if w.p != z.p:
        raise PeriodMismatch(f"parts live at different periods {w.p} and {z.p}")
    if w.base.alphabet != z.base.alphabet:
        raise AlphabetMismatch("parts use different alphabets")
    if w.base.deepest_period != z.base.deepest_period:
        raise PeriodMismatch("parts rest on towers of different depth")
    pair, p = _Pair(w.base, z.base, w.base.deepest_period, w.k, z.k), w.p
    for k in pair.mask_shifts:
        if k % p == 0 and isinstance(pair.matched(p, k), tuple):
            return DpResult(DpKind.CONSISTENT_WITNESS, None, k // p)
    refuted = all(pair.rotations_contradicted(p, pair.shape(p, 0)))  # the block-aligned shifts, as gamma read them
    return DpResult(DpKind.REFUTED if refuted else DpKind.UNDETERMINED)


class EfinResult(Enum):
    CERTIFIED_EQUAL = "CertifiedEqual"
    REFUTED = "Refuted"
    UNDETERMINED = "Undetermined"


def efin_equal(s: Iterable[Part], t: Iterable[Part], p: int) -> EfinResult:
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
    spared: set[Part] = set()  # the parts of the pairs run and not Refuted
    for x, y in product(s_list, t_list):
        if not bare:
            break
        if not bare.isdisjoint((x, y)) and (kind := dp_scan(x, y).kind) is not DpKind.REFUTED:
            spared |= {x, y}
            if kind is DpKind.CONSISTENT_WITNESS:
                bare -= {x, y}
    if not bare:
        return EfinResult.CERTIFIED_EQUAL
    return EfinResult.REFUTED if bare - spared else EfinResult.UNDETERMINED  # a bare part's pairs all ran


def with_common_depth(a: SkeletonTower, b: SkeletonTower) -> tuple[SkeletonTower, SkeletonTower]:
    """Pad the shallower tower by repeating its deepest word so both towers
    end at the same period; raises IncompatiblePeriods when neither deepest
    period divides the other."""
    n = _common_length(a, b)
    return _pad(a, n), _pad(b, n)


def _pad(t: SkeletonTower, n: int) -> SkeletonTower:
    if t.deepest_period == n:
        return t
    deeper = (n, t._text * (n // t.deepest_period))
    return SkeletonTower._encoded(t.alphabet, (*zip(t.periods, t._pieces), deeper), t.declared_scale)


@dataclass(frozen=True)
class StageReport:
    period: int
    evaluated: bool
    result: Optional[EfinResult]
    detail: str
    min_block_length: Optional[int]
    trust_radius: Optional[int]


@dataclass(frozen=True)
class InvariantComparison:
    scale_equal: bool
    stages: tuple[StageReport, ...]
    equal_suffix: int
    summary: str


def invariant_compare(a: SkeletonTower, b: SkeletonTower, stages: int) -> InvariantComparison:
    """Stage-wise comparison of the chi invariant along the scale's stage
    factorization; both towers must declare (equal) scales for the stage
    sequence to be meaningful.

    Both towers are padded to a common deepest period, and each stage
    dividing it is evaluated with efin_equal on the two chi sets
    (Undetermined when either side is incomplete).  The summary reports the
    longest suffix of evaluated stages certified equal.
    The advisory trust radius per stage is the largest code length the
    certified minimum block length can vouch for (blocks longer than 4m+6).
    Cost per stage: one ``filled_blocks`` per tower, for spans and chi parts.
    """
    if a.declared_scale is None or b.declared_scale is None:
        raise MissingScaleDeclaration("both towers must declare a scale")
    if not supernatural_equal(a.declared_scale, b.declared_scale):
        return InvariantComparison(False, (), 0, "NotEquivalent(scale)")
    tau = natural_factorization(a.declared_scale, stages)
    try:
        a, b = with_common_depth(a, b)  # both towers now end at one deepest period
        incompatible = None
    except IncompatiblePeriods as exc:
        incompatible = str(exc)
    rows: list[StageReport] = []
    for p in tau:
        if incompatible or a.deepest_period % p:
            detail = incompatible or "stage does not divide the deepest periods"
            rows.append(StageReport(p, False, None, detail, None, None))
            continue
        fa, fb = filled_blocks(a, p), filled_blocks(b, p)  # once per tower and stage: the chi parts read them
        min_len = min((s.length for s in (*fa.spans, *fb.spans) if s.length is not None), default=None)
        trust = (min_len - 7) // 4 if min_len is not None and min_len >= 7 else None
        ca, cb = _chi(a, fa), _chi(b, fb)
        if ca.complete and cb.complete:
            result, detail = efin_equal(ca.parts, cb.parts, p), f"{len(ca.parts)} vs {len(cb.parts)} parts"
        else:
            result, detail = EfinResult.UNDETERMINED, "incomplete chi stage"
        rows.append(StageReport(p, True, result, detail, min_len, trust))
    equal = [r.result is EfinResult.CERTIFIED_EQUAL for r in rows if r.evaluated]
    suffix = equal[::-1].index(False) if False in equal else len(equal)
    summary = (
        f"{suffix} of {len(equal)} evaluated stages certified equal (trailing suffix)"
        if equal
        else "no evaluable stages"
    )
    return InvariantComparison(True, tuple(rows), suffix, summary)
