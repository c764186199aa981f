"""Certified periodic-part analysis of skeleton towers.

Every function here answers a question about the completed structure a tower
approximates, and tags the answer In / Out / Unknown.  The certification
discipline is asymmetric by design:

* at the deepest declared period the word is read literally — filled cells
  are the periodic part, blank cells are its holes at this stage;
* at a proper divisor ``p`` only filled cells testify: a residue is In when
  its whole class at the deepest period is filled with one symbol, Out when
  two filled cells disagree, and Unknown otherwise, because a blank left at
  this stage may still be filled by a deeper refinement.

In and conflict-Out verdicts survive refinement unchanged; only the literal
Out of a blank at the (moving) deepest level can soften to Unknown when a new
level arrives.  Nothing ever flips between In and Out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import accumulate, compress, islice, repeat
from operator import is_
from typing import Iterator, Optional

from .core import DivisibilityError, PartialCyclicWord, SkeletonTower, _lookup
from .odometer import (
    EmptyScale,
    OdometerError,
    SupernaturalNumber,
    factor_int,
    prime_index,
    supernatural_lcm,
)


class NonDivisorError(DivisibilityError):
    """Literal periodic-part queries require the period to divide the deepest one."""


class Status(Enum):
    IN = "In"
    OUT = "Out"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ResidueStatusSet:
    """Certified membership of each residue class mod ``modulus`` in a
    periodic part, with the certified symbol where membership holds."""

    modulus: int
    statuses: tuple[Status, ...]
    symbols: tuple[Optional[str], ...]

    def status_at(self, x: int) -> Status:
        return self.statuses[x % self.modulus]

    def symbol(self, x: int) -> Optional[str]:
        return self.symbols[x % self.modulus]

    def residues(self, status: Status) -> tuple[int, ...]:
        return tuple(compress(range(self.modulus), map(is_, self.statuses, repeat(status))))


def _fold(mask: int, n: int, p: int) -> int:
    """OR of the ``n // p`` consecutive ``p``-bit chunks of the ``n``-bit
    ``mask``, for ``p`` dividing ``n``: bit ``r`` is set iff some bit
    congruent to ``r`` mod ``p`` is.  Each step ORs the upper half of the
    chunks onto the lower, so it takes O(log(n/p)) big-int operations."""
    while n > p:
        half = n // p // 2 * p
        high = mask >> half
        mask = high | (mask ^ high << half)  # the chunks above half, ORed onto those below
        n -= half
    return mask


_STATUS_OF_DIGIT = {"0": Status.IN, "1": Status.OUT, "2": Status.UNKNOWN}


def _set_bits(x: int) -> Iterator[int]:
    """The set bits of ``x`` in increasing order: each sits just above a run of zeros,
    so the positions are running sums of the runs' lengths plus one, all C-level passes."""
    runs = map(len, bin(x)[:1:-1].split("1"))  # the zeros below the lowest set bit, then between set bits
    return islice(accumulate(map((1).__add__, runs), initial=-1), 1, x.bit_count() + 1)


def status_masks(tower: SkeletonTower, p: int) -> tuple[int, int, int]:
    """The In, Out and Unknown residues of ``periodic_part(tower, p)``, for a
    divisor ``p`` of the deepest period, as ``p``-bit masks (bit ``r`` for
    residue ``r``), built once per tower from the bit planes of its encoding.

    Cost: the deepest word is encoded once per tower as ``b + 1`` bit masks of
    N bits, for a ``b``-bit cell code.  A table folds ``2b + 1`` N-bit masks
    made from them to ``p`` bits, O(N·b) bit operations done a machine word
    at a time, and builds no per-residue object.
    """
    cached = tower._status.get(p)
    if cached is not None:
        return cached
    n = tower.deepest_period
    if p < 1 or n % p:
        raise NonDivisorError(f"{p} does not divide the deepest period {n}")
    filled, *planes = tower._planes
    blanks = _fold(filled ^ (1 << n) - 1, n, p)
    conflicts = 0
    for plane in planes:  # two filled cells of a class differ in some bit of their codes
        conflicts |= _fold(plane, n, p) & _fold(filled ^ plane, n, p)
    unknowns = 0 if p == n else blanks & ~conflicts
    outs = (conflicts | blanks) ^ unknowns
    table = tower._status[p] = ((1 << p) - 1 ^ outs ^ unknowns, outs, unknowns)
    return table


def _digits(tower: SkeletonTower, p: int) -> str:  # per residue r, the digit outs_r + 2·unknowns_r
    _, outs, unknowns = status_masks(tower, p)  # read as hex, the binary digits of a mask put bit r in hex digit r
    return format(int(format(outs, "b"), 16) | int(format(unknowns, "b"), 16) << 1, f"0{p}x")[::-1]


def _view(tower: SkeletonTower, p: int) -> tuple[str, str]:  # the residues' digits; code points where In, else 0
    digits = _digits(tower, p)
    return digits, "".join(map({"1": "\0", "2": "\0"}.get, digits, tower._text[:p]))


def periodic_part(tower: SkeletonTower, p: int) -> ResidueStatusSet:
    """Certified ``p``-periodic part, for ``p`` dividing the deepest period.

    A residue is read from its class, the deepest-level cells congruent to
    it: In with symbol ``a`` when every cell holds ``a``, Out when two cells
    hold different symbols, and otherwise (a blank) Out at the deepest
    period, where the class is the one literal cell, and Unknown below it.

    Cost: the table's bit masks (``status_masks``, kept on the tower), then
    O(p) C-level steps on every call to read the view off them; none is kept.
    """
    digits, skeleton = _view(tower, p)
    return ResidueStatusSet(p, tuple(map(_STATUS_OF_DIGIT.get, digits)), _lookup(tower.alphabet._decode, skeleton))


def period_status(tower: SkeletonTower, q: int) -> ResidueStatusSet:
    """Certified status of the ``q``-periodic part for arbitrary ``q >= 1``.

    The positions congruent to ``x`` mod ``q`` meet exactly the residue
    classes of ``x`` modulo ``g = gcd(q, deepest)``, and they meet each one
    unboundedly often, so certification transfers both ways: the returned set
    (modulus ``g``) answers for the ``q``-periodic part at every position.
    """
    return periodic_part(tower, _modulus(tower, q))


def _modulus(tower: SkeletonTower, q: int) -> int:  # period_status(tower, q).modulus, with no table
    if q < 1:
        raise NonDivisorError(f"period {q} is not positive")
    return math.gcd(q, tower.deepest_period)


def skeleton_word(tower: SkeletonTower, p: int) -> tuple[PartialCyclicWord, tuple[bool, ...]]:
    """The certified ``p``-skeleton as a word (In cells filled) plus a mask marking which
    blanks are Unknown rather than certified holes: O(p) C-level steps on the table's masks."""
    digits, skeleton = _view(tower, p)
    return PartialCyclicWord(_lookup(tower.alphabet._decode, skeleton)), tuple(map("2".__eq__, digits))


@dataclass(frozen=True)
class BlockSpan:
    """Maximal certified-In arc between two adjacent holes.

    ``length`` is None when the arc contains Unknown residues: its extent is
    then only an upper bound, so no length is certified.
    """

    start: int
    length: Optional[int]
    modulus: int

    @property
    def wraps(self) -> bool:
        return self.length is not None and self.start + self.length > self.modulus


@dataclass(frozen=True)
class FilledBlocks:
    period: int
    fully_periodic: bool
    spans: tuple[BlockSpan, ...]
    holes: tuple[int, ...]
    unknown_residues: tuple[int, ...]


def filled_blocks(tower: SkeletonTower, p: int) -> FilledBlocks:
    """Arcs of certified membership between certified holes at period ``p``.

    With no certified hole the structure is fully periodic as far as this
    stage can tell (``unknown_residues`` says how far that is).  Otherwise
    each pair of cyclically adjacent holes bounds one arc; the arc's length is
    certified only when every residue in it is In.

    Cost: O(p) C-level steps on the table's bit masks (``status_masks``),
    then a Python step per span to build it.
    """
    _, outs, unknowns = status_masks(tower, p)
    holes, unknown = tuple(_set_bits(outs)), tuple(_set_bits(unknowns))
    spans = (BlockSpan((h + 1) % p, None if "2" in a else len(a), p) for h, a in zip(holes, _arcs(tower, p)) if a)
    return FilledBlocks(p, not holes, tuple(spans), holes, unknown)


def _arcs(tower: SkeletonTower, p: int) -> list[str]:
    """After each hole at period ``p``, in increasing order, the residues up to the next, cyclically, as digits
    ``0`` (In) and ``2`` (Unknown): the digits rotated to follow the first hole, split at holes, in C-level passes."""
    if not (outs := status_masks(tower, p)[1]):
        return []
    digits, h = _digits(tower, p), (outs & -outs).bit_length()  # h: just after the first hole
    return (digits[h:] + digits[:h]).split("1")[:-1]


class EssentialOutcome(Enum):
    ESSENTIAL = "EssentialCertified"
    NOT_ESSENTIAL = "NotEssentialCertified"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class EssentialStatus:
    period: int
    outcome: EssentialOutcome
    reason: str
    undetermined: tuple[int, ...] = ()


@cache
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of ``n >= 1`` in increasing order."""
    divisors = [1]
    for prime, e in factor_int(n):
        divisors = [d * prime**k for d in divisors for k in range(e + 1)]
    return tuple(sorted(divisors))


def essential_period_status(tower: SkeletonTower, p: int) -> EssentialStatus:
    """Certify whether ``p`` is an essential period: nonempty periodic part
    differing from the ``q``-periodic part for every ``q < p``.

    Separation from ``q`` needs a position certified In on one side and Out
    on the other.  Residue ``r`` of one table and ``s`` of the other meet at
    a common position iff ``r ≡ s`` modulo the gcd ``g`` of the two moduli
    (Chinese remainder theorem), so the tables separate iff folding the In
    residues of one and the Out residues of the other to ``g`` leaves a
    common bit.  Unseparated tables meet every residue of each, so they are
    certified equal iff neither has an Unknown residue.  The ``q``-status
    depends only on ``d = gcd(q, deepest)``, and ``d`` is the least ``q`` of
    its class, so only the divisors ``d < p`` of the deepest period are
    compared; ``undetermined`` lists those divisors.

    Cost: four folds per divisor ``q < p``, each linear in the bits of its
    table, on top of the tables' bit masks (``status_masks``).
    """
    m = _modulus(tower, p)
    ins, outs, unknowns = status_masks(tower, m)
    if not ins | unknowns:
        return EssentialStatus(p, EssentialOutcome.NOT_ESSENTIAL, "periodic part certified empty")
    undetermined: list[int] = []
    for q in _divisors(tower.deepest_period):
        if q >= p:
            break
        q_ins, q_outs, q_unknowns = status_masks(tower, q)
        g = math.gcd(m, q)
        if _fold(ins, m, g) & _fold(q_outs, q, g) or _fold(outs, m, g) & _fold(q_ins, q, g):
            continue
        if not unknowns | q_unknowns:
            return EssentialStatus(
                p, EssentialOutcome.NOT_ESSENTIAL, f"certified equal to the {q}-periodic part"
            )
        undetermined.append(q)
    if undetermined:
        return EssentialStatus(
            p,
            EssentialOutcome.UNKNOWN,
            "separation undecided against " + ", ".join(map(str, undetermined)),
            tuple(undetermined),
        )
    if not ins:
        return EssentialStatus(
            p, EssentialOutcome.UNKNOWN, "separated everywhere but nonemptiness uncertified"
        )
    return EssentialStatus(p, EssentialOutcome.ESSENTIAL, "separated from every shorter period")


@dataclass(frozen=True)
class ScaleTruncation:
    certified: SupernaturalNumber
    pending: tuple[int, ...]
    essentials: tuple[int, ...]


def scale_truncation(tower: SkeletonTower) -> ScaleTruncation:
    """lcm of the certified essential periods among divisors of the deepest
    period, plus the divisors whose essential status is still open.

    Only divisors of the deepest period can be certified essential at this
    stage (anything else is indistinguishable from its gcd with it), so the
    scan is complete.  Each of them divides the deepest period, which
    ``validate_tower`` has checked to divide a declared scale.

    Cost: one ``essential_period_status`` per divisor, so O(d(N)²) folds for
    the d(N) divisors of the deepest period N, besides their tables.
    """
    essentials: list[int] = []
    pending: list[int] = []
    for p in _divisors(tower.deepest_period):
        st = essential_period_status(tower, p)
        if st.outcome is EssentialOutcome.ESSENTIAL:
            essentials.append(p)
        elif st.outcome is EssentialOutcome.UNKNOWN:
            pending.append(p)
    certified = supernatural_lcm(*(SupernaturalNumber.from_int(p) for p in essentials))
    return ScaleTruncation(certified, tuple(pending), tuple(essentials))


_STAGE_VALUE_BITS = 10_000  # Python refuses to print ints of more than 4300 digits (~14284 bits)


def _stage_value(powers: list[tuple[int, int]]) -> int:
    """``prod p^e``, refused with ``OdometerError`` above ``_STAGE_VALUE_BITS``
    bits; ``p^e`` has more than ``(bits of p - 1)·e`` bits, so a value far
    above the bound is refused before any power is computed."""
    if sum((p.bit_length() - 1) * e for p, e in powers) < _STAGE_VALUE_BITS:
        value = math.prod(p**e for p, e in powers)
        if value.bit_length() <= _STAGE_VALUE_BITS:
            return value
    raise OdometerError(f"a stage value is not below 2^{_STAGE_VALUE_BITS}")


def natural_factorization(u: SupernaturalNumber, count: int) -> tuple[int, ...]:
    """Stage sequence of a scale: the distinct values of
    ``prod_{i<=t+1} p_i ^ min(k_i, t+1)`` over the first ``t+1`` primes, with
    ones dropped.  Finite scales stabilize and the sequence ends there; for
    the rest exactly ``count`` terms are produced.  A stage value of more
    than ``_STAGE_VALUE_BITS`` bits raises ``OdometerError``.
    """
    if count < 0:
        raise OdometerError("count must be nonnegative")
    if not u.factors:
        raise EmptyScale("the trivial scale has no stage factorization")
    # only u's own primes contribute; the ambient sequence enters via indices
    entries = [(prime_index(p), p, k) for p, k in u.factors]
    out: list[int] = []
    t = 0
    while len(out) < count:
        value = _stage_value([(p, int(min(k, t + 1))) for index, p, k in entries if index <= t + 1])
        if value != 1 and (not out or out[-1] != value):
            out.append(value)
        # the value changes only when an entered exponent grows or another prime enters
        if any(index <= t + 1 and k > t + 1 for index, _, k in entries):
            t += 1
        else:
            entering = [index - 1 for index, _, _ in entries if index > t + 1]
            if not entering:
                break  # every exponent is saturated: the finite scale is reached
            t = min(entering)
    return tuple(out)


@dataclass(frozen=True)
class GrowthRow:
    period: int
    min_block_length: Optional[int]
    min_hole_gap: Optional[int]
    unknown_count: int
    fully_periodic: bool


@dataclass(frozen=True)
class GrowthProfile:
    rows: tuple[GrowthRow, ...]
    trend: str


def growth_profile(tower: SkeletonTower) -> GrowthProfile:
    """Per-level census of certified block structure.

    The trend compares the certified minimum block lengths level by level:
    "increasing" (strictly), "stable" (all equal), or "non-monotone"; levels
    without a certified block are skipped in the comparison.
    Cost: per level, the ``filled_blocks`` spans' lengths as C-level passes
    over the table's digits, with no span built.
    """
    rows: list[GrowthRow] = []
    for p in tower.periods:
        arcs = _arcs(tower, p)
        certified = [len(arc) for arc in arcs if arc and "2" not in arc]
        # a certified span of length L lies between holes L + 1 apart; a hole
        # without a span after it is followed at once by the next hole
        gaps = [length + 1 for length in certified] + [1] * ("" in arcs)
        least, unknowns = min(certified) if certified else None, status_masks(tower, p)[2].bit_count()
        rows.append(GrowthRow(p, least, min(gaps) if gaps else None, unknowns, fully_periodic=not arcs))
    vals = [r.min_block_length for r in rows if r.min_block_length is not None]
    if len(vals) < 2 or all(b > a for a, b in zip(vals, vals[1:])):
        trend = "increasing"
    elif all(b == a for a, b in zip(vals, vals[1:])):
        trend = "stable"
    else:
        trend = "non-monotone"
    return GrowthProfile(tuple(rows), trend)
