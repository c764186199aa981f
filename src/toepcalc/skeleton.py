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
from typing import Optional

from .core import (
    DivisibilityError,
    PartialCyclicWord,
    SkeletonTower,
)
from .odometer import (
    EmptyScale,
    OdometerError,
    SupernaturalNumber,
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
        return tuple(r for r, s in enumerate(self.statuses) if s is status)


def periodic_part(tower: SkeletonTower, p: int) -> ResidueStatusSet:
    """Certified ``p``-periodic part, for ``p`` dividing the deepest period.

    A residue is read from its class, the deepest-level cells congruent to
    it: In with symbol ``a`` when every cell holds ``a``, Out when two cells
    hold different symbols, and otherwise (a blank) Out at the deepest
    period, where the class is the one literal cell, and Unknown below it.
    Each table is built once per tower and reused by every later query.
    """
    deep = tower.deepest_period
    if p < 1 or deep % p:
        raise NonDivisorError(f"{p} does not divide the deepest period {deep}")
    cached = tower._status.get(p)
    if cached is not None:
        return cached
    w = tower.deepest_word
    statuses: list[Status] = []
    symbols: list[Optional[str]] = []
    for r in range(p):
        cells = set(w.cells[r::p])
        if len(cells) == 1 and None not in cells:
            statuses.append(Status.IN)
            symbols.append(*cells)
        else:
            statuses.append(Status.OUT if len(cells - {None}) > 1 or p == deep else Status.UNKNOWN)
            symbols.append(None)
    rss = tower._status[p] = ResidueStatusSet(p, tuple(statuses), tuple(symbols))
    return rss


def period_status(tower: SkeletonTower, q: int) -> ResidueStatusSet:
    """Certified status of the ``q``-periodic part for arbitrary ``q >= 1``.

    The positions congruent to ``x`` mod ``q`` meet exactly the residue
    classes of ``x`` modulo ``g = gcd(q, deepest)``, and they meet each one
    unboundedly often, so certification transfers both ways: the returned set
    (modulus ``g``) answers for the ``q``-periodic part at every position.
    """
    if q < 1:
        raise NonDivisorError(f"period {q} is not positive")
    return periodic_part(tower, math.gcd(q, tower.deepest_period))


def skeleton_word(tower: SkeletonTower, p: int) -> tuple[PartialCyclicWord, tuple[bool, ...]]:
    """The certified ``p``-skeleton as a word (In cells filled) plus a mask
    marking which blanks are Unknown rather than certified holes."""
    rss = periodic_part(tower, p)
    cells = tuple(
        rss.symbols[r] if rss.statuses[r] is Status.IN else None for r in range(p)
    )
    mask = tuple(s is Status.UNKNOWN for s in rss.statuses)
    return PartialCyclicWord(cells), mask


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
    """
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


def essential_period_status(tower: SkeletonTower, p: int) -> EssentialStatus:
    """Certify whether ``p`` is an essential period: nonempty periodic part
    differing from the ``q``-periodic part for every ``q < p``.

    Separation from ``q`` needs a position certified In on one side and Out
    on the other; comparisons run over one period of the two status
    functions, whose moduli both divide the deepest period, and stop at the
    first separating position.  Unseparated tables meet every residue of
    each in that window, so they are certified equal iff neither has an
    Unknown residue.  The ``q``-status depends only on
    ``d = gcd(q, deepest)``, and ``d`` is the least ``q`` of its class, so
    only the divisors ``d < p`` of the deepest period are compared;
    ``undetermined`` lists those divisors.
    """
    rp = period_status(tower, p)
    if all(s is Status.OUT for s in rp.statuses):
        return EssentialStatus(p, EssentialOutcome.NOT_ESSENTIAL, "periodic part certified empty")
    deep = tower.deepest_period
    undetermined: list[int] = []
    for q in (d for d in range(1, min(p, deep + 1)) if deep % d == 0):
        rq = periodic_part(tower, q)
        window = math.lcm(rp.modulus, rq.modulus)
        pairs = zip(rp.statuses * (window // rp.modulus), rq.statuses * (window // rq.modulus))
        if any(a is not b and Status.UNKNOWN not in (a, b) for a, b in pairs):  # In against Out
            continue
        if Status.UNKNOWN not in (*rp.statuses, *rq.statuses):
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
    if Status.IN not in rp.statuses:
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
    """
    deep = tower.deepest_period
    essentials: list[int] = []
    pending: list[int] = []
    for p in (d for d in range(1, deep + 1) if deep % d == 0):
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
    """
    rows: list[GrowthRow] = []
    for p, _ in tower.levels:
        fb = filled_blocks(tower, p)
        certified = [s.length for s in fb.spans if s.length is not None]
        # a certified span of length L lies between holes L + 1 apart; a hole
        # without a span after it is followed at once by the next hole
        gaps = [length + 1 for length in certified] + [1] * (len(fb.holes) > len(fb.spans))
        rows.append(
            GrowthRow(
                period=p,
                min_block_length=min(certified) if certified else None,
                min_hole_gap=min(gaps) if gaps else None,
                unknown_count=len(fb.unknown_residues),
                fully_periodic=fb.fully_periodic,
            )
        )
    vals = [r.min_block_length for r in rows if r.min_block_length is not None]
    if len(vals) < 2 or all(b > a for a, b in zip(vals, vals[1:])):
        trend = "increasing"
    elif all(b == a for a, b in zip(vals, vals[1:])):
        trend = "stable"
    else:
        trend = "non-monotone"
    return GrowthProfile(tuple(rows), trend)
