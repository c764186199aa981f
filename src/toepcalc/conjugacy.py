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

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Optional

from .codes import AlphabetMismatch, PeriodMismatch
from .core import PartialCyclicWord, SkeletonTower, rotate_tower
from .odometer import supernatural_equal
from .skeleton import (
    NonDivisorError,
    Status,
    filled_blocks,
    natural_factorization,
    period_status,
    periodic_part,
    skeleton_word,
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


def _tiled(word: PartialCyclicWord, n: int) -> tuple[Optional[str], ...]:
    return word.repeated(n // word.period).cells if n != word.period else word.cells


def _common_length(a: SkeletonTower, b: SkeletonTower) -> int:
    na, nb = a.deepest_period, b.deepest_period
    if na % nb and nb % na:
        raise IncompatiblePeriods(f"deepest periods {na} and {nb} do not divide one another")
    return max(na, nb)


def gamma_map(a: SkeletonTower, b: SkeletonTower, p: int, k: int) -> GammaResult:
    """Positional correspondence between the ``p``-blocks of ``a``'s deepest
    word and those of ``b``'s shifted by ``k``.

    Contradicted needs a quadruple of fully-filled blocks violating
    well-definedness or injectivity.  Consistent needs matched blank masks,
    a well-defined injective map on block types, and (when blanks exist) a
    positionwise witness.  Everything else is Undetermined.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("towers use different alphabets")
    n = _common_length(a, b)
    if p < 1 or n % p:
        raise IncompatiblePeriods(f"stage {p} does not divide the common period {n}")
    wa = _tiled(a.deepest_word, n)
    wb = _tiled(b.deepest_word, n)
    shifted = tuple(wb[(x + k) % n] for x in range(n))
    blocks = n // p
    src = [wa[j * p : (j + 1) * p] for j in range(blocks)]
    tgt = [shifted[j * p : (j + 1) * p] for j in range(blocks)]

    def full(block: Block) -> bool:
        return all(c is not None for c in block)

    for j1, j2 in combinations(range(blocks), 2):
        if src[j1] == src[j2] and tgt[j1] != tgt[j2]:
            if full(src[j1]) and full(tgt[j1]) and full(tgt[j2]):
                return Contradicted("equal full blocks map to distinct full blocks", (j1, j2))
        if tgt[j1] == tgt[j2] and src[j1] != src[j2]:
            if full(tgt[j1]) and full(src[j1]) and full(src[j2]):
                return Contradicted("distinct full blocks map to one full block", (j1, j2))

    for j in range(blocks):
        if tuple(c is None for c in src[j]) != tuple(c is None for c in tgt[j]):
            return Undetermined(f"blank masks differ at block {j}")

    forward: dict[Block, tuple[Block, int]] = {}
    backward: dict[Block, tuple[Block, int]] = {}
    order: list[tuple[Block, Block]] = []
    for j in range(blocks):
        s, t = src[j], tgt[j]
        if s in forward:
            if forward[s][0] != t:
                return Undetermined(
                    f"partial blocks {j} and {forward[s][1]} break well-definedness"
                )
        else:
            forward[s] = (t, j)
            order.append((s, t))
        if t in backward:
            if backward[t][0] != s:
                return Undetermined(
                    f"partial blocks {j} and {backward[t][1]} break injectivity"
                )
        else:
            backward[t] = (s, j)

    if any(not full(s) for s in src):
        for u in range(p):
            seen: dict[str, str] = {}
            hit: dict[str, str] = {}
            for j in range(blocks):
                x, y = src[j][u], tgt[j][u]
                if x is None:
                    continue
                assert y is not None  # masks matched above
                if seen.setdefault(x, y) != y:
                    return Undetermined(f"no positionwise witness at offset {u}")
                if hit.setdefault(y, x) != x:
                    return Undetermined(f"no positionwise witness at offset {u}")
    return Consistent(tuple(order))


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


def _blank_set(cells: tuple[Optional[str], ...]) -> frozenset[int]:
    return frozenset(i for i, c in enumerate(cells) if c is None)


def _certified_distinct(rss, r: int, d: int) -> bool:
    s1, s2 = rss.status_at(r), rss.status_at(r + d)
    if s1 is Status.IN and s2 is Status.IN:
        return rss.symbol(r) != rss.symbol(r + d)
    return {s1, s2} == {Status.IN, Status.OUT}


def phase_separated(tower: SkeletonTower, p: int) -> bool:
    """Whether the stage-p skeleton is certified distinct from all its proper
    rotations, i.e. for every d in 1..p-1 some residue pair (r, r+d) differs
    with certainty (In vs Out, or In with different symbols).

    This makes the p residue classes of every completion pairwise disjoint
    closed sets, which is what lets a blockwise permutation witness extend to
    a shift-commuting conjugacy (the phase of a point is recoverable).  A
    constant skeleton, for example, is not separated at any stage > 1: there
    a blockwise pairing says nothing about the shift dynamics.
    """
    rss = period_status(tower, p)
    return all(
        any(_certified_distinct(rss, r, d) for r in range(p)) for d in range(1, p)
    )


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
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("towers use different alphabets")
    if (
        a.declared_scale is not None
        and b.declared_scale is not None
        and not supernatural_equal(a.declared_scale, b.declared_scale)
    ):
        return NotConjugateCertified(
            f"declared scales differ: {a.declared_scale} vs {b.declared_scale}"
        )
    try:
        n = _common_length(a, b)
    except IncompatiblePeriods as exc:
        return Unknown((str(exc),))
    stages = sorted(set(a.periods) | set(b.periods))
    wa = _tiled(a.deepest_word, n)
    wb = _tiled(b.deepest_word, n)
    blanks_a = _blank_set(wa)
    blanks_b = _blank_set(wb)
    separated = {p: phase_separated(a, p) and phase_separated(b, p) for p in stages}
    for p in stages:
        if not separated[p]:
            continue  # phases indistinct: a blockwise pairing would not pin the shift
        for k in range(n):
            if frozenset((x - k) % n for x in blanks_b) != blanks_a:
                continue  # mask match is necessary for Consistent
            g = gamma_map(a, b, p, k)
            if isinstance(g, Consistent):
                return ConjugateCertified(p, k, g.correspondence)

    def margin_radius(pp) -> int:
        t = -1
        while t < max_radius and all(
            pp.status_at(x) is Status.IN for x in range(-2 * (t + 1), 2 * (t + 1) + 1)
        ):
            t += 1
        return t

    def candidates(pp, radius: int) -> list[int]:
        return [
            k
            for k in range(n)
            if all(pp.status_at(x + k) is not Status.OUT for x in range(-radius, radius + 1))
        ]

    for m_prime in range(max_radius, -1, -1):
        refuting = []
        for p in stages:
            if not all(
                period_status(a, p).status_at(x) is Status.IN
                for x in range(-2 * m_prime, 2 * m_prime + 1)
            ):
                continue
            ks = candidates(period_status(b, p), m_prime)
            if all(isinstance(gamma_map(a, b, p, k), Contradicted) for k in ks):
                refuting.append(p)
        if refuting:
            return RefutedUpTo(m_prime, tuple(refuting))

    diagnostics = []
    for p in stages:
        if not separated[p]:
            diagnostics.append(f"stage {p}: phases not certified distinct; no certificate possible")
            continue
        t = margin_radius(period_status(a, p))
        line = f"stage {p}: no consistent shift; usable source margin radius {t}"
        if t >= 0:
            ks = candidates(period_status(b, p), t)
            kinds = [gamma_map(a, b, p, k) for k in ks]
            contradicted = sum(isinstance(g, Contradicted) for g in kinds)
            line += (
                f"; {len(ks)} candidate shifts at radius {t}:"
                f" {contradicted} contradicted, {len(ks) - contradicted} not"
            )
        diagnostics.append(line)
    return Unknown(tuple(diagnostics))


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

    def skeleton(self) -> tuple[PartialCyclicWord, tuple[bool, ...]]:
        return skeleton_word(rotate_tower(self.base, self.k), self.p)


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
    length runs from 0 to the first certified hole (Unknown if an Unknown
    residue intervenes)."""
    rss = periodic_part(tower, p)
    out: list[StarredPart] = []
    for k in range(p):
        s_here = rss.status_at(k)
        s_prev = rss.status_at(k - 1)
        length: Optional[int] = None
        if s_here is Status.IN and s_prev is Status.OUT:
            status = StarStatus.STARRED
            i = 0
            while True:
                s = rss.status_at(k + i)
                if s is Status.IN:
                    i += 1
                    continue
                if s is Status.OUT:
                    length = i
                break
        elif s_here is Status.OUT or s_prev is Status.IN:
            status = StarStatus.NOT_STARRED
        else:
            status = StarStatus.UNKNOWN
        out.append(StarredPart(Part(tower, p, k), status, length))
    return tuple(out)


@dataclass(frozen=True)
class ChiStage:
    period: int
    parts: frozenset[Part]
    complete: bool


def chi_stage(tower: SkeletonTower, p: int) -> ChiStage:
    """Midpoint-centered starred parts: each starred residue ``k`` with
    certified length ``j`` contributes the part at ``(k + j//2) mod p``.  The
    stage is complete only if no star status or length stayed Unknown."""
    entries = parts_star(tower, p)
    parts: set[Part] = set()
    complete = True
    for e in entries:
        if e.status is StarStatus.UNKNOWN:
            complete = False
        elif e.status is StarStatus.STARRED:
            if e.length is None:
                complete = False
            else:
                parts.add(Part(tower, p, (e.part.k + e.length // 2) % p))
    return ChiStage(p, frozenset(parts), complete)


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
    """Orbit comparison of two parts under blockwise permutations: scan the
    block-aligned shifts ``j·p``; the first Consistent correspondence is a
    witness, Contradicted everywhere is a refutation."""
    if w.p != z.p:
        raise PeriodMismatch(f"parts live at different periods {w.p} and {z.p}")
    if w.base.alphabet != z.base.alphabet:
        raise AlphabetMismatch("parts use different alphabets")
    if w.base.deepest_period != z.base.deepest_period:
        raise PeriodMismatch("parts rest on towers of different depth")
    a = rotate_tower(w.base, w.k)
    b = rotate_tower(z.base, z.k)
    all_contradicted = True
    for j in range(w.base.deepest_period // w.p):
        g = gamma_map(a, b, w.p, j * w.p)
        if isinstance(g, Consistent):
            return DpResult(DpKind.CONSISTENT_WITNESS, g.correspondence, j)
        if not isinstance(g, Contradicted):
            all_contradicted = False
    return DpResult(DpKind.REFUTED if all_contradicted else DpKind.UNDETERMINED)


class EfinResult(Enum):
    CERTIFIED_EQUAL = "CertifiedEqual"
    REFUTED = "Refuted"
    UNDETERMINED = "Undetermined"


def efin_equal(s: Iterable[Part], t: Iterable[Part], p: int) -> EfinResult:
    """Compare the two finite families of equivalence classes.

    Witness edges are closed under union-find; if every resulting class meets
    both sides, equality is certified no matter what the undetermined edges
    do (they could only merge classes, which preserves the property).  A part
    whose comparisons against the entire other side are all Refuted certifies
    inequality.  Empty versus empty is equal; empty versus nonempty refuted.
    """
    s_list = list(dict.fromkeys(s))
    t_list = list(dict.fromkeys(t))
    for part in (*s_list, *t_list):
        if part.p != p:
            raise PeriodMismatch(f"part at period {part.p} in a comparison at {p}")
    elems = list(dict.fromkeys((*s_list, *t_list)))
    index = {e: i for i, e in enumerate(elems)}
    parent = list(range(len(elems)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    results: dict[tuple[int, int], DpKind] = {}
    for x, y in combinations(elems, 2):
        kind = dp_equivalent(x, y).kind
        results[(index[x], index[y])] = kind
        if kind is DpKind.CONSISTENT_WITNESS:
            parent[find(index[x])] = find(index[y])

    s_set, t_set = set(s_list), set(t_list)
    roots_s = {find(index[e]) for e in s_list}
    roots_t = {find(index[e]) for e in t_list}
    if roots_s == roots_t:
        return EfinResult.CERTIFIED_EQUAL

    def refuted(x: Part, other: list[Part]) -> bool:
        for y in other:
            if x == y:
                return False
            i, j = index[x], index[y]
            if results.get((min(i, j), max(i, j))) is not DpKind.REFUTED:
                return False
        return True

    if any(refuted(x, t_list) for x in s_set) or any(refuted(y, s_list) for y in t_set):
        return EfinResult.REFUTED
    return EfinResult.UNDETERMINED


def with_common_depth(a: SkeletonTower, b: SkeletonTower) -> tuple[SkeletonTower, SkeletonTower]:
    """Pad the shallower tower by repeating its deepest word so both towers
    end at the same period; raises IncompatiblePeriods when neither deepest
    period divides the other."""
    n = _common_length(a, b)
    return _pad(a, n), _pad(b, n)


def _pad(t: SkeletonTower, n: int) -> SkeletonTower:
    if t.deepest_period == n:
        return t
    deeper = (n, PartialCyclicWord(_tiled(t.deepest_word, n)))
    return SkeletonTower(t.alphabet, (*t.levels, deeper), t.declared_scale)


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

    Each stage dividing both deepest periods is evaluated with efin_equal on
    the two chi sets (Undetermined when either side is incomplete).  The
    summary reports the longest suffix of evaluated stages certified equal.
    The advisory trust radius per stage is the largest code length the
    certified minimum block length can vouch for (blocks longer than 4m+6).
    """
    if a.declared_scale is None or b.declared_scale is None:
        raise MissingScaleDeclaration("both towers must declare a scale")
    if not supernatural_equal(a.declared_scale, b.declared_scale):
        return InvariantComparison(False, (), 0, "NotEquivalent(scale)")
    tau = natural_factorization(a.declared_scale, stages)
    try:
        a, b = with_common_depth(a, b)
        incompatible = None
    except IncompatiblePeriods as exc:
        incompatible = str(exc)
    rows: list[StageReport] = []
    for p in tau:
        if incompatible is not None:
            rows.append(StageReport(p, False, None, incompatible, None, None))
            continue
        if a.deepest_period % p or b.deepest_period % p:
            rows.append(
                StageReport(p, False, None, "stage does not divide the deepest periods", None, None)
            )
            continue
        lengths = [
            span.length
            for t in (a, b)
            for span in filled_blocks(t, p).spans
            if span.length is not None
        ]
        min_len = min(lengths) if lengths else None
        trust = (min_len - 7) // 4 if min_len is not None and min_len >= 7 else None
        ca = chi_stage(a, p)
        cb = chi_stage(b, p)
        if not (ca.complete and cb.complete):
            rows.append(
                StageReport(p, True, EfinResult.UNDETERMINED, "incomplete chi stage", min_len, trust)
            )
            continue
        res = efin_equal(ca.parts, cb.parts, p)
        rows.append(StageReport(p, True, res, f"{len(ca.parts)} vs {len(cb.parts)} parts", min_len, trust))
    evaluated = [r for r in rows if r.evaluated]
    suffix = 0
    for r in reversed(evaluated):
        if r.result is EfinResult.CERTIFIED_EQUAL:
            suffix += 1
        else:
            break
    summary = (
        f"{suffix} of {len(evaluated)} evaluated stages certified equal (trailing suffix)"
        if evaluated
        else "no evaluable stages"
    )
    return InvariantComparison(True, tuple(rows), suffix, summary)
