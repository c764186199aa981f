"""Differential tests of the C-level passes behind ``invariant``'s stage
comparisons: the positionwise witness tested once per distinct column against
the per-offset loop; blocks decoded by ``Alphabet._decode`` against ``ord``;
the mask shifts, searched with the source mask rotated to end at its rarer
character, against the ``str.find`` definition; ``efin_equal``'s residue
order; and ``invariant_compare``'s rows and its one ``filled_blocks`` per tower
and stage."""

import hashlib
import random
from itertools import product

from toepcalc import (
    Alphabet,
    PartialCyclicWord,
    SkeletonTower,
    SupernaturalNumber,
    apply_positionwise_permutation,
    reference_example,
    rotate_tower,
)
from toepcalc import conjugacy
from toepcalc.conjugacy import (
    Consistent,
    Part,
    Undetermined,
    _Pair,
    chi_stage,
    dp_equivalent,
    efin_equal,
    gamma_map,
    invariant_compare,
)
from toepcalc.randomgen import random_positionwise, random_tower

from helpers import divisors, ord_block, per_offset_gamma, text_pair

FIVE = Alphabet(("a", "b", "c", "d", "e"))


class PerOffsetPair(_Pair):
    gamma = per_offset_gamma


def encode(alphabet, cells):
    return "".join(map(alphabet._code.__getitem__, cells))


def column_words(rng):
    """Source and target words of ``p``-blocks over ``d`` distinct blocks
    whose in-block columns repeat: offset ``u`` takes one of a few column
    templates (blank entries kept on both sides) and one of a few target
    transforms, a symbol bijection, sometimes with one entry bent, which may
    break the witness; column 0 tells the blocks apart.  The target is rotated
    by ``r`` blocks, so shift ``k0`` pairs each source block with its image.
    Returns the words, ``p``, ``k0`` and each offset's (template, transform)."""
    symbols = FIVE.symbols
    d, p = rng.randint(2, 4), rng.randint(2, 10)
    templates = [tuple(rng.sample(symbols, d))]
    for _ in range(rng.randint(1, 3)):
        templates.append(tuple(rng.choice((None, *symbols[:2], *symbols[:2], *symbols)) for _ in range(d)))
    transforms = []
    for _ in range(rng.randint(1, 3)):
        sigma = {None: None, **dict(zip(symbols, rng.sample(symbols, len(symbols))))}
        bent = (rng.randrange(d), rng.choice(symbols)) if rng.random() < 0.5 else None
        transforms.append((sigma, bent))

    def image(column, transform):
        sigma, bent = transform
        out = [sigma[x] for x in column]
        if bent is not None and out[bent[0]] is not None:
            out[bent[0]] = bent[1]
        return out

    keys = [(0, rng.randrange(len(transforms)))]
    keys += [(rng.randrange(len(templates)), rng.randrange(len(transforms))) for _ in range(p - 1)]
    src_blocks = [[templates[t][i] for t, _ in keys] for i in range(d)]
    columns = [image(templates[t], transforms[x]) for t, x in keys]
    tgt_blocks = [[column[i] for column in columns] for i in range(d)]
    order = list(range(d)) + [rng.randrange(d) for _ in range(rng.randint(0, 4))]
    rng.shuffle(order)
    src = [c for i in order for c in src_blocks[i]]
    tgt = [c for i in order for c in tgt_blocks[i]]
    n, r = len(src), rng.randrange(len(order))
    tgt = tgt[r * p :] + tgt[: r * p]
    return encode(FIVE, src), encode(FIVE, tgt), p, (-r * p) % n, keys


def test_witness_per_distinct_column_matches_per_offset_loop():
    """``gamma`` at every stage ``p | n`` and shift equals the per-offset
    loop's, reasons included, on words whose columns repeat; at the aligning
    shift the reported offset is the first whose column fails, also where it
    follows an earlier repeat of a passing column."""
    rng = random.Random(2301)
    seen = set()
    for _ in range(400):
        src, tgt, p, k0, keys = column_words(rng)
        pair, ref = text_pair(src, tgt, FIVE), text_pair(src, tgt, FIVE, PerOffsetPair)
        n = len(src)
        for q, k in product(divisors(n), range(n)):
            got = pair.gamma(q, k)
            assert got == ref.gamma(q, k), (src, tgt, q, k)
        got = pair.gamma(p, k0)
        if isinstance(got, Undetermined) and "witness" in got.reason:
            u = int(got.reason.rsplit(" ", 1)[1])
            seen.add("witness fails")
            if len(set(keys[:u])) < u:  # a passing column repeated before offset u
                seen.add("fails after a repeated passing column")
        elif isinstance(got, Consistent) and "\0" in src and len(got.correspondence) > 1:
            seen.add("witness holds")
    assert seen == {"witness fails", "fails after a repeated passing column", "witness holds"}


def test_blocks_decode_like_ord():
    """``_Pair.block`` decodes by ``Alphabet._decode`` as ``ord`` did: words
    of one, two and 300 distinct symbols (code points above 255 included),
    multi-character symbols, and blanks.  An ``Alphabet`` needs two symbols,
    so the one-symbol words use one symbol of a larger alphabet."""
    rng = random.Random(2302)
    alphabets = [Alphabet(("0", "1")), Alphabet(("01", "10")), Alphabet(("0", "1", "01", "10"))]
    alphabets.append(Alphabet(tuple(f"s{i}" for i in range(300))))
    for alphabet in alphabets:
        assert {c: s for s, c in alphabet._code.items()} == alphabet._decode
        pair = text_pair("\0", "\0", alphabet)
        for used in (1, 2, len(alphabet)):
            symbols = rng.sample(alphabet.symbols, used)
            for _ in range(20):
                cells = [rng.choice((None, *symbols)) for _ in range(rng.randint(0, 40))]
                text = encode(alphabet, cells)
                assert pair.block(text) == ord_block(alphabet, text) == tuple(cells)
    # a Consistent correspondence over 300 symbols pairs the towers' own blocks
    alphabet = alphabets[-1]
    cells = tuple(rng.choice((None, *alphabet.symbols[250:])) for _ in range(48))
    a = SkeletonTower(alphabet, ((48, PartialCyclicWord(cells)),), None)
    b = rotate_tower(a, 12)
    for p in (4, 12, 48):
        blocks = {cells[i : i + p] for i in range(0, 48, p)}
        witnesses = [g for k in range(48) if isinstance(g := gamma_map(a, b, p, k), Consistent)]
        assert witnesses, p
        for g in witnesses:
            assert {x for x, _ in g.correspondence} == blocks, p


def mask_words(rng, n):
    """Encoded source and target words of length ``n`` and mostly-filled
    masks: the case where ``str.find`` of the unrotated source mask was
    quadratic (one source blank 10 cells before the end, two target blanks),
    a one-blank target that matches once, masks with a blank every 4th
    cell, equal or with one blank more or moved, and masks of period 4, 6,
    12 or 20, the target's rotated."""
    filled = [rng.choice("\1\2") for _ in range(n)]

    def blank(positions):
        return "".join("\0" if i in positions else c for i, c in enumerate(filled))

    src = blank({n - 10})
    yield src, blank(set(rng.sample(range(n), 2)))
    yield src, blank({rng.randrange(n)})
    yield src, blank({n - 10})
    every4 = set(range(3, n, 4))
    yield blank(every4), blank(every4)
    yield blank(every4), blank(every4 | {1})
    yield blank(every4 | {1}), blank(every4 | {9})
    for d in (d for d in (4, 6, 12, 20) if n % d == 0):  # masks of period d, the target's rotated
        base = [rng.random() < 0.4 for _ in range(d)]
        x = rng.randrange(n)
        yield blank({i for i in range(n) if base[i % d]}), blank({i for i in range(n) if base[(i + x) % d]})


def random_masks(rng, n):
    """Words of length ``n`` with random masks of a random period dividing
    ``n``, the target's a rotation of the source's or, now and then, with one
    cell flipped."""
    d, q = rng.choice(divisors(n)), rng.random()  # q: the share of blanks, so either character may be rarer
    base = [rng.random() < q for _ in range(d)]
    x = rng.randrange(n)
    src = "".join("\0" if base[i % d] else "\1" for i in range(n))
    tgt = "".join("\0" if base[(i + x) % d] else "\1" for i in range(n))
    if rng.random() < 0.2:
        y = rng.randrange(n)
        tgt = tgt[:y] + ("\1" if tgt[y] == "\0" else "\0") + tgt[y + 1 :]
    return src, tgt


def test_mask_shifts_match_find_definition():
    """``mask_shifts``, searched with the source mask rotated to end at its
    rarer character, is the shifts where the masks match, tested one shift
    at a time and found by ``str.find`` of the unrotated mask: one source
    blank 10 cells before the end against two target blanks at n = 1000 /
    1280 / 2000 among them, and periodic masks, where it steps by less than ``n``."""
    rng = random.Random(2303)
    seen = set()
    words = [w for n in (1000, 1280, 2000, 48, 60) for w in mask_words(rng, n)]
    words += [random_masks(rng, rng.choice((12, 24, 36, 48, 60, 72, 90))) for _ in range(300)]
    for src, tgt in words:
        pair, n = text_pair(src, tgt, FIVE), len(src)
        smask, tmask2 = pair.masks
        matches = [k for k in range(n) if tmask2.startswith(smask, k)]
        assert list(pair.mask_shifts) == matches
        assert tmask2.find(smask) == (matches[0] if matches else -1)
        seen.add(min(len(matches), 2))
    assert seen == {0, 1, 2}


def hole_tower(n, seed=5):
    r = random.Random(seed)
    cells = tuple(None if x % 4 == 3 else r.choice("01") for x in range(n))
    scale = SupernaturalNumber.parse("2^inf")
    alphabet = Alphabet(("0", "1"))
    blanked = cells[:1] + (None,) + cells[2:]
    return (SkeletonTower(alphabet, ((n, PartialCyclicWord(w)),), scale) for w in (cells, blanked))


def moved_copies(seed):
    """``reference_example(7..9)`` and a rotated, positionwise-permuted copy of each."""
    rng = random.Random(seed)
    for k in (7, 8, 9):
        g = reference_example(k)
        moved = rotate_tower(g, rng.randrange(1, g.deepest_period))
        yield g, apply_positionwise_permutation(moved, random_positionwise(rng, g.alphabet, g.periods[0]))


def test_efin_equal_call_order_does_not_depend_on_input_order(monkeypatch):
    """Each side is read by residue, so the ``dp_equivalent`` calls are the
    same whatever order the parts come in (a frozenset's order follows the
    hash seed): original, reversed and shuffled."""
    calls = []
    scan = conjugacy.dp_scan  # efin_equal's dp_equivalent, short of decoding witnesses
    monkeypatch.setattr(conjugacy, "dp_scan", lambda w, z: calls.append((w, z)) or scan(w, z))
    rng = random.Random(2305)
    g, moved = next(moved_copies(23))
    cases = [(g, moved, 40), (g, moved, 640), (*hole_tower(64), 64)]
    for a, b, p in cases:
        s, t = sorted(chi_stage(a, p).parts, key=repr), sorted(chi_stage(b, p).parts, key=repr)
        runs = []
        shuffled = [(rng.sample(s, len(s)), rng.sample(t, len(t))) for _ in range(2)]
        for s, t in [(s, t), (s[::-1], t[::-1]), *shuffled]:
            calls.clear()
            runs.append((efin_equal(s, t, p), list(calls)))
        assert len(runs[0][1]) > 1, p
        assert all(run == runs[0] for run in runs), p


# sha256 of ``repr(invariant_compare(a, b, 12))`` as the per-offset witness,
# the ``ord`` decode, the whole-mask search and two ``filled_blocks`` per
# tower and stage wrote it: the moved copies of ``moved_copies(23)``, then the
# N = 512 tower with a hole at every 4th cell against its copy with cell 1 blanked.
ROWS = (
    "e90ab6df3987bc255a297a6cb95965e9841cd228045836167b780031f85fcceb",
    "28eb59ed48e38212d24ba62605077ae2c14ff7b57ad97d316eb709193860c307",
    "cfa57a689982b39be202497ab8d62a852488945f75f3baab9a7a8aa4952cc6f6",
    "ea88ef2b17cd3c7c98cf8f1a4d726075105070963e217aa917188da54d865878",
)


def test_invariant_rows_as_before(monkeypatch):
    """The rows of ``invariant_compare`` are those the earlier passes gave,
    and each tower's filled blocks are computed once per evaluated stage."""
    reads = []
    filled = conjugacy.filled_blocks
    monkeypatch.setattr(conjugacy, "filled_blocks", lambda t, p: reads.append((id(t), p)) or filled(t, p))
    for (a, b), digest in zip((*moved_copies(23), tuple(hole_tower(512))), ROWS):
        reads.clear()
        got = invariant_compare(a, b, 12)
        assert hashlib.sha256(repr(got).encode()).hexdigest() == digest, got
        evaluated = [r.period for r in got.stages if r.evaluated]
        assert len(reads) == len(set(reads)) == 2 * len(evaluated)
