"""Differential test: the per-tower verdict facts kept in ``SkeletonTower._status``
(block shapes under ``(n, p, offset)``, blank masks, their counts and least
rotation periods) against shapes and masks cut afresh from the tiled, rotated
text, and ``mask_shifts`` against its definition; the repeats of a tiled side
against the old ``_tile`` and fresh cuts; and cost guards: a corpus cuts each
``(tower, n, p, offset)`` at most once and renders no ``Unknown`` diagnostics,
and a corpus of mixed depths keeps no repeat on its towers."""

import random
from collections import Counter
from itertools import compress, count
from types import SimpleNamespace

from toepcalc import (
    Alphabet,
    PartialCyclicWord,
    SkeletonTower,
    apply_block_code,
    reference_example,
    rotate_tower,
    serialize_tower,
)
from toepcalc import cli, conjugacy
from toepcalc.cli import corpus_matrix
from toepcalc.codes import parse_block_code
from toepcalc.conjugacy import _Pair, _shaped, conjugacy_verdict
from toepcalc.randomgen import deepen, random_block_code, random_tower

from helpers import divisors, old_shaped, old_tile

# the radius-1 code of the refuted CI verdict: its image of the paper example is refuted up to radius 2
REFUTED_CODE = "len = 1\n0 0 0 -> 0\n0 0 1 -> 1\n0 1 0 -> 1\n0 1 1 -> 1\n1 0 0 -> 0\n1 0 1 -> 0\n1 1 0 -> 1\n1 1 1 -> 0\n"
SYMBOL_SETS = (("0", "1"), ("a", "b", "c"), ("0", "1", "01", "10"))


def fresh_text(tower, n, k):
    """The tower's cells tiled to length ``n`` and rotated by ``k``, one code point each, cut anew."""
    code = {cell: chr(i) for i, cell in enumerate((None, *tower.alphabet.symbols))}
    cells = tower.deepest_word.cells * (n // tower.deepest_period)
    return "".join(code[cells[(x + k) % n]] for x in range(n))


def fresh_shape(tower, n, p, o):
    """The stage-``p`` shape of the tower tiled to ``n`` from offset ``o``, cut
    block by block and built by the OR loop: numbers, doubled full-block
    mask, names and fullness."""
    text = fresh_text(tower, n, o)
    blocks = [text[i : i + p] for i in range(0, n, p)]
    ids = tuple(map({}.setdefault, blocks, count()))
    full = bytes("\0" not in block for block in blocks)
    ids, fullmask, names, _, full = old_shaped(SimpleNamespace(_shapes={}), p, ids, full)
    return ids, fullmask, names, full


def fresh_mask(tower, n, k):
    return "".join("1" if c == "\0" else "0" for c in fresh_text(tower, n, k))


def rarer_end(mask, r):
    """Whether ``r`` is 0 on a constant mask, else just past the first of its rarer character."""
    rarer = "1" if 2 * mask.count("1") <= len(mask) else "0"
    return r == (0 if len(set(mask)) == 1 else mask.index(rarer) + 1)


def tower_pairs(rng):
    """Random towers over 2, 3 and multi-character symbols, with and without
    blanks, against a rotation, a deepened copy, a code image, a shallower
    tower (tiled) or themselves (one tower as source and target)."""
    for _ in range(60):
        symbols = rng.choice(SYMBOL_SETS)
        fill = rng.choice((1.0, 0.8, 0.5, 0.0))
        a = random_tower(rng, symbols, depth=rng.randint(1, 2), base_periods=(1, 2, 3, 4), fill=fill)
        kind = rng.choice(("itself", "rotation", "deepened", "code image", "shallower"))
        if kind == "itself":
            b = a
        elif kind == "rotation":
            b = rotate_tower(a, rng.randrange(a.deepest_period))
        elif kind == "deepened":
            b = deepen(rng, a, rng.choice((2, 3)), fill=0.6)
        elif kind == "code image":
            b = apply_block_code(a, random_block_code(rng, a.alphabet, 1))
        else:
            b = SkeletonTower(a.alphabet, a.levels[:1])  # the top level alone: tiled below
        yield kind, *((a, b) if rng.random() < 0.5 else (b, a))


def test_tower_facts_match_fresh_cuts():
    """Every ``(n, p, offset)`` a pair reads, for every source and target
    rotation: the shape read equals the one cut afresh, and so does the one
    kept on the tower, at the tower's own length where ``p`` divides it (a
    tiled shape is kept by the pair), which is the tower's one shape of its
    numbers and fullness; the masks equal fresh masks and ``mask_shifts``
    its definition."""
    rng = random.Random(2801)
    seen = Counter()
    for kind, a, b in tower_pairs(rng):
        n = max(a.deepest_period, b.deepest_period)
        for ka in range(a.deepest_period):
            for kb in range(b.deepest_period):
                pair = _Pair(a, b, n, ka, kb)
                smask, tmask = fresh_mask(a, n, ka), fresh_mask(b, n, kb)
                assert pair.masks == (smask, tmask * 2), (a, b, ka, kb)
                assert list(pair.mask_shifts) == [k for k in range(n) if (tmask * 2).startswith(smask, k)]
                for p in divisors(n):
                    for tower, o, c in [(a, ka, None)] + [(b, kb + c, c) for c in range(p)]:
                        shape, own = pair.shape(p, c), tower.deepest_period if tower.deepest_period % p == 0 else n
                        kept = tower._status["shape", own, p, o % own]
                        assert shape == fresh_shape(tower, n, p, o % n), (a, b, n, p, o)
                        assert kept == fresh_shape(tower, own, p, o % own), (a, b, n, p, o)
                        assert kept is _shaped(tower._status, p, kept[0], kept[3])
                        assert shape is (kept if own == n else pair.shape(p, c))
                        seen["tiled shapes"] += own < n
        seen[kind] += 1
        seen["blanks"] += "_" in serialize_tower(a) + serialize_tower(b)
        seen["tiled"] += a.deepest_period != b.deepest_period
    assert min(seen.values()) >= 5 and len(seen) == 8, seen


def one_level_tower(rng, symbols, n, fill):
    cells = tuple(rng.choice(symbols) if rng.random() < fill else None for _ in range(n))
    return SkeletonTower(Alphabet(symbols), ((n, PartialCyclicWord(cells)),))


def takes_translates(ids, full):
    """Whether ``_shaped`` builds the name masks of these numbers and fullness by translates, not its OR loop."""
    b, f = len(ids), sum(full)
    if (steps := f * (32 + b // 128)) <= 8 * (b + 128):
        return False
    names = sum(1 for m in Counter(compress(ids, full)).values() if m > 1)
    return names < 256 and (8 + names) * (b + 128) < steps


def test_tiled_shapes_match_the_old_repeat_and_fresh_cuts():
    """Every shape a pair reads of a side tiled ``m = 2..9`` times equals
    ``_tile`` of the side's own-length shape, as built before tiled shapes
    came from ``_shaped``, and a fresh cut; the pair keeps it, the tower does
    not.  Random towers over 2, 3 and multi-character symbols, with and
    without blanks; shapes with no full block, with one-block names only,
    with 256 or more names (``_shaped``'s OR loop) and with many blocks (its
    translates)."""
    rng = random.Random(3601)
    cases = []  # (shallow tower, m, stages read, offsets read)
    for _ in range(40):
        symbols = rng.choice(SYMBOL_SETS)
        a = random_tower(rng, symbols, depth=rng.randint(1, 2), base_periods=(1, 2, 3, 4),
                         fill=rng.choice((1.0, 0.8, 0.5, 0.0)))
        cases.append((a, rng.randint(2, 9), divisors(a.deepest_period), None))
    for symbols, fill, m in ((("0", "1"), 1.0, 2), (("a", "b", "c"), 0.9, 3)):  # 256 or more names of 12 cells
        cases.append((one_level_tower(rng, symbols, 4800, fill), m, [12], 3))
    for symbols, fill, m in ((("0", "1"), 1.0, 9), (("0", "1", "01", "10"), 0.8, 5), (("a", "b", "c"), 0.95, 7)):
        cases.append((one_level_tower(rng, symbols, 2000, fill), m, [1, 2, 4, 10], 2))  # many blocks, few names
    seen = Counter()
    for a, m, stages, offsets in cases:
        own, n = a.deepest_period, m * a.deepest_period
        b = deepen(rng, a, m, fill=0.6) if own < 1000 else one_level_tower(rng, a.alphabet.symbols, n, 1.0)
        ka, kb = rng.randrange(own), rng.randrange(n)
        for pair, c_of in ((_Pair(a, b, n, ka, kb), lambda p: [None]), (_Pair(b, a, n, kb, ka), range)):
            for p in stages:
                cs = list(c_of(p))
                for c in cs if offsets is None else rng.sample(cs, min(offsets, len(cs))):
                    o = ka if c is None else ka + c  # a is the source, or the target, rotated by ka
                    shape, kept = pair.shape(p, c), a._status["shape", own, p, o % own]
                    assert shape == old_tile(kept, m) == fresh_shape(a, n, p, o % n), (a, m, p, o)
                    assert shape is pair.shape(p, c) is pair._shapes[p, shape[0], shape[3]]
                    assert not any(v is shape for v in a._status.values())  # kept by the pair alone
                    names, full = kept[2], kept[3]
                    seen[f"m = {m}"] += 1
                    seen["blanks"] += b"\0" in full
                    seen["no full block"] += not any(full)
                    seen["one-block names only"] += any(full) and not names
                    seen["256 or more names"] += len(shape[2]) >= 256
                    seen["translates"] += takes_translates(shape[0], shape[3])
    assert len(seen) == 13 and min(seen.values()) >= 3, seen


def test_tower_facts_of_rotated_parts_and_the_paper_example():
    """Parts ``(tower, k)`` of ``reference_example(3)`` and of a rotation read
    offset ``k + c`` of their towers: the shapes ``dp_equivalent`` leaves on
    them equal fresh cuts, and the blank counts and mask periods equal those of
    fresh masks."""
    g = reference_example(3)
    towers = [g, rotate_tower(g, 7)]
    for p in (2, 4, 5, 10, 20, 40):
        parts = [conjugacy.Part(t, p, k) for t in towers for k in range(p)]
        for w in parts[:: max(1, p // 5)]:
            for z in parts:
                conjugacy.dp_equivalent(w, z)
    n = g.deepest_period
    for tower in towers:
        keys = [key for key in tower._status if isinstance(key, tuple) and key[0] == "shape"]
        assert len(keys) > 50
        for _, m, p, o in keys:
            assert m == n and tower._status["shape", m, p, o] == fresh_shape(tower, n, p, o), (p, o)
        mask, blanks, r, period = tower._status["blanks"]
        assert mask == fresh_mask(tower, n, 0) and blanks == mask.count("1") and rarer_end(mask, r)
        assert period == min(d for d in divisors(n) if mask[d:] + mask[:d] == mask)


def test_corpus_cuts_each_shape_once_and_renders_no_diagnostics(tmp_path, monkeypatch):
    """A corpus over the paper example at two depths, a rotation and a code
    image (certified, refuted and ``Unknown`` cells) cuts each ``(tower, n,
    p, offset)`` at most once over all its pairs, ``n`` the tower's own length
    where ``p`` divides it, and never counts an ``Unknown`` verdict's shapes
    (``class_shapes``)."""
    g = reference_example(5)
    towers = {
        "g4.tw": reference_example(4),
        "g5.tw": g,
        "g5r.tw": rotate_tower(g, 7),
        "g5c.tw": apply_block_code(g, parse_block_code(REFUTED_CODE, g.alphabet)),
    }
    for name, tower in towers.items():
        (tmp_path / name).write_text(serialize_tower(tower))
    cuts = []
    cut = _Pair.blocks

    def recording(self, p, o=None):
        tower, k = self.sides[o is not None]
        own = tower.deepest_period if tower.deepest_period % p == 0 else self.n
        cuts.append((id(tower), own, p, (k + (o or 0)) % own))
        return cut(self, p, o)

    monkeypatch.setattr(_Pair, "blocks", recording)
    monkeypatch.setattr(_Pair, "class_shapes", lambda *a: (_ for _ in ()).throw(AssertionError("diagnostics")))
    matrix = corpus_matrix(sorted(tmp_path.glob("*.tw")), 2)["matrix"]
    assert {tag for row in matrix.values() for tag in row.values()} == {
        "conjugate-certified",
        "refuted-up-to",
        "unknown",
    }
    assert cuts and max(Counter(cuts).values()) == 1, Counter(cuts).most_common(3)


def test_mixed_depth_corpus_keeps_own_length_shapes_on_its_towers(tmp_path, monkeypatch):
    """A corpus of ``reference_example(6..9)`` at rotations 0 and 7 tiles each
    shallower tower against the deeper ones.  Afterwards every shape a tower
    keeps at a stage ``p`` dividing its deepest period holds deepest/p block
    numbers: the repeats are kept by the pairs, so retained shapes grow with
    the towers, not with the pairs.  The block numbers of the distinct shapes
    kept on the 8 towers total 5784, as before tiled shapes came from
    ``_shaped``."""
    for k in range(6, 10):
        for r in (0, 7):
            (tmp_path / f"g{k}r{r}.tw").write_text(serialize_tower(rotate_tower(reference_example(k), r)))
    towers, read = [], cli._read_tower
    monkeypatch.setattr(cli, "_read_tower", lambda f: towers.append(read(f)) or towers[-1])
    matrix = corpus_matrix(sorted(tmp_path.glob("*.tw")), 2)["matrix"]
    assert len(towers) == 8 and "conjugate-certified" in matrix["g6r0.tw"].values()
    kept = 0
    for tower in towers:
        shapes = {}  # id: (stage, shape), read under ("shape", length, p, offset), (p, numbers, fullness) and tables
        for key, value in tower._status.items():
            if isinstance(key, tuple) and key[0] == "shape":
                shapes[id(value)] = key[2], value
            elif isinstance(key, tuple) and key[0] == "classes":
                shapes.update((id(v), (key[2], v)) for v in value)
            elif isinstance(key, tuple) and len(key) == 3 and isinstance(key[1], tuple):
                shapes[id(value)] = key[0], value
        deepest = tower.deepest_period
        assert all(len(shape[0]) == deepest // p for p, shape in shapes.values() if deepest % p == 0), deepest
        kept += sum(len(shape[0]) for _, shape in shapes.values())
    assert kept == 5784


def test_blank_facts_on_edge_words():
    """Blank counts and least rotation periods of constant, periodic and
    single-blank masks, also over a multi-character alphabet."""
    alphabet = Alphabet(("0", "1", "01"))
    for cells in (
        ("0",),
        (None,),
        (None,) * 6,
        ("01", None) * 4,
        ("0", "1", None, "0", "1", None),
        ("1",) * 7 + (None,),
        (None,) * 7 + ("01",),
    ):
        tower = SkeletonTower(alphabet, ((len(cells), PartialCyclicWord(cells)),))
        mask, blanks, r, period = conjugacy._blanks(tower)
        assert mask == "".join("1" if c is None else "0" for c in cells)
        assert blanks == cells.count(None) and rarer_end(mask, r), cells
        assert period == min(d for d in divisors(len(cells)) if mask[d:] + mask[:d] == mask), cells
        assert conjugacy_verdict(tower, tower, 1) == conjugacy_verdict(tower, rotate_tower(tower, 0), 1)
