"""Differential test: block numbering on ``str`` slices of each tower's cached
encoding, kept in each class's shape, against the tuple-cut numbering it
replaced; the shapes of ``_Pair.class_shapes``, derived down a set of stages,
against the same cut; and the conflict located on the shape masks against the
Counter search over that numbering; and the name masks of ``_Pair._shaped``
against the OR loop they replaced."""

import random
from collections import Counter
from itertools import compress, count
from operator import and_, itemgetter
from types import SimpleNamespace

from toepcalc import Alphabet, PartialCyclicWord, SkeletonTower, reference_example, rotate_tower
from toepcalc import conjugacy
from toepcalc.conjugacy import _Pair, _shaped
from toepcalc.skeleton import skeleton_word

from helpers import _first_conflict, _has_conflict, old_shaped, shift_contradicted

# multi-character tokens beside their characters: concatenating the tokens of
# ("0", "1") and of ("01",) gives the same text, so an encoding that did so
# would number distinct blocks alike
SYMBOLS = ("0", "1", "01", "10")
ALPHABET = Alphabet(SYMBOLS)


class ReferencePair:
    """``_Pair``'s tuple-cut numbering as it was before blocks became slices
    of one encoding: ``__init__``, ``blocks``, ``numbered``, ``fully_filled``
    and ``contradicted`` verbatim; ``conflict`` locates a conflict as
    ``gamma`` did then, by the Counter search over ``fully_filled``."""

    def __init__(self, src, tgt):
        self.n = len(src)
        self.src = src
        self.tgt2 = tgt + tgt
        self._numbers = {}  # (p, class)

    def blocks(self, p, o=None):
        """Consecutive ``p``-tuples of the source, or of the target from offset ``o``."""
        word, o = (self.src, 0) if o is None else (self.tgt2, o)
        return list(zip(*[iter(word[o : o + self.n])] * p))

    def numbered(self, p, c=None):
        """Numbers (equal blocks share one) and fullness of the stage-``p``
        blocks of the source, or of the target at offset class ``c``."""
        key = (p, c)
        if key not in self._numbers:
            blocks = self.blocks(p, c)
            self._numbers[key] = list(map({}.setdefault, blocks, count())), [None not in b for b in blocks]
        return self._numbers[key]

    def fully_filled(self, p, k):
        """Source and target block numbers where both blocks are full, and
        their indices; only these blocks can contradict."""
        sid, sfull = self.numbered(p)
        j, c = divmod(k % self.n, p)
        tid, tfull = (x[j:] + x[:j] for x in self.numbered(p, c))
        index = list(compress(count(), map(and_, sfull, tfull)))
        return list(map(sid.__getitem__, index)), list(map(tid.__getitem__, index)), index

    def contradicted(self, p, k):
        return _has_conflict(*self.fully_filled(p, k)[:2])

    def conflict(self, p, k):
        return _first_conflict(*self.fully_filled(p, k))


def relabelled(numbers):
    """Block numbers renamed in order of first occurrence: the equality pattern."""
    return list(map({}.setdefault, numbers, count()))


def word_tower(cells):
    return SkeletonTower(ALPHABET, ((len(cells), PartialCyclicWord(cells)),))


def random_cells(rng, n):
    """A word of length ``n`` over 1-4 symbols, with no, some or only blanks."""
    used = rng.sample(SYMBOLS, rng.randint(1, 4))
    blank_rate = rng.choice((0.0, 0.0, 0.2, 0.5, 1.0))
    return tuple(None if rng.random() < blank_rate else rng.choice(used) for _ in range(n))


def assert_same_shape(shape, ref, p, c):
    """A shape's numbers, doubled full-block mask and fullness bytes read
    like the reference's tuple cut of class ``c`` at stage ``p``."""
    ids, full, _, fullness = shape
    ref_ids, ref_full = ref.numbered(p, c)
    assert relabelled(ids) == relabelled(ref_ids), (p, c)
    m = sum(f << i for i, f in enumerate(ref_full))
    assert full == m | m << ref.n // p, (p, c)
    assert tuple(map(bool, fullness)) == tuple(ref_full), (p, c)


def assert_same_tables(a, b, stages, ref):
    """Every class's shape from ``class_shapes`` at each of ``stages``, read
    deepest first so each table is derived down the rest where that is
    cheaper, numbers like the reference's tuple cut and is the shape the
    class is cut into; returns the number of stages derived."""
    n = max(a.deepest_period, b.deepest_period)
    a, b = (SkeletonTower(t.alphabet, t.levels, t.declared_scale) for t in (a, b))  # tables may be kept per tower
    pair = _Pair(a, b, n)
    for p in sorted(stages, reverse=True):
        shapes = pair.class_shapes(p, stages, range(p))
        assert len(shapes) == p
        for c, shape in enumerate(shapes):
            assert_same_shape(shape, ref, p, c)
            assert shape is pair.shape(p, c), (p, c)  # one shape per (p, numbers, fullness)
    return sum(isinstance(key, tuple) and key[0] == "classes" for key in (*b._status, *pair._shapes))


def divisor_sets(n):
    """Stage sets of a common length ``n``, each holding ``n``: every
    divisor (not a chain when ``n`` has two prime factors), ``n`` alone,
    ``{1, n}``, and the chains through ``n`` by factors of 2 and of 3."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    sets = [divisors, [n], sorted({1, n})]
    for q in (2, 3):
        chain = [n]
        while chain[0] % q == 0:
            chain.insert(0, chain[0] // q)
        sets.append(chain)
    return sets


def assert_same_numbering(a, b, stage_sets=()):
    """Every stage ``p | n``, class and shift of the pair ``(a, b)`` read alike
    from the encoded text and from the reference's tuple cut: the shape's
    numbers and doubled full-block mask, and each shift's conflict; and so do
    the ``class_shapes`` tables over each stage set, by default ``divisor_sets``;
    returns the number of stages derived."""
    n = max(a.deepest_period, b.deepest_period)
    pair = _Pair(a, b, n)
    ref = ReferencePair(*(t.deepest_word.repeated(n // t.deepest_period).cells for t in (a, b)))
    derived = sum(assert_same_tables(a, b, stages, ref) for stages in stage_sets or divisor_sets(n))
    for p in (d for d in range(1, n + 1) if n % d == 0):
        for c in (None, *range(p)):
            assert_same_shape(pair.shape(p, c), ref, p, c)
            assert list(map(pair.block, pair.blocks(p, c))) == ref.blocks(p, c), (p, c)
        for k in range(n):
            contradicted = ref.contradicted(p, k)
            assert shift_contradicted(pair, p, k) == contradicted, (p, k)
            if contradicted:
                assert pair.conflict(p, k) == ref.conflict(p, k), (p, k)
    return derived


def test_edge_words_number_like_the_tuple_cut():
    for a, b in [
        (("0",), ("1",)),  # period 1
        ((None,), ("01",)),
        ((None,) * 6, (None,) * 6),  # all blank
        ((None,) * 6, ("0", "1", "01", "10", "0", "1")),
        (("0", "1", "0", "1"), ("01", "01", "10", "10")),  # tokens spelling one text
        (("01", None, "10", "1", "0", None), ("1", "0")),  # the target tiled three times
    ]:
        assert_same_numbering(word_tower(a), word_tower(b))
        assert_same_numbering(word_tower(b), word_tower(a))


def test_random_words_number_like_the_tuple_cut():
    rng = random.Random(20261018)
    kinds = Counter()
    for _ in range(400):
        n = rng.randint(1, 12)
        m = rng.choice([d for d in range(1, n + 1) if n % d == 0])  # the other word may be shallower
        a, b = random_cells(rng, n), random_cells(rng, m)
        if rng.random() < 0.5:
            a, b = b, a
        kinds["derived"] += assert_same_numbering(word_tower(a), word_tower(b)) > 0
        kinds["blank"] += None in a + b
        kinds["complete"] += None not in a + b
        kinds["tokens"] += any(c in ("01", "10") for c in a + b)
    assert min(kinds.values()) > 50, kinds


def test_class_shapes_derive_like_the_tuple_cut_on_stage_sets():
    rng = random.Random(20261019)
    for periods_a, periods_b in [
        ((4, 12), (6, 12)),  # the stages {4, 6, 12}: 6 has no dividing stage, 12 derives from 6
        ((2, 4, 8, 16), (16,)),  # a chain with q = 2
        ((3, 9, 27), (27,)),  # a chain with q = 3
        ((2, 6, 12), (3, 12)),  # the stages {2, 3, 6, 12}, q = 3 and q = 2
        ((5,), (10, 20)),  # a shallower source, tiled
    ]:
        derived = 0
        for fill in (1.0, 0.7, 0.0):  # 0.0: all blank
            a, b = (chain_tower(rng, periods, fill) for periods in (periods_a, periods_b))
            stages = sorted(set(periods_a) | set(periods_b))
            derived += assert_same_numbering(a, b, [stages]) + assert_same_numbering(b, a, [stages])
        assert derived > 0, (periods_a, periods_b)


def chain_tower(rng, periods, fill):
    """A tower at ``periods``, each level its deepest word's certified
    skeleton, over ``SYMBOLS`` with blanks at rate ``1 - fill``."""
    cells = tuple(rng.choice(SYMBOLS) if rng.random() < fill else None for _ in range(periods[-1]))
    deepest = word_tower(cells)
    levels = [(p, skeleton_word(deepest, p)[0]) for p in periods[:-1]]
    return SkeletonTower(ALPHABET, (*levels, (periods[-1], PartialCyclicWord(cells))))


def shaped_key(p, labels, full_labels):
    """A shape key of blocks named by ``labels``: first-index numbers and
    each block's fullness, full iff its label is in ``full_labels``."""
    return p, tuple(map({}.setdefault, labels, count())), bytes(x in full_labels for x in labels)


def test_shaped_masks_match_the_or_loop(monkeypatch):
    """All four fields of ``_shaped`` (numbers, doubled full-block mask,
    names with their doubled masks in order, fullness)
    alike with the OR loop, on edge shapes and on every stage's source and
    target shapes of ``reference_example(1..12)`` against a rotation; the
    translates and the OR loop each run."""
    translated = []
    monkeypatch.setattr(conjugacy, "itemgetter", lambda *a: translated.append(len(a)) or itemgetter(*a))
    rng = random.Random(20261020)
    keys = [
        shaped_key(1, "a", "a"),  # B = 1
        shaped_key(1, "a", ""),
        shaped_key(2, "a" * 64, ""),  # all blank
        shaped_key(3, [rng.randrange(9) for _ in range(200)], ()),  # no full block
        shaped_key(5, "a" * 4096, "a"),  # one name
        shaped_key(5, "a" * 7, "a"),
        shaped_key(4, "ab" + "c" * 300, "a"),  # a name of one full block; a name of partial blocks
        shaped_key(4, [rng.choice("abcc") for _ in range(3000)], "ab"),
        shaped_key(2, [rng.randrange(300) for _ in range(1200)], range(300)),  # > 255 names
        shaped_key(2, [i % 256 for i in range(32768)], range(256)),
        shaped_key(2, [i % 255 for i in range(32768)], range(255)),  # rank 255
        shaped_key(2, [rng.randrange(40) if rng.random() < 0.5 else -i for i in range(5000)], range(40)),
    ]
    for k in range(1, 13):
        g = reference_example(k)
        pair = _Pair(g, rotate_tower(g, 7 * k), g.deepest_period)
        for p in g.periods:
            for c in (None, 0, p // 2):
                shape = pair.shape(p, c)
                keys.append((p, shape[0], shape[3]))
    for key in keys:
        ids, full, names, _, fullness = old_shaped(SimpleNamespace(_shapes={}), *key)  # _: a pair keeps the table
        got, want = _shaped({}, *key), (ids, full, names, fullness)
        assert got == want and list(got[2].items()) == list(want[2].items()), key[0]
    assert 0 < len(translated) < len(keys), translated
