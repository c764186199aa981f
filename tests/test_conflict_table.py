"""Differential test: the conflict table per stage shape, read per shift
through ``rotations_contradicted``, against the per-shift bijection test it
replaced; the first conflict located on the shape masks by ``_Pair.conflict``
against the Counter search over per-class block numbers; and ``gamma`` (with
``conflict`` where it finds a contradiction) and ``dp_equivalent`` on the
shapes' block numbers against the block scan."""

import random
import re
from collections import Counter
from itertools import compress, count, product
from operator import and_
from types import SimpleNamespace

from toepcalc import Alphabet, PartialCyclicWord, SkeletonTower, rotate_tower
from toepcalc import conjugacy
from toepcalc.codes import apply_block_code
from toepcalc.conjugacy import Consistent, Part, _Pair, dp_equivalent, with_common_depth
from toepcalc.randomgen import deepen, random_block_code, random_tower

from helpers import _first_conflict, _has_conflict, divisors, old_blocks, old_gamma, old_shaped, shift_contradicted, text_pair

REASONS = ("equal full blocks map to distinct full blocks", "distinct full blocks map to one full block")


class ReferencePair(_Pair):
    """``_Pair`` with the conflict test and locator it had before the shape
    masks: ``numbered`` and ``fully_filled`` verbatim, numbering each class
    and cutting the rotated lists of one shift; ``contradicted`` counting
    distinct names, and ``conflict`` the Counter search over those lists.
    ``blocks`` and ``gamma`` (the block scan) are as they were before ``gamma``
    read the shapes' block numbers, and ``matched`` reads the block scan."""

    blocks, gamma = old_blocks, old_gamma

    def __init__(self, *sides):
        super().__init__(*sides)
        self._numbers = {}  # (p, class)

    def numbered(self, p, c=None):
        """Numbers (equal blocks share one) and fullness of the stage-``p``
        blocks of the source, or of the target at offset class ``c``."""
        key = (p, c)
        if key not in self._numbers:
            blocks = self.blocks(p, c)
            self._numbers[key] = list(map({}.setdefault, blocks, count())), ["\0" not in b for b in blocks]
        return self._numbers[key]

    def fully_filled(self, p, k):
        """Source and target block numbers where both blocks are full, and
        their indices; only these blocks can contradict."""
        sid, sfull = self.numbered(p)
        j, c = divmod(k % self.n, p)
        tid, tfull = (x[j:] + x[:j] for x in self.numbered(p, c))
        index = list(compress(count(), map(and_, sfull, tfull)))
        return list(map(sid.__getitem__, index)), list(map(tid.__getitem__, index)), index

    def matched(self, p, k):
        """``old_gamma``, a Consistent result as an empty pair of block lists."""
        return ((), ()) if isinstance(g := old_gamma(self, p, k), Consistent) else g

    def contradicted(self, p, k):
        return _has_conflict(*self.fully_filled(p, k)[:2])

    def conflict(self, p, k):
        return _first_conflict(*self.fully_filled(p, k))


def reference_shaped(cache, *key):
    """``_shaped`` with the name masks built by the OR loop (``old_shaped``),
    one shape per key kept in ``cache``."""
    shapes = cache.setdefault("reference shapes", {})
    if key not in shapes:
        ids, full, names, _, fullness = old_shaped(SimpleNamespace(_shapes={}), *key)
        shapes[key] = ids, full, names, fullness
    return shapes[key]


def assert_same_conflicts(src, tgt, alphabet, seen, rng):
    """Every stage ``p | n`` and shift, queried in shuffled order and twice,
    read alike from the table and from the reference, and so does the first
    conflict of each contradicted one; ``gamma`` too, whose reference locates
    conflicts by the Counter search, and ``seen`` counts the cases the table
    and the locator have to get right."""
    pair, ref = (text_pair(src, tgt, alphabet, cls) for cls in (_Pair, ReferencePair))
    n = len(src)
    queries = [(p, k) for p in divisors(n) for k in range(-n, 2 * n)] * 2
    rng.shuffle(queries)
    for p, k in queries:
        expected = ref.contradicted(p, k)
        assert shift_contradicted(pair, p, k) == expected, (p, k)
        seen["contradicted" if expected else "bijective"] += 1
        if expected:
            conflict = pair.conflict(p, k)
            assert conflict == ref.conflict(p, k), (p, k)
            seen[conflict.reason] += 1
    for p in divisors(n):
        for k in range(n):
            assert (pair.gamma(p, k) or pair.conflict(p, k)) == ref.gamma(p, k), (p, k)
        shapes = Counter(id(pair.shape(p, c)) for c in range(p))
        seen["shared shape"] += any(m > 1 for m in shapes.values())
        seen["unshared shape"] += any(m == 1 for m in shapes.values())
        classes = {}
        for c in range(p):
            ids, full = ref.numbered(p, c)
            classes.setdefault(tuple(ids), set()).add(tuple(full))
        seen["numbers alike, fullness not"] += any(len(f) > 1 for f in classes.values())
        sid, sfull = ref.numbered(p)
        twice = {x for x, m in Counter(compress(sid, sfull)).items() if m == 2}
        for k in range(n):
            kept = Counter(ref.fully_filled(p, k)[0])
            seen["a name of two full blocks keeps one"] += any(kept[x] == 1 for x in twice)


def random_pair(rng, symbols):
    """A tower and a rotation, a deepened copy, a block-code image or an
    unrelated tower of a compatible depth, in either order."""
    fill = rng.choice((1.0, 0.8, 0.5))
    a = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 6), fill=fill)
    kind = rng.choice(("rotation", "deepened", "code image", "unrelated"))
    if kind == "rotation":
        b = rotate_tower(a, rng.randrange(a.deepest_period))
    elif kind == "deepened":
        b = deepen(rng, a, rng.choice((2, 3)), fill=0.6)
    elif kind == "code image":
        b = apply_block_code(a, random_block_code(rng, a.alphabet, 1))
    else:
        period = rng.choice(divisors(a.deepest_period) + [2 * a.deepest_period])
        b = random_tower(rng, symbols, depth=1, base_periods=(period,), fill=rng.choice((1.0, 0.8)))
    if rng.random() < 0.5:
        a, b = b, a
    n = max(a.deepest_period, b.deepest_period)
    return a._text * (n // a.deepest_period), b._text * (n // b.deepest_period), a.alphabet, kind


def test_random_tower_pairs_conflict_like_the_per_shift_test():
    rng = random.Random(20261018)
    seen, kinds = Counter(), Counter()
    for _ in range(90):
        symbols = rng.choice((("0", "1"), ("a", "b", "c", "d")))
        src, tgt, alphabet, kind = random_pair(rng, symbols)
        assert_same_conflicts(src, tgt, alphabet, seen, rng)
        kinds[kind] += 1
    assert min(kinds.values()) >= 10, kinds
    assert min(seen.values()) >= 10 and len(seen) == 8, seen


def test_edge_words_conflict_like_the_per_shift_test():
    rng = random.Random(7)
    seen = Counter()
    binary, quaternary = Alphabet(("0", "1")), Alphabet(("a", "b", "c", "d"))
    words = [
        ("\0" * 12, "\0" * 12, binary),  # all blank
        ("\0" * 12, "\1\2" * 6, binary),
        ("\1", "\2", binary),  # period 1
        ("\1", "\0", binary),
        ("\1", "\1", binary),
    ]
    for letters, alphabet in ((2, binary), (4, quaternary)):  # complete and high-entropy
        for n in (32, 48):
            src = "".join(chr(rng.randint(1, letters)) for _ in range(n))
            words.append((src, "".join(chr(rng.randint(1, letters)) for _ in range(n)), alphabet))
            words.append((src, src[5:] + src[:5], alphabet))
    for src, tgt, alphabet in words:
        assert_same_conflicts(src, tgt, alphabet, seen, rng)
        assert_same_conflicts(tgt, src, alphabet, seen, rng)
    assert seen["contradicted"] and seen["bijective"] and all(seen[r] for r in REASONS), seen


def test_gamma_and_dp_equivalent_match_the_block_scan(monkeypatch):
    """``gamma`` at every stage ``p | n`` and shift, and ``dp_equivalent``
    over all pairs of parts at each stage of the towers, read alike from the
    shapes' block numbers and from the block scan: result type, reason,
    positions and correspondence order.  The towers use multi-character
    symbols and blanks, against a rotation, a code image or a tiled
    shallower tower."""
    rng = random.Random(20261020)
    symbols = ("0", "1", "01", "10")
    seen, kinds = Counter(), Counter()
    for _ in range(80):
        a = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4), fill=rng.choice((1.0, 0.7)))
        kind = rng.choice(("rotation", "code image", "shallower", "redrawn"))
        if kind == "rotation":
            b = rotate_tower(a, rng.randrange(a.deepest_period))
        elif kind == "redrawn":  # a word of 4 equal blocks with blanks in about a third of their cells,
            # and the word with its symbols next to a blank redrawn at rate 1/2, so equal partial blocks differ
            w = [rng.choice(symbols[:2]) if rng.random() < 2 / 3 else None for _ in range(rng.choice((2, 3)))] * 4
            near = [None in (w[i - 1], w[(i + 1) % len(w)]) and rng.random() < 0.5 for i in range(len(w))]
            redrawn = [c and (rng.choice(symbols) if x else c) for c, x in zip(w, near)]
            a, b = (SkeletonTower(a.alphabet, ((len(w), PartialCyclicWord(tuple(x))),)) for x in (w, redrawn))
        elif kind == "code image":
            b = apply_block_code(a, random_block_code(rng, a.alphabet, 1))
        else:
            period = rng.choice(divisors(a.deepest_period))
            b = random_tower(rng, symbols, depth=1, base_periods=(period,), fill=rng.choice((1.0, 0.7)))
        if rng.random() < 0.5:
            a, b = b, a
        kinds[kind] += 1
        n = max(a.deepest_period, b.deepest_period)
        pair, ref = (cls(a, b, n) for cls in (_Pair, ReferencePair))
        for p in divisors(n):
            for k in range(n):
                g = pair.gamma(p, k) or pair.conflict(p, k)
                assert g == ref.gamma(p, k), (p, k)
                seen[re.sub(r"\d+", "#", getattr(g, "reason", "consistent"))] += 1
        a, b = with_common_depth(a, b)
        for p in sorted(set(a.periods) | set(b.periods)):
            parts = [Part(t, p, r) for t in (a, b) for r in range(p)]
            got = [dp_equivalent(w, z) for w, z in product(parts, repeat=2)]
            fresh = {t: SkeletonTower(t.alphabet, t.levels, t.declared_scale) for t in (a, b)}  # no shape cut yet
            with monkeypatch.context() as m:
                m.setattr(conjugacy, "_Pair", ReferencePair)
                m.setattr(conjugacy, "_shaped", reference_shaped)
                refs = [(Part(fresh[w.base], p, w.k), Part(fresh[z.base], p, z.k)) for w, z in product(parts, repeat=2)]
                assert got == [dp_equivalent(w, z) for w, z in refs], p
            seen.update(r.kind.value for r in got)
    assert min(kinds.values()) >= 10, kinds
    assert min(seen.values()) >= 10 and len(seen) == 10, seen
