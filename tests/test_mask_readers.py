"""Differential and cost tests of the readers of the status tables' bit masks.

``filled_blocks``, ``analyze``'s stage counts, the verdict's margins and
candidate classes and ``skeleton_word`` read the In, Out and Unknown masks of
a stage's status table (``status_masks``); the tuple scans they replaced, and
``periodic_part`` as it kept its view on the tower, are kept verbatim in
``helpers`` as the references.  The same holds for ``PartialCyclicWord.text``
and ``from_text``, now C-level ``map`` passes.  The cost guard checks that the
readers that need only the masks build no per-residue ``ResidueStatusSet``,
and a second one that ``validate``, ``analyze``, ``compare`` and ``corpus``
on tower files build no ``PartialCyclicWord``: a parsed tower decodes its
``levels`` only when they are read, and ``==``, pickling and copying read its
code points; ``validate_tower`` checks the code points, decodes no level and
leaves them in place.  A third one checks the same of the towers the package builds from code points
(``rotate``, ``permute``, ``apply-code``, ``generate``, ``with_common_depth``)
and of the readers of a parsed tower's deepest word.  A fourth checks that
only ``periodic_part`` maps a stage's digits to ``Status`` values.
"""

import copy
import pickle
import random
import re

import pytest

from toepcalc import (
    Alphabet,
    ConjugateCertified,
    EfinResult,
    Part,
    PartialCyclicWord,
    RefutedUpTo,
    SkeletonTower,
    TowerError,
    Unknown,
    apply_block_code,
    chi_stage,
    conjugacy_verdict,
    efin_equal,
    filled_blocks,
    growth_profile,
    invariant_compare,
    parse_block_code,
    parse_tower_text,
    parts_star,
    period_status,
    periodic_part,
    reference_example,
    rotate_tower,
    scale_truncation,
    serialize_tower,
    skeleton_word,
    status_masks,
    symbol_at,
    validate_tower,
    with_common_depth,
)
from toepcalc import skeleton
from toepcalc.cli import corpus_matrix, run_command
from toepcalc.randomgen import random_tower
from toepcalc.skeleton import ResidueStatusSet, _divisors
from helpers import check_status_readers, old_filled_blocks, old_from_text, old_stage_counts, old_word_text, one_level

BINARY = ("0", "1")
TERNARY = ("a", "b", "c")
WIDE = tuple(f"s{i}" for i in range(300))  # codes up to 300: nine bit planes


def with_statuses(text: str) -> SkeletonTower:
    """A tower of period ``2p`` whose table at ``p = len(text)`` reads ``text``:
    residue ``r`` is In for ``I`` (cells r and r + p hold 0 and 0), Out for
    ``O`` (0 and 1) and Unknown for ``U`` (a blank and 0)."""
    pairs = {"I": ("0", "0"), "O": ("0", "1"), "U": (None, "0")}
    first, second = zip(*map(pairs.__getitem__, text))
    return one_level(BINARY, first + second)


def dense_spans(h: int) -> SkeletonTower:
    """Period ``h`` all blank, then period ``2h``: for each residue r < h the
    cells r and r + h hold 0 and 1 when r is even, a blank and 0 when
    r % 6 == 1, and 0 and 0 otherwise.  Stage ``h`` has h/2 spans of one
    residue, a third of them Unknown."""
    first = ["0" if r % 2 == 0 else None if r % 6 == 1 else "0" for r in range(h)]
    second = ["1" if r % 2 == 0 else "0" for r in range(h)]
    alphabet = Alphabet(BINARY)
    return SkeletonTower(alphabet, ((h, PartialCyclicWord((None,) * h)), (2 * h, PartialCyclicWord(first + second))))


def random_towers():
    rng = random.Random(2611)
    for symbols in (BINARY, TERNARY, WIDE):
        for _ in range(40):
            fill = rng.choice((1.0, 0.9, 0.6, 0.3, 0.05))
            t = random_tower(rng, symbols, depth=rng.randint(1, 3), base_periods=(1, 2, 3, 4, 5, 6), fill=fill)
            yield rotate_tower(t, rng.randrange(t.deepest_period))
        for n in (1, 6, 12, 30, 720):
            cells = [None] * n
            cells[rng.randrange(n)] = rng.choice(symbols)
            yield one_level(symbols, cells)


SPAN_TABLES = (
    "I", "O", "U", "OO", "UUU", "IOIOU",
    "IIOIIIUIII",  # the span after the hole wraps and holds an Unknown residue
    "IUIOIIII",  # the wrapping span holds an Unknown residue before the hole
    "OIIIIIIII", "IIIIIIIIO", "IIIIUIIIIO", "UIIIOIIIIU", "OUUUO", "IIOOII", "OIOIOI",
)


def check(t: SkeletonTower) -> None:
    for p in _divisors(t.deepest_period):
        assert filled_blocks(t, p) == old_filled_blocks(t, p), (t, p)
        counts = map(int.bit_count, status_masks(t, p))  # as analyze counts them
        assert dict(zip(("in", "out", "unknown"), counts)) == old_stage_counts(t, p), (t, p)


def test_filled_blocks_and_counts_match_the_tuple_scans_on_random_towers():
    for t in random_towers():
        check(t)


def test_filled_blocks_and_counts_match_the_tuple_scans_on_the_paper_example():
    for k in range(13):
        check(reference_example(k))


def test_filled_blocks_and_counts_match_the_tuple_scans_on_chosen_spans():
    rng = random.Random(26)
    tables = (*SPAN_TABLES, *("".join(rng.choices("IOU", (6, 1, 1), k=rng.randint(1, 40))) for _ in range(200)))
    wraps = unknown_inside = 0
    for text in tables:
        t = with_statuses(text)
        check(t)
        spans = filled_blocks(t, len(text)).spans
        wraps += any(s.wraps for s in spans)
        unknown_inside += any(s.length is None for s in spans)
    assert wraps and unknown_inside
    fb = filled_blocks(with_statuses("IIOIIIUIII"), 10)
    assert fb.holes == (2,) and fb.unknown_residues == (6,) and [(s.start, s.length) for s in fb.spans] == [(3, None)]
    fb = filled_blocks(with_statuses("IIOIIIIIII"), 10)
    assert [(s.start, s.length, s.wraps) for s in fb.spans] == [(3, 9, True)]


def test_filled_blocks_and_counts_match_the_tuple_scans_on_dense_spans():
    t = dense_spans(1 << 20)
    check(t)
    fb = filled_blocks(t, 1 << 20)
    assert len(fb.spans) == 1 << 19 and sum(s.length is None for s in fb.spans) == len(fb.unknown_residues) == 174763


def test_margins_candidates_words_and_views_match_the_view_readers():
    """At every divisor of random towers over 2, 3 and 300 symbols and of
    ``reference_example(0..10)``, each tower against itself and a rotation."""
    rng = random.Random(2702)
    towers = (*random_towers(), *map(reference_example, range(11)))
    for t in towers:
        u = rotate_tower(t, rng.randrange(t.deepest_period))
        for p in _divisors(t.deepest_period):
            for a, b in ((t, t), (t, u)):
                check_status_readers(a, b, p, rng.choice((0, 1, 3, 10**6)))


# the radius-1 codes of the refuted and the Unknown code-image verdicts in CI
CI_CODES = (
    "len = 1\n0 0 0 -> 0\n0 0 1 -> 1\n0 1 0 -> 1\n0 1 1 -> 1\n1 0 0 -> 0\n1 0 1 -> 0\n1 1 0 -> 1\n1 1 1 -> 0\n",
    "len = 1\n0 0 0 -> 0\n0 0 1 -> 0\n0 1 0 -> 0\n0 1 1 -> 1\n1 0 0 -> 0\n1 0 1 -> 1\n1 1 0 -> 0\n1 1 1 -> 1\n",
)


def test_mask_readers_build_no_residue_status_set(monkeypatch, tmp_path):
    built = []

    class Counting(ResidueStatusSet):
        def __init__(self, modulus, *rest):
            built.append(modulus)
            super().__init__(modulus, *rest)

    monkeypatch.setattr(skeleton, "ResidueStatusSet", Counting)
    text = serialize_tower(reference_example(9))
    (tmp_path / "a.tw").write_text(text)
    code, out = run_command(["analyze", str(tmp_path / "a.tw")])
    assert code == 0 and "stage.2560.in" in out
    t, u = parse_tower_text(text), rotate_tower(parse_tower_text(text), 7)  # fresh towers, no table kept
    scale_truncation(t)
    growth_profile(t)
    for p in _divisors(t.deepest_period):
        filled_blocks(t, p)
    invariant_compare(t, u, 12)
    assert built == []
    codes = [parse_block_code(code, t.alphabet) for code in CI_CODES]
    images = [apply_block_code(t, code) for code in codes]
    assert built == []
    verdicts = [conjugacy_verdict(parse_tower_text(text), b, 3) for b in (*images, rotate_tower(t, 7))]
    assert [type(v) for v in verdicts] == [RefutedUpTo, Unknown, ConjugateCertified] and built == []
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, tower in zip("abcd", (t, *images, u)):
        (corpus / f"{name}.tw").write_text(serialize_tower(tower))
    matrix = corpus_matrix(sorted(corpus.glob("*.tw")), 3)["matrix"]
    assert set(matrix["a.tw"].values()) == {"conjugate-certified", "refuted-up-to", "unknown"} and built == []
    for p in _divisors(t.deepest_period):
        parts_star(t, p)
    assert built == []
    periodic_part(t, 10)
    assert built == [10]  # the guard sees the view built on request
    assert not any(isinstance(entry, ResidueStatusSet) for entry in t._status.values())  # and the tower keeps none


def test_only_periodic_part_builds_statuses_from_digits(monkeypatch, tmp_path):
    """The readers of a stage's digits keep them as digits: only
    ``periodic_part`` (so ``period_status``) maps them to ``Status`` values,
    one lookup per residue."""
    reads = []

    class Counting(dict):
        def get(self, digit, default=None):
            reads.append(digit)
            return super().get(digit, default)

        def __getitem__(self, digit):
            reads.append(digit)
            return super().__getitem__(digit)

    monkeypatch.setattr(skeleton, "_STATUS_OF_DIGIT", Counting(skeleton._STATUS_OF_DIGIT))
    text = serialize_tower(reference_example(9))
    (tmp_path / "a.tw").write_text(text)
    t, u = parse_tower_text(text), rotate_tower(parse_tower_text(text), 7)
    images = [apply_block_code(t, parse_block_code(code, t.alphabet)) for code in CI_CODES]
    assert reads == []
    for p in _divisors(t.deepest_period):
        parts_star(t, p)
        skeleton_word(t, p)
        filled_blocks(t, p)
    assert reads == []
    code, out = run_command(["analyze", str(tmp_path / "a.tw")])
    assert code == 0 and "stage.2560.in = 2555" in out.splitlines() and reads == []
    verdicts = [conjugacy_verdict(parse_tower_text(text), b, 3) for b in (*images, u)]
    assert [type(v) for v in verdicts] == [RefutedUpTo, Unknown, ConjugateCertified] and reads == []
    assert invariant_compare(t, u, 12).equal_suffix and reads == []
    assert len(periodic_part(t, 640).statuses) == len(reads) == 640  # the guard sees the view built on request
    reads.clear()
    assert period_status(t, 15).modulus == len(reads) == 5


def test_parsed_towers_build_no_cell_tuple(monkeypatch, tmp_path):
    t = reference_example(9)
    images = [apply_block_code(t, parse_block_code(code, t.alphabet)) for code in CI_CODES]
    other_scale = serialize_tower(reference_example(8)).replace("scale = ", "scale = 3 * ")
    for name, text in zip("abcde", (*map(serialize_tower, (t, rotate_tower(t, 7), *images)), other_scale)):
        (tmp_path / f"{name}.tw").write_text(text)
    built = []
    post_init = PartialCyclicWord.__post_init__
    monkeypatch.setattr(PartialCyclicWord, "__post_init__", lambda word: built.append(word) or post_init(word))
    runs = {
        ("validate", "a"): "status = valid",
        ("analyze", "a"): "stage.2560.in = 2555",
        ("compare", "a", "b"): "verdict = conjugate-certified",
        ("compare", "a", "c"): "verdict = refuted-up-to",
        ("compare", "a", "d"): "verdict = unknown",
        ("compare", "a", "e"): "verdict = not-conjugate",
    }
    for (command, *names), line in runs.items():
        code, out = run_command([command, *(str(tmp_path / f"{name}.tw") for name in names)])
        assert line in out.splitlines() and built == [], (command, names, out)
    code, out = run_command(["corpus", str(tmp_path)])
    assert code == 0 and "matrix.a.tw.b.tw = conjugate-certified" in out.splitlines() and built == []
    u, v, w = (parse_tower_text((tmp_path / f"{name}.tw").read_text()) for name in "aab")
    assert u == v and v == u and u != w and built == []  # equality reads the code points
    for copied, original in ((pickle.loads(pickle.dumps(u)), u), (copy.deepcopy(u), u), (copy.copy(w), w)):
        assert copied == original and copied._pieces == original._pieces and built == []  # and so do copies
    state = u._pieces, u._text, u._planes
    validate_tower(u)  # checks a throwaway tower built from u's code points: no level decoded
    assert all(now is before for now, before in zip((u._pieces, u._text, u._planes), state))
    assert built == [] and "levels" not in vars(u)
    code, out = run_command(["invariant", str(tmp_path / "a.tw"), str(tmp_path / "b.tw"), "--stages", "12"])
    assert code == 2 and "stage.2560.result = CertifiedEqual" in out.splitlines() and built == [], out
    u, v, w = (parse_tower_text((tmp_path / f"{name}.tw").read_text()) for name in "aab")  # fresh: none hashed
    assert hash(u) == hash(v) != hash(w) and built == []  # the hash reads the code points
    assert len({Part(v, 10, k) for k in (0, 1, 11)} | {Part(w, 10, 1)}) == 3 and built == []  # so do the parts'
    x, y = (chi_stage(parse_tower_text((tmp_path / f"{name}.tw").read_text()), 160).parts for name in "ab")
    assert len(x) == len(y) == 3 and efin_equal(x, y, 160) is EfinResult.CERTIFIED_EQUAL and built == []
    built.clear()
    parse_tower_text((tmp_path / "a.tw").read_text()).levels
    assert len(built) == len(t.levels)  # the guard sees the levels decoded on request


def test_built_towers_build_no_cell_tuple(monkeypatch, tmp_path):
    text = serialize_tower(reference_example(9))
    (tmp_path / "a.tw").write_text(text)
    (tmp_path / "code.txt").write_text(CI_CODES[0])
    built = []
    post_init = PartialCyclicWord.__post_init__
    monkeypatch.setattr(PartialCyclicWord, "__post_init__", lambda word: built.append(word) or post_init(word))
    a, out, code = (str(tmp_path / name) for name in ("a.tw", "b.tw", "code.txt"))
    runs = (
        ["generate", "paper-example", "--stages", "9", "-o", out],
        ["rotate", a, "-k", "-100003", "-o", out],
        ["permute", a, "--period", "5", "--perms", "1,0;0,1;0,1;1,0;0,1", "-o", out],
        ["apply-code", a, "--code", code, "-o", out],
    )
    for args in runs:
        assert run_command(args)[0] == 0 and built == [], args
    reference_example(12)
    shallow, deep = with_common_depth(parse_tower_text(serialize_tower(reference_example(7))), parse_tower_text(text))
    assert shallow.periods[-1] == deep.periods[-1] == 2560 and built == []
    t = parse_tower_text(text)
    assert periodic_part(t, 10).symbols[0] == period_status(t, 15).symbols[0] == symbol_at(t, -2560) == "0"
    assert built == []
    word, _ = skeleton_word(parse_tower_text(text), 40)
    assert len(built) == 1 and built[0] is word  # the one word it returns


def test_a_parsed_tower_reads_as_the_tower_built_in_code():
    rng = random.Random(3131)
    towers = [reference_example(6), one_level(("ab", "c"), ("c",)), one_level(WIDE, ("s299", None, "s7", "s0"))]
    towers += [random_tower(rng, WIDE, depth=3, fill=0.6, with_scale=True) for _ in range(5)]
    for t in towers:
        text = serialize_tower(t)
        fresh = [parse_tower_text(text) for _ in range(5)]
        assert [serialize_tower(u) for u in fresh] == [text] * 5
        assert all("levels" not in vars(u) for u in fresh)  # not decoded yet, written from code points
        assert fresh[0].levels == t.levels and hash(fresh[1]) == hash(t) and repr(fresh[2]) == repr(t)
        loaded = pickle.loads(pickle.dumps(fresh[3]))
        assert loaded == t and loaded.levels == t.levels and loaded._text == t._text
        assert fresh[4] == t and t == fresh[4] and fresh[4].deepest_word == t.deepest_word


def test_word_text_matches_the_generators():
    rng = random.Random(2612)
    for _ in range(300):
        symbols = rng.choice((BINARY, TERNARY, ("0", "1", "ab"), ("", "xy", "z"), ("_", "a")))
        cells = tuple(rng.choice((None, *symbols)) for _ in range(rng.randint(1, 12)))
        word = PartialCyclicWord(cells)
        try:
            want = old_word_text(word)
        except TowerError as exc:
            with pytest.raises(TowerError, match=f"^{re.escape(str(exc))}$"):
                word.text()
        else:
            assert word.text() == want
        text = "".join(rng.choice("01_ab") for _ in range(rng.randint(1, 12)))
        assert PartialCyclicWord.from_text(text) == old_from_text(text)
    word = reference_example(12).deepest_word
    assert word.text() == old_word_text(word) and PartialCyclicWord.from_text(word.text()) == word
    with pytest.raises(TowerError, match="^symbol '01' has no single-character form$"):
        PartialCyclicWord(("1", None, "01", "ab")).text()
    with pytest.raises(TowerError, match="^symbol '' has no single-character form$"):
        PartialCyclicWord(("", "ab", "0")).text()
