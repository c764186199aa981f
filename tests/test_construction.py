import pytest

from toepcalc import reference_example, serialize_tower, validate_tower
from toepcalc.cli import run_command
from helpers import old_reference_example


S = {
    0: "0___0",
    1: "0_1_00___0",
    2: "001000___00111001010",
    3: "001000_1_00111001010001000___00111001010",
}


def blank_runs(text):
    runs, i = [], 0
    while i < len(text):
        if text[i] == "_":
            j = i
            while j < len(text) and text[j] == "_":
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


def test_stage_words_bit_exact():
    for k, expected in S.items():
        t = reference_example(k)
        assert t.deepest_word.text() == expected
        assert t.deepest_period == 5 * 2**k


def test_levels_are_the_earlier_stages():
    t = reference_example(3)
    assert [w.text() for _, w in t.levels] == [S[0], S[1], S[2], S[3]]
    validate_tower(t)
    assert str(t.declared_scale) == "2^inf * 5"


def test_stage_four_holes():
    t = reference_example(4)
    assert t.deepest_word.blank_positions() == (26, 27, 28)


def test_blank_run_structure_alternates():
    # even stages leave a single triple of holes; odd stages two singles + a triple
    for k in range(0, 9):
        runs = blank_runs(reference_example(k).deepest_word.text())
        lengths = sorted(length for _, length in runs)
        if k % 2 == 0:
            assert lengths == [3], k
        else:
            assert lengths == [1, 1, 3], k


def test_rejects_negative_stage():
    with pytest.raises(ValueError):
        reference_example(-1)


def test_stage_rewrites_match_the_blank_run_scanner():
    for k in range(17):
        new, old = reference_example(k), old_reference_example(k)
        assert new == old, k
        assert serialize_tower(new) == serialize_tower(old), k
        assert [w.text() for _, w in new.levels] == [w.text() for _, w in old.levels], k


def test_generate_writes_the_scanner_example(tmp_path):
    for k in (0, 1, 2, 16):
        out = tmp_path / f"s{k}.tw"
        code, text = run_command(["generate", "paper-example", "--stages", str(k), "-o", str(out)])
        assert code == 0, text
        assert out.read_text() == serialize_tower(old_reference_example(k)), k
