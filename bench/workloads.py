"""The four benchmark workloads: input generation, the steps of one pass, and
the output checks.

A workload's setup generates every tower and code file its pass needs into an
``Inputs`` and returns a ``Plan``; the caller writes the files.  A pass runs the plan's steps in order, one operation
in flight; each step calls the program only through
``toepcalc.cli.run_command`` or ``toepcalc.oracle.exact_conjugacy_search``,
looked up at call time so that the traced run sees the wrapped functions.

Seeds vary the inputs only in ways that leave the amount of work nearly the
same, because runs made with different seeds are compared with each other:

* ``certify-ladder`` rotates each rung's tower by a seeded amount;
* ``refute-ladder`` uses a fixed panel of two drawn codes (one on the
  ``RefutedUpTo`` path, one on the ``Unknown`` path) and lets the seed swap
  each code's output symbols.  That changes every code file and image but no
  comparison the program makes.  Seeding the codes themselves makes the
  compare time of a single ``Unknown``-path code spread by 36% (quartile
  distance over median, N = 640, all 148 such radius-1 codes), wider than any
  bound the benchmark may set;
* ``invariant-ladder`` rotates and positionwise-permutes the second tower;
* ``small-words`` draws the cells of partial towers whose period chains are
  fixed; its complete-word corpus and oracle sweep do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import toepcalc.cli
import toepcalc.oracle
from toepcalc import (
    Alphabet,
    BlockCode,
    PeriodicWord,
    apply_block_code,
    apply_positionwise_permutation,
    conjugacy_verdict,
    parse_tower_text,
    reference_example,
    rotate_tower,
    serialize_tower,
)
from toepcalc.codes import serialize_block_code
from toepcalc.randomgen import random_block_code, random_positionwise, random_tower

BINARY = Alphabet(("0", "1"))


@dataclass
class Step:
    """One timed call into the program."""

    key: str  # stable name, used by digests and per-rung reports
    bucket: str  # per-pass sum the step's time is added to
    call: Callable[[], object]
    digest: Callable[[object], str]  # what of the output must stay unchanged
    seeded: bool  # whether the output depends on the workload seed
    rung: Optional[int] = None  # N of the ladder rung, for primary steps
    ops: int = 1  # operations the step performs


Problems = dict[tuple[str, int], list[str]]  # (step key, op index) -> failed checks


@dataclass
class Plan:
    steps: list[Step]
    primary: str  # bucket whose per-rung times give top_rung_s and growth_exp
    problems: Callable[[dict], Problems]  # seed-independent output checks


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def report_fields(text: str) -> dict[str, str]:
    """The ``key = value`` lines of a text report."""
    fields = {}
    for line in text.splitlines():
        key, eq, value = line.partition(" = ")
        if eq:
            fields[key] = value
    return fields


def _field_digest(*keys: str) -> Callable[[tuple[int, str]], str]:
    def run(output: tuple[int, str]) -> str:
        code, text = output
        f = report_fields(text)
        return digest("|".join([str(code)] + [f"{k}={f.get(k, '')}" for k in keys]))

    return run


compare_digest = _field_digest("verdict", "stage", "shift", "radius", "stages")
apply_code_digest = _field_digest("radius", "holes_before", "holes_after")


def report_digest(output: tuple[int, str]) -> str:
    code, text = output
    return digest(f"{code}\n{text}")


def oracle_digest(results: list) -> str:
    return digest(repr([None if w is None else (w.forward.length, w.backward.length, w.shift) for w in results]))


def check_outputs(plan: Plan, outputs: dict, expected: dict) -> CheckResult:
    """Compare each step's digest with the recorded one (``fixed`` for every
    seed, ``seeded`` for the recorded seed only) and run the plan's own checks.
    A step whose digest differs fails on every operation it performs."""
    problems = plan.problems(outputs)
    result = CheckResult()
    for step in plan.steps:
        recorded = (expected["seeded"] if step.seeded else expected["fixed"]).get(step.key)
        value = step.digest(outputs[step.key])
        mismatch = [f"digest {value} != recorded {recorded}"] if recorded not in (None, value) else []
        for i in range(step.ops):
            found = mismatch + problems.get((step.key, i), [])
            result.attempted += 1
            if found:
                result.failed += 1
                result.messages.append(f"{step.key}#{i}: {'; '.join(found)}")
    return result


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    return lambda: toepcalc.cli.run_command(argv)


class Inputs:
    """The files a set-up produces, kept in memory so that the set-up can be
    timed without the file system: on a shared machine, file creation slows
    down and speeds up apart from Python code, and it would dominate
    ``setup_s`` for small inputs."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[Path, str] = {}

    def add(self, name: str, text: str) -> str:
        path = self.root / name
        self.files[path] = text
        return str(path)

    def write(self) -> None:
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def _each_cli_step(steps: list[Step], outputs: dict, check: Callable[[Step, int, dict], list[str]]) -> Problems:
    problems: Problems = {}
    for step in steps:
        code, text = outputs[step.key]
        found = check(step, code, report_fields(text))
        if found:
            problems[(step.key, 0)] = found
    return problems


# ---------------------------------------------------------------- certify-ladder


def setup_certify(seed: int, inputs: Inputs) -> Plan:
    rng = random.Random(f"certify-ladder:{seed}")
    steps = []
    for k in range(9, 13):
        g = reference_example(k)
        n = g.deepest_period
        a = inputs.add(f"g{k}.tw", serialize_tower(g))
        b = inputs.add(f"h{k}.tw", serialize_tower(rotate_tower(g, rng.randrange(1, n))))
        steps.append(Step(f"compare/N={n}", "compare", _cli(["compare", a, b]), compare_digest, True, rung=n))

    def check(step: Step, code: int, fields: dict) -> list[str]:
        verdict = fields.get("verdict")
        return [] if (code, verdict) == (0, "conjugate-certified") else [f"exit code {code}, verdict {verdict}"]

    return Plan(steps, "compare", lambda outputs: _each_cli_step(steps, outputs, check))


# ---------------------------------------------------------------- refute-ladder


def refute_panel() -> list[BlockCode]:
    """The first two codes of a fixed stream: against the reference towers the
    first is refuted up to radius 2 and the second stays Unknown."""
    rng = random.Random("refute-ladder panel")
    return [random_block_code(rng, BINARY, 1) for _ in range(2)]


def _swap_outputs(code: BlockCode) -> BlockCode:
    flip = {"0": "1", "1": "0"}
    return BlockCode(code.alphabet, code.length, tuple((w, flip[out]) for w, out in code.table))


def setup_refute(seed: int, inputs: Inputs) -> Plan:
    rng = random.Random(f"refute-ladder:{seed}")
    panel = refute_panel()
    steps = []
    for k in range(6, 9):
        g = reference_example(k)
        n = g.deepest_period
        a = inputs.add(f"g{k}.tw", serialize_tower(g))
        for c, code in enumerate(panel):
            if rng.random() < 0.5:
                code = _swap_outputs(code)
            code_file = inputs.add(f"code{k}_{c}.txt", serialize_block_code(code))
            image = str(inputs.root / f"image{k}_{c}.tw")
            argv = ["apply-code", a, "--code", code_file, "-o", image]
            steps.append(Step(f"apply-code/N={n}/code={c}", "apply-code", _cli(argv), apply_code_digest, False))
            steps.append(Step(f"compare/N={n}/code={c}", "compare", _cli(["compare", a, image]), compare_digest, False, rung=n))

    def check(step: Step, code: int, fields: dict) -> list[str]:
        if step.bucket == "apply-code":
            return [] if code == 0 else [f"exit code {code}"]
        verdict = fields.get("verdict")
        ok = (code, verdict) in ((1, "refuted-up-to"), (2, "unknown"))
        return [] if ok else [f"exit code {code}, verdict {verdict}"]

    return Plan(steps, "compare", lambda outputs: _each_cli_step(steps, outputs, check))


# ---------------------------------------------------------------- invariant-ladder


def setup_invariant(seed: int, inputs: Inputs) -> Plan:
    rng = random.Random(f"invariant-ladder:{seed}")
    towers = {k: reference_example(k) for k in range(7, 13)}
    files = {k: inputs.add(f"g{k}.tw", serialize_tower(g)) for k, g in towers.items()}
    steps = [
        Step(f"analyze/N={towers[k].deepest_period}", "analyze", _cli(["analyze", files[k]]), report_digest, False)
        for k in range(9, 13)
    ]
    for k in range(7, 10):
        g = towers[k]
        n = g.deepest_period
        moved = rotate_tower(g, rng.randrange(1, n))
        moved = apply_positionwise_permutation(moved, random_positionwise(rng, g.alphabet, g.periods[0]))
        b = inputs.add(f"h{k}.tw", serialize_tower(moved))
        argv = ["invariant", files[k], b, "--stages", "12"]
        steps.append(Step(f"invariant/N={n}", "invariant", _cli(argv), report_digest, True, rung=n))
    argv = ["factor", "--scale", "2^inf * 3^inf * 5 * 7^inf", "--count", "200"]
    steps.append(Step("factor", "factor", _cli(argv), report_digest, False))

    def check(step: Step, code: int, fields: dict) -> list[str]:
        if step.bucket != "invariant":
            return [] if code == 0 else [f"exit code {code}"]
        # a rotation followed by a positionwise permutation is a conjugacy
        found = [] if code in (0, 2) else [f"exit code {code}"]
        if fields.get("scale.equal") != "true":
            found.append("scales differ")
        refuted = [k for k, v in fields.items() if k.endswith(".result") and v == "refuted"]
        if refuted:
            found.append(f"refuted at {refuted}")
        return found

    return Plan(steps, "invariant", lambda outputs: _each_cli_step(steps, outputs, check))


# ---------------------------------------------------------------- small-words

# (base period, multiplier, depth) of each partial-tower family, fixed so that
# the seed changes cells and not sizes; even families declare a scale
FAMILY_SHAPES = (
    (2, 2, 4), (3, 2, 4), (2, 3, 3), (4, 3, 3), (5, 2, 3),
    (3, 3, 3), (4, 2, 4), (5, 3, 3), (2, 3, 4), (3, 2, 3),
)
MAX_WORD = 5
# first words per oracle step: about 0.3 s of work, short enough for the
# reference measurements around each step to follow the machine's speed
ORACLE_CHUNK = 4


def complete_words() -> list[str]:
    return ["".join(bits) for n in range(1, MAX_WORD + 1) for bits in itertools.product("01", repeat=n)]


def _word_file(bits: str) -> str:
    return f"alphabet = 0 1\nperiod {len(bits)} = {' '.join(bits)}\n"


def _oracle_sweep(vs: list, ws: list) -> Callable[[], list]:
    def run() -> list:
        search = toepcalc.oracle.exact_conjugacy_search
        return [search(v, w, 2) for v in vs for w in ws]

    return run


def setup_small_words(seed: int, inputs: Inputs) -> Plan:
    rng = random.Random(f"small-words:{seed}")
    towers_dir = inputs.root / "towers"
    words_dir = inputs.root / "words"
    never_refuted = []  # self pairs and rotated-sibling pairs
    for i, (base, mult, depth) in enumerate(FAMILY_SHAPES):
        t = random_tower(rng, depth=depth, base_periods=(base,), multipliers=(mult,), with_scale=i % 2 == 0)
        family = {
            "a": t,
            "r": rotate_tower(t, rng.randrange(1, t.deepest_period)),
            "p": apply_positionwise_permutation(t, random_positionwise(rng, t.alphabet, base)),
            "c": apply_block_code(t, random_block_code(rng, t.alphabet, 1)),
        }
        for suffix, tower in family.items():
            name = f"t{i:02d}{suffix}.tw"
            inputs.add(f"towers/{name}", serialize_tower(tower))
            never_refuted.append((name, name))
        never_refuted += [(f"t{i:02d}a.tw", f"t{i:02d}r.tw"), (f"t{i:02d}r.tw", f"t{i:02d}a.tw")]
    words = complete_words()
    for bits in words:
        inputs.add(f"words/w{bits}.tw", _word_file(bits))
    periodic = {bits: PeriodicWord(BINARY, tuple(bits)) for bits in words}
    rungs = {n: [b for b in words if len(b) == n] for n in range(1, MAX_WORD + 1)}
    steps = [
        Step("corpus/towers", "corpus", _cli(["corpus", str(towers_dir)]), report_digest, True),
        Step("corpus/words", "corpus", _cli(["corpus", str(words_dir)]), report_digest, False),
    ]
    chunks = {}  # step key -> first words of its pairs
    for n, vs in rungs.items():
        for start in range(0, len(vs), ORACLE_CHUNK):
            chunk = vs[start : start + ORACLE_CHUNK]
            key = f"oracle/n={n}/from={chunk[0]}"
            chunks[key] = chunk
            sweep = _oracle_sweep([periodic[v] for v in chunk], [periodic[w] for w in words])
            steps.append(Step(key, "oracle", sweep, oracle_digest, False, rung=n, ops=len(chunk) * len(words)))
    refuted_radius: dict[tuple[str, str], int] = {}

    def radius(v: str, w: str) -> int:
        # the corpus matrix carries the tag only; the radius comes from the library
        if (v, w) not in refuted_radius:
            verdict = conjugacy_verdict(parse_tower_text(_word_file(v)), parse_tower_text(_word_file(w)), 2)
            refuted_radius[(v, w)] = verdict.radius
        return refuted_radius[(v, w)]

    def problems(outputs: dict) -> Problems:
        found: Problems = defaultdict(list)
        for key in ("corpus/towers", "corpus/words"):
            if outputs[key][0] != 0:
                found[(key, 0)].append(f"exit code {outputs[key][0]}")
        towers = report_fields(outputs["corpus/towers"][1])
        for a, b in never_refuted:
            tag = towers.get(f"matrix.{a}.{b}")
            if tag in (None, "refuted-up-to", "not-conjugate"):
                found[("corpus/towers", 0)].append(f"{a} vs {b} is {tag}")
        matrix = report_fields(outputs["corpus/words"][1])
        for key, vs in chunks.items():
            for i, ((v, w), witness) in enumerate(zip(itertools.product(vs, words), outputs[key])):
                tag = matrix.get(f"matrix.w{v}.tw.w{w}.tw")
                if tag == "conjugate-certified" and witness is None:
                    found[(key, i)].append(f"certified pair {v} {w} has no oracle witness")
                elif tag == "refuted-up-to" and witness is not None and witness.forward.length <= radius(v, w):
                    found[(key, i)].append(f"{v} {w} refuted up to {radius(v, w)}, witness radius {witness.forward.length}")
        return found

    return Plan(steps, "oracle", problems)


WORKLOADS = {
    "certify-ladder": setup_certify,
    "refute-ladder": setup_refute,
    "invariant-ladder": setup_invariant,
    "small-words": setup_small_words,
}
