"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every check here is exact (tolerance zero); the randomized ones use fixed
seeds and report zero-violation counts.  Each criterion also carries the
runtime ceiling it must meet.
"""

import itertools
import math
import random
import time
from pathlib import Path

from toepcalc import (
    ConjugateCertified,
    EfinResult,
    DpKind,
    NotConjugateCertified,
    Part,
    Status,
    SupernaturalNumber,
    apply_block_code,
    apply_positionwise_permutation,
    chi_stage,
    conjugacy_verdict,
    dp_equivalent,
    efin_equal,
    exact_conjugacy_search,
    exact_periodic_analysis,
    gamma_map,
    growth_profile,
    invariant_compare,
    natural_factorization,
    odometer_add,
    odometer_coordinates,
    odometers_conjugate,
    parse_tower_text,
    periodic_part,
    phase_separated,
    reference_example,
    rotate_tower,
    serialize_tower,
    supernatural_lcm,
)
from toepcalc.cli import corpus_matrix, run_command
from toepcalc.conjugacy import Consistent
from toepcalc.oracle import PeriodicWord
from toepcalc.randomgen import deepen, random_block_code, random_positionwise, random_tower
from helpers import BINARY, divisors, per_residues, tower


def _finish(number: int, limit: float, started: float, failures: list):
    elapsed = time.time() - started
    ok = not failures and elapsed < limit
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"


def test_criterion_01_generator_bit_exact():
    t0 = time.time()
    failures = []
    expected = {
        0: "0___0",
        1: "0_1_00___0",
        2: "001000___00111001010",
        3: "001000_1_00111001010001000___00111001010",
    }
    for k, text in expected.items():
        got = reference_example(k).deepest_word.text()
        if got != text:
            failures.append((k, got))
    _finish(1, 1.0, t0, failures)


def test_criterion_02_growing_blocks_dichotomy():
    t0 = time.time()
    failures = []
    gp = growth_profile(reference_example(4))
    minima = [row.min_block_length for row in gp.rows]
    if minima != [2, 1, 17, 1, 77]:
        failures.append(("minima", minima))
    if gp.trend != "non-monotone":
        failures.append(("trend", gp.trend))
    sub = (minima[0], minima[2], minima[4])
    if not (sub[0] < sub[1] < sub[2]):
        failures.append(("subsequence", sub))
    _finish(2, 1.0, t0, failures)


def test_criterion_03_periodicity_monotonicity():
    t0 = time.time()
    failures = []
    for seed in range(1000):
        rng = random.Random(seed)
        t = random_tower(rng)
        n = t.deepest_period
        divs = divisors(n)
        status = {p: periodic_part(t, p) for p in divs}
        for p in divs:
            sp = status[p]
            for q in divs:
                if q % p:
                    continue
                sq = status[q]
                for r in range(q):
                    if sp.status_at(r) is Status.IN and (
                        sq.status_at(r) is not Status.IN or sq.symbol(r) != sp.symbol(r)
                    ):
                        failures.append(("divisor-in", seed, p, q, r))
                    if q < n and sq.status_at(r) is Status.OUT and sp.status_at(r) is not Status.OUT:
                        failures.append(("divisor-out", seed, p, q, r))
        deeper = deepen(rng, t, multiplier=rng.choice((2, 3)))
        for p in divs:
            before, after = status[p], periodic_part(deeper, p) if deeper.deepest_period % p == 0 else None
            if after is None:
                continue
            for r in range(p):
                if before.status_at(r) is Status.IN and (
                    after.status_at(r) is not Status.IN or after.symbol(r) != before.symbol(r)
                ):
                    failures.append(("depth-in", seed, p, r))
                if before.status_at(r) is Status.OUT and after.status_at(r) is Status.IN:
                    failures.append(("depth-out", seed, p, r))
        if failures:
            break
    _finish(3, 30.0, t0, failures)


def test_criterion_04_margin_law():
    t0 = time.time()
    failures = []
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        t = random_tower(rng)
        m = rng.randrange(3)
        code = random_block_code(rng, t.alphabet, m)
        out = apply_block_code(t, code)
        n = t.deepest_period
        for p in divisors(n):
            before = periodic_part(t, p)
            after = periodic_part(out, p)
            for k in range(p):
                margin_in = all(
                    before.status_at(x) is Status.IN for x in range(k - m, k + m + 1)
                )
                if margin_in and after.status_at(k) is not Status.IN:
                    failures.append((seed, p, k))
        if failures:
            break
    _finish(4, 60.0, t0, failures)


def test_criterion_05_conjugacy_round_trip():
    t0 = time.time()
    failures = []
    rng = random.Random(20260814)
    accepted = attempts = 0
    while accepted < 500 and attempts < 50_000:
        attempts += 1
        t = random_tower(rng, with_scale=True)
        p = rng.choice(t.periods)
        if not phase_separated(t, p):
            continue  # the construction only yields a conjugate pair off degenerate stages
        phi = random_positionwise(rng, t.alphabet, p)
        n = t.deepest_period
        r = p * rng.randrange(max(1, n // p))
        b = rotate_tower(apply_positionwise_permutation(t, phi), r)
        if not phase_separated(b, p):
            continue
        accepted += 1
        verdict = conjugacy_verdict(t, b, 2)
        if not isinstance(verdict, ConjugateCertified):
            failures.append((attempts, type(verdict).__name__))
    if accepted < 500:
        failures.append(("accepted", accepted))
    scale_pair = conjugacy_verdict(
        reference_example(1), tower("0__", scale="3^inf"), 2
    )
    if not isinstance(scale_pair, NotConjugateCertified):
        failures.append(("scale-pair", type(scale_pair).__name__))
    _finish(5, 60.0, t0, failures)


def test_criterion_06_oracle_equivalence():
    t0 = time.time()
    failures = []
    # skeleton agreement on every binary word of length <= 8
    for n in range(1, 9):
        for bits in itertools.product("01", repeat=n):
            t = tower("".join(bits))
            for p in divisors(n):
                rss = periodic_part(t, p)
                per = exact_periodic_analysis(PeriodicWord(BINARY, bits), p).per_residues
                for r in range(p):
                    if (rss.status_at(r) is Status.IN) != (r in per):
                        failures.append(("skeleton", bits, p, r))
                    if r in per and rss.symbol(r) != bits[r]:
                        failures.append(("symbol", bits, p, r))
    # Gamma well-definedness/injectivity behind every found witness, length <= 6
    words = [
        PeriodicWord(BINARY, bits)
        for n in range(1, 7)
        for bits in itertools.product("01", repeat=n)
    ]
    checked = 0
    for v, w in itertools.product(words, words):
        wit = exact_conjugacy_search(v, w, 2)
        if wit is None:
            continue
        m = max(wit.forward.length, wit.backward.length)
        n1 = v.period
        fl = wit.forward.length
        y = tuple(
            wit.forward.apply(tuple(v.cells[(i + d) % n1] for d in range(-fl, fl + 1)))
            for i in range(n1)
        )
        for p in divisors(n1):
            pv = per_residues(v.cells, p)
            py = per_residues(y, p)
            if all((x % p) in pv and (x % p) in py for x in range(-m, m + 1)):
                g = gamma_map(tower("".join(v.cells)), tower("".join(y)), p, 0)
                checked += 1
                if not isinstance(g, Consistent):
                    failures.append(("gamma", v.cells, w.cells, p, type(g).__name__))
    if checked < 1000:  # sanity: the margin case must actually occur at scale
        failures.append(("too-few-gamma-checks", checked))
    _finish(6, 300.0, t0, failures)


def test_criterion_07_odometer_arithmetic():
    t0 = time.time()
    failures = []
    if natural_factorization(SupernaturalNumber.parse("2^inf * 5"), 4) != (2, 4, 40, 80):
        failures.append("factorization")
    a = supernatural_lcm(*(SupernaturalNumber.from_int(2**k) for k in range(1, 14)))
    b = supernatural_lcm(*(SupernaturalNumber.from_int(2 ** (2 * k + 1)) for k in range(7)))
    if not odometers_conjugate(a, b):
        failures.append("2-adic towers")
    if odometers_conjugate(SupernaturalNumber.parse("2^inf"), SupernaturalNumber.parse("3^inf")):
        failures.append("2^inf vs 3^inf")
    rng = random.Random(7)
    for i in range(10_000):
        chain, acc = [], 1
        for _ in range(rng.randrange(1, 5)):
            acc *= rng.choice((2, 3, 4, 5))
            chain.append(acc)
        pt = odometer_coordinates(rng.randrange(-10**6, 10**6), chain)
        x, yv = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
        if odometer_add(odometer_add(pt, x), yv) != odometer_add(pt, x + yv):
            failures.append(("assoc", i))
            break
        if odometer_add(pt, 0) != pt or odometer_add(odometer_add(pt, x), -x) != pt:
            failures.append(("identity/inverse", i))
            break
    _finish(7, 5.0, t0, failures)


def test_criterion_08_efin_matches_brute_force():
    t0 = time.time()
    failures = []
    instances = 0
    for seed in range(200):
        rng = random.Random(30_000 + seed)
        t1 = random_tower(rng, fill=1.0)
        n = t1.deepest_period
        t2 = random_tower(rng, base_periods=(n,), depth=1, fill=1.0)
        p = rng.choice([d for d in divisors(n) if d < n] or [n])
        s = [Part(t1, p, rng.randrange(p)) for _ in range(rng.randrange(0, 7))]
        t = [Part(t2, p, rng.randrange(p)) for _ in range(rng.randrange(0, 7))]
        kinds = {}
        undetermined = False
        for x, yv in itertools.product(s + t, s + t):
            k = dp_equivalent(x, yv).kind
            kinds[(x, yv)] = k
            undetermined |= k is DpKind.UNDETERMINED
        if undetermined:
            continue  # not a determined instance
        instances += 1
        forward = all(
            any(kinds[(x, yv)] is DpKind.CONSISTENT_WITNESS for yv in t) for x in s
        )
        backward = all(
            any(kinds[(x, yv)] is DpKind.CONSISTENT_WITNESS for x in s) for yv in t
        )
        expected = EfinResult.CERTIFIED_EQUAL if (forward and backward) else EfinResult.REFUTED
        got = efin_equal(s, t, p)
        if got is not expected:
            failures.append((seed, p, expected, got))
    if instances < 150:
        failures.append(("too-few-determined-instances", instances))
    _finish(8, 60.0, t0, failures)


def test_criterion_09_chi_stage_values():
    t0 = time.time()
    failures = []
    g2 = reference_example(2)
    c5, c20 = chi_stage(g2, 5), chi_stage(g2, 20)
    if not (c5.complete and {p.k for p in c5.parts} == {0}):
        failures.append(("chi5", sorted(p.k for p in c5.parts)))
    if not (c20.complete and {p.k for p in c20.parts} == {17}):
        failures.append(("chi20", sorted(p.k for p in c20.parts)))
    for g in (reference_example(2), reference_example(3)):
        ic = invariant_compare(g, g, 3)
        rows = [r for r in ic.stages if r.evaluated]
        if not rows or any(r.result is not EfinResult.CERTIFIED_EQUAL for r in rows):
            failures.append(("self-compare", [(r.period, r.result) for r in ic.stages]))
    _finish(9, 1.0, t0, failures)


def test_criterion_10_cli_contract(tmp_path):
    t0 = time.time()
    failures = []
    rng = random.Random(99)
    for i in range(50):
        t = random_tower(rng, with_scale=rng.random() < 0.5)
        if parse_tower_text(serialize_tower(t)) != t:
            failures.append(("round-trip", i))
    # deterministic corpus matrix under shuffled discovery order
    files = []
    for i, stages in enumerate((1, 2, 2)):
        f = tmp_path / f"t{i}.tw"
        f.write_text(serialize_tower(rotate_tower(reference_example(stages), i)))
        files.append(f)
    files.append(tmp_path / "tri.tw")
    files[-1].write_text("alphabet = 0 1\nscale = 3^inf\nperiod 3 = 0 _ _\n")
    baseline = corpus_matrix(files, 2)
    for i in range(3):
        if corpus_matrix(random.Random(i).sample(files, len(files)), 2) != baseline:
            failures.append(("corpus-order", i))
    # exit codes follow the verdict tags
    a = str(tmp_path / "t1.tw")
    same = str(tmp_path / "t2.tw")
    tri = str(tmp_path / "tri.tw")
    checks = [
        (["compare", same, same], 0),
        (["compare", a, tri], 1),
        (["compare", str(tmp_path / "t0.tw"), a], 2),  # depths differ: honest unknown
        (["validate", tri], 0),
        (["validate", str(tmp_path / "absent.tw")], 3),
        (["invariant", a, same, "--stages", "3"], 0),
        (["invariant", a, tri, "--stages", "2"], 1),
    ]
    ra = tmp_path / "ra.tw"
    ra.write_text("alphabet = 0 1\nperiod 2 = 0 1\nperiod 6 = 0 1 0 1 0 0\n")
    if run_command(["validate", str(ra)])[0] != 3:
        failures.append("inconsistent tower accepted")
    for argv, want in checks:
        got = run_command(argv)[0]
        if got != want:
            failures.append((argv, want, got))
    _finish(10, 30.0, t0, failures)
