"""Benchmark of toepcalc: four workloads, timed end to end, every output checked.

    python3 bench/run.py --workload certify-ladder --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory and driven in-process, one operation at a time, through
``toepcalc.cli.run_command`` and ``toepcalc.oracle.exact_conjugacy_search``.

A run sets the workload up nine times, makes one checked warm-up pass, then
repeats timed passes for ``--seconds``.  Times are reported in seconds at the
reference speed (see ``Timer``); wall seconds are on the summary lines.  With
``--trace 1`` it spends half the time on untraced passes and half on passes
under ``tracing.Tracer``, and reports the per-layer metrics instead of the
end-to-end ones.  Summary lines go to stdout; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every output check passed, 1 when one failed, 2 when the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 9

# name -> unit; every workload reports all of these
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "top_rung_s": "s",
    "growth_exp": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "conjugacy.gamma_map.calls": "count",
    "conjugacy.gamma_map.s": "s",
    "conjugacy.gamma_map.consistent": "count",
    "conjugacy.gamma_map.contradicted": "count",
    "conjugacy.gamma_map.undetermined": "count",
    "conjugacy.gamma_map.repeat_ratio": "1",
    "conjugacy.phase_separated.calls": "count",
    "conjugacy.phase_separated.s": "s",
    "conjugacy.conjugacy_verdict.calls": "count",
    "conjugacy.conjugacy_verdict.self_s": "s",
    "conjugacy.dp_equivalent.calls": "count",
    "conjugacy.dp_equivalent.s": "s",
    "conjugacy.chi_stage.s": "s",
    "conjugacy.efin_equal.s": "s",
    "conjugacy.invariant_compare.self_s": "s",
    "conjugacy.self_s": "s",
    "skeleton.periodic_part.calls": "count",
    "skeleton.periodic_part.s": "s",
    "skeleton.periodic_part.repeat_ratio": "1",
    "skeleton.essential_period_status.calls": "count",
    "skeleton.essential_period_status.s": "s",
    "skeleton.scale_truncation.s": "s",
    "skeleton.growth_profile.s": "s",
    "skeleton.natural_factorization.s": "s",
    "skeleton.self_s": "s",
    "core.validate_tower.calls": "count",
    "core.validate_tower.s": "s",
    "core.rotate_tower.calls": "count",
    "core.self_s": "s",
    "towerfile.parse_tower_text.calls": "count",
    "towerfile.parse_tower_text.s": "s",
    "towerfile.cells_parsed": "count",
    "towerfile.self_s": "s",
    "codes.apply_block_code.calls": "count",
    "codes.apply_block_code.s": "s",
    "codes.parse_block_code.s": "s",
    "codes.self_s": "s",
    "odometer.prime_index.calls": "count",
    "odometer.prime_index.s": "s",
    "odometer.supernatural_equal.calls": "count",
    "odometer.self_s": "s",
    "oracle.exact_conjugacy_search.calls": "count",
    "oracle.exact_conjugacy_search.s": "s",
    "oracle.witnesses_found": "count",
    "oracle.self_s": "s",
    "cli.run_command.calls": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "1",
    "trace.self_total_s": "s",
    "trace.harness_s": "s",
    "trace.outside_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import toepcalc
    except ImportError as exc:
        raise BenchError(f"cannot import toepcalc from {SRC}: {exc}") from None
    if Path(toepcalc.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"toepcalc was imported from {toepcalc.__file__}, not from {SRC}")


def load_expected(workload: str, seed: int) -> dict:
    data = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return {
        "fixed": data["fixed"].get(workload, {}),
        "seeded": data["seeded"].get(workload, {}).get(str(seed), {}),
    }


_REFERENCE_KEYS = tuple(str(i % 3) for i in range(64))
REFERENCE_S = 0.02  # nominal time of one reference_seconds() loop


def reference_seconds() -> float:
    """Time of a fixed piece of pure-Python work that never touches toepcalc:
    integer arithmetic, tuple slices and dict updates, about 20 ms."""
    clock = time.perf_counter
    t0 = clock()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    counts: dict = {}
    for i in range(20_000):
        key = _REFERENCE_KEYS[i % 50 : i % 50 + 5]
        counts[key] = counts.get(key, 0) + 1
    return clock() - t0


class Timer:
    """Times calls in seconds at the reference speed.

    The speed of a shared machine drifts: on the 2-vCPU machine this was built
    on, one ``compare`` took 1.2 s in one minute and 2.3 s a few minutes later.
    So each call's wall time is scaled by ``REFERENCE_S`` over the mean of the
    reference loop times measured just before and just after it, which gives
    the time the call would take on a machine where the loop takes exactly
    ``REFERENCE_S``.  It moves when the program's cost moves, and much less
    when the machine's speed does.
    """

    def __init__(self):
        self.before = reference_seconds()

    def time(self, call):
        """Returns the call's result, its wall seconds and its seconds at the
        reference speed."""
        t0 = time.perf_counter()
        result = call()
        took = time.perf_counter() - t0
        after = reference_seconds()
        scaled = took * REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return result, took, scaled


@dataclass
class PassTiming:
    raw: dict[str, float]  # step key -> wall seconds
    scaled: dict[str, float]  # step key -> seconds at the reference speed


def run_pass(plan) -> tuple[PassTiming, dict]:
    """Run every step once; returns the step timings and each step's output."""
    timer = Timer()
    timing, outputs = PassTiming({}, {}), {}
    for step in plan.steps:
        outputs[step.key], timing.raw[step.key], timing.scaled[step.key] = timer.time(step.call)
    return timing, outputs


def slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


class Measurements:
    """Timings of the untraced passes, reduced to medians over passes."""

    def __init__(self, plan):
        self.plan = plan
        self.passes: list[PassTiming] = []

    def walls(self, kind: str) -> list[float]:
        return [sum(getattr(p, kind).values()) for p in self.passes]

    def rungs(self, kind: str) -> dict[int, float]:
        """Time of one primary operation at each rung (``raw`` or
        ``scaled``): per pass, the rung's summed time over its operations,
        then the median over passes."""
        steps: dict[int, list] = defaultdict(list)
        for step in self.plan.steps:
            if step.bucket == self.plan.primary and step.rung is not None:
                steps[step.rung].append(step)
        return {
            n: statistics.median(
                sum(getattr(p, kind)[s.key] for s in group) / sum(s.ops for s in group) for p in self.passes
            )
            for n, group in sorted(steps.items())
        }

    def buckets(self, kind: str) -> dict[str, float]:
        sums: dict[str, list[float]] = defaultdict(lambda: [0.0] * len(self.passes))
        for i, timing in enumerate(self.passes):
            for step in self.plan.steps:
                sums[step.bucket][i] += getattr(timing, kind)[step.key]
        return {bucket: statistics.median(values) for bucket, values in sums.items()}

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        rungs = self.rungs("scaled")
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(self.walls("scaled")),
            "top_rung_s": rungs[max(rungs)],
            "growth_exp": slope([math.log2(n) for n in rungs], [math.log2(t) for t in rungs.values()]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def report(self) -> list[str]:
        lines = []
        raw, scaled = self.buckets("raw"), self.buckets("scaled")
        for bucket in raw:
            lines.append(f"{bucket}_s = {scaled[bucket]:.6f} s (wall {raw[bucket]:.6f} s; median per pass)")
        raw, scaled = self.rungs("raw"), self.rungs("scaled")
        for n in raw:
            lines.append(f"rung {self.plan.primary} N={n} = {scaled[n]:.6f} s (wall {raw[n]:.6f} s; median per operation)")
        for step in self.plan.steps:
            ts = [p.raw[step.key] for p in self.passes]
            lines.append(f"step {step.key}: wall {statistics.median(ts):.6f} s (min {min(ts):.6f}, max {max(ts):.6f})")
        walls = self.walls("raw")
        lines.append(f"pass wall: median {statistics.median(walls):.6f} s, min {min(walls):.6f}, max {max(walls):.6f}, {len(walls)} passes")
        return lines


def repeat_for(seconds: float, run_once) -> None:
    """Call ``run_once`` at least once, and again while one more call is
    expected to end within ``seconds`` of the first."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        run_once()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, int, int, list[str]]:
    from tracing import Tracer
    from workloads import WORKLOADS, Inputs, check_outputs

    setup = WORKLOADS[workload]
    expected = load_expected(workload, seed)
    timer = Timer()
    setup_raw, setup_scaled = [], []
    for _ in range(SETUPS):
        inputs = Inputs(workdir)
        plan, raw, scaled = timer.time(lambda: setup(seed, inputs))
        setup_raw.append(raw)
        setup_scaled.append(scaled)
    inputs.write()

    attempted = failed = 0
    messages: list[str] = []

    def checked(outputs: dict) -> None:
        nonlocal attempted, failed
        result = check_outputs(plan, outputs, expected)
        attempted += result.attempted
        failed += result.failed
        messages.extend(result.messages[:5])

    checked(run_pass(plan)[1])  # warm-up
    untraced = Measurements(plan)

    def untraced_pass() -> None:
        timing, outputs = run_pass(plan)
        untraced.passes.append(timing)
        checked(outputs)

    repeat_for(seconds / 2 if trace else seconds, untraced_pass)
    lines = [f"workload {workload} seed {seed}: {SETUPS} set-ups, {len(untraced.passes)} untraced passes"]
    lines.append("set-up wall times: " + " ".join(f"{t:.6f}" for t in setup_raw) + " s")
    lines += untraced.report()
    if not trace:
        return untraced.end_to_end(statistics.median(setup_scaled)), attempted, failed, lines + messages

    tracer = Tracer()
    summaries: list[dict] = []

    def traced_pass() -> None:
        tracer.reset()
        with tracer.installed():
            timing, outputs = run_pass(plan)
        wall = sum(timing.raw.values())
        summaries.append(tracer.summary(wall) | {"trace.wall_s": wall, "scaled": sum(timing.scaled.values())})
        checked(outputs)

    repeat_for(seconds / 2, traced_pass)
    metrics = {name: statistics.median(s.get(name, 0.0) for s in summaries) for name in PER_LAYER}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced.walls("raw"))
    metrics["trace.overhead"] = statistics.median(s["scaled"] for s in summaries) / statistics.median(untraced.walls("scaled"))
    last = summaries[-1]
    spans_file = ROOT / ".bench_trace" / f"{workload}-seed{seed}.tsv"
    tracer.write(spans_file)
    lines.append(f"traced passes: {len(summaries)}; the {len(tracer.spans)} spans of the last are in {spans_file}")
    lines.append(
        f"last traced pass: layer self times {last['trace.self_total_s']:.6f} s + wrappers {last['trace.harness_s']:.6f} s"
        f" + outside spans {last['trace.outside_s']:.6f} s"
        f" = {last['trace.self_total_s'] + last['trace.harness_s'] + last['trace.outside_s']:.6f} s;"
        f" pass wall {last['trace.wall_s']:.6f} s"
    )
    return metrics, attempted, failed, lines + messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failed, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run uses it
    units = PER_LAYER if args.trace else END_TO_END
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
