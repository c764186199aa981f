"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import toepcalc.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch_dir():
    """A scratch directory inside the checkout, as the benchmark itself uses."""
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=scratch))
    yield path
    shutil.rmtree(path)
    with contextlib.suppress(OSError):
        scratch.rmdir()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_is_deterministic_per_seed(name):
    setup = workloads.WORKLOADS[name]
    made = {}
    for label, seed in (("first", 3), ("again", 3), ("other", 4)):
        inputs = workloads.Inputs(Path("inputs"))
        plan = setup(seed, inputs)
        made[label] = (inputs.files, [s.key for s in plan.steps])
    assert made["first"] == made["again"]
    assert made["first"][1] == made["other"][1]
    if name != "refute-ladder":  # its seed only picks six coin flips
        assert made["first"][0] != made["other"][0]


def _bindings() -> dict[tuple[str, str], object]:
    return {(m.__name__, k): v for m in tracing.toepcalc_modules() for k, v in vars(m).items()}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        import toepcalc.conjugacy
        import toepcalc.skeleton

        original = before[("toepcalc.skeleton", "periodic_part")]
        for module in (toepcalc.skeleton, toepcalc.conjugacy):
            assert module.periodic_part is not original
            assert module.periodic_part.__wrapped__ is original
    assert _bindings() == before


def test_tracer_restores_bindings_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_self_times_and_harness_add_up_to_the_wall_time(scratch_dir):
    a = scratch_dir / "a.tw"
    b = scratch_dir / "b.tw"
    a.write_text("alphabet = 0 1\nperiod 5 = 0 _ 1 _ 0\nperiod 10 = 0 1 1 0 0 0 0 1 _ 0\n")
    b.write_text("alphabet = 0 1\nperiod 5 = _ 1 _ 0 0\nperiod 10 = 1 1 0 0 0 0 1 _ 0 0\n")
    tracer = tracing.Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        code, text = toepcalc.cli.run_command(["compare", str(a), str(b)])
        wall = time.perf_counter() - t0
    summary = tracer.summary(wall)
    assert summary["cli.run_command.calls"] == 1
    assert summary["towerfile.parse_tower_text.calls"] == 2
    assert summary["towerfile.cells_parsed"] == 30
    assert summary["conjugacy.conjugacy_verdict.calls"] == 1
    total = summary["trace.self_total_s"] + summary["trace.harness_s"] + summary["trace.outside_s"]
    assert math.isclose(total, wall, rel_tol=1e-9, abs_tol=1e-9)
    assert all(summary[f"{layer}.self_s"] >= 0 for layer in ("cli", "towerfile", "conjugacy", "skeleton"))


def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    argv = [sys.executable, "bench/run.py", "--workload", "certify-ladder", "--seed", "0", "--seconds", "0", "--trace", trace]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        assert f"{name} = " in done.stdout
        if trace == "0":
            assert m["value"] != 0


def test_a_corrupted_output_is_counted_as_a_failure(monkeypatch, capsys):
    real = toepcalc.cli.run_command

    def corrupted(argv):
        code, text = real(argv)
        if argv[0] == "compare" and "g10.tw" in argv[1]:
            text = text.replace("conjugate-certified", "unknown")
        return code, text

    monkeypatch.setattr(toepcalc.cli, "run_command", corrupted)
    status = run.main(["--workload", "certify-ladder", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == 2  # the warm-up pass and the one timed pass
    assert result["attempted"] == 8


def test_a_changed_digest_is_counted_as_a_failure(scratch_dir):
    inputs = workloads.Inputs(scratch_dir)
    plan = workloads.setup_invariant(0, inputs)
    inputs.write()
    outputs = run.run_pass(plan)[1]
    expected = run.load_expected("invariant-ladder", 0)
    assert workloads.check_outputs(plan, outputs, expected).failed == 0
    code, text = outputs["analyze/N=2560"]
    outputs["analyze/N=2560"] = (code, text.replace("trend = ", "trend = not "))
    result = workloads.check_outputs(plan, outputs, expected)
    assert (result.attempted, result.failed) == (len(plan.steps), 1)
    assert "analyze/N=2560" in result.messages[0]
