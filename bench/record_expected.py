"""Record the output digests the benchmark checks against (``expected.json``).

    python3 bench/record_expected.py

Run it from the repository root at the commit whose outputs are the
reference.  It makes one pass of every workload for each of ``SEEDS``, fails
if any seed-independent check fails or if a digest marked seed-independent
differs between seeds, and rewrites ``expected.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(32)


def main() -> int:
    run.import_program()
    from workloads import WORKLOADS, Inputs, check_outputs

    fixed: dict[str, dict] = {}
    seeded: dict[str, dict] = {}
    empty = {"fixed": {}, "seeded": {}}
    scratch = run.ROOT / ".bench_run" / "record"
    for workload, setup in WORKLOADS.items():
        fixed[workload], seeded[workload] = {}, {}
        for seed in SEEDS:
            shutil.rmtree(scratch, ignore_errors=True)
            inputs = Inputs(scratch)
            plan = setup(seed, inputs)
            inputs.write()
            outputs = run.run_pass(plan)[1]
            result = check_outputs(plan, outputs, empty)
            if result.failed:
                print(f"{workload} seed {seed}: {result.messages[:5]}", file=sys.stderr)
                return 1
            seeded[workload][str(seed)] = {}
            for step in plan.steps:
                value = step.digest(outputs[step.key])
                if step.seeded:
                    seeded[workload][str(seed)][step.key] = value
                elif fixed[workload].setdefault(step.key, value) != value:
                    print(f"{workload} seed {seed}: {step.key} depends on the seed", file=sys.stderr)
                    return 1
            print(f"{workload} seed {seed}: {result.attempted} operations", flush=True)
        if not any(seeded[workload].values()):
            del seeded[workload]
    shutil.rmtree(scratch.parent, ignore_errors=True)
    data = {"seeds": list(SEEDS), "fixed": fixed, "seeded": seeded}
    (run.HERE / "expected.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
