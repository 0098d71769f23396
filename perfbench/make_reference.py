#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the stored outputs the benchmark
compares against: one full-size answer per workload and seed.

    python3 perfbench/make_reference.py

Every answer must pass its own check first.  Regenerate only when a change
is meant to alter results, and say so in CHANGES.md.
"""

import json
import sys

import run

SEEDS = list(range(10)) + [7919]


def main():
    run.load_package()
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        sizes = workloads.FULL_SIZES[name]
        entries = {}
        for seed in SEEDS if workload.seeded else [None]:
            summaries = []
            for item in workload.inputs(seed, sizes):
                result = workload.answer(item, workloads.OpTimer())
                check = workloads.Check()
                workload.check(item, [result], None, check)
                if check.failed:
                    raise SystemExit(f"{name} seed {seed} fails its check: {check.notes}")
                summaries.append(workload.summary(result))
            key = "fixed" if seed is None else str(seed)
            entries[key] = summaries
            print(name, key, summaries, flush=True)
        reference[name] = {"sizes": sizes, "inputs": entries}
    reference["generated_from"] = {"git_commit": run.git_commit(), "source_sha256": run.source_digest()}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
