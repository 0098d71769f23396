#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the result line
carries every metric that BENCHMARK.json names, with its unit, that the
outputs pass their check, that the recorded spans nest with no orphans, and
that ``trace.coverage`` is at least 0.9.  It also checks that the benchmark
refuses to run without the package sources.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def run_tiny(workload, trace):
    import workloads

    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, sizes_table=workloads.TINY_SIZES)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1]), lines


def check_spans(path):
    import tracing

    lines = (ROOT / path).read_text().splitlines()
    tracer = tracing.Tracer()
    tracer.spans = [tuple(json.loads(line)) for line in lines[1:]]
    return tracer.nesting_errors()


def main():
    run.load_package()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, detail, result, lines = run_tiny(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: check failed: {detail['notes']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {got}")
            for name, unit in expected[trace].items():
                if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                           for line in lines):
                    problems.append(f"{where}: {name} not printed with unit {unit}")
            if trace:
                errors = (
                    check_spans(detail["trace_file"])
                    + detail["nesting_errors"]
                    + detail.get("replay_nesting_errors", [])
                )
                if errors:
                    problems.append(f"{where}: span nesting errors {errors[:3]}")
                coverage = result["metrics"]["trace.coverage"]["value"]
                if coverage < 0.9:
                    problems.append(f"{where}: trace.coverage {coverage:.3f} < 0.9")
            print(f"{where}: ok" if not any(p.startswith(where) for p in problems)
                  else f"{where}: FAILED")

    # Without src/ the benchmark must fail without printing a result.
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
