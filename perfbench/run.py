#!/usr/bin/env python3
"""Benchmark of idealpoly's four paper workloads.

    python3 perfbench/run.py --workload sample-fit --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
Workloads: ``sample-fit``, ``fit-large``, ``optimize-large``, ``search``
(see perfbench/README.md).  With ``--trace 0`` the end-to-end metrics are
measured; with ``--trace 1`` untraced and traced answers alternate and the
per-layer metrics are reported, and the spans are written to
``perfbench/out/``.  The last line of standard output is the JSON result;
the line before it holds provenance and check details.
"""

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

# Per-layer metrics in these units are rescaled to nominal speed (speed.py).
TIME_UNITS = ("s", "ms", "us", "ns")

SETUP_RUNS = 7
# The tail is the highest percentile with at least 10 distinct ops beyond it.
TAIL_BEYOND = 10

SETUP_CODE = """
import sys, time
sys.path.insert(0, {here!r})
import speed
before = [speed.probe() for _ in range(10)]
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import numpy as np
from idealpoly import geom, optvol, rivin, stats, triang
np.linalg.svd(np.eye(4))
{warmup}
elapsed = time.perf_counter() - t0
after = [speed.probe() for _ in range(10)]
print(elapsed, sum(before + after) / len(before + after))
"""


def load_package():
    """Put the checkout's ``src/`` first on the path and import idealpoly from it."""
    package = SRC / "idealpoly"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout of the repository")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import idealpoly

    if Path(idealpoly.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: idealpoly was imported from {idealpoly.__file__}")


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "idealpoly").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def provenance(args, sizes):
    import numpy as np

    from idealpoly import _kernels

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "sizes": sizes,
        "kernel_backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "traced": bool(args.trace),
    }


def measure_setup(workload, sizes):
    """Median over fresh interpreters of: import, first LAPACK call, one tiny
    call, each rescaled by speed probes taken right before and after it."""
    import speed
    import workloads

    code = SETUP_CODE.format(
        src=str(SRC), here=str(HERE), warmup=workloads.WARMUP[workload].format(**sizes)
    )
    samples = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, probe = (float(v) for v in out.stdout.split()[-2:])
        samples.append(elapsed * speed.NOMINAL_S / probe)
    return statistics.median(samples), samples


def warm_up(workload, sizes):
    """The set-up's LAPACK call and tiny call, in this process, before timing."""
    import numpy as np
    import workloads
    from idealpoly import geom, optvol, rivin, stats, triang  # noqa: F401

    np.linalg.svd(np.eye(4))
    exec(workloads.WARMUP[workload].format(**sizes))


def load_reference(workload, sizes, seed):
    """The stored summaries of this seed's cycle items, or None."""
    import workloads

    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if not entry or entry["sizes"] != sizes:
        return None
    return entry["inputs"].get(str(seed) if workloads.WORKLOADS[workload].seeded else "fixed")


def marking(fn, mark):
    def wrapper(*args, **kwargs):
        mark()
        return fn(*args, **kwargs)

    return wrapper


def trial_marks(workload, timer):
    """Replacement of ``stats.trial_rng`` that marks an op per library trial."""
    from idealpoly import stats

    if not workload.trial_marked:
        return []
    return [(stats, "trial_rng", marking(stats.trial_rng, timer.begin))]


def timed_answer(workload, item, timer, replacements, clock=time.perf_counter):
    """One answer: its result, its duration by ``clock`` and its perf_counter span."""
    import tracing

    gc.collect()
    with tracing.patched(replacements):
        real_start = time.perf_counter()
        start = clock()
        result = workload.answer(item, timer)
        wall = clock() - start
        real_end = time.perf_counter()
    return result, wall, (real_start, real_end)


def op_stats(durations, ops_per_cycle, cycles):
    """Median and tail over the distinct ops of a cycle, each op's latency
    being its median over the cycles."""
    per_op = sorted(
        statistics.median(durations[c * ops_per_cycle + i] for c in range(cycles))
        for i in range(ops_per_cycle)
    )
    k = max(0, len(per_op) - 1 - TAIL_BEYOND)
    percentile = 100.0 * k / max(1, len(per_op) - 1)
    return statistics.median(per_op), per_op[k], percentile


def run_untraced(args, workload, items, sizes):
    """Whole cycles over the items until the next cycle would overrun.

    ``wall_s`` is the mean time of one whole cycle.  Every answer's wall time and
    every op latency is rescaled by the speed probes around it (speed.py).
    """
    import speed
    import workloads

    probe = speed.SpeedProbe()
    timer = workloads.OpTimer(clock=probe.clock)
    replacements = trial_marks(workload, timer)
    results = [[] for _ in items]
    walls, spans = [], []
    start = time.perf_counter()
    with probe:
        while True:
            cycle_start = time.perf_counter()
            for i, item in enumerate(items):
                result, wall, span = timed_answer(
                    workload, item, timer, replacements, probe.clock
                )
                results[i].append(result)
                walls.append(wall)
                spans.append(span)
            now = time.perf_counter()
            if now - start + (now - cycle_start) > args.seconds:
                break

    cycles = len(walls) // len(items)
    per_answer = workload.ops(sizes)
    notes = []
    factors = [probe.factor(a, b) for a, b in spans]
    scaled_walls = [w * f for w, f in zip(walls, factors)]
    durations = timer.durations
    if len(durations) == per_answer * len(walls):
        op_factors = [probe.factor(a, b) for a, b in timer.intervals]
    else:
        notes.append(
            f"{len(durations)} op marks for {len(walls)} answers of {per_answer} ops: "
            "op latency is the per-answer mean"
        )
        durations = [w / per_answer for w in walls for _ in range(per_answer)]
        op_factors = [f for f in factors for _ in range(per_answer)]
    scaled_durations = [d * f for d, f in zip(durations, op_factors)]
    ops_per_cycle = len(items) * per_answer

    def summarize(walls, durations):
        p50, tail, _ = op_stats(durations, ops_per_cycle, cycles)
        return {
            "wall_s": sum(walls) / cycles,
            "ops_per_s": ops_per_cycle * cycles / sum(walls),
            "op_p50_ms": p50 * 1e3,
            "op_tail_ms": tail * 1e3,
        }

    metrics = summarize(scaled_walls, scaled_durations)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "cycles": cycles,
        "answers": len(walls),
        "walls_s": walls,
        "distinct_ops": ops_per_cycle,
        "op_tail_percentile": op_stats(durations, ops_per_cycle, cycles)[2],
        "ops_beyond_tail": TAIL_BEYOND,
        "speed_factors": factors,
        "speed_probes": len(probe.samples),
        "raw": summarize(walls, durations),
    }
    return results, metrics, detail, notes


def replay_kernels(configurations, volumes):
    """Time the fused sample kernel's three stages on the recorded inputs and
    count configurations whose replayed sum is not bit-identical."""
    import layers
    import tracing
    from idealpoly import _kernels

    tracer = tracing.Tracer()
    mismatches = 0
    with tracing.patched(layers.kernel_replacements(tracer)):
        for config, volume in zip(configurations, volumes):
            xs = [w.real for w in config.finite]
            ys = [w.imag for w in config.finite]
            tris, _ = _kernels.delaunay_triangles(xs, ys)
            angles = _kernels.triangle_angles(xs, ys, tris)
            total = _kernels.lobachevsky_sum([a for row in angles for a in row])
            mismatches += int(total != volume)
    return tracer, mismatches


def run_traced(args, workload, items, sizes):
    """Untraced and traced answers of the same item alternate, item after
    item, until the next pair would overrun; metrics are per traced answer."""
    import layers
    import speed
    import tracing
    import workloads

    tracer = tracing.Tracer()
    probe = speed.SpeedProbe()
    configurations = []
    replayed = args.workload in workloads.REPLAYED

    def next_op():
        tracer.op += 1

    plain_timer = workloads.OpTimer()
    traced_timer = workloads.OpTimer(on_mark=next_op)
    plain = trial_marks(workload, plain_timer)
    traced = layers.replacements(tracer, configurations) + trial_marks(workload, traced_timer)
    results = [[] for _ in items]
    plain_walls, traced_walls = [], []
    start = time.perf_counter()
    for i in itertools.cycle(range(len(items))):
        probe.sample()
        for timer, replacements, walls in (
            (plain_timer, plain, plain_walls),
            (traced_timer, traced, traced_walls),
        ):
            result, wall, _ = timed_answer(workload, items[i], timer, replacements)
            results[i].append(result)
            walls.append(wall)
        pair = plain_walls[-1] + traced_walls[-1]
        replay = plain_walls[-1] if replayed else 0.0
        if time.perf_counter() - start + pair + replay > args.seconds:
            break
    probe.sample()

    count = len(traced_walls)
    totals = {name: (c / count, s / count) for name, (c, s) in tracer.layer_totals().items()}
    values = {name: v / count for name, v in tracer.values.items()}
    # A maximum over the run, not a sum to divide.
    values["optvol.maximize_volume.kkt_residual_max"] = tracer.values.get(
        "optvol.maximize_volume.kkt_residual_max", 0.0
    )
    counts = {name: c / count for name, c in tracer.counts.items()}
    traced_wall = sum(traced_walls) / count
    trace = {
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": sum(traced_walls) / sum(plain_walls),
        "trace.coverage": sum(s for _, s in totals.values()) / traced_wall,
    }

    detail = {"answers_untraced": len(plain_walls), "answers_traced": count}
    if replayed:
        # The fused kernel hides its stages: replay the configurations of the
        # first traced answer (the second result of item 0).
        sample = results[0][1][0]
        per_answer = len(configurations) // count
        kernels, mismatches = replay_kernels(configurations[:per_answer], sample.volumes)
        totals.update(kernels.layer_totals())
        values.update(kernels.values)
        detail["replayed_configurations"] = per_answer
        detail["replay_mismatches"] = mismatches
        detail["replay_nesting_errors"] = kernels.nesting_errors()[:5]

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracing.write_spans(
        trace_file,
        tracer.spans,
        {"workload": args.workload, "seed": args.seed, "traced_answers": count},
    )
    detail["trace_file"] = str(trace_file.relative_to(ROOT))
    detail["spans"] = len(tracer.spans)
    detail["nesting_errors"] = tracer.nesting_errors()[:5]
    metrics = layers.per_layer_metrics(totals, values, counts, sizes["n"], trace)
    # Rescaled by the mean of the probes taken between answers.
    factor = probe.factor()
    detail["speed_factor"] = factor
    detail["raw"] = dict(metrics)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    for name, value in metrics.items():
        if units[name] in TIME_UNITS:
            metrics[name] = value * factor
    return results, metrics, detail


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sample-fit", "fit-large", "optimize-large", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, sizes_table=None):
    args = parse_args(argv)
    load_package()
    import layers
    import workloads

    sizes = (sizes_table or workloads.FULL_SIZES)[args.workload]
    workload = workloads.WORKLOADS[args.workload]
    setup_s, setup_samples = measure_setup(args.workload, sizes)
    items = workload.inputs(args.seed, sizes)
    warm_up(args.workload, sizes)

    check = workloads.Check()
    if args.trace:
        results, metrics, detail = run_traced(args, workload, items, sizes)
        if "replayed_configurations" in detail:
            check.tally(
                detail["replayed_configurations"],
                detail["replay_mismatches"],
                "replayed kernel sums differ from the fused config_volume",
            )
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        results, metrics, detail, notes = run_untraced(args, workload, items, sizes)
        for text in notes:
            check.note(text)
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS

    reference = load_reference(args.workload, sizes, args.seed)
    if reference is not None:
        check.reference = "matched"
    for i, item in enumerate(items):
        if results[i]:
            workload.check(item, results[i], reference and reference[i], check)
    if not args.trace:
        metrics["success_ratio"] = (check.attempted - check.failed) / check.attempted

    detail.update(
        provenance=provenance(args, sizes),
        setup_samples_s=setup_samples,
        reference=check.reference,
        failed_ratio=check.failed / check.attempted,
        notes=check.notes,
    )
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({"detail": detail}))
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
