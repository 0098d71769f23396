"""The four paper workloads: inputs, the timed answer, and its check.

Every workload calls the library as the CLI does, in one process with the
default ``threads=1``.  A workload's inputs are a *cycle* of items, built
before any timing starts; one answer is the CLI-level result for one item.
A run repeats whole cycles.  An *op* is the unit whose latency is reported:
one volume (``sample-fit``), one fit (``fit-large``), one type
(``optimize-large``) or one trial (``search``).  ``answer`` marks op
boundaries on an ``OpTimer``; for ``sample-fit`` and ``search`` the marks
come from ``stats.trial_rng``, which the library calls at the start of every
trial.

``search`` and ``optimize-large`` run a fixed input set whatever the seed:
their cost varies too much between inputs for a 20-second run to average it
out.  Measured on the pure backend, ``search_max_volume(12, 100, s)`` took
1.7 s for s = 0, 1, 3 but 2.8 s and 3.4 s for s = 4, 2; check + optimize of
one n=40 type took 0.8-2.9 s, and relabeling one type moved it as much.
"""

import hashlib
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from idealpoly import geom, optvol, oracles, rivin, stats


def _scipy():
    """scipy's integrate and special modules, or None without scipy.  Imported
    only by the checks, after peak memory has been read."""
    try:
        from scipy import integrate, special
    except ImportError:
        return None
    return integrate, special

FULL_SIZES = {
    "sample-fit": {"n": 12, "count": 5000},
    "fit-large": {"n": 8, "count": 100000, "alpha": 13.3, "beta": 6.1, "fits": 11},
    "optimize-large": {"n": 40, "types": 11},
    "search": {"n": 12, "trials": 100},
}

# Sizes for the benchmark's self-test only.
TINY_SIZES = {
    "sample-fit": {"n": 8, "count": 40},
    "fit-large": {"n": 8, "count": 2000, "alpha": 13.3, "beta": 6.1, "fits": 3},
    "optimize-large": {"n": 10, "types": 3},
    "search": {"n": 8, "trials": 12},
}

# The one tiny call each set-up measurement makes after the first LAPACK call.
WARMUP = {
    "sample-fit": "stats.fit_beta(stats.sample_volumes({n}, 10, seed=0))",
    "fit-large": (
        "stats.fit_beta(stats.VolumeSample(n={n}, volumes=np.linspace(0.1, 0.9, 50),"
        " seed=0, vmax=1.0, vmax_mode='given'))"
    ),
    "optimize-large": "optvol.maximize_volume(rivin.is_realizable(triang.octahedron()).link)",
    "search": "stats.search_max_volume({n}, 2, seed=0)",
}

# The library seed of the search workload; c01 searches with seed 0 as well.
SEARCH_SEED = 0
# Input seed of the fixed optimize-large types.
TYPES_SEED = 0

KKT_LIMIT = 1e-9
# Relative tolerance against the stored reference: summation-order changes
# (which ROADMAP.md allows) move results by a few ulps, real changes by more.
REFERENCE_RTOL = 1e-9
# The c09 acceptance bands for the mean normalized volume.
MEAN_BANDS = {8: (0.685, 0.015), 12: (0.692, 0.015)}
# Distance of the fit-large MLE from the true parameters, in asymptotic
# standard errors.  A correct MLE is beyond 3 SE on about 0.5% of datasets
# (2 of 400 measured), so the gate sits at 5 SE; the score equations are the
# exact test.
TRUTH_SE = 5.0
SCORE_LIMIT = 1e-7
# Limit on sqrt(count) * KS statistic against the fitted CDF.  It was at most
# 1.2 on every reference input; the Kolmogorov tail at 3 is 3e-8 even before
# fitting shrinks the statistic.  A wrong incomplete beta moves it far past.
KS_LIMIT = 3.0


def input_rng(seed, tag, index=0):
    """Generator for benchmark inputs, independent of the library's streams."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, index]))


def digest(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]


def close(value, expected, rtol=REFERENCE_RTOL):
    return abs(value - expected) <= rtol * max(1.0, abs(expected))


class OpTimer:
    """Op durations by ``clock``, with their perf_counter intervals;
    ``on_mark`` runs at each mark."""

    def __init__(self, on_mark=None, clock=time.perf_counter):
        self.durations = []
        self.intervals = []
        self.on_mark = on_mark
        self.clock = clock
        self._start = None

    def _close(self):
        now, real = self.clock(), time.perf_counter()
        if self._start is not None:
            self.durations.append(now - self._start[0])
            self.intervals.append((self._start[1], real))
        return now, real

    def begin(self):
        self._start = self._close()
        if self.on_mark is not None:
            self.on_mark()

    def end(self):
        self._close()
        self._start = None
        if self.on_mark is not None:
            self.on_mark()


class Check:
    """Checked outputs, failures, and notes for the result's detail line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.reference = "absent"

    def item(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(note)

    def tally(self, attempted, failed, note):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.note(f"{failed} of {attempted}: {note}")

    def mismatch(self, text):
        self.reference = "mismatch"
        self.note(text)

    def note(self, text):
        if len(self.notes) < 20:
            self.notes.append(text)


def independent_ks(x, a, b):
    """KS statistic of the values x against Beta(a, b), with scipy's CDF."""
    xs = np.sort(x)
    n = len(xs)
    cdf = _scipy()[1].betainc(a, b, xs)
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))


def _lobachevsky(theta):
    """-integral of log(2 sin t) over [0, theta], with the log(2t) part exact."""
    smooth = _scipy()[0].quad(lambda t: math.log(math.sin(t) / t), 0.0, theta)[0]
    return -theta * (math.log(2.0 * theta) - 1.0) - smooth


def independent_volume(points):
    """Volume of the cone from infinity over the Delaunay triangulation of
    ``points`` (complex): empty-circumcircle triangles by brute force, each
    corner's Lobachevsky value by quadrature."""
    xy = np.array([[w.real, w.imag] for w in points])
    total = 0.0
    for tri in itertools.combinations(range(len(xy)), 3):
        a, b, c = xy[list(tri)]
        d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
        if d == 0.0:
            continue
        sa, sb, sc = a @ a, b @ b, c @ c
        center = np.array([
            sa * (b[1] - c[1]) + sb * (c[1] - a[1]) + sc * (a[1] - b[1]),
            sa * (c[0] - b[0]) + sb * (a[0] - c[0]) + sc * (b[0] - a[0]),
        ]) / d
        radius2 = float((a - center) @ (a - center))
        others = np.delete(xy, list(tri), axis=0)
        if np.all(((others - center) ** 2).sum(axis=1) > radius2 * (1.0 + 1e-12)):
            for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
                u, v = q - p, r - p
                total += _lobachevsky(abs(math.atan2(u[0] * v[1] - u[1] * v[0], u @ v)))
    return total


def _psi(z, h=1e-3):
    """Digamma from central differences of math.lgamma (independent of specfun)."""
    f = math.lgamma
    return (8.0 * (f(z + h) - f(z - h)) - (f(z + 2 * h) - f(z - 2 * h))) / (12.0 * h)


# Each ``check`` receives one cycle item, every answer computed for it (all
# must be bit-identical), and that item's reference summary or None.


# -- sample-fit -------------------------------------------------------------


def sample_fit_inputs(seed, sizes):
    return [{"seed": seed, "n": sizes["n"], "count": sizes["count"]}]


def sample_fit_answer(item, timer):
    sample = stats.sample_volumes(item["n"], item["count"], seed=item["seed"])
    timer.end()
    return sample, stats.fit_beta(sample)


def sample_fit_summary(answer):
    sample, fit = answer
    return {
        "count": sample.count,
        "mean": fit.mean,
        "std": fit.std,
        "alpha": fit.alpha,
        "beta": fit.beta,
        "ks_stat": fit.ks_stat,
        "p_value": fit.p_value,
        "method": fit.method,
        "digest": digest(sample.volumes),
    }


# Volumes of these many sample-fit configurations are recomputed independently.
INDEPENDENT_VOLUMES = 20


def sample_fit_check(item, answers, ref, check):
    first, _ = answers[0]
    vmax = first.vmax
    if _scipy() is None:
        check.note("scipy missing: independent KS and volume checks skipped")
    else:
        step = max(1, item["count"] // INDEPENDENT_VOLUMES)
        for i in range(0, item["count"], step):
            config = geom.random_configuration(item["n"], stats.trial_rng(item["seed"], i))
            expected = independent_volume(config.finite)
            check.item(
                abs(first.volumes[i] - expected) <= 1e-8 * expected,
                f"volume {i} = {first.volumes[i]!r}, independently {expected!r}",
            )
    for sample, fit in answers:
        same = np.array_equal(sample.volumes, first.volumes)
        for i, v in enumerate(sample.volumes):
            ok = 0.0 < v < vmax + 1e-6 and (same or v == first.volumes[i])
            check.item(ok, f"volume {i} = {v!r} out of range or not repeatable")
        summary = sample_fit_summary((sample, fit))
        ok = (
            fit.method == "mle"
            and fit.alpha > 0.0
            and fit.beta > 0.0
            and 0.0 < math.sqrt(fit.count) * fit.ks_stat <= KS_LIMIT
        )
        if _scipy() is not None:
            x = np.clip(sample.normalized(), None, 1.0 - 1e-12)
            ok = ok and abs(fit.ks_stat - independent_ks(x, fit.alpha, fit.beta)) <= 1e-9
        band = MEAN_BANDS.get(item["n"])
        if band and item["count"] >= 1000:
            ok = ok and abs(fit.mean - band[0]) <= band[1]
        if ref is not None:
            for key in ("mean", "std", "alpha", "beta", "ks_stat", "p_value"):
                if not close(summary[key], ref[key]):
                    ok = False
                    check.mismatch(f"{key} {summary[key]!r} != reference {ref[key]!r}")
            if summary["digest"] != ref["digest"]:
                check.note("volume digest differs from the reference (not counted)")
        check.item(ok, f"fit {summary} failed its check")


# -- fit-large --------------------------------------------------------------


def fit_large_inputs(seed, sizes):
    vmax = stats.KNOWN_MAX_VOLUME[sizes["n"]]
    items = []
    for r in range(sizes["fits"]):
        x = input_rng(seed, 1, r).beta(sizes["alpha"], sizes["beta"], sizes["count"])
        sample = stats.VolumeSample(
            n=sizes["n"], volumes=x * vmax, seed=seed, vmax=vmax, vmax_mode="given"
        )
        items.append({"sample": sample, "alpha": sizes["alpha"], "beta": sizes["beta"]})
    return items


def fit_large_answer(item, timer):
    timer.begin()
    fit = stats.fit_beta(item["sample"])
    timer.end()
    return fit


def fit_large_summary(fit):
    return {"alpha": fit.alpha, "beta": fit.beta, "ks_stat": fit.ks_stat}


def fit_large_check(item, answers, ref, check):
    if _scipy() is None:
        check.note("scipy missing: independent KS check skipped")
    x = np.clip(item["sample"].normalized(), None, 1.0 - 1e-12)
    log_x = float(np.mean(np.log(x)))
    log_1mx = float(np.mean(np.log1p(-x)))
    se_a, se_b = oracles.beta_mle_standard_errors(item["alpha"], item["beta"], len(x))
    first = answers[0]
    for fit in answers:
        a, b = fit.alpha, fit.beta
        score = max(
            abs(_psi(a + b) - _psi(a) + log_x), abs(_psi(a + b) - _psi(b) + log_1mx)
        )
        za = (a - item["alpha"]) / se_a
        zb = (b - item["beta"]) / se_b
        ok = (
            fit.method == "mle"
            and score <= SCORE_LIMIT
            and abs(za) <= TRUTH_SE
            and abs(zb) <= TRUTH_SE
            and 0.0 < math.sqrt(fit.count) * fit.ks_stat <= KS_LIMIT
            and (a, b, fit.ks_stat) == (first.alpha, first.beta, first.ks_stat)
        )
        if _scipy() is not None and fit is first:
            ok = ok and abs(fit.ks_stat - independent_ks(x, a, b)) <= 1e-9
        if ref is not None and not all(
            close(value, ref[key]) for key, value in fit_large_summary(fit).items()
        ):
            ok = False
            check.mismatch(f"alpha/beta/ks differ from reference {ref}")
        check.item(
            ok,
            f"fit alpha={a!r} beta={b!r} ks={fit.ks_stat!r} z=({za:.2f}, {zb:.2f}) "
            f"score={score:.1e}",
        )


# -- optimize-large -----------------------------------------------------------


def optimize_large_inputs(seed, sizes):
    items = []
    for k in range(sizes["types"]):
        cfg = geom.random_configuration(sizes["n"], input_rng(TYPES_SEED, 2, k))
        t, _ = geom.close_with_infinity(geom.delaunay(cfg))
        # The configuration's own angles are a feasible point of its type, so
        # its volume bounds the type's maximum from below.
        items.append({"type": t, "lower": geom.config_volume(cfg)})
    return items


def optimize_large_answer(item, timer):
    timer.begin()
    res = rivin.is_realizable(item["type"])
    result = optvol.maximize_volume(res.link) if res.realizable else None
    timer.end()
    return result


def optimize_large_summary(result):
    return {"volume": result.volume}


def optimize_large_check(item, answers, ref, check):
    first = answers[0]
    for r in answers:
        ok = (
            r is not None
            and r.kkt_residual <= KKT_LIMIT
            and r.volume >= item["lower"] - 1e-9
            and r.volume == first.volume
        )
        if ok and ref is not None and not close(r.volume, ref["volume"]):
            ok = False
            check.mismatch(f"volume {r.volume!r} != reference {ref['volume']!r}")
        check.item(
            ok,
            "not realizable" if r is None else
            f"volume {r.volume!r} (lower bound {item['lower']!r}), kkt {r.kkt_residual:.1e}",
        )


# -- search -------------------------------------------------------------------


def search_inputs(seed, sizes):
    return [{"seed": SEARCH_SEED, "n": sizes["n"], "trials": sizes["trials"]}]


def search_answer(item, timer):
    result = stats.search_max_volume(item["n"], item["trials"], seed=item["seed"])
    timer.end()
    return result


def search_summary(r):
    return {
        "best_volume": r.best_volume,
        "unique_types": r.unique_types,
        "digest": digest([v for _, v, _ in r.per_trial]),
    }


def search_check(item, answers, ref, check):
    known = stats.KNOWN_MAX_VOLUME.get(item["n"], math.inf)
    first = answers[0]
    for r in answers:
        for (trial, v, _), (_, v0, _) in zip(r.per_trial, first.per_trial):
            check.item(
                0.0 < v <= known + 1e-3 and v == v0,
                f"trial {trial}: volume {v!r} above the known maximum or not repeatable",
            )
        summary = search_summary(r)
        ok = r.best_result.kkt_residual <= KKT_LIMIT
        if item["trials"] >= 100:
            ok = ok and abs(r.best_volume - known) <= 1e-3
        if ref is not None:
            if not (
                close(r.best_volume, ref["best_volume"])
                and r.unique_types == ref["unique_types"]
            ):
                ok = False
                check.mismatch(f"search {summary} differs from reference {ref}")
            if summary["digest"] != ref["digest"]:
                check.note("per-trial volume digest differs from the reference (not counted)")
        check.item(ok, f"search {summary} failed its check")


@dataclass(frozen=True)
class Workload:
    inputs: object  # (seed, sizes) -> list of cycle items
    answer: object  # (item, OpTimer) -> result
    check: object  # (item, results, reference or None, Check) -> None
    summary: object  # result -> JSON-able reference entry
    seeded: bool  # whether the inputs depend on the seed
    trial_marked: bool  # ops marked by stats.trial_rng
    ops: object  # sizes -> ops per answer


WORKLOADS = {
    "sample-fit": Workload(
        sample_fit_inputs, sample_fit_answer, sample_fit_check, sample_fit_summary,
        seeded=True, trial_marked=True, ops=lambda sizes: sizes["count"],
    ),
    "fit-large": Workload(
        fit_large_inputs, fit_large_answer, fit_large_check, fit_large_summary,
        seeded=True, trial_marked=False, ops=lambda sizes: 1,
    ),
    "optimize-large": Workload(
        optimize_large_inputs, optimize_large_answer, optimize_large_check,
        optimize_large_summary, seeded=False, trial_marked=False, ops=lambda sizes: 1,
    ),
    "search": Workload(
        search_inputs, search_answer, search_check, search_summary,
        seeded=False, trial_marked=True, ops=lambda sizes: sizes["trials"],
    ),
}

# Workloads whose fused kernel calls the traced run replays stage by stage.
REPLAYED = ("sample-fit",)
