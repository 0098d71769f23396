"""Random-volume experiments: batch sampling, Beta fits, scaling, search.

Per-trial RNG streams are spawned from (seed, trial index) so trials are
independent and order-insensitive; moments are reduced with numpy's pairwise
summation.  Everything here is bit-reproducible for a fixed seed.
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import geom, optvol, specfun, triang
from .errors import FitDiverged, InputError

# Known maximal volumes for 4 <= n <= 12, reproducible with the bundled
# search driver (`idealpoly search --n N`); the n <= 8 entries are pinned by
# the acceptance suite.
KNOWN_MAX_VOLUME = {
    4: 1.014942,
    5: 2.029883,
    6: 3.663862,
    7: 4.986773,
    8: 6.488469,
    9: 8.162538,
    10: 9.839315,
    11: 11.449290,
    12: 13.529628,
}


def trial_rng(seed, index):
    """Independent per-trial generator derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


@dataclass(frozen=True)
class VolumeSample:
    n: int
    volumes: object  # ndarray
    seed: int
    vmax: float
    vmax_mode: str  # "table" | "search" | "given"

    @property
    def count(self):
        return len(self.volumes)

    def normalized(self):
        return np.asarray(self.volumes) / self.vmax


def _volume_for_trial(args):
    n, seed, index = args
    return geom.config_volume(geom.random_configuration(n, trial_rng(seed, index)))


def sample_volumes(n, count, seed=0, vmax_mode="table", threads=1):
    """Volumes of ``count`` independent random n-vertex configurations.

    With ``threads`` > 1 the trials run in a process pool of at most
    ``count`` and ``os.cpu_count()`` workers; each trial draws from its own
    (seed, index) stream, so the volumes do not depend on the pool size.
    """
    if n < 4 or count < 1:
        raise InputError(f"need n >= 4 and count >= 1, got n={n}, count={count}")
    if threads < 1:
        raise InputError(f"need threads >= 1, got {threads}")
    if seed < 0:
        raise InputError(f"need seed >= 0, got {seed}")
    if vmax_mode == "table":
        if n not in KNOWN_MAX_VOLUME:
            raise InputError(
                f"no tabulated maximal volume for n={n} (table covers "
                f"n = {min(KNOWN_MAX_VOLUME)}..{max(KNOWN_MAX_VOLUME)}); "
                "use --vmax search"
            )
        vmax = KNOWN_MAX_VOLUME[n]
    elif vmax_mode == "search":
        vmax = search_max_volume(n, trials=100, seed=seed).best_volume
    else:
        raise InputError(f"unknown vmax mode {vmax_mode!r}")
    args = [(n, seed, i) for i in range(count)]
    workers = min(threads, count, os.cpu_count() or 1)
    if workers > 1:
        # imported here: it pulls in multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            volumes = np.fromiter(
                pool.map(_volume_for_trial, args, chunksize=64),
                dtype=float,
                count=count,
            )
    else:
        volumes = np.fromiter(map(_volume_for_trial, args), dtype=float, count=count)
    return VolumeSample(
        n=n, volumes=volumes, seed=seed, vmax=float(vmax), vmax_mode=vmax_mode
    )


@dataclass(frozen=True)
class BetaFit:
    """A Beta fit; its fields, in order, are the ``fit`` command's JSON."""

    n: int
    count: int
    alpha: float
    beta: float
    mean: float
    std: float
    ks_stat: float
    p_value: float
    vmax: float
    clamped: int
    method: str  # "mle" | "moments"
    # The asymptotic Kolmogorov p-value ignores that (alpha, beta) were
    # fitted from the same sample, which biases it upward.
    caveat: str = "p-value not adjusted for fitted parameters"


def _beta_mle(x, alpha0, beta0):
    L1 = float(np.mean(np.log(x)))
    L2 = float(np.mean(np.log1p(-x)))
    a, b = alpha0, beta0
    for _ in range(200):
        psab = specfun.digamma(a + b)
        g1 = psab - specfun.digamma(a) + L1
        g2 = psab - specfun.digamma(b) + L2
        tab = specfun.trigamma(a + b)
        j11 = tab - specfun.trigamma(a)
        j22 = tab - specfun.trigamma(b)
        det = j11 * j22 - tab * tab
        if det == 0.0:
            raise FitDiverged("singular Newton system in Beta MLE")
        da = -(j22 * g1 - tab * g2) / det
        db = -(-tab * g1 + j11 * g2) / det
        step = 1.0
        while a + step * da <= 0.0 or b + step * db <= 0.0:
            step *= 0.5
            if step < 1e-12:
                raise FitDiverged("Beta MLE step collapsed")
        a += step * da
        b += step * db
        # relative to the shape: at a shape of 1e4 the step's rounding noise is ~1e-7
        if abs(step * da) < 1e-10 * max(1.0, a) and abs(step * db) < 1e-10 * max(1.0, b):
            return a, b
    raise FitDiverged("Beta MLE did not converge in 200 iterations")


# The KS statistic is a branch-and-bound over the sorted sample. Point i of
# n sorted points x_i contributes (i+1)/n - F(x_i) and F(x_i) - i/n. The CDF
# F is evaluated first every _KS_STRIDE points (and at the last one), then
# every gap lo < hi between evaluated indices is bounded: F is monotone, so
# each lo < i < hi has
#     (i+1)/n - F(x_i) <= hi/n - F(x_lo)   and   F(x_i) - i/n <= F(x_hi) - (lo+1)/n.
# A gap whose bound exceeds best - _KS_MARGIN is split into about _KS_SPLIT
# pieces and its new points evaluated; the search stops when no gap
# qualifies. Rounding and the CDF's monotonicity slack are ~1e-15, far
# below _KS_MARGIN, so a skipped point never holds the maximum. Each
# evaluated point uses the full evaluation's expressions, and the incomplete
# beta is elementwise, so the result is the same float. An evaluated F that
# falls by more than _KS_MARGIN is no CDF (the prefactor's rounding grows
# with the shape parameters), no bound holds, and every gap is split. A skipped
# point is never evaluated, so it cannot raise either. Each call costs about
# 1 ms of masked Lentz rounds whatever its size, so a small sample pays a few
# ms for the search's rounds; the fits the paper's tables run have 5000
# points or more, where the search evaluates a few percent of them.
_KS_STRIDE = 64
_KS_SPLIT = 8
_KS_MARGIN = 1e-9


def _ks_statistic(x, a, b):
    xs = np.sort(x)
    n = len(xs)
    idx = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    cdf = specfun.regularized_incomplete_beta(a, b, xs[idx])
    while True:
        best = max(((idx + 1) / n - cdf).max(), (cdf - idx / n).max())
        lo, hi = idx[:-1], idx[1:]
        bound = np.maximum(hi / n - cdf[:-1], cdf[1:] - (lo + 1) / n)
        if np.any(cdf[1:] < cdf[:-1] - _KS_MARGIN):
            bound[:] = np.inf
        split = (hi - lo > 1) & (bound > best - _KS_MARGIN)
        if not split.any():
            return float(best)
        lo, hi = lo[split], hi[split]
        step = (hi - lo + _KS_SPLIT - 1) // _KS_SPLIT
        new = lo[:, None] + step[:, None] * np.arange(1, _KS_SPLIT)
        new = new[new < hi[:, None]]
        idx = np.concatenate([idx, new])
        cdf = np.concatenate([cdf, specfun.regularized_incomplete_beta(a, b, xs[new])])
        order = np.argsort(idx)
        idx, cdf = idx[order], cdf[order]


def fit_beta(sample):
    """Beta MLE (Newton on the digamma system, moment-matched start) plus a
    Kolmogorov-Smirnov goodness-of-fit read against the fitted CDF.

    Normalized volumes at or above 1 are clamped to 1 - 1e-12 (the count is
    reported); values must be positive.
    """
    x = np.asarray(sample.normalized(), dtype=float)
    if len(x) < 10:
        raise FitDiverged("need at least 10 samples")
    clamped = int(np.sum(x >= 1.0))
    x = np.clip(x, None, 1.0 - 1e-12)
    if np.any(x <= 0.0):
        raise FitDiverged("normalized volumes must be positive")

    # Compare the values, not np.var: the variance of identical values can
    # round to a positive number, which would start the fit at alpha ~ 1e31.
    if np.all(x == x[0]):
        raise FitDiverged("sample variance is zero")
    mean = float(np.mean(x))
    var = float(np.var(x))
    common = mean * (1.0 - mean) / var - 1.0
    alpha0 = max(mean * common, 1e-3)
    beta0 = max((1.0 - mean) * common, 1e-3)
    method = "mle"
    try:
        a, b = _beta_mle(x, alpha0, beta0)
    except FitDiverged:
        a, b = alpha0, beta0
        method = "moments"
    try:
        ks = _ks_statistic(x, a, b)
    except (ValueError, OverflowError) as exc:
        # A near-constant sample starts the fit at alpha ~ 1e13 or more, where
        # the incomplete beta's prefactor overflows or its fraction diverges.
        raise FitDiverged(
            f"KS statistic failed at alpha={a:g}, beta={b:g}: {exc}"
        ) from exc
    p = specfun.kolmogorov_tail(math.sqrt(len(x)) * ks)
    return BetaFit(
        alpha=float(a),
        beta=float(b),
        mean=mean,
        std=math.sqrt(var),
        ks_stat=ks,
        p_value=p,
        n=sample.n,
        count=len(x),
        vmax=sample.vmax,
        clamped=clamped,
        method=method,
    )


@dataclass(frozen=True)
class ScalingFit:
    alpha_slope: float
    alpha_intercept: float
    beta_slope: float
    beta_intercept: float
    rows: tuple  # (n, alpha, beta, ratio, mean) per input fit


def _line_fit(xs, ys):
    A = np.vstack([xs, np.ones(len(xs))]).T
    sol, *_ = np.linalg.lstsq(A, np.asarray(ys), rcond=None)
    return float(sol[0]), float(sol[1])


def scaling_fit(fits):
    """Least-squares lines for alpha and beta against n, with per-n summary."""
    if len(fits) < 3 or len({f.n for f in fits}) < 3:
        raise InputError("need fits at >= 3 distinct n")
    fits = sorted(fits, key=lambda f: f.n)
    ns = [f.n for f in fits]
    alpha_slope, alpha_intercept = _line_fit(ns, [f.alpha for f in fits])
    beta_slope, beta_intercept = _line_fit(ns, [f.beta for f in fits])
    rows = tuple(
        (f.n, f.alpha, f.beta, f.alpha / f.beta, f.alpha / (f.alpha + f.beta))
        for f in fits
    )
    return ScalingFit(
        alpha_slope=alpha_slope,
        alpha_intercept=alpha_intercept,
        beta_slope=beta_slope,
        beta_intercept=beta_intercept,
        rows=rows,
    )


@dataclass(frozen=True)
class SearchResult:
    n: int
    trials: int
    seed: int
    best_volume: float
    best_result: object  # OptResult of the best type; its link.parent is the type
    per_trial: tuple  # (trial, volume, type_hash of the type's key) per trial
    unique_types: int
    conformal_types: int  # unique types whose optimum is an interior zero-shear point


def type_hash(key):
    """First 32 bits of the sha256 of a canonical form's repr, as an int.

    Stable across processes and Python versions, unlike the built-in
    ``hash`` of a tuple.
    """
    return int.from_bytes(hashlib.sha256(repr(key).encode()).digest()[:4], "big")


def search_max_volume(n, trials, seed=0):
    """Best optimized volume over random combinatorial types.

    Each trial draws a random configuration, takes the combinatorial type of
    its Delaunay cone, and maximizes the volume over that type (starting from
    the configuration's own Euclidean angles, which are strictly interior).
    Types are recognized up to orientation-preserving relabeling, so each is
    optimized once.
    """
    if n < 4 or trials < 1:
        raise InputError(f"need n >= 4 and trials >= 1, got n={n}, trials={trials}")
    if seed < 0:
        raise InputError(f"need seed >= 0, got {seed}")
    memo = {}  # canonical form -> (OptResult, type_hash)
    per_trial = []
    for trial in range(trials):
        cfg = geom.random_configuration(n, trial_rng(seed, trial))
        pt = geom.delaunay(cfg)
        t = geom.cone(pt)
        key = triang.canonical_form(t)
        if key not in memo:
            link = geom.infinity_link(t, pt)
            start = geom.euclidean_angles(pt).reshape(-1)
            memo[key] = (optvol.maximize_volume(link, start=start), type_hash(key))
        result, key_hash = memo[key]
        per_trial.append((trial, result.volume, key_hash))
    # max keeps the first of equal volumes: the type first seen among the best
    best, _ = max(memo.values(), key=lambda entry: entry[0].volume)
    return SearchResult(
        n=n,
        trials=trials,
        seed=seed,
        best_volume=best.volume,
        best_result=best,
        per_trial=tuple(per_trial),
        unique_types=len(memo),
        conformal_types=sum(not result.active_constraints for result, _ in memo.values()),
    )
