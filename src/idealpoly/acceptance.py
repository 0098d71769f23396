"""Acceptance criteria, runnable from pytest or `idealpoly selftest`.

Each criterion is a function returning a CriterionResult with the achieved
numbers in ``detail``; tolerances are pinned here and nowhere else.  The
shared corpus is 20 triangulations: every combinatorial type with 4..7
vertices plus seeded random Delaunay types with 8..10 vertices.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import corpus, geom, optvol, oracles, rivin, specfun, stats, triang
from .errors import InputError

TABLE1 = stats.KNOWN_MAX_VOLUME


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str


def _corpus_random(counts={8: 4, 9: 4, 10: 3}, seed=1234):
    out = []
    for n, want in counts.items():
        seen = {}
        trial = 0
        while len(seen) < want and trial < 500:
            cfg = geom.random_configuration(n, stats.trial_rng(seed + n, trial))
            t, _ = geom.close_with_infinity(geom.delaunay(cfg))
            key = triang.canonical_form_full(t)
            if key not in seen:
                seen[key] = t
            trial += 1
        out.extend(seen.values())
    return out


_CORPUS = None


def acceptance_corpus():
    """9 enumerated small types plus 11 sampled types, 20 in total."""
    global _CORPUS
    if _CORPUS is None:
        small = []
        for n in (4, 5, 6, 7):
            small.extend(corpus.all_types(n))
        _CORPUS = small + _corpus_random()
    return _CORPUS


def c01_table1_volumes():
    gates = [
        (4, 1, 1.014942, 1e-4),
        (5, 5, 2.029883, 1e-4),
        (6, 30, 3.663862, 1e-4),
        (7, 100, 4.986773, 1e-3),
        (8, 200, 6.488469, 1e-3),
    ]
    worst = 0.0
    details = []
    ok = True
    for n, trials, expect, tol in gates:
        r = stats.search_max_volume(n, trials, seed=0)
        err = abs(r.best_volume - expect)
        worst = max(worst, err)
        ok = ok and err < tol
        details.append(f"n={n}:{r.best_volume:.6f}(err {err:.1e})")
    for n in (9, 10, 11, 12):  # exercised, not gated
        r = stats.search_max_volume(n, 50, seed=0)
        details.append(f"n={n}:{r.best_volume:.6f}~{TABLE1[n]:.6f}")
    return CriterionResult(
        "c01", "Table 1 small-n volumes", ok, " ".join(details)
    )


def c02_rational_angles():
    t4 = triang.tetrahedron()
    r4 = optvol.maximize_volume(triang.build_link(t4, triang.choose_apex(t4)))
    corners4 = [
        optvol.detect_rational(v) for v in r4.angles.ravel()
    ]
    ok4 = all(r is not None and (r.p, r.q) == (1, 3) for r in corners4)

    t6 = triang.octahedron()
    r6 = optvol.maximize_volume(triang.build_link(t6, triang.choose_apex(t6)))
    dihedrals6 = [
        optvol.detect_rational(v) for v in r6.dihedrals.values()
    ]
    ok6 = all(r is not None and (r.p, r.q) == (1, 2) for r in dihedrals6)
    return CriterionResult(
        "c02",
        "rational angles at optima",
        ok4 and ok6,
        f"n=4 corners all 1/3 pi: {ok4}; n=6 dihedrals all 1/2 pi: {ok6}",
    )


def c03_closed_forms():
    v4 = 3.0 * specfun.lobachevsky(math.pi / 3.0)
    v6 = 8.0 * specfun.lobachevsky(math.pi / 4.0)
    e4 = abs(v4 - 1.014942)
    e6 = abs(v6 - 3.663862)
    worst = 0.0
    for i in range(1, 101):
        th = math.pi * i / 101.0
        worst = max(
            worst,
            abs(specfun.lobachevsky(th) - oracles.lobachevsky_by_quadrature(th)),
        )
    ok = e4 < 5e-6 and e6 < 5e-6 and worst < 1e-10
    return CriterionResult(
        "c03",
        "closed-form cross-checks",
        ok,
        f"3L(pi/3)={v4:.7f} (err {e4:.1e}), 8L(pi/4)={v6:.7f} (err {e6:.1e}), "
        f"max quadrature gap {worst:.1e}",
    )


def c04_uniqueness():
    rng = np.random.default_rng(7)
    worst_vol = 0.0
    worst_ang = 0.0
    checked = 0
    for t in acceptance_corpus():
        res = rivin.is_realizable(t)
        if not res.realizable:
            continue
        starts = rivin.random_interior_points(res.system, 10, rng)
        outs = [optvol.maximize_volume(res.link, start=s) for s in starts]
        vols = [o.volume for o in outs]
        angs = [o.angles for o in outs]
        worst_vol = max(worst_vol, max(vols) - min(vols))
        for i in range(len(angs)):
            for j in range(i + 1, len(angs)):
                worst_ang = max(worst_ang, float(np.max(np.abs(angs[i] - angs[j]))))
        checked += 1
    ok = worst_vol < 1e-9 and worst_ang < 1e-6
    return CriterionResult(
        "c04",
        "concavity/uniqueness over restarts",
        ok,
        f"{checked} types x 10 starts: vol spread {worst_vol:.1e}, "
        f"angle spread {worst_ang:.1e}",
    )


def c05_apex_invariance():
    worst = 0.0
    bool_ok = True
    for t in acceptance_corpus():
        answers = []
        vols = []
        for apex in range(t.n):
            res = rivin.is_realizable(t, apex=apex)
            answers.append(res.realizable)
            if res.realizable:
                vols.append(optvol.maximize_volume(res.link, start=res.witness).volume)
        bool_ok = bool_ok and len(set(answers)) == 1
        if vols:
            worst = max(worst, max(vols) - min(vols))
    ok = bool_ok and worst < 1e-8
    return CriterionResult(
        "c05",
        "apex invariance",
        ok,
        f"booleans agree: {bool_ok}; max volume spread over apexes {worst:.1e}",
    )


def c06_gradient_check():
    rng = np.random.default_rng(11)
    h = 1e-5
    worst = 0.0
    points = 0
    for t in acceptance_corpus():
        if points >= 100:
            break
        res = rivin.is_realizable(t)
        if not res.realizable:
            continue
        for theta in rivin.random_interior_points(res.system, 5, rng):
            grad = optvol.volume_gradient(theta)
            for i in range(len(theta)):
                up = theta.copy()
                dn = theta.copy()
                up[i] += h
                dn[i] -= h
                fd = (specfun.lobachevsky_sum(up) - specfun.lobachevsky_sum(dn)) / (2 * h)
                worst = max(worst, abs(fd - grad[i]))
            points += 1
            if points >= 100:
                break
    ok = worst < 1e-6
    return CriterionResult(
        "c06",
        "analytic gradient vs central differences",
        ok,
        f"{points} interior points, max component gap {worst:.1e}",
    )


def c07_delaunay_oracle():
    from . import _kernels

    worst = -math.inf
    total = 0
    for trial in range(1000):
        n = 5 + trial % 8  # cycles 5..12
        cfg = geom.random_configuration(n, stats.trial_rng(99, trial))
        pt = geom.delaunay(cfg)
        xs = [w.real for w in pt.points]
        ys = [w.imag for w in pt.points]
        for a, b, c in pt.triangles:
            for d in range(len(pt.points)):
                if d in (a, b, c):
                    continue
                det = _kernels.incircle_det(
                    xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d]
                )
                worst = max(worst, det)
                total += 1
    ok = worst <= 1e-12
    return CriterionResult(
        "c07",
        "Delaunay empty-circumcircle oracle",
        ok,
        f"1000 configs, {total} pairs, max incircle det {worst:.2e}",
    )


def c08_layout_round_trip():
    worst_angle = 0.0
    worst_res = 0.0
    count = 0
    for t in acceptance_corpus():
        res = rivin.is_realizable(t)
        if not res.realizable:
            continue
        out = optvol.maximize_volume(res.link, start=res.witness)
        lay = geom.layout(res.link, out.angles)
        again = geom.euclidean_angles(lay.triangulation)
        worst_angle = max(
            worst_angle, float(np.max(np.abs(again - out.angles)))
        )
        worst_res = max(worst_res, lay.residual)
        count += 1
    ok = worst_angle < 1e-8 and worst_res < 1e-6
    return CriterionResult(
        "c08",
        "layout round trip on optimizer output",
        ok,
        f"{count} types: max angle gap {worst_angle:.1e}, "
        f"max closure residual {worst_res:.1e}",
    )


def c09_table2_stats():
    f8 = stats.fit_beta(stats.sample_volumes(8, 5000, seed=0, vmax_mode="table"))
    checks8 = (
        abs(f8.mean - 0.685) <= 0.015,
        abs(f8.std - 0.103) <= 0.010,
        abs(f8.alpha - 13.26) <= 2.0,
        abs(f8.beta - 6.12) <= 1.0,
        f8.p_value > 0.01,
    )
    f12 = stats.fit_beta(stats.sample_volumes(12, 5000, seed=0, vmax_mode="table"))
    check12 = abs(f12.mean - 0.692) <= 0.015
    ok = all(checks8) and check12
    return CriterionResult(
        "c09",
        "Table 2 statistics (n=8, n=12)",
        ok,
        f"n=8 mean={f8.mean:.4f} std={f8.std:.4f} a={f8.alpha:.2f} "
        f"b={f8.beta:.2f} p={f8.p_value:.2f}; n=12 mean={f12.mean:.4f}",
    )


def c10_scaling():
    fits = [
        stats.fit_beta(stats.sample_volumes(n, 5000, seed=0, vmax_mode="table"))
        for n in (5, 6, 7, 8, 10, 12)
    ]
    sc = stats.scaling_fit(fits)
    means_high = [f.mean for f in fits if f.n >= 8]
    ok = (
        abs(sc.alpha_slope - 4.25) <= 0.5
        and abs(sc.beta_slope - 1.78) <= 0.25
        and all(abs(m - 0.69) <= 0.02 for m in means_high)
    )
    return CriterionResult(
        "c10",
        "Beta parameter scaling",
        ok,
        f"alpha slope {sc.alpha_slope:.3f} (4.25+-0.5), "
        f"beta slope {sc.beta_slope:.3f} (1.78+-0.25), "
        f"means n>=8: {[round(m, 4) for m in means_high]}",
    )


def c11_beta_mle_oracle():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.beta(2.0, 3.0, 100000)
        sample = stats.VolumeSample(
            n=4, volumes=x, seed=seed, vmax=1.0, vmax_mode="given"
        )
        fit = stats.fit_beta(sample)
        se_a, se_b = oracles.beta_mle_standard_errors(2.0, 3.0, len(x))
        if abs(fit.alpha - 2.0) <= 3 * se_a and abs(fit.beta - 3.0) <= 3 * se_b:
            hits += 1
    ok = hits >= 18
    return CriterionResult(
        "c11",
        "Beta MLE synthetic oracle",
        ok,
        f"{hits}/20 seeds within 3 asymptotic standard errors",
    )


def c12_grid_oracle():
    checked = 0
    agreed = True
    for t in acceptance_corpus():
        for apex in range(t.n):
            link = triang.build_link(t, apex)
            system = rivin.assemble_constraints(link)
            if oracles.reduced_grid_dimension(system) > 5:
                continue
            lp = rivin.check_feasible(system).feasible
            grid = oracles.grid_feasible(system, 720)
            agreed = agreed and (lp == grid)
            checked += 1
    ok = agreed and checked > 0
    return CriterionResult(
        "c12",
        "grid-search feasibility oracle",
        ok,
        f"{checked} links with reduced dimension <= 5, all agree: {agreed}",
    )


ALL_CRITERIA = (
    c01_table1_volumes,
    c02_rational_angles,
    c03_closed_forms,
    c04_uniqueness,
    c05_apex_invariance,
    c06_gradient_check,
    c07_delaunay_oracle,
    c08_layout_round_trip,
    c09_table2_stats,
    c10_scaling,
    c11_beta_mle_oracle,
    c12_grid_oracle,
)


def run_all(only=None):
    """Run every criterion, or those whose ids ``only`` lists (e.g. "c01,c03").

    An unknown id raises InputError before any criterion runs.
    """
    by_id = {fn.__name__.split("_")[0]: fn for fn in ALL_CRITERIA}
    wanted = {s.strip() for s in only.split(",")} if only else set(by_id)
    unknown = sorted(wanted - set(by_id))
    if unknown:
        raise InputError(
            f"unknown criterion ids {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(by_id)}"
        )
    return [fn() for cid, fn in by_id.items() if cid in wanted]
