"""The layers a traced run wraps, and the per-layer metrics read from them.

Span names are the module and function, with ``kernels`` standing for
``idealpoly._kernels``.  Every per-layer metric is per complete answer of the
workload (one sample-and-fit, one fit, one pass over the types, one search).
"""

import numpy as np

from idealpoly import _kernels, geom, optvol, rivin, simplex, specfun, stats, triang

# span name -> the (module, attribute) bindings that are replaced.  A function
# imported by name into another module is bound there too (rivin.build_link).
SPANS = {
    "stats.sample_volumes": [(stats, "sample_volumes")],
    "stats.fit_beta": [(stats, "fit_beta")],
    "stats.search_max_volume": [(stats, "search_max_volume")],
    "geom.random_configuration": [(geom, "random_configuration")],
    "geom.config_volume": [(geom, "config_volume")],
    "triang.canonical_form": [(triang, "canonical_form")],
    "triang.build_link": [(triang, "build_link"), (rivin, "build_link")],
    "rivin.is_realizable": [(rivin, "is_realizable")],
    "rivin.assemble_constraints": [(rivin, "assemble_constraints")],
    "rivin.check_feasible": [(rivin, "check_feasible")],
    "simplex.solve": [(simplex, "solve")],
    "optvol.maximize_volume": [(optvol, "maximize_volume")],
    "linalg.svd": [(np.linalg, "svd")],
    "linalg.lstsq": [(np.linalg, "lstsq")],
    "linalg.solve": [(np.linalg, "solve")],
    "specfun.regularized_incomplete_beta": [(specfun, "regularized_incomplete_beta")],
}

# The kernels are also what the sample-fit replay wraps.
KERNEL_SPANS = {
    "kernels.delaunay_triangles": [(_kernels, "delaunay_triangles")],
    "kernels.triangle_angles": [(_kernels, "triangle_angles")],
    "kernels.lobachevsky_sum": [(_kernels, "lobachevsky_sum")],
}

# Counted without a span: too cheap and too frequent to time one by one.
COUNTERS = {
    "geom.sample_sphere": (geom, "sample_sphere"),
    "specfun.digamma": (specfun, "digamma"),
}

PER_LAYER = [
    ("kernels.delaunay_triangles.calls", "count", "lower"),
    ("kernels.delaunay_triangles.self_s", "s", "lower"),
    ("kernels.delaunay_triangles.us_per_call", "us", "lower"),
    ("geom.config_volume.self_s", "s", "lower"),
    ("kernels.triangle_angles.self_s", "s", "lower"),
    ("geom.random_configuration.self_s", "s", "lower"),
    ("geom.random_configuration.redraws", "count", "lower"),
    ("kernels.lobachevsky_sum.calls", "count", "lower"),
    ("kernels.lobachevsky_sum.corners", "count", "lower"),
    ("kernels.lobachevsky_sum.ns_per_corner", "ns", "lower"),
    ("triang.canonical_form.calls", "count", "lower"),
    ("triang.canonical_form.self_s", "s", "lower"),
    ("triang.build_link.self_s", "s", "lower"),
    ("rivin.is_realizable.self_s", "s", "lower"),
    ("rivin.assemble_constraints.self_s", "s", "lower"),
    ("rivin.check_feasible.self_s", "s", "lower"),
    ("simplex.solve.calls", "count", "lower"),
    ("simplex.solve.self_s", "s", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.self_s", "s", "lower"),
    ("linalg.lstsq.self_s", "s", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("optvol.maximize_volume.calls", "count", "lower"),
    ("optvol.maximize_volume.self_s", "s", "lower"),
    ("optvol.maximize_volume.newton_iterations", "count", "lower"),
    ("optvol.maximize_volume.barrier_rounds", "count", "lower"),
    ("optvol.maximize_volume.boundary_active", "count", "lower"),
    ("optvol.maximize_volume.kkt_residual_max", "norm", "lower"),
    ("specfun.regularized_incomplete_beta.calls", "count", "lower"),
    ("specfun.regularized_incomplete_beta.self_s", "s", "lower"),
    ("specfun.regularized_incomplete_beta.us_per_call", "us", "lower"),
    ("specfun.digamma.calls", "count", "lower"),
    ("stats.fit_beta.self_s", "s", "lower"),
    ("stats.fit_beta.moments_fallbacks", "count", "lower"),
    ("stats.sample_volumes.self_s", "s", "lower"),
    ("stats.search_max_volume.self_s", "s", "lower"),
    ("stats.search_max_volume.unique_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def _observe_lobachevsky_sum(tracer, args, result):
    tracer.add("kernels.lobachevsky_sum.corners", len(args[0]))


def _observe_maximize_volume(tracer, args, result):
    tracer.add("optvol.maximize_volume.newton_iterations", result.newton_iterations)
    tracer.add("optvol.maximize_volume.barrier_rounds", len(result.barrier_volumes))
    tracer.add("optvol.maximize_volume.boundary_active", int(result.boundary_active))
    tracer.maximum("optvol.maximize_volume.kkt_residual_max", result.kkt_residual)


def _observe_fit_beta(tracer, args, result):
    tracer.add("stats.fit_beta.moments_fallbacks", int(result.method == "moments"))


def _observe_search(tracer, args, result):
    tracer.add("search.trials", result.trials)
    tracer.add("search.unique_types", result.unique_types)


OBSERVERS = {
    "kernels.lobachevsky_sum": _observe_lobachevsky_sum,
    "optvol.maximize_volume": _observe_maximize_volume,
    "stats.fit_beta": _observe_fit_beta,
    "stats.search_max_volume": _observe_search,
}


def _span_replacements(tracer, spans, observers):
    out = []
    for name, bindings in spans.items():
        owner, attr = bindings[0]
        wrapper = tracer.span(name, getattr(owner, attr), observers.get(name))
        out.extend((owner, attr, wrapper) for owner, attr in bindings)
    return out


def kernel_replacements(tracer):
    return _span_replacements(tracer, KERNEL_SPANS, OBSERVERS)


def replacements(tracer, configurations):
    """Every wrapper of a traced answer; generated configurations are appended
    to ``configurations`` for the kernel replay."""

    def keep(_tracer, _args, config):
        configurations.append(config)

    observers = dict(OBSERVERS, **{"geom.random_configuration": keep})
    out = _span_replacements(tracer, {**SPANS, **KERNEL_SPANS}, observers)
    for name, (owner, attr) in COUNTERS.items():
        out.append((owner, attr, tracer.counter(name, getattr(owner, attr))))
    return out


def per_layer_metrics(totals, values, counts, n_vertices, trace):
    """Per-answer layer metrics.

    ``totals`` maps span names to per-answer (calls, self seconds), ``values``
    and ``counts`` hold per-answer observed values and counter calls, and
    ``trace`` the three ``trace.*`` metrics.
    """

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def per(name, amount, scale):
        return self_s(name) / amount * scale if amount else 0.0

    configs = calls("geom.random_configuration")
    corners = values.get("kernels.lobachevsky_sum.corners", 0)
    trials = values.get("search.trials", 0)
    out = {
        "kernels.delaunay_triangles.us_per_call": per(
            "kernels.delaunay_triangles", calls("kernels.delaunay_triangles"), 1e6
        ),
        "geom.random_configuration.redraws": counts.get("geom.sample_sphere", 0)
        - (n_vertices - 3) * configs,
        "kernels.lobachevsky_sum.corners": corners,
        "kernels.lobachevsky_sum.ns_per_corner": per("kernels.lobachevsky_sum", corners, 1e9),
        "specfun.regularized_incomplete_beta.us_per_call": per(
            "specfun.regularized_incomplete_beta",
            calls("specfun.regularized_incomplete_beta"),
            1e6,
        ),
        "specfun.digamma.calls": counts.get("specfun.digamma", 0),
        "stats.search_max_volume.unique_ratio": values.get("search.unique_types", 0) / trials
        if trials
        else 0.0,
        **trace,
    }
    for metric, _, _ in PER_LAYER:
        if metric in out:
            continue
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls(layer)
        elif field == "self_s":
            out[metric] = self_s(layer)
        else:
            out[metric] = values.get(metric, 0)
    return out
