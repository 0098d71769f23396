"""Command-line interface.

Exit codes: 0 success, 1 usage/input error, 2 negative mathematical result
(not realizable), 3 numerical failure.  Every JSON output carries a
``manifest`` with the command, arguments, seed, version, wall-clock duration
and input digests; errors are a single JSON line on stderr with a stable
``code`` field.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, geom, optvol, rivin, stats, svgplot, triang
from .errors import IdealPolyError, InfeasibleStart, InputError, InputNotFound, NotRealizable


class Run:
    def __init__(self, args, argv):
        self.args = args
        self.argv = argv
        self.t0 = time.monotonic()
        self.inputs = {}
        self.profile = {}  # counters of where the work went, for the manifest only

    def read_json(self, path):
        raw = self._read_bytes(path)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc

    def read_text(self, path):
        return self._read_bytes(path).decode()

    def _read_bytes(self, path):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError as exc:
            raise InputNotFound(f"input file not found: {path}") from exc
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror}") from exc
        self.inputs[path] = "sha256:" + hashlib.sha256(raw).hexdigest()
        return raw

    def manifest(self):
        out = {
            "command": self.args.command,
            "argv": self.argv,
            "seed": getattr(self.args, "seed", None),
            "version": __version__,
            "duration_s": round(time.monotonic() - self.t0, 6),
            "inputs": self.inputs,
        }
        if self.profile:
            out["profile"] = self.profile
        return out

    def emit_json(self, payload, path=None):
        payload = dict(payload)
        payload["manifest"] = self.manifest()
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        self._write(text, path)

    @staticmethod
    def _write(text, path):
        """Write ``text`` to ``path``, or to stdout when no path is given."""
        if not path:
            sys.stdout.write(text)
            return
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def load_triangulation(run, path):
    data = run.read_json(path)
    if not isinstance(data, dict) or "n" not in data or "faces" not in data:
        raise InputError(f'{path}: expected {{"n": ..., "faces": [...]}}')
    return triang.validate(data["n"], data["faces"])


def load_configuration(run, path):
    data = run.read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise InputError(f'{path}: expected {{"points": [...]}}')
    finite = []
    inf_seen = 0
    for item in data["points"]:
        if item == "inf":
            inf_seen += 1
        elif isinstance(item, list) and len(item) == 2:
            if not all(_is_finite_number(c) for c in item):
                raise InputError(f"{path}: point {item!r} is not two finite numbers")
            x, y = float(item[0]), float(item[1])
            # the ball coordinates of the export are computed from |w|^2
            if not math.isfinite(x * x + y * y):
                raise InputError(f"{path}: point {item!r} is too large")
            finite.append(complex(x, y))
        else:
            raise InputError(f'{path}: point {item!r} is neither [x, y] nor "inf"')
    if inf_seen != 1:
        raise InputError(f'{path}: exactly one point must be "inf"')
    return geom.make_configuration(finite)


def _rational_dict(value, max_denominator, tol):
    r = optvol.detect_rational(value, max_denominator, tol)
    if r is None:
        return None
    return {"p": r.p, "q": r.q, "text": str(r), "error": r.error}


def _common_denominator(rationals):
    if any(r is None for r in rationals) or not rationals:
        return None
    out = 1
    for r in rationals:
        out = out * r["q"] // math.gcd(out, r["q"])
    return out


def optimize_payload(result, max_denominator, tol):
    link = result.link
    values = result.angles
    corners = []
    for f in range(values.shape[0]):
        for s in range(3):
            radians = float(values[f, s])
            corners.append(
                {
                    "face": f,
                    "slot": s,
                    "vertex": link.bounded_faces[f][s],
                    "radians": radians,
                    "over_pi": radians / math.pi,
                    "rational": _rational_dict(radians, max_denominator, tol),
                }
            )
    by_edge = optvol.dihedral_angles(link, values)
    dihedrals = []
    for e, radians in sorted(by_edge.items()):
        dihedrals.append(
            {
                "edge": list(e),
                "radians": radians,
                "over_pi": radians / math.pi,
                "rational": _rational_dict(radians, max_denominator, tol),
            }
        )
    shapes = []  # edge shape parameter exp(i * dihedral) per interior link edge
    for e in sorted(link.interior_edges):
        radians = by_edge[e]
        shapes.append({"edge": list(e), "re": math.cos(radians), "im": math.sin(radians)})
    v4 = optvol.regular_tetrahedron_volume()
    return {
        "n": link.parent.n,
        "apex": link.apex,
        "volume": result.volume,
        "v_over_v4": result.volume / v4,
        "corners": corners,
        "dihedrals": dihedrals,
        "corner_denominator": _common_denominator([c["rational"] for c in corners]),
        "dihedral_denominator": _common_denominator([d["rational"] for d in dihedrals]),
        "kkt_residual": result.kkt_residual,
        "boundary_active": result.boundary_active,
        "active_constraints": [
            {"kind": kind, "key": list(key) if isinstance(key, tuple) else key}
            for kind, key in result.active_constraints
        ],
        "shape_parameters": shapes,
    }


def cmd_check(run):
    t = load_triangulation(run, run.args.triangulation)
    res = rivin.is_realizable(t, epsilon=run.args.eps)
    payload = {
        "n": t.n,
        "realizable": res.realizable,
        "apex": res.apex,
        "epsilon": run.args.eps,
    }
    if res.realizable:
        payload["witness"] = res.witness.tolist()
    else:
        payload["certificate"] = res.certificate
    run.emit_json(payload, run.args.output)
    return 0 if res.realizable else 2


def cmd_optimize(run):
    t = load_triangulation(run, run.args.triangulation)
    try:
        result = optvol.maximize_volume(triang.build_link(t, triang.choose_apex(t)),
                                        epsilon=run.args.eps)
    except InfeasibleStart as exc:
        raise NotRealizable("triangulation is not realizable") from exc
    payload = optimize_payload(result, run.args.max_denominator, run.args.tol)
    run.profile["realizability_lp"] = result.realizability_lp
    run.emit_json(payload, run.args.output)
    return 0


def cmd_search(run):
    r = stats.search_max_volume(run.args.n, run.args.trials, seed=run.args.seed)
    payload = {
        "n": r.n,
        "trials": r.trials,
        "seed": r.seed,
        "best_volume": r.best_volume,
        "unique_types": r.unique_types,
        "best_triangulation": r.best_result.link.parent.to_json_dict(),
        "best": optimize_payload(r.best_result, run.args.max_denominator, run.args.tol),
        "per_trial": [
            {"trial": trial, "volume": vol, "type_hash": f"{th:08x}"}
            for trial, vol, th in r.per_trial
        ],
    }
    run.profile["conformal_types"] = r.conformal_types
    run.emit_json(payload, run.args.output)
    return 0


def cmd_sample(run):
    sample = stats.sample_volumes(
        run.args.n,
        run.args.count,
        seed=run.args.seed,
        vmax_mode=run.args.vmax,
        threads=run.args.threads,
    )
    lines = [
        f"# idealpoly-sample n={sample.n} count={sample.count} seed={sample.seed} "
        f"vmax={sample.vmax:.17g} vmax_mode={sample.vmax_mode}",
        "volume",
    ]
    lines.extend(f"{v:.17g}" for v in sample.volumes)
    Run._write("\n".join(lines) + "\n", run.args.output)
    return 0


def _parse_sample_csv(text, path):
    meta = {}
    volumes = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    k, v = token.split("=", 1)
                    meta[k] = v
        elif line != "volume":
            try:
                volume = float(line)
            except ValueError as exc:
                raise InputError(f"{path}: bad volume line {line!r}") from exc
            if not math.isfinite(volume):
                raise InputError(f"{path}: bad volume line {line!r}")
            volumes.append(volume)
    if "n" not in meta or "vmax" not in meta:
        raise InputError(f"{path}: missing '# ... n=... vmax=...' header")
    meta.setdefault("seed", "0")

    def header(key, parse, kind):
        try:
            return parse(meta[key])
        except ValueError as exc:
            raise InputError(f"{path}: header {key}={meta[key]!r} is not {kind}") from exc

    vmax = header("vmax", float, "a number")
    if not (math.isfinite(vmax) and vmax > 0.0):
        raise InputError(f"{path}: header vmax={meta['vmax']!r} must be finite and > 0")
    n = header("n", int, "an integer")
    if n < 4:
        raise InputError(f"{path}: header n={meta['n']!r} must be at least 4")
    return stats.VolumeSample(
        n=n,
        volumes=np.array(volumes),
        seed=header("seed", int, "an integer"),
        vmax=vmax,
        vmax_mode=meta.get("vmax_mode", "given"),
    )


def cmd_fit(run):
    sample = _parse_sample_csv(run.read_text(run.args.csv), run.args.csv)
    fit = stats.fit_beta(sample)
    run.emit_json(dataclasses.asdict(fit), run.args.output)
    return 0


_FIT_FIELDS = (
    "alpha", "beta", "mean", "std", "ks_stat", "p_value", "n", "count", "vmax"
)
_FIT_INTEGERS = ("n", "count")


def _is_finite_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def cmd_scaling(run):
    fits = []
    for path in run.args.fits:
        data = run.read_json(path)
        if not isinstance(data, dict):
            raise InputError(f"{path}: expected fit output JSON")
        missing = [k for k in _FIT_FIELDS if k not in data]
        if missing:
            raise InputError(f"{path}: fit JSON lacks {', '.join(missing)}")
        for k in _FIT_FIELDS:
            integer = k in _FIT_INTEGERS
            if not (_is_index(data[k]) if integer else _is_finite_number(data[k])):
                kind = "an integer" if integer else "a finite number"
                raise InputError(f"{path}: fit JSON {k}={data[k]!r} is not {kind}")
        for k in ("alpha", "beta"):  # the fit schema: exclusiveMinimum 0
            if not data[k] > 0:
                raise InputError(f"{path}: fit JSON {k}={data[k]!r} is not > 0")
        fits.append(
            stats.BetaFit(
                **{k: data[k] for k in _FIT_FIELDS},
                clamped=data.get("clamped", 0),
                method=data.get("method", "mle"),
            )
        )
    sc = stats.scaling_fit(fits)
    payload = {
        "alpha_slope": sc.alpha_slope,
        "alpha_intercept": sc.alpha_intercept,
        "beta_slope": sc.beta_slope,
        "beta_intercept": sc.beta_intercept,
        "rows": [
            {"n": n, "alpha": a, "beta": b, "ratio": r, "mean": m}
            for n, a, b, r, m in sc.rows
        ],
    }
    if run.args.svg:
        Run._write(svgplot.scaling_panels(sc), run.args.svg)
    run.emit_json(payload, run.args.output)
    return 0


def cmd_report(run):
    if run.args.bins < 1:
        raise InputError(f"--bins must be at least 1, got {run.args.bins}")
    sample = _parse_sample_csv(run.read_text(run.args.csv), run.args.csv)
    fit = stats.fit_beta(sample)
    svg = svgplot.histogram_with_beta(sample.normalized(), fit, bins=run.args.bins)
    Run._write(svg, run.args.output)
    return 0


def _export_vertices(positions_by_vertex, apex):
    out = []
    for v in sorted(positions_by_vertex) + [apex]:
        w = None if v == apex else positions_by_vertex[v]
        x, y, z = geom.inverse_stereographic(w)
        out.append(
            {
                "id": v,
                "complex": "inf" if w is None else [w.real, w.imag],
                "klein": [x, y, z],
                "poincare": [x, y, z],
            }
        )
    return out


def _is_index(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _corner_values(path, corners, n_faces):
    """Corner angles of optimize output as an (n_faces, 3) array.

    Every (face, slot) must appear exactly once, with radians a JSON number
    in (0, pi): layout divides by the sine of each corner.
    """
    if not isinstance(corners, list):
        raise InputError(f"{path}: corners {corners!r} is not a list")
    values = np.zeros((n_faces, 3))
    seen = set()
    for c in corners:
        try:
            face, slot, radians = c["face"], c["slot"], c["radians"]
        except (KeyError, TypeError):
            face = slot = None
        if not (_is_index(face) and _is_index(slot) and 0 <= face < n_faces and 0 <= slot < 3):
            raise InputError(
                f"{path}: corner {c!r} needs a face in 0..{n_faces - 1}, "
                "a slot in 0..2 and radians"
            )
        if not (_is_finite_number(radians) and 0.0 < radians < math.pi):
            raise InputError(f"{path}: corner {c!r} needs radians in (0, pi)")
        if (face, slot) in seen:
            raise InputError(f"{path}: face {face}, slot {slot} appears twice")
        seen.add((face, slot))
        values[face, slot] = radians
    for face in range(n_faces):
        for slot in range(3):
            if (face, slot) not in seen:
                raise InputError(f"{path}: no corner for face {face}, slot {slot}")
    return values


def cmd_export(run):
    if bool(run.args.config) == bool(run.args.triangulation):
        raise InputError("provide either --config or --triangulation with --angles")
    if run.args.config and run.args.angles:
        raise InputError("--angles goes with --triangulation, not --config")
    if run.args.config:
        config = load_configuration(run, run.args.config)
        pt = geom.delaunay(config)
        t, link = geom.close_with_infinity(pt)
        positions = {i: w for i, w in enumerate(config.finite)}
        apex = config.infinity_index
        residual = 0.0
    else:
        if not run.args.angles:
            raise InputError("--triangulation requires --angles (optimize output)")
        t = load_triangulation(run, run.args.triangulation)
        data = run.read_json(run.args.angles)
        if not isinstance(data, dict) or "apex" not in data or "corners" not in data:
            raise InputError(f"{run.args.angles}: expected optimize output JSON")
        apex = data["apex"]
        if not _is_index(apex):
            raise InputError(f"{run.args.angles}: apex {apex!r} is not a vertex id")
        link = triang.build_link(t, apex)
        values = _corner_values(run.args.angles, data["corners"], len(link.bounded_faces))
        lay = geom.layout(link, values)
        positions = lay.positions
        residual = lay.residual

    vertices = _export_vertices(positions, apex)
    faces = [list(f) for f in t.faces]
    if run.args.format == "obj":
        index = {v["id"]: i + 1 for i, v in enumerate(vertices)}
        lines = [f"# idealpoly export: {t.n} ideal vertices, Klein model"]
        for v in vertices:
            x, y, z = v["klein"]
            lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
        for f in faces:
            lines.append("f " + " ".join(str(index[v]) for v in f))
        Run._write("\n".join(lines) + "\n", run.args.output)
    else:
        run.emit_json(
            {
                "n": t.n,
                "apex": apex,
                "layout_residual": residual,
                "vertices": vertices,
                "faces": faces,
            },
            run.args.output,
        )
    return 0


def cmd_automorphisms(run):
    t = load_triangulation(run, run.args.triangulation)
    counts = triang.automorphism_counts(t)
    run.emit_json(
        {
            "n": t.n,
            "orientation_preserving": counts.orientation_preserving,
            "total": counts.total,
        },
        run.args.output,
    )
    return 0


def cmd_selftest(run):
    from . import acceptance

    results = acceptance.run_all(only=run.args.only)
    width = max(len(r.name) for r in results)
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}  {r.detail}" for r in results
    ]
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed")
    Run._write("\n".join(lines) + "\n", run.args.output)
    return 0 if failed == 0 else 3


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input (exit 1), not argparse's exit 2, which
    would read as "not realizable"."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(
        prog="idealpoly",
        description=(
            "Ideal hyperbolic polyhedra: realizability, maximal volume, "
            "rational angles, and random-volume statistics."
        ),
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, threads=False):
        p.add_argument("-o", "--output", help="write to file instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if threads:
            p.add_argument("--threads", type=int, default=os.cpu_count() or 1)

    eps_help = "realizable iff the centring LP's largest minimum slack is at least EPS"
    p = sub.add_parser("check", help="decide realizability of a triangulation")
    p.add_argument("triangulation")
    p.add_argument("--eps", type=float, default=rivin.DEFAULT_EPSILON, help=eps_help)
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("optimize", help="maximal volume for one triangulation")
    p.add_argument("triangulation")
    p.add_argument("--eps", type=float, default=rivin.DEFAULT_EPSILON, help=eps_help)
    p.add_argument("--tol", type=float, default=1e-10, help="rational detection tolerance")
    p.add_argument("--max-denominator", type=int, default=100)
    add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("search", help="best volume over random combinatorial types")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-denominator", type=int, default=100)
    add_common(p, seed=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sample", help="volumes of random configurations (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=5000)
    p.add_argument("--vmax", choices=["table", "search"], default="table")
    add_common(p, seed=True, threads=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="Beta fit of a sample CSV")
    p.add_argument("csv")
    add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("scaling", help="linear scaling of Beta parameters with n")
    p.add_argument("fits", nargs="+", help="fit JSON files")
    p.add_argument("--svg", help="also write the three-panel SVG figure")
    add_common(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("report", help="histogram SVG with fitted Beta overlay")
    p.add_argument("csv")
    p.add_argument("--bins", type=int, default=40)
    add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="geometry export (JSON or OBJ)")
    p.add_argument("--config", help="configuration JSON")
    p.add_argument("--triangulation", help="triangulation JSON (with --angles)")
    p.add_argument("--angles", help="optimize output JSON")
    p.add_argument("--format", choices=["json", "obj"], default="json")
    add_common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("automorphisms", help="combinatorial symmetry counts")
    p.add_argument("triangulation")
    add_common(p)
    p.set_defaults(func=cmd_automorphisms)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion ids, e.g. c01,c03")
    add_common(p)
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:  # a usage error is an InputError too
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and --version
            return int(exc.code or 0)
        return args.func(Run(args, argv))
    except IdealPolyError as exc:
        json.dump({"code": exc.code, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
