import json
import math
import os

import pytest

from idealpoly import __version__, cli

from test_optvol import stall_every_face_newton

try:
    import jsonschema
    from referencing import Registry
    from referencing.jsonschema import DRAFT7
except ImportError:
    jsonschema = None

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")

TETRA = {"n": 4, "faces": [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]}
OCTA = {
    "n": 6,
    "faces": [
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
        [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4],
    ],
}
N9 = {
    "n": 9,
    "faces": [
        [1, 2, 4], [2, 0, 4], [1, 0, 6], [2, 1, 7], [0, 1, 8], [1, 4, 8], [4, 0, 8],
        [3, 6, 5], [0, 2, 6], [5, 6, 2], [1, 6, 7], [3, 7, 6], [2, 7, 5], [3, 5, 7],
    ],
}
NOT_REALIZABLE = {
    # tetrahedron with a vertex stacked onto every face: the classic
    # non-inscribable stacked type, infeasible at every apex
    "n": 8,
    "faces": [
        [0, 1, 4], [1, 2, 4], [2, 0, 4], [0, 2, 5], [2, 3, 5], [3, 0, 5],
        [0, 3, 6], [3, 1, 6], [1, 0, 6], [1, 3, 7], [3, 2, 7], [2, 1, 7],
    ],
}


def _load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


SCHEMAS = {name: _load_schema(name) for name in sorted(os.listdir(SCHEMA_DIR))}


def _refs(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "$ref":
                yield value
            else:
                yield from _refs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _refs(value)


REGISTRY = None
if jsonschema is not None:
    REGISTRY = Registry().with_resources(
        (name, DRAFT7.create_resource(schema)) for name, schema in SCHEMAS.items()
    )


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schema_is_valid_and_names_the_backend(name):
    # the manifest has no kernel backend field: no schema may name one
    schema = SCHEMAS[name]
    assert "kernel_backend" not in json.dumps(schema)
    assert schema["$id"] == name
    if jsonschema is not None:
        jsonschema.Draft7Validator.check_schema(schema)
        resolver = REGISTRY.resolver(base_uri=name)
        for ref in _refs(schema):
            resolver.lookup(ref)  # raises if the reference dangles


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(argv, capsys):
    """Run the CLI.  Any JSON it prints, or writes with -o, must match its
    command's schema; any JSON line on stderr must match the error schema."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    outputs = [captured.out]
    if "-o" in argv and os.path.exists(argv[argv.index("-o") + 1]):
        with open(argv[argv.index("-o") + 1]) as fh:
            outputs.append(fh.read())
    for text in outputs:
        if text.startswith("{"):
            check_schema(json.loads(text), f"{argv[0]}.schema.json")
    for line in captured.err.splitlines():
        if line.startswith("{"):
            check_schema(json.loads(line), "error.schema.json")
    return code, captured.out, captured.err


def check_schema(payload, name):
    """Validate through a registry of every schema, so $refs resolve."""
    if jsonschema is None:
        return
    jsonschema.Draft7Validator(SCHEMAS[name], registry=REGISTRY).validate(payload)


def test_check_realizable(tmp_path, capsys):
    path = write(tmp_path, "tetra.json", TETRA)
    code, out, _ = run_cli(["check", path], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["realizable"] is True
    assert data["witness"] == pytest.approx([math.pi / 3] * 3, abs=1e-9)
    check_schema(data, "check.schema.json")


def test_check_not_realizable_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.json", NOT_REALIZABLE)
    code, out, _ = run_cli(["check", path], capsys)
    assert code == 2
    data = json.loads(out)
    assert data["realizable"] is False
    assert data["certificate"] > 0
    check_schema(data, "check.schema.json")


def test_check_and_optimize_empty_by_rounding(tmp_path, capsys):
    # two ulps above pi/3, the tetrahedron's largest minimum slack t*
    path = write(tmp_path, "tetra.json", TETRA)
    code, out, _ = run_cli(["check", "--eps", "1.047197551196598", path], capsys)
    assert code == 2
    data = json.loads(out)
    assert data["realizable"] is False
    assert data["certificate"] > 0
    check_schema(data, "check.schema.json")
    code, out, err = run_cli(["optimize", "--eps", "1.047197551196598", path], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == "NOT_REALIZABLE"


@pytest.mark.parametrize(
    "argv",
    [["check", "--eps", eps] for eps in ("0", "-1", "3.2", "nan", "inf")]
    + [["optimize", "--eps", "0"]],
)
def test_epsilon_outside_open_interval_is_input_error(tmp_path, capsys, argv):
    path = write(tmp_path, "octa.json", OCTA)
    code, out, err = run_cli(argv + [path], capsys)
    assert code == 1
    assert out == ""
    assert error_line(err)["code"] == "INPUT_ERROR"


def test_check_invalid_input(tmp_path, capsys):
    path = write(tmp_path, "broken.json", {"n": 4, "faces": [[0, 1, 2]]})
    code, out, err = run_cli(["check", path], capsys)
    assert code == 1
    payload = json.loads(err)
    assert payload["code"] == "EULER_VIOLATION"
    check_schema(payload, "error.schema.json")


def test_missing_input_file(capsys):
    code, _, err = run_cli(["fit", "missing.csv"], capsys)
    assert code == 1
    assert json.loads(err)["code"] == "INPUT_NOT_FOUND"


def test_fit_zero_variance_sample(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("# idealpoly-sample n=4 count=20 seed=0 vmax=1\nvolume\n" + "0.5\n" * 20)
    code, out, err = run_cli(["fit", str(path)], capsys)
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["code"] == "FIT_DIVERGED"
    assert payload["message"] == "sample variance is zero"
    check_schema(payload, "error.schema.json")


@pytest.mark.parametrize(
    "values", [["0.1"] * 19 + ["0.1000001"], ["0.5"] * 19 + ["0.5000000001"]]
)
def test_fit_near_constant_sample(tmp_path, capsys, values):
    path = tmp_path / "near.csv"
    path.write_text(
        "# idealpoly-sample n=4 count=20 seed=0 vmax=1\nvolume\n" + "\n".join(values) + "\n"
    )
    code, out, err = run_cli(["fit", str(path)], capsys)
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["code"] == "FIT_DIVERGED"
    assert payload["message"].startswith("KS statistic failed")
    check_schema(payload, "error.schema.json")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_fit_rejects_non_finite_volume(tmp_path, capsys, bad):
    lines = ["0.2", "0.4", bad, "0.6"] + ["0.3"] * 10
    path = tmp_path / "bad.csv"
    path.write_text("# idealpoly-sample n=4 count=14 seed=0 vmax=1\nvolume\n" + "\n".join(lines) + "\n")
    code, out, err = run_cli(["fit", str(path)], capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["code"] == "INPUT_ERROR"
    assert payload["message"] == f"{path}: bad volume line {bad!r}"
    check_schema(payload, "error.schema.json")


def error_line(err):
    # exactly one JSON line on stderr, valid against the error schema
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    check_schema(payload, "error.schema.json")
    return payload


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "3"],
        ["sample", "--n", "6", "--count", "0"],
        ["search", "--n", "3"],
        ["search", "--n", "6", "--trials", "0"],
        ["sample", "--n", "6", "--count", "5", "--threads", "0"],
        ["sample", "--n", "6", "--count", "5", "--threads", "-2"],
    ],
)
def test_sample_and_search_reject_bad_sizes(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert error_line(err)["code"] == "INPUT_ERROR"


@pytest.mark.parametrize("command", ["fit", "report"])
@pytest.mark.parametrize(
    "header,field",
    [
        ("n=abc seed=0 vmax=1", "n="),
        ("n=3 seed=0 vmax=1", "n="),
        ("n=4 seed=1.5 vmax=1", "seed="),
        ("n=4 seed=0 vmax=foo", "vmax="),
        ("n=4 seed=0 vmax=0", "vmax="),
        ("n=4 seed=0 vmax=-2", "vmax="),
        ("n=4 seed=0 vmax=nan", "vmax="),
        ("n=4 seed=0 vmax=inf", "vmax="),
    ],
)
def test_fit_and_report_reject_bad_header(tmp_path, capsys, command, header, field):
    path = tmp_path / "bad.csv"
    path.write_text(f"# idealpoly-sample {header}\nvolume\n" + "0.3\n0.5\n" * 10)
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert field in payload["message"]


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_report_rejects_bad_bins(tmp_path, capsys, bins):
    path = tmp_path / "s.csv"
    path.write_text("# idealpoly-sample n=4 seed=0 vmax=1\nvolume\n" + "0.3\n0.5\n" * 10)
    code, out, err = run_cli(["report", str(path), "--bins", bins], capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert "--bins" in payload["message"]


def test_sample_without_tabulated_vmax_names_search(capsys):
    code, out, err = run_cli(["sample", "--n", "13", "--count", "5"], capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert "--vmax search" in payload["message"]


def test_scaling_fit_missing_key(tmp_path, capsys):
    fit = {"n": 5, "alpha": 2.0, "mean": 0.5, "std": 0.1, "ks_stat": 0.01,
           "p_value": 0.9, "count": 100, "vmax": 2.0}
    paths = [write(tmp_path, f"f{i}.json", dict(fit, n=5 + i)) for i in range(3)]
    code, out, err = run_cli(["scaling", *paths], capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert payload["message"] == f"{paths[0]}: fit JSON lacks beta"


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha", "x"),
        ("beta", None),
        ("mean", float("nan")),
        ("vmax", float("inf")),
        ("std", [0.1]),
        ("p_value", True),
        pytest.param("ks_stat", 10**400, id="ks_stat-beyond-float"),
        ("n", 6.0),
        ("n", "6"),
        ("count", 100.5),
        ("count", False),
        ("alpha", 0),
        ("alpha", -2.0),
        ("beta", 0),
        ("beta", 0.0),
    ],
)
def test_scaling_fit_bad_field(tmp_path, capsys, field, value):
    fit = {"n": 5, "alpha": 2.0, "beta": 3.0, "mean": 0.4, "std": 0.1,
           "ks_stat": 0.01, "p_value": 0.9, "count": 100, "vmax": 2.0}
    fits = [dict(fit, n=5 + i) for i in range(3)]
    fits[1][field] = value
    paths = [write(tmp_path, f"f{i}.json", f) for i, f in enumerate(fits)]
    code, out, err = run_cli(["scaling", *paths], capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert payload["message"].startswith(f"{paths[1]}: fit JSON {field}=")


def test_scaling_needs_three_sizes(tmp_path, capsys):
    fit = {"n": 5, "alpha": 2.0, "beta": 3.0, "mean": 0.4, "std": 0.1,
           "ks_stat": 0.01, "p_value": 0.9, "count": 100, "vmax": 2.0}
    paths = [write(tmp_path, f"f{i}.json", fit) for i in range(3)]
    code, out, err = run_cli(["scaling", *paths], capsys)
    assert code == 1
    assert out == ""
    assert error_line(err)["code"] == "INPUT_ERROR"


def test_export_config_malformed_point(tmp_path, capsys):
    config = write(tmp_path, "config.json", {"points": [[0, 0], [1], [1, 1], "inf"]})
    code, out, err = run_cli(["export", "--config", config], capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert "[1]" in payload["message"]


@pytest.mark.parametrize(
    "point", [[math.nan, 2.0], [math.inf, 2.0], [1e308, 1e308]], ids=["nan", "inf", "huge"]
)
def test_export_config_non_finite_point(tmp_path, capsys, point):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    config = write(tmp_path, "config.json", {"points": [[0, 0], [1, 0], [0, 1], point, "inf"]})
    code, out, err = run_cli(["export", "--config", config], capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert repr(point) in payload["message"]


def test_export_config_rejects_angles(tmp_path, capsys):
    config = write(tmp_path, "config.json", {"points": [[0, 0], [1, 0], [0, 1], "inf"]})
    absent = str(tmp_path / "absent.json")
    code, out, err = run_cli(["export", "--config", config, "--angles", absent], capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert "--angles" in payload["message"]


def test_export_config_large_finite_point(tmp_path, capsys):
    config = write(
        tmp_path, "config.json", {"points": [[0, 0], [1, 0], [0, 1], [1e150, 1e150], "inf"]}
    )
    code, out, _ = run_cli(["export", "--config", config], capsys)
    assert code == 0
    assert json.loads(out)["n"] == 5


def test_check_non_integer_vertex(tmp_path, capsys):
    faces = [list(f) for f in TETRA["faces"]]
    faces[0] = [0, 1, "x"]
    path = write(tmp_path, "bad.json", {"n": 4, "faces": faces})
    code, out, err = run_cli(["check", path], capsys)
    assert code == 1
    assert out == ""
    assert error_line(err)["code"] == "DEGENERATE_FACE"


@pytest.mark.parametrize("command", ["check", "optimize", "export"])
def test_faces_not_a_list(tmp_path, capsys, command):
    path = write(tmp_path, "bad.json", {"n": 4, "faces": 5})
    argv = [command, path]
    if command == "export":
        argv = ["export", "--triangulation", path, "--angles", path]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert error_line(err)["code"] == "DEGENERATE_FACE"


def _broken_angles(angles, case):
    if case == "not-an-object":
        return 5
    if case == "a-string":
        return "apex corners"
    if case == "corners-not-a-list":
        angles["corners"] = 5
    elif case == "apex-not-an-id":
        angles["apex"] = "x"
    elif case == "slot-out-of-range":
        angles["corners"][0]["slot"] = 7
    elif case == "no-corners":
        angles["corners"] = []
    elif case == "missing-corner":
        angles["corners"].pop()
    elif case == "duplicate-corner":
        angles["corners"].append(dict(angles["corners"][0]))
    elif case.startswith("radians-"):
        angles["corners"][0]["radians"] = {"nan": "nan", "0": 0, "pi": math.pi}[
            case.removeprefix("radians-")
        ]
    else:  # a corner without one of its keys
        del angles["corners"][0][case.removeprefix("no-")]
    return angles


@pytest.mark.parametrize(
    "case",
    ["no-radians", "no-face", "no-slot", "slot-out-of-range",
     "corners-not-a-list", "apex-not-an-id", "not-an-object", "a-string",
     "no-corners", "missing-corner", "duplicate-corner",
     "radians-nan", "radians-0", "radians-pi"],
)
def test_export_malformed_angles(tmp_path, capsys, case):
    tri = write(tmp_path, "tetra.json", TETRA)
    code, out, _ = run_cli(["optimize", tri], capsys)
    assert code == 0
    angles = write(tmp_path, "angles.json", _broken_angles(json.loads(out), case))
    code, out, err = run_cli(["export", "--triangulation", tri, "--angles", angles], capsys)
    assert code == 1
    assert out == ""
    assert error_line(err)["code"] == "INPUT_ERROR"


def test_optimize_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # n = 9 #0, whose optimum collapses a link triangle, with every face
    # Newton stalling: one NUMERICAL_FAILURE line on stderr and exit 3
    path = write(tmp_path, "n9.json", N9)
    stall_every_face_newton(monkeypatch)
    code, out, err = run_cli(["optimize", path], capsys)
    assert code == 3
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "NUMERICAL_FAILURE"
    assert "fails its checks" in payload["message"]


def test_optimize_octahedron(tmp_path, capsys):
    path = write(tmp_path, "octa.json", OCTA)
    code, out, _ = run_cli(["optimize", path], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["volume"] == pytest.approx(3.663862, abs=5e-6)
    assert data["dihedral_denominator"] == 2
    assert all(d["rational"] == pytest.approx(d["rational"]) for d in data["dihedrals"])
    assert all(d["rational"]["q"] == 2 for d in data["dihedrals"])
    assert data["kkt_residual"] < 1e-8
    check_schema(data, "optimize.schema.json")


def test_optimize_tetrahedron_corner_denominator(tmp_path, capsys):
    path = write(tmp_path, "tetra.json", TETRA)
    code, out, _ = run_cli(["optimize", path], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["corner_denominator"] == 3
    assert data["v_over_v4"] == pytest.approx(1.0, abs=1e-9)
    for c in data["corners"]:
        assert c["rational"]["text"] == "1/3 π"


def test_search_and_schema(capsys):
    code, out, _ = run_cli(["search", "--n", "5", "--trials", "3", "--seed", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["best_volume"] == pytest.approx(2.029883, abs=1e-5)
    assert len(data["per_trial"]) == 3
    check_schema(data, "search.schema.json")


@pytest.mark.skipif(jsonschema is None, reason="needs jsonschema")
def test_schemas_follow_their_refs(tmp_path, capsys):
    # the manifest and the optimum are defined once and reached by $ref
    path = write(tmp_path, "octa.json", OCTA)
    _, out, _ = run_cli(["optimize", path], capsys)
    optimum = json.loads(out)
    assert "kernel_backend" not in optimum["manifest"]
    assert optimum["manifest"]["version"] == __version__
    del optimum["manifest"]["version"]
    with pytest.raises(jsonschema.ValidationError, match="'version' is a required"):
        check_schema(optimum, "optimize.schema.json")

    _, out, _ = run_cli(["search", "--n", "5", "--trials", "2"], capsys)
    search = json.loads(out)
    del search["best"]["volume"]
    with pytest.raises(jsonschema.ValidationError, match="'volume' is a required"):
        check_schema(search, "search.schema.json")


def test_sample_fit_report_scaling_flow(tmp_path, capsys):
    csv_paths = {}
    for n in (5, 6, 7):
        csv = str(tmp_path / f"s{n}.csv")
        code, _, _ = run_cli(
            ["sample", "--n", str(n), "--count", "120", "--seed", "1",
             "--threads", "1", "-o", csv],
            capsys,
        )
        assert code == 0
        csv_paths[n] = csv
    with open(csv_paths[5]) as fh:
        header = fh.readline()
    assert header.startswith("# idealpoly-sample n=5 count=120 seed=1")

    fit_paths = {}
    for n, csv in csv_paths.items():
        out_path = str(tmp_path / f"f{n}.json")
        code, _, _ = run_cli(["fit", csv, "-o", out_path], capsys)
        assert code == 0
        with open(out_path) as fh:
            data = json.load(fh)
        assert data["n"] == n
        check_schema(data, "fit.schema.json")
        fit_paths[n] = out_path

    svg_path = str(tmp_path / "scaling.svg")
    code, out, _ = run_cli(
        ["scaling", *fit_paths.values(), "--svg", svg_path], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 3
    check_schema(data, "scaling.schema.json")
    with open(svg_path) as fh:
        svg = fh.read()
    assert svg.startswith("<svg") and "polyline" in svg

    report_path = str(tmp_path / "hist.svg")
    code, _, _ = run_cli(["report", csv_paths[6], "-o", report_path], capsys)
    assert code == 0
    with open(report_path) as fh:
        assert fh.read().startswith("<svg")


def test_sample_reproducible_bytes(tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    for path in (a, b):
        code, _, _ = run_cli(
            ["sample", "--n", "6", "--count", "50", "--seed", "7", "-o", path],
            capsys,
        )
        assert code == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_json_outputs_reproducible_modulo_manifest(tmp_path, capsys):
    path = write(tmp_path, "octa.json", OCTA)
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(["optimize", path], capsys)
        assert code == 0
        data = json.loads(out)
        data.pop("manifest")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_search_reproducible_modulo_manifest(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            ["search", "--n", "8", "--trials", "20", "--seed", "0"], capsys
        )
        assert code == 0
        data = json.loads(out)
        data.pop("manifest")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_export_json_and_obj(tmp_path, capsys):
    octa = write(tmp_path, "octa.json", OCTA)
    opt_path = str(tmp_path / "opt.json")
    code, _, _ = run_cli(["optimize", octa, "-o", opt_path], capsys)
    assert code == 0

    code, out, _ = run_cli(
        ["export", "--triangulation", octa, "--angles", opt_path], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 6
    assert len(data["faces"]) == 8
    assert data["layout_residual"] < 1e-6
    for v in data["vertices"]:
        assert abs(sum(c * c for c in v["klein"]) - 1.0) < 1e-9
    check_schema(data, "export.schema.json")

    code, out, _ = run_cli(
        ["export", "--triangulation", octa, "--angles", opt_path, "--format", "obj"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1].startswith("v ")
    assert sum(1 for line in out.splitlines() if line.startswith("f ")) == 8

    config = write(
        tmp_path, "config.json",
        {"points": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], "inf"]},
    )
    code, out, _ = run_cli(["export", "--config", config], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6


def test_automorphisms_command(tmp_path, capsys):
    path = write(tmp_path, "tetra.json", TETRA)
    code, out, _ = run_cli(["automorphisms", path], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["orientation_preserving"] == 12
    assert data["total"] == 24
    check_schema(data, "automorphisms.schema.json")


def test_selftest_subset(capsys):
    code, out, _ = run_cli(["selftest", "--only", "c03"], capsys)
    assert code == 0
    assert "[PASS]" in out


def test_selftest_writes_output_file(tmp_path, capsys):
    path = str(tmp_path / "selftest.txt")
    code, out, _ = run_cli(["selftest", "--only", "c03", "-o", path], capsys)
    assert code == 0
    assert out == ""
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("[PASS] closed-form cross-checks")
    assert lines[-1] == "1/1 criteria passed"


@pytest.mark.parametrize("case", ["json", "csv", "svg"])
def test_unwritable_output_is_input_error(tmp_path, capsys, case):
    bad = str(tmp_path / "missing" / "out")
    fit = {"alpha": 2.0, "beta": 3.0, "mean": 0.4, "std": 0.1,
           "ks_stat": 0.01, "p_value": 0.9, "count": 100, "vmax": 2.0}
    argv = {
        "json": ["check", write(tmp_path, "octa.json", OCTA), "-o", bad],
        "csv": ["sample", "--n", "6", "--count", "5", "--threads", "1", "-o", bad],
        "svg": ["scaling", "--svg", bad]
        + [write(tmp_path, f"f{n}.json", dict(fit, n=n)) for n in (5, 6, 7)],
    }[case]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert payload["message"] == f"cannot write {bad}: No such file or directory"


@pytest.mark.parametrize("only", ["c99", "c01,c99"])
def test_selftest_rejects_unknown_ids(capsys, only):
    # c01 takes seconds: an unknown id must be caught before any criterion runs
    code, out, err = run_cli(["selftest", "--only", only], capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert "unknown criterion ids" in payload["message"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check", "octa.json", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "required: command"),
        (["check", "--eps", "abc", "octa.json"], "invalid float value: 'abc'"),
        (["search", "--n", "x"], "invalid int value: 'x'"),
    ],
)
def test_usage_errors_are_input_errors(capsys, argv, message):
    # exit 2 means "not realizable": a typo must not read as a negative answer
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    payload = error_line(err)
    assert payload["code"] == "INPUT_ERROR"
    assert message in payload["message"]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: idealpoly") or out == f"{__version__}\n"


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools < 69 calls the table beta
def test_package_version_is_read_from_the_module():
    # pyproject.toml keeps no version of its own: setuptools reads
    # idealpoly.__version__, so the manifest, --version and the installed
    # metadata cannot disagree
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    project = pyprojecttoml.read_configuration(path)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == __version__
