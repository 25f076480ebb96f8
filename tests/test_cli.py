"""End-to-end CLI checks: exit codes, file schemas, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinquiver
from spinquiver.cli import main
from spinquiver import io as sqio


def run(args):
    return main(args)


def test_gen_verify_round_trip(tmp_path):
    point_file = str(tmp_path / "pt.json")
    assert run(["gen", "--spec", "2,2,2", "--seed", "3", "--out", point_file]) == 0
    data = sqio.read_json(point_file)
    assert set(data) == {"spec", "q", "X", "Y", "V", "W"}
    assert data["spec"] == {"m": 2, "d": 2, "n": 2}
    # complex entries are [re, im] pairs
    assert isinstance(data["X"][0][0][0], list) and len(data["X"][0][0][0]) == 2
    report_file = str(tmp_path / "report.json")
    assert run(["verify", point_file, "--out", report_file]) == 0
    rep = sqio.read_json(report_file)
    assert rep["summary"]["failed"] == 0
    assert all(set(r) == {"name", "paper_ref", "value", "tol", "pass"}
               for r in rep["records"])


def test_gen_determinism(tmp_path):
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(["gen", "--spec", "2,2,3", "--seed", "9", "--out", f1])
    run(["gen", "--spec", "2,2,3", "--seed", "9", "--out", f2])
    assert open(f1).read() == open(f2).read()


def test_verify_detects_corruption(tmp_path):
    point_file = str(tmp_path / "pt.json")
    run(["gen", "--spec", "2,2,2", "--seed", "3", "--out", point_file])
    data = sqio.read_json(point_file)
    data["X"][0][0][0] = [9.0, 9.0]
    bad_file = str(tmp_path / "bad.json")
    sqio.write_json(bad_file, data)
    assert run(["verify", bad_file]) == 1


def test_verify_m1_point(tmp_path):
    point_file = str(tmp_path / "jordan.json")
    assert run(["gen", "--spec", "1,2,2", "--seed", "5", "--out", point_file]) == 0
    assert run(["verify", point_file]) == 0


def test_parse_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert run(["verify", missing]) == 2
    bad_q = run(["gen", "--spec", "2,2,2", "--q", "1,0", "--seed", "1",
                 "--out", str(tmp_path / "x.json")])
    assert bad_q == 2  # wrong parameter count


def test_invalid_zero_parameter(tmp_path):
    code = run(["gen", "--spec", "1,1,2", "--q", "0,0", "--seed", "1",
                "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_commute_and_rank(tmp_path, capsys):
    out = str(tmp_path / "commute.json")
    assert run(["commute", "--spec", "2,2,2", "--seed", "3", "--family", "4",
                "--out", out]) == 0
    data = sqio.read_json(out)
    mags = np.array(data["bracket_magnitudes"])
    assert mags.shape[0] == mags.shape[1]
    assert np.allclose(mags, mags.T)

    out = str(tmp_path / "rank.json")
    assert run(["rank", "--spec", "2,2,3", "--seed", "2", "--family", "G",
                "--out", out]) == 0
    data = sqio.read_json(out)
    assert data["expected"] == 5
    assert data["observed"] == 5
    assert len(data["singular_values"]) >= 10


def test_flow_outputs(tmp_path):
    prefix = str(tmp_path / "fl")
    assert run(["flow", "--spec", "2,2,2", "--seed", "3", "--ham", "trT",
                "--k", "1", "--time", "1.0", "--out", prefix]) == 0
    import csv
    with open(prefix + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert "moment_residual" in rows[0]
    assert float(rows[-1]["moment_residual"]) < 1e-8
    endpoint = sqio.read_json(prefix + "_endpoint.json")
    assert set(endpoint) == {"spec", "q", "X", "Y", "V", "W"}


def test_error_prints_message_only(tmp_path, capsys):
    # the oracle's SingularFactor also carries the partial trajectory
    code = run(["flow", "--spec", "2,2,2", "--ham", "trZ", "--k", "2", "--time", "1.0",
                "--eta", "0.3-0.2j", "--out", str(tmp_path / "fl")])
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: oracle singular at step 11"]


@pytest.mark.parametrize("extra, message", [
    (["--steps", "0"], "steps must be >= 1"),
    (["--steps", "-3"], "steps must be >= 1"),
    (["--k", "0"], "power k must be >= 1"),
    (["--ham", "trZ", "--k", "1"], "--ham trZ needs --k a multiple of m = 2, got 1"),
])
def test_flow_rejects_unusable_options(tmp_path, capsys, extra, message):
    prefix = tmp_path / "fl"
    assert run(["flow", "--spec", "2,2,2", "--out", str(prefix)] + extra) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: {message}"]
    assert not list(tmp_path.iterdir())


def _no_draws(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a point was drawn")
    monkeypatch.setattr("spinquiver.cli.random_point", fail)


def test_flow_checks_options_before_drawing(tmp_path, capsys, monkeypatch):
    # (2,2,16) exhausts the sampler, so a late check would exit 1 after about a second
    _no_draws(monkeypatch)
    assert run(["flow", "--spec", "2,2,16", "--steps", "0", "--out", str(tmp_path / "fl")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: steps must be >= 1"]
    assert run(["flow", "--spec", "2,2,16", "--ham", "trY", "--k", "3"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --ham trY needs --k a multiple of m = 2, got 3"]
    assert not list(tmp_path.iterdir())


def test_rank_coords_of_another_shape_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the file holds n = 4, d = 2; the default --spec 2,2,2 used to score it
    # against the count 3 of n = 2 and fail with observed 7
    from spinquiver import ModelSpec, derive_params, random_coordinates
    path = tmp_path / "c.json"
    coords = random_coordinates(ModelSpec(2, 2, 4), derive_params([1.2 + 0.3j, 0.8 - 0.1j], 4), 1)
    sqio.write_json(str(path), sqio.coords_to_dict(coords))

    def fail(*args, **kwargs):
        raise AssertionError("parameters were drawn")

    monkeypatch.setattr("spinquiver.cli.derive_params", fail)
    assert run(["rank", "--coords", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: coordinates file {path} has n = 4, d = 2; --spec 2,2,2 needs n = 2, d = 2"]
    monkeypatch.undo()
    out = tmp_path / "rank.json"
    assert run(["rank", "--spec", "2,2,4", "--coords", str(path), "--out", str(out)]) == 0
    data = sqio.read_json(str(out))
    assert data["expected"] == data["observed"] == 7


@pytest.mark.parametrize("word, message", [
    ("Q", "invariant words use letters X, Z, S only, got 'Q'"),
    ("X^a", "invalid literal for int() with base 10: 'a'"),
])
def test_reduce_rejects_an_unparsable_word_before_drawing(capsys, monkeypatch, word, message):
    _no_draws(monkeypatch)
    assert run(["reduce", "--word", word]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot parse --word {word!r}: {message}"]


@pytest.mark.parametrize("points", ["0", "-1"])
def test_report_rejects_fewer_than_one_point(tmp_path, capsys, monkeypatch, points):
    _no_draws(monkeypatch)
    out = tmp_path / "rep.json"
    assert run(["report", "--points", points, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --points must be >= 1, got {points}"]
    assert not out.exists()


def test_sampling_exhausted_states_its_rejections(tmp_path, capsys):
    assert run(["gen", "--spec", "2,2,16", "--out", str(tmp_path / "p.json")]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    found = re.fullmatch(r"error: no admissible point after (\d+) draws \(rejected by (.*)\)"
                         r"; last build error: (.+)", errors[0])
    assert found, errors[0]
    counts = dict(item.split(": ") for item in found.group(2).split(", "))
    assert list(counts) == ["creg screen", "a-row-sum screen", "Degenerate",
                            "RegularityViolation", "SingularFactor"]
    assert sum(int(v) for v in counts.values()) == int(found.group(1)) == 1000
    assert not (tmp_path / "p.json").exists()


def test_reduce_and_dual(tmp_path):
    out = str(tmp_path / "red.json")
    assert run(["reduce", "--spec", "2,2,2", "--seed", "3", "--out", out,
                "--word", "X^2 S Z^2 S"]) == 0
    data = sqio.read_json(out)
    assert "S" in data["invariants"]

    out = str(tmp_path / "dual.json")
    assert run(["dual", "--spec", "2,2,2", "--seed", "3", "--out", out]) == 0
    data = sqio.read_json(out)
    assert "note" in data and "framing" in data["note"]
    assert len(data["X"]) == 2


def test_bracket_query(capsys):
    assert run(["bracket", "x0.x1", "x0.x1", "--spec", "2,2,2", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(complex(*out["value"])) < 1e-12
    assert run(["bracket", "x0.??", "x0", "--spec", "2,2,2"]) == 2


def test_rank_accepts_coords_file(tmp_path):
    from spinquiver import random_coordinates
    from conftest import make_setup
    spec, params = make_setup(2, 2, 3)
    coords = random_coordinates(spec, params, seed=2)
    path = str(tmp_path / "coords.json")
    sqio.write_json(path, sqio.coords_to_dict(coords))
    out = str(tmp_path / "rank.json")
    q = "1.3,0.2;0.7,-0.4"
    assert run(["rank", "--spec", "2,2,3", "--q", q, "--coords", path,
                "--family", "H", "--out", out]) == 0
    assert sqio.read_json(out)["observed"] == 5


def test_report_command(tmp_path):
    out = str(tmp_path / "suite.json")
    assert run(["report", "--seed", "2", "--points", "2", "--out", out]) == 0
    rep = sqio.read_json(out)
    assert rep["summary"]["failed"] == 0
    assert rep["summary"]["total"] >= 10


def test_report_byte_stable_modulo_timestamp(tmp_path):
    f1, f2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    run(["report", "--seed", "2", "--points", "2", "--out", f1])
    run(["report", "--seed", "2", "--points", "2", "--out", f2])
    r1, r2 = sqio.read_json(f1), sqio.read_json(f2)
    r1["summary"].pop("timestamp")
    r2["summary"].pop("timestamp")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_point_round_trip_io(tmp_path):
    from conftest import make_point
    point, spec, params = make_point(3, 2, 2, seed=6)
    path = str(tmp_path / "p.json")
    sqio.write_json(path, sqio.point_to_dict(point, params))
    loaded, params2 = sqio.point_from_dict(sqio.read_json(path))
    assert params2.q == params.q
    for a, b in zip(point.X + point.Y + point.V + point.W,
                    loaded.X + loaded.Y + loaded.V + loaded.W):
        assert np.array_equal(a, b)


def test_rank_with_singular_lax_matrix_exits_1(tmp_path, capsys):
    # every c = 0 makes the Lax matrix B vanish, and H needs B^(-1)
    from spinquiver import random_coordinates
    from conftest import make_setup
    spec, params = make_setup(2, 2, 3)
    coords = random_coordinates(spec, params, seed=2)
    data = sqio.coords_to_dict(coords)
    data["c"] = sqio.encode_matrix(np.zeros_like(coords.c))
    path = str(tmp_path / "c0.json")
    sqio.write_json(path, data)
    assert run(["rank", "--spec", "2,2,3", "--family", "H", "--coords", path]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: the reduced families need an invertible B"]


def _singular_verify_point(case):
    """A (1,1,2) point file on which one of verify's inverses does not exist."""
    X = np.array([[1.3, 0.4], [0.2, 2.1]], dtype=complex)
    if case == "Z":     # Y = -X^(-1), so Z_0 = Y_0 + X_0^(-1) = 0
        Y, V, W = -np.linalg.inv(X), [[0.3, 0.5]], [[0.2], [0.1]]
    else:               # Id + W_1 V_1 = diag(0, 1)
        Y, V, W = np.zeros((2, 2)), [[1.0, 0.0]], [[-1.0], [0.0]]
    return {"spec": {"m": 1, "d": 1, "n": 2}, "q": [[0.7, 0.2]],
            "X": [sqio.encode_matrix(X)], "Y": [sqio.encode_matrix(Y)],
            "V": [sqio.encode_matrix(V)], "W": [sqio.encode_matrix(W)]}


@pytest.mark.parametrize("case, message", [("Z", "error: Z_0 is singular"),
                                           ("WV", "error: Id + W_1 V_1 is singular")])
def test_verify_reports_a_singular_inverse(tmp_path, case, message):
    path = str(tmp_path / "pt.json")
    sqio.write_json(path, _singular_verify_point(case))
    src = str(Path(spinquiver.__file__).resolve().parent.parent)
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path_var)
    out = subprocess.run([sys.executable, "-m", "spinquiver.cli", "verify", path],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert [line for line in out.stderr.splitlines() if line.startswith("error:")] == [message]


def test_coords_round_trip_io(tmp_path):
    from spinquiver import random_coordinates
    from conftest import make_setup
    spec, params = make_setup(2, 2, 3)
    coords = random_coordinates(spec, params, seed=4)
    data = sqio.coords_to_dict(coords)
    back = sqio.coords_from_dict(data)
    assert np.allclose(back.x, coords.x)
    assert np.allclose(back.a, coords.a)
    assert np.allclose(back.c, coords.c)


def test_readme_commands(tmp_path, monkeypatch, capsys):
    import pathlib
    import shlex
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert len(commands) == 9 and all(c[0] == "spinquiver" for c in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if out:
            json.loads(out)  # exactly one JSON document, else "Extra data"


def test_rank_without_out_prints_only_the_report(capsys):
    assert run(["rank", "--spec", "2,2,3", "--seed", "2", "--family", "G"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in out["records"]] == ["independence-rank-G"]


@pytest.mark.parametrize("tol, message", [
    ("moment", "--tol needs name=value"),
    ("moment=abc", "is not a number"),
    ("momnet=1e-30", "unknown tolerance 'momnet'; known: moment, theta, property"),
])
def test_tol_errors_exit_2(tmp_path, capsys, tol, message):
    out = tmp_path / "pt.json"
    assert run(["gen", "--tol", tol, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "pt.json", "--spec", "9,9,9"],
    ["verify", "pt.json", "--q", "1,0"],
    ["verify", "pt.json", "--seed", "5"],
    ["report", "--spec", "2,2,2"],
    ["report", "--q", "1,0"],
    ["bracket", "x0", "x0", "--tol", "moment=1"],
    ["bracket", "x0", "x0", "--out", "b.json"],
    ["rank", "--tol", "moment=1"],
    ["reduce", "--tol", "moment=1"],
], ids=" ".join)
def test_commands_reject_options_they_do_not_read(argv, capsys):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_argparse_errors_return_2(capsys):
    assert run(["gen", "--spec", "1,2"]) == 2
    assert "--spec needs m,d,n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, reads", [
    (["gen", "--tol", "theta=1e-30"], "moment"),
    (["commute", "--tol", "moment=1e-30"], "bracket"),
    (["report", "--tol", "drift=1e-30"], "moment, property"),
], ids=" ".join)
def test_tol_rejects_names_the_command_does_not_read(tmp_path, monkeypatch, capsys, argv, reads):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    name = argv[2].split("=")[0]
    assert capsys.readouterr().err == (f"error: this command does not read tolerance "
                                       f"{name!r}; it reads: {reads}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["commute", "--spec", "2,2,3", "--seed", "3"],
    ["commute", "--spec", "3,3,6", "--seed", "1", "--family", "1"],
], ids=" ".join)
def test_commute_measures_against_the_term_mass(argv):
    # a bracket cancels from terms of the size of its term mass, which sets its roundoff
    assert run(argv) == 0


def test_commute_measure_fails_across_families():
    # negative control: families 1 and 4 do not commute, and the term-mass
    # measure that passes within each family reports it far above tolerance
    from spinquiver import PointEngine, family_gradients
    from spinquiver.cli import DEFAULT_TOLS
    from conftest import make_point
    for m, d, n, seed in [(2, 2, 3, 3), (3, 3, 6, 1)]:
        point, spec, params = make_point(m, d, n, seed)
        eng = PointEngine(point, params)
        val, mass = eng.bracket_gradients(family_gradients(eng, 1, m, 0.0),
                                          family_gradients(eng, 4, m, 0.0), with_mass=True)
        assert abs(val) / max(1.0, mass) > 0.4 > DEFAULT_TOLS["bracket"]


def test_oracle_overflow_emits_no_runtime_warning(tmp_path, capsys):
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["flow", "--spec", "2,2,2", "--ham", "trZ", "--k", "2", "--time", "1.0",
                    "--eta", "0.3-0.2j", "--out", str(tmp_path / "fl")])
    assert code == 1
    assert "error: oracle singular at step 11" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("spec, seed, family", [("2,2,3", 3, 4), ("3,3,6", 1, 2), ("3,3,6", 1, 4)])
def test_commute_magnitudes_match_the_per_term_loop(tmp_path, spec, seed, family):
    # the CLI's all-pairs loop reads memoised gradient halves; the loop reads none
    from spinquiver import PointEngine, family_gradients
    from conftest import bracket_gradients_loop
    point_file, out = str(tmp_path / "pt.json"), str(tmp_path / "commute.json")
    assert run(["gen", "--spec", spec, "--seed", str(seed), "--out", point_file]) == 0
    assert run(["commute", "--spec", spec, "--seed", str(seed), "--family", str(family),
                "--out", out]) == 0
    point, params = sqio.point_from_dict(sqio.read_json(point_file))
    data = sqio.read_json(out)
    members = [(j, sqio.decode_complex(eta)) for j, eta in data["members"]]
    mags = np.array(data["bracket_magnitudes"])
    eng = PointEngine(point, params)
    grads = [family_gradients(eng, family, j, eta) for j, eta in members]
    for i in range(len(members)):
        for k in range(i + 1, len(members)):
            val, mass = bracket_gradients_loop(eng, dict(grads[i]), dict(grads[k]))
            assert mass > 0.0
            assert abs(mags[i, k] - abs(val)) <= 1e-15 * mass
            assert mags[k, i] == mags[i, k]


def test_rank_noise_floor_error_states_ratio_and_floor(capsys):
    assert run(["rank", "--spec", "4,3,6", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: largest sub-threshold singular value is [0-9.e+-]+ of the "
                     r"largest, above the noise floor 1e-11$", err, re.M), err
