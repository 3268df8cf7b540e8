"""Command-line interface: grammar, exit codes, JSON I/O, reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genimm
from genimm import cli, invariants, numtopo, qform
from genimm.invariants import ImmersionState5, Component5
from genimm.surfaces import rp3_fixture


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# dispatch and exit codes


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_command_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "qform", "brown", "--space", "/nonexistent")
    assert code == 2
    assert "/nonexistent" in err


def test_malformed_json_reports_location(capsys, tmp_path):
    bad = tmp_path / "space.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "qform", "brown", "--space", str(bad))
    assert code == 2
    assert "space.json" in err


# ---------------------------------------------------------------------------
# qform / surface


def test_qform_brown_round_trip(capsys, tmp_path):
    space = qform.direct_sum(qform.p_plus(), qform.p_plus())
    path = tmp_path / "space.json"
    path.write_text(space.to_json())
    code, out, _ = run(capsys, "qform", "brown", "--space", str(path),
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"schema": 1, "dim": 2, "brown": 2}


def test_qform_split_flag(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(qform.t_zero().to_json())
    code, out, _ = run(capsys, "qform", "split", "--space", str(path))
    assert code == 0 and "yes" in out


def test_surface_info(capsys, tmp_path):
    desc = rp3_fixture().surface
    path = tmp_path / "surface.json"
    path.write_text(desc.to_json())
    code, out, _ = run(capsys, "surface", "info", "--surface", str(path),
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["euler"] == 1
    assert data["orientable"] is False
    assert data["beta"] == 1


def test_surface_info_rejects_unknown_strata_key(capsys, tmp_path):
    data = json.loads(rp3_fixture().surface.to_json())
    data["strata"]["quintuple_points"] = 0
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "surface", "info", "--surface", str(path))
    assert code == 2
    assert "quintuple_points" in err


def test_surface_info_rejects_a_string_count(capsys, tmp_path):
    data = json.loads(rp3_fixture().surface.to_json())
    data["strata"]["quadruple_points"] = "2"
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "surface", "info", "--surface", str(path))
    assert code == 2 and out == ""
    assert err.startswith("genimm: ") and "quadruple_points" in err


# ---------------------------------------------------------------------------
# family / numtopo


def test_family_geometry_summary(capsys):
    code, out, _ = run(capsys, "family", "--m", "-1/2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == "-1/2"
    assert data["preimage_circles"] == 1
    assert data["preimage_connected"] is True
    assert data["double_point_radius"] == pytest.approx(0.78)


def test_family_integer_member_has_two_circles(capsys):
    code, out, _ = run(capsys, "family", "--m", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["preimage_circles"] == 2
    assert data["preimage_connected"] is False


def test_numtopo_degree_at_missed_value(capsys):
    code, out, _ = run(capsys, "numtopo", "degree", "--m", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 0 and data["preimages"] == 0


def test_numtopo_hopf(capsys):
    code, out, _ = run(capsys, "numtopo", "hopf", "--m", "1/2", "--json")
    assert code == 0
    assert json.loads(out)["hopf"] == -1


def test_numtopo_hopf_exits_1_when_the_linking_engines_disagree(
        capsys, monkeypatch):
    real = numtopo.spherical_cone_link
    monkeypatch.setattr(numtopo, "spherical_cone_link",
                        lambda *args, **kwargs: real(*args, **kwargs) + 1)
    code, out, err = run(capsys, "numtopo", "hopf", "--m", "1/2")
    assert code == 1
    assert out == ""
    assert "check failed" in err and "linking engines disagree" in err


_ROW = "[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]"


@pytest.mark.parametrize("text, message", [
    ('{"schema": 1, "points": [[0, 0], [1, 1]]}', "n x 5"),
    ("5", "expected a JSON object"),
    ('{"points": [["a", "b", "c", "d", "e"]]}', "n x 5"),
    ('{"points": [%s, [0, 1, 0, 0, true]]}' % _ROW, "JSON numbers"),
    ('{"points": [%s, [0, 1, 0, 0]]}' % _ROW, "n x 5"),
    ('{"points": [%s, [0, 1, 0, 0, NaN]]}' % _ROW, "finite"),
    ('{"points": [%s]}' % _ROW, "n >= 3"),
    ('{"points": [%s, [0, 1, 0, 0, 0]], "closed": true}' % _ROW,
     "unknown key"),
], ids=["two-columns", "not-an-object", "strings", "boolean", "ragged", "nan",
        "two-vertices", "unknown-key"])
def test_numtopo_link_rejects_bad_curve(capsys, tmp_path, text, message):
    path = tmp_path / "curve.json"
    path.write_text(text)
    code, _, err = run(capsys, "numtopo", "link", "--m", "1/2",
                       "--curve", str(path))
    assert code == 2
    assert err.startswith("genimm: ") and message in err


def test_numtopo_link_counts_a_meridian(capsys, tmp_path):
    # a small circle about a point of the round part of the image, in its
    # normal plane spanned by the radial direction and e5
    p = np.array([0.9, 0.0, np.sqrt(0.19), 0.0, 0.0])
    t = np.linspace(0, 2 * np.pi, 400, endpoint=False)[:, None]
    curve = p + 0.05 * (np.cos(t) * p + np.sin(t) * np.eye(5)[4])
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"schema": 1, "points": curve.tolist()}))
    code, out, _ = run(capsys, "numtopo", "link", "--m", "1/2",
                       "--curve", str(path))
    assert code == 0
    assert out.startswith("link with the image 3-sphere = -1\n")


def test_numtopo_link_rejects_a_curve_through_the_image(capsys, tmp_path):
    # vertex 0 is the image point p of the round part
    p = np.array([0.9, 0.0, np.sqrt(0.19), 0.0, 0.0])
    t = np.linspace(0, 2 * np.pi, 40, endpoint=False)[:, None]
    curve = p + 0.05 * ((np.cos(t) - 1) * np.eye(5)[1]
                        + np.sin(t) * np.eye(5)[4])
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"schema": 1, "points": curve.tolist()}))
    code, out, err = run(capsys, "numtopo", "link", "--m", "1/2",
                         "--curve", str(path))
    assert code == 2
    assert out == ""
    assert "too close to the image" in err


# ---------------------------------------------------------------------------
# invariants


def test_invariants_class_embeddable(capsys):
    code, out, _ = run(capsys, "invariants", "class", "--omega", "24")
    assert code == 0
    assert "embeddable" in out and "sigma=1" in out


def test_invariants_class_generator(capsys):
    code, out, _ = run(capsys, "invariants", "class", "--omega", "1",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["embeddable"] is False
    assert (data["lambda3"], data["beta"]) == (2, 3)


def test_invariants_class_negative_omega(capsys):
    code, out, _ = run(capsys, "invariants", "class", "--omega", "-24",
                       "--json")
    assert code == 0
    assert json.loads(out)["sigma"] == -1


def test_invariants_family_row(capsys):
    code, out, _ = run(capsys, "invariants", "family", "--m", "3/2",
                       "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row == {"m": "3/2", "omega": -3, "lk": -6, "lambda": 0,
                   "tau": 3, "J": 1, "L": -2, "St": -3,
                   "embeddable": False, "mode": "closed-form"}


def test_invariants_state_file(capsys, tmp_path):
    state = ImmersionState5(1, 2, (Component5(True, 1),))
    path = tmp_path / "state.json"
    path.write_text(state.to_json())
    code, out, _ = run(capsys, "invariants", "state", "--state", str(path),
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == 2 and data["St"] == 1 and data["J"] == 1


def test_invariants_state_rejects_component_without_twist_class(capsys,
                                                                 tmp_path):
    data = json.loads(ImmersionState5(1, 2, (Component5(True, 1),)).to_json())
    del data["components"][0]["twist_class"]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "invariants", "state", "--state", str(path))
    assert code == 2
    assert "twist_class" in err


@pytest.mark.parametrize("key,value", [("twist_class", None),
                                       ("preimage_connected", "false")])
def test_invariants_state_rejects_wrong_value_types(capsys, tmp_path, key,
                                                    value):
    data = json.loads(ImmersionState5(1, 2, (Component5(True, 1),)).to_json())
    data["components"][0][key] = value
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "invariants", "state", "--state", str(path))
    assert code == 2 and out == ""
    assert err.startswith("genimm: ") and key in err


# ---------------------------------------------------------------------------
# strata


def test_strata_verify_first_order_ok(capsys):
    code, out, _ = run(capsys, "strata", "verify", "--invariant", "J",
                       "--paths", "200", "--seed", "3")
    assert code == 0
    assert "ok" in out


def test_strata_verify_custom_affine(capsys):
    code, out, _ = run(capsys, "strata", "verify", "--invariant", "custom",
                       "--affine", "2,-3,5", "--paths", "150", "--json")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_strata_custom_requires_affine(capsys):
    code, _, err = run(capsys, "strata", "verify", "--invariant", "custom")
    assert code == 2
    assert "--affine" in err


@pytest.mark.parametrize("action", ["verify", "invariance"])
def test_strata_negative_seed_is_a_usage_error(capsys, action):
    code, out, err = run(capsys, "strata", action, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "genimm: --seed must be non-negative\n"


def test_negative_config_seed_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "genimm.cfg"
    cfg.write_text("seed = -1\n")
    code, _, err = run(capsys, "--config", str(cfg), "strata", "verify")
    assert code == 2
    assert "seed must be a non-negative integer" in err


def test_strata_invariance_finds_witness(capsys):
    code, out, _ = run(capsys, "strata", "invariance", "--invariant", "J",
                       "--paths", "50", "--events", "5", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["violations"]
    assert data["violations"][0]["path"]["schema"] == 1


def test_strata_mu_runs_on_4_space_paths(capsys):
    code, out, _ = run(capsys, "strata", "invariance", "--invariant", "mu",
                       "--paths", "100", "--events", "4")
    assert code == 0
    assert "ok" in out


def test_strata_space_mismatch_rejected(capsys):
    code, _, err = run(capsys, "strata", "verify", "--invariant", "mu",
                       "--space", "5")
    assert code == 2
    assert "4" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--invariant", "custom", "--affine", "0,0,0", "--space", "4"),
    ("invariance", "--invariant", "custom", "--affine", "2,-1,3",
     "--space", "4"),
    ("verify", "--invariant", "J", "--space", "4"),
    ("invariance", "--invariant", "lambda", "--space", "4"),
])
def test_strata_5_space_invariants_reject_4_space_paths(capsys, argv):
    code, out, err = run(capsys, "strata", *argv)
    assert code == 2
    assert out == ""
    assert "5-space" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--events", "1"),
    ("verify", "--events", "-2"),
    ("verify", "--paths", "0"),
    ("verify", "--paths", "-5"),
    ("invariance", "--events", "0"),
    ("invariance", "--events", "-1"),
    ("invariance", "--paths", "0"),
])
def test_strata_rejects_counts_that_check_nothing(capsys, argv):
    code, out, err = run(capsys, "strata", *argv)
    assert code == 2
    assert out == ""
    assert "--events" in err or "--paths" in err


def test_strata_invariance_accepts_one_event(capsys):
    code, out, _ = run(capsys, "strata", "invariance", "--invariant",
                       "lambda", "--events", "1", "--paths", "3")
    assert code == 0
    assert "3 configurations checked" in out


def test_strata_report_that_checked_nothing_fails(capsys):
    # seed 2 is the least seed whose one path skips: it draws a birth and
    # then a merge of the new circle with the start's only circle, and a
    # merge does not apply at a start with one circle
    code, out, _ = run(capsys, "strata", "verify", "--paths", "1",
                       "--seed", "2")
    assert code == 1
    assert "0 configurations checked (1 skipped): nothing was checked" in out
    code, out, _ = run(capsys, "strata", "verify", "--paths", "1",
                       "--seed", "2", "--json")
    assert code == 1
    assert json.loads(out)["checked"] == 0


# ---------------------------------------------------------------------------
# reports


def test_report_covers_the_whole_range(capsys):
    code, out, _ = run(capsys, "report", "paper-table",
                       "--m-range", "-2..2", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["m"] for r in rows] == ["-2", "-3/2", "-1", "-1/2", "0",
                                      "1/2", "1", "3/2", "2"]
    for row in rows:
        assert row["lk"] == 2 * row["omega"]
        assert row["St"] == row["omega"]
        assert row["embeddable"] == (row["omega"] % 24 == 0)


def test_report_is_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "report", "paper-table", "--out", str(a))[0] == 0
    assert run(capsys, "report", "paper-table", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"closed-form" in a.read_bytes()


@pytest.mark.parametrize("target", ["missing/dir/t.txt", "."],
                         ids=["missing-directory", "directory"])
def test_report_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path,
                                                       target):
    path = tmp_path / target
    code, out, err = run(capsys, "report", "paper-table", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"genimm: cannot write {path}: ")


def test_unwritable_out_fails_before_the_table_is_built(capsys, tmp_path,
                                                       monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("the table was built before --out was opened")

    monkeypatch.setattr(invariants, "second_column_hopf", not_called)
    path = tmp_path / "missing" / "dir" / "t.txt"
    code, out, err = run(capsys, "report", "paper-table", "--numeric",
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"genimm: cannot write {path}: ")


def test_report_out_holds_the_stdout_bytes(capsys, tmp_path):
    path = tmp_path / "t.txt"
    for extra in ((), ("--json",)):
        code, out, _ = run(capsys, "report", "paper-table", *extra)
        assert code == 0
        assert run(capsys, "report", "paper-table", *extra,
                   "--out", str(path)) == (0, "", "")
        assert path.read_text(encoding="utf-8") == out


def test_numeric_report_traces_the_hopf_fibers_once(capsys, monkeypatch):
    calls = []
    hopf_invariant = numtopo.hopf_invariant

    def counted(*args, **kwargs):
        calls.append(args)
        return hopf_invariant(*args, **kwargs)

    monkeypatch.setattr(numtopo, "hopf_invariant", counted)
    argv = ["report", "paper-table", "--m-range", "0..1/2", "--json"]
    code, out, _ = run(capsys, *argv, "--numeric")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["mode"] for r in rows] == ["both-agree", "both-agree"]
    closed = json.loads(run(capsys, *argv)[1])["rows"]
    assert ([{**r, "mode": None} for r in rows]
            == [{**r, "mode": None} for r in closed])
    assert len(calls) == 1


def test_report_rejects_bad_range(capsys):
    code, _, err = run(capsys, "report", "paper-table", "--m-range", "2..-2")
    assert code == 2
    assert "empty" in err


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_flag_changes_conventions(capsys, tmp_path):
    cfg = tmp_path / "genimm.cfg"
    cfg.write_text("beta_generator = 5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "invariants", "class",
                       "--omega", "1", "--json")
    assert code == 0
    assert json.loads(out)["beta"] == 5


def test_config_env_var_is_honoured(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "genimm.cfg"
    cfg.write_text("beta_generator = 7\n")
    monkeypatch.setenv("GENIMM_CONFIG", str(cfg))
    code, out, _ = run(capsys, "invariants", "class", "--omega", "1",
                       "--json")
    assert code == 0
    assert json.loads(out)["beta"] == 7


def test_qform_cap_from_config_is_an_input_error(capsys, tmp_path):
    # only the enumeration is capped; brown and split answer at any dim
    cfg = tmp_path / "genimm.cfg"
    cfg.write_text("max_qform_dim = 3\n")
    path = tmp_path / "space.json"
    path.write_text(qform.direct_sum_many([qform.p_plus()] * 4).to_json())
    for action, expected in (("brown", "brown = 4 (dim 4)\n"),
                             ("split", "split: no\n")):
        code, out, _ = run(capsys, "--config", str(cfg), "qform", action,
                           "--space", str(path))
        assert (code, out) == (0, expected), action
    code, out, err = run(capsys, "--config", str(cfg), "qform", "table",
                         "--space", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("genimm: ") and "cap 3" in err


def test_qform_internal_error_is_not_an_input_error(capsys, tmp_path,
                                                    monkeypatch):
    def broken(space, config):
        raise ValueError("Gauss sum does not factor")

    monkeypatch.setattr(qform, "brown", broken)
    path = tmp_path / "space.json"
    path.write_text(qform.p_plus().to_json())
    with pytest.raises(ValueError, match="does not factor"):
        cli.main(["qform", "brown", "--space", str(path)])


def test_bad_config_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "genimm.cfg"
    cfg.write_text("no_such_key = 3\n")
    code, _, err = run(capsys, "--config", str(cfg), "family", "--m", "0")
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize("key", ["trace_step", "fd_step"])
def test_zero_step_in_config_is_a_usage_error(capsys, tmp_path, key):
    # with trace_step = 0 the fiber tracer would never cover a seed
    cfg = tmp_path / "genimm.cfg"
    cfg.write_text(f"{key} = 0\n")
    code, out, err = run(capsys, "--config", str(cfg), "numtopo", "hopf",
                         "--m", "1/2")
    assert (code, out) == (2, "")
    assert "config error" in err and key in err


@pytest.mark.parametrize("key, value", [
    ("degree_grid", 0), ("curve_points", 2), ("apex_retries", 0)])
def test_count_below_its_least_value_is_a_usage_error(capsys, tmp_path, key,
                                                      value):
    cfg = tmp_path / "genimm.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run(capsys, "--config", str(cfg), "numtopo", "hopf",
                         "--m", "1/2")
    assert (code, out) == (2, "")
    assert "config error" in err and key in err


@pytest.mark.parametrize("key, value, argv", [
    ("trace_step", "inf", ("numtopo", "hopf", "--m", "1/2")),
    ("newton_tol", "inf", ("numtopo", "degree", "--m", "1/2")),
    ("kink_r2", "inf", ("family", "--m", "1/2")),
    ("max_qform_dim", "-3", ("qform", "table", "--space", "-")),
])
def test_unbounded_config_value_is_a_usage_error(capsys, tmp_path, key,
                                                 value, argv):
    cfg = tmp_path / "genimm.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert (code, out) == (2, "")
    assert "config error" in err and key in err


# ---------------------------------------------------------------------------
# dependencies: scipy serves the numeric engines only


def run_python(code):
    """Run code in a fresh interpreter that imports this genimm."""
    env = dict(os.environ)
    src = str(Path(genimm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                     env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_importing_the_cli_does_not_load_scipy():
    done = run_python("import sys, genimm.cli\n"
                      "assert 'scipy' not in sys.modules, 'scipy loaded'\n")
    assert done.returncode == 0, done.stderr


def test_combinatorial_path_runs_without_scipy():
    # a None entry makes every import of scipy raise ImportError
    done = run_python("""
import sys
sys.modules["scipy"] = None
import genimm.cli, genimm.strata
from genimm import qform, strata
from genimm.invariants import J, family_state

paths = strata.random_paths(family_state("1/2"), 2, 300, seed=0)
report = strata.verify_first_order(J, paths)
assert report.ok and report.checked > 0, report.summary()
assert qform.brown(qform.direct_sum(qform.p_plus(), qform.p_plus())) == 2
""")
    assert done.returncode == 0, done.stderr
