"""CLI surface: subcommands, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from finslercheck import cli, errors

BASE = [sys.executable, "-m", "finslercheck"]


def run_cli(*args, **kw):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, **kw)


def test_verify_flat_model_passes():
    res = run_cli("verify", "--model", "k0", "--samples", "6", "--seed", "42")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["passed"] is True
    assert "verify: PASS" in res.stderr


def test_verify_is_byte_deterministic():
    a = run_cli("verify", "--model", "k0", "--samples", "5", "--seed", "42")
    b = run_cli("verify", "--model", "k0", "--samples", "5", "--seed", "42")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_curvature_subcommand_csv(tmp_path):
    out = tmp_path / "curv.csv"
    res = run_cli("curvature", "--model", "km4", "--samples", "5",
                  "--format", "csv", "--out", str(out))
    assert res.returncode == 0, res.stderr
    header = out.read_text().splitlines()[0]
    assert header.split(",")[:8] == ["index", "n", "t", "s", "r",
                                     "pairing_re", "pairing_im", "G"]
    assert header.split(",")[8] == "kf_closed"


def test_residual_subcommand_perturbed_fails(tmp_path):
    desc = {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0},
            "h_scale": 1.1}
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(desc))
    res = run_cli("residual", "--profile", str(profile), "--samples", "6")
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["passed"] is False


def test_classify_emits_witness_verdict(tmp_path):
    desc = {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0}}
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(desc))
    res = run_cli("classify", "--profile", str(profile), "--samples", "5")
    assert res.returncode == 0, res.stderr
    assert "weakly Kahler but not Kahler" in res.stderr


def test_missing_profile_is_config_error():
    res = run_cli("verify")
    assert res.returncode == 2


def test_unreadable_profile_is_config_error():
    res = run_cli("verify", "--profile", "/nonexistent/profile.json")
    assert res.returncode == 2


def test_bad_check_name_is_config_error():
    res = run_cli("verify", "--model", "k0", "--checks", "bogus")
    assert res.returncode == 2


def test_invalid_t_range_is_config_error():
    res = run_cli("verify", "--model", "km4", "--t-range", "0.5", "2.0",
                  "--samples", "4")
    assert res.returncode == 2


def test_models_subcommand():
    res = run_cli("models", "--samples", "4", "--seed", "1")
    assert res.returncode == 0, res.stderr
    assert res.stderr.count("PASS") == 3
    combined = json.loads(res.stdout)
    assert set(combined["models"]) == {"k4", "k0", "km4"}


def test_rejection_storm_is_numerical_error(tmp_path):
    # Hermitian f = e^{-3t} loses validity for t > 1/3: the sampler starves
    desc = {"family": "hermitian", "f": {"kind": "exp", "c": 1.0, "a": -3.0}}
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(desc))
    res = run_cli("verify", "--profile", str(profile),
                  "--t-range", "0.5", "1.0", "--samples", "5")
    assert res.returncode == 3
    assert "numerical error" in res.stderr


def assert_one_line_error(res, code, prefix):
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), res.stderr


BALL_EDGE = ("--model", "km4", "--c", "1", "--n", "2", "--t-range", "0.9", "0.99999")
STENCIL_REJECTED = ("numerical error: stencil point rejected: (t, s) = ({}) "
                    "outside validity region of randers profile")


@pytest.mark.parametrize("argv, where", [
    (("curvature", "--samples", "50", "--seed", "3"),
     "1.0002034051230442, 0.696987461709045"),
    # both stencils of sample 22 leave the ball: the chunked curvature stage
    # alone would name its curvature point, but nconn comes first in order
    (("verify", "--checks", "nconn,curvature", "--samples", "30", "--seed", "1"),
     "1.0002003814625955, 0.7345176220939209"),
], ids=["curvature", "verify-nconn-curvature"])
def test_stencil_leaving_the_ball_is_the_per_sample_error(argv, where):
    res = run_cli(*argv, *BALL_EDGE)
    assert_one_line_error(res, 3, "numerical error:")
    assert res.stderr == STENCIL_REJECTED.format(where) + "\n"


def test_bad_fd_step_is_config_error():
    res = run_cli("verify", "--model", "k0", "--fd-step", "2", "--samples", "2")
    assert_one_line_error(res, 2, "configuration error:")


def test_bad_fd_levels_is_config_error():
    res = run_cli("verify", "--model", "k0", "--fd-levels", "9", "--samples", "2")
    assert_one_line_error(res, 2, "configuration error:")


def test_models_bad_fd_levels_is_config_error():
    res = run_cli("models", "--fd-levels", "0", "--samples", "2")
    assert_one_line_error(res, 2, "configuration error:")


def test_models_unwritable_out_is_io_error(tmp_path):
    res = run_cli("models", "--samples", "2", "--out", str(tmp_path / "missing" / "x.json"))
    assert_one_line_error(res, 3, "numerical error: failed to write report")


def test_checks_is_verify_only():
    res = run_cli("curvature", "--model", "k4", "--checks", "wk_phi,lemma", "--samples", "2")
    assert res.returncode == 2
    assert "unrecognized arguments: --checks" in res.stderr


def test_models_honours_t_range():
    res = run_cli("models", "--t-range", "0.2", "0.5", "--samples", "2")
    assert res.returncode == 0, res.stderr
    for report in json.loads(res.stdout)["models"].values():
        assert report["config"]["sample"]["t_range"] == [0.2, 0.5]
        assert all(0.2 <= rec["t"] <= 0.5 for rec in report["records"])
    # (5, 9) leaves the k = -4 ball t < c = 1
    res = run_cli("models", "--t-range", "5", "9", "--samples", "2")
    assert_one_line_error(res, 2, "configuration error:")


ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.FinslerCheckError)
                 and cls is not errors.FinslerCheckError]
CONFIG_ERRORS = (errors.ConfigError, errors.InvalidCatalogEntry, errors.InvalidCurvatureTag)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_keeps_its_exit_code(error, monkeypatch, capsys):
    def fail(config):
        raise error("boom")

    monkeypatch.setattr(cli, "run_suite", fail)
    code = cli.main(["verify", "--model", "k0", "--samples", "2"])
    assert code == (2 if error in CONFIG_ERRORS else 3)
    prefix = "configuration error" if code == 2 else "numerical error"
    assert capsys.readouterr().err == f"{prefix}: boom\n"
