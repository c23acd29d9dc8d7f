"""CLI surface: subcommands, exit codes, determinism."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finslercheck import cli, errors
from finslercheck.sampling import MAX_N
from finslercheck.suite import CHECK_NAMES

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


def main_in_process(argv):
    """cli.main(argv) in this interpreter: (exit code, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


def test_dimension_above_the_bound_is_config_error():
    code, lines = main_in_process(["verify", "--model", "k4", "--samples", "1",
                                   "--n", str(MAX_N + 1)])
    assert (code, lines) == (2, [f"configuration error: dimension must lie in [2, {MAX_N}], "
                                 f"got {MAX_N + 1}"])


def test_underflowing_randers_radicand_rejects_every_draw():
    # k = 0 with c = 1e-300: a * b = c^2 t s underflows, so no draw is valid
    code, lines = main_in_process(["verify", "--model", "k0", "--c", "1e-300", "--samples", "5"])
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("numerical error: ")
    assert "draws rejected" in lines[0]


def test_overflowing_derivatives_reject_every_draw(tmp_path):
    # f = t^-0.5: near t = 1e-300, f' = -t^-1.5 / 2 leaves float range, so no draw is valid
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"family": "hermitian",
                                   "f": {"kind": "power", "c": 1.0, "p": -0.5}}))
    code, lines = main_in_process(["verify", "--profile", str(profile),
                                   "--t-range", "1e-300", "1e-299", "--samples", "3"])
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("numerical error: ")
    assert lines[0].endswith("draws rejected")


@pytest.mark.parametrize("desc, message", [
    ({"family": "model", "k": 4.5, "c": 1}, "model curvature must be +4, 0 or -4, got 4.5"),
    ({"family": "model", "k": "4", "c": 1}, "model curvature must be +4, 0 or -4, got '4'"),
    ({"family": "model", "k": True, "c": 1}, "model curvature must be +4, 0 or -4, got True"),
    ({"family": "model", "k": 4, "c": True}, "model profile needs c > 0, got True"),
], ids=["k-4.5", "k-string", "k-bool", "c-bool"])
def test_bad_model_descriptor_is_config_error(desc, message, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(desc))
    code, lines = main_in_process(["curvature", "--profile", str(profile), "--samples", "2"])
    assert code == 2
    assert lines == [f"configuration error: profile descriptor rejected: {message}"]


# --- fuzz: malformed descriptors and option values never escape as exceptions ---

PROFILE = "<profile file>"
JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
                 st.lists(st.integers(-2, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2))
NUMBERS = st.one_of(st.integers(-3, 5), st.floats(-3.0, 5.0), st.floats(), JUNK)
KINDS = ["constant", "linear", "power", "exp", "rational", "sum", "scaled", "wk-g", "wk-h"]


def _with_junk_keys(dicts):
    """Each dict, sometimes with one more key of junk."""
    return st.builds(lambda extra, d: {**extra, **d}, st.dictionaries(
        st.text(max_size=3), JUNK, max_size=1), dicts)


FUNCTIONS = st.recursive(
    _with_junk_keys(st.fixed_dictionaries(
        {"kind": st.one_of(st.sampled_from(KINDS), JUNK)},
        optional={key: NUMBERS for key in ("c", "p", "a", "b", "factor")})),
    lambda inner: st.one_of(inner, JUNK, _with_junk_keys(st.fixed_dictionaries(
        {"kind": st.sampled_from(KINDS)},
        optional={"base": inner, "factor": NUMBERS,
                  "parts": st.one_of(st.lists(inner, max_size=3), inner, JUNK)}))),
    max_leaves=4)
DESCRIPTORS = st.one_of(JUNK, _with_junk_keys(st.fixed_dictionaries({}, optional={
    "family": st.one_of(st.sampled_from(["hermitian", "randers", "wk-randers", "model"]), JUNK),
    "f": FUNCTIONS, "g": FUNCTIONS, "h": FUNCTIONS, "parts": FUNCTIONS,
    "k": st.one_of(st.sampled_from([4, 0, -4, 4.0]), NUMBERS),
    "c": NUMBERS, "h_scale": NUMBERS})))

# numbers argparse reads as option values; "-inf" and "-1e-05" would read as flags
# after a space, so single values go as --name=value and pairs avoid them
FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, 0.0, -1.0, 1e-300, 1e300, 0.5, 2.0]),
                   st.floats(-2.0, 3.0).map(lambda x: round(x, 3)))
OPTIONS = st.fixed_dictionaries({}, optional={
    "--samples": st.integers(-2, 3),           # at most 3 samples and n at most 8:
    # the stencils grow fast with n; an n above MAX_N exits 2 before sampling
    "--n": st.one_of(st.integers(-1, 8), st.sampled_from([MAX_N + 1, 200, 10**9])),
    "--c": st.one_of(st.floats(), FLOATS),
    "--fd-step": st.one_of(st.floats(), FLOATS),
    "--fd-levels": st.integers(-1, 6),
    "--t-range": st.tuples(FLOATS, FLOATS),
    "--s-range": st.tuples(FLOATS, FLOATS),
    "--checks": st.lists(st.sampled_from(CHECK_NAMES + ("bogus", "", " ")), max_size=3)
                .map(",".join),
})


@st.composite
def invocations(draw):
    """(argv, descriptor): argv names PROFILE where the descriptor's file goes."""
    command = draw(st.sampled_from(["verify", "curvature", "residual", "classify", "models"]))
    argv, desc = [command], None
    if command != "models":
        if draw(st.booleans()):
            argv += ["--model", draw(st.sampled_from(["k4", "k0", "km4"]))]
        else:
            desc = draw(DESCRIPTORS)
            argv += ["--profile", PROFILE]
    for name, value in draw(OPTIONS).items():
        if name == "--checks" and command != "verify":
            continue
        if isinstance(value, tuple):
            argv += [name, *map(repr, value)]
        else:
            argv.append(f"{name}={value!r}" if name != "--checks" else f"{name}={value}")
    return argv, desc


@given(case=invocations())
@example(case=(["verify", "--model", "k0", "--c=1e-300", "--samples=3"], None))
@example(case=(["curvature", "--profile", PROFILE, "--samples=2"],
               {"family": "model", "k": "4", "c": 1}))
@example(case=(["curvature", "--profile", PROFILE, "--samples=2"],
               {"family": "model", "k": 4.5, "c": 1}))
# a 1-D derivative overflowing far out, and a non-finite field value in n = 2
@example(case=(["curvature", "--model", "k0", "--t-range", "0.0", "1e+300"], None))
@example(case=(["classify", "--model", "k0", "--c=1e+300"], None))
# a sample replayed alone, whose array pieces overflow, warns nothing
@example(case=(["classify", "--model", "k0", "--c=1e+300", "--samples=3"], None))
@example(case=(["models", f"--n={10**9}"], None))
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_input_exits_with_one_line(case, tmp_path_factory):
    argv, desc = case
    if desc is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz-profile.json"
        path.write_text(json.dumps(desc))
        argv = [str(path) if arg == PROFILE else arg for arg in argv]
    code, lines = main_in_process(argv)
    assert code in (0, 1, 2, 3)
    if any(arg.startswith("--n=") and int(arg[4:]) > MAX_N for arg in argv):
        assert code == 2
    if code in (2, 3):
        prefix = "configuration error: " if code == 2 else "numerical error: "
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
