import math
from dataclasses import replace

import numpy as np
import pytest

import finslercheck as fc


def pytest_addoption(parser):
    parser.addoption("--quick", action="store_true",
                     help="shrink sample counts for a fast pass")


# one line per acceptance criterion, echoed after the run (capture-proof)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_points(profile, n=2, count=5, seed=7, t_range=None, s_range=(0.1, 0.9)):
    spec = fc.SampleSpec(n=n, count=count, seed=seed, t_range=t_range,
                         s_fraction_range=s_range)
    return fc.sample_domain(spec, profile)


def assert_same_records(got, want):
    """Two ``suite.Records`` are equal: the same n, fields and presence, and values bit for bit."""
    assert (got.n, got.fields) == (want.n, want.fields)
    assert np.array_equal(got.present, want.present)
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def assert_same_report(got, want):
    """Two ``SuiteReport``s are equal: their records as ``assert_same_records``, the rest by repr."""
    assert_same_records(got.records, want.records)
    assert repr(replace(got, records=None)) == repr(replace(want, records=None))


def slice_counts(total, per_call):
    """Base points per field call: ``per_call`` (at least one) at a time."""
    per_call = max(1, per_call)
    return [min(per_call, total - k) for k in range(0, total, per_call)]


def synthetic_profile(jet, value):
    """A MetricProfile from a hand-written jet(t, s, order) and value(t, s), valid everywhere."""
    return fc.MetricProfile({"family": "synthetic"}, (0.0, math.inf), "synthetic profile",
                            lambda t, s: True, lambda t, order: (),
                            lambda t, s, d: (True, True), lambda t, s, d: value(t, s),
                            lambda t, s, d, order: jet(t, s, order))


def catalog():
    """The profile catalog exercised by the oracle sweeps.

    Spans all families: the five Hermitian generators, the four weakly-Kahler
    Randers generators, the three constant-curvature models, and the perturbed
    (non-weakly-Kahler) witness.
    """
    return {
        "h-const": fc.euclidean_profile(),
        "h-linear": fc.hermitian_profile(fc.Linear(1.0)),
        "h-square": fc.hermitian_profile(fc.Power(1.0, 2.0)),
        "h-exp": fc.hermitian_profile(fc.Exponential(1.0)),
        "h-rational": fc.hermitian_profile(fc.Rational(1.0, 1.0)),
        "wk-linear": fc.wk_randers_profile(fc.Linear(1.0)),
        "wk-square": fc.wk_randers_profile(fc.Power(1.0, 2.0)),
        "wk-exp": fc.wk_randers_profile(fc.Exponential(1.0)),
        "wk-rational": fc.wk_randers_profile(fc.Rational(1.0, 1.0)),
        "model-k4": fc.model_profile(4, 1.0),
        "model-k0": fc.model_profile(0, 1.0),
        "model-km4": fc.model_profile(-4, 1.0),
        "perturbed": fc.wk_randers_profile(fc.Exponential(1.0), h_scale=1.1),
    }


CATALOG_NAMES = ["h-const", "h-linear", "h-square", "h-exp", "h-rational",
                 "wk-linear", "wk-square", "wk-exp", "wk-rational",
                 "model-k4", "model-k0", "model-km4", "perturbed"]

# generators with f > 0 and f' > 0 on the sampled window (rational needs t < 1)
POSITIVE_SLOPE_FS = [
    ("linear", fc.Linear(1.0), None),
    ("square", fc.Power(1.0, 2.0), None),
    ("exp", fc.Exponential(1.0), None),
    ("rational", fc.Rational(1.0, 1.0), (0.1, 0.9)),
]


@pytest.fixture(scope="session")
def profiles():
    return catalog()


@pytest.fixture
def euclidean():
    return fc.euclidean_profile()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
