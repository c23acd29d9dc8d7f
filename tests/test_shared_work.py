"""Each closed form is written once, and each sample builds its shared objects once."""

import numpy as np
import pytest

from finslercheck import curvature, numerics, suite, tensors
from finslercheck.cli import _SUBCOMMAND_CHECKS
from finslercheck.curvature import _order1_jets
from finslercheck.errors import DegenerateK1
from finslercheck.jets import Jet2
from finslercheck.profiles import MetricProfile
from finslercheck.sampling import SampleSpec
from finslercheck.suite import CHECK_NAMES, SuiteConfig, run_suite
from finslercheck.tensors import _spray_scalars, k_scalars

from conftest import CATALOG_NAMES, assert_same_records, make_points, slice_counts

K4 = {"family": "model", "k": 4, "c": 1.0}
RESIDUAL_CHECKS = _SUBCOMMAND_CHECKS["residual"]


def count_calls(monkeypatch, owner, name, *also):
    """Wrap ``owner.name`` (and the same name in the modules ``also``); return the call log."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for target in (owner,) + also:
        monkeypatch.setattr(target, name, counted)
    return calls


def run_k4(checks=CHECK_NAMES, count=3):
    return run_suite(SuiteConfig(profile=K4, sample=SampleSpec(n=2, count=count, seed=5),
                                 checks=checks))


class TestPerSampleWork:
    def test_verify_builds_levi_for_the_sample_and_its_unitary_image(self, monkeypatch):
        calls = count_calls(monkeypatch, tensors, "levi_closed", curvature)
        report = run_k4()
        assert len(report.records) == 3
        # one chunk: the samples' columns, then their unitary images
        sample, image = [pv for _, pv, *_ in calls]
        assert sample.t.tolist() == report.records.column("t").tolist()
        assert image.t == pytest.approx(sample.t)
        assert not np.allclose(image.z, sample.z)

    def test_verify_builds_the_spray_once_at_the_sample(self, monkeypatch):
        calls = count_calls(monkeypatch, tensors, "spray_coefficients")
        report = run_k4()
        assert [pv.t.tolist() for _, pv, *_ in calls] == [report.records.column("t").tolist()]

    def test_verify_chunk_builds_each_piece_once(self, monkeypatch):
        # per chunk of 3, 3 and 1 samples: k_scalars, levi_closed and
        # pseudoconvexity_check once over the samples' columns and once over
        # their unitary images
        whole = run_k4(count=7)
        monkeypatch.setattr(suite, "_chunk_size", lambda checks, n: 3)
        pieces = {"levi_closed": count_calls(monkeypatch, tensors, "levi_closed", curvature),
                  "k_scalars": count_calls(monkeypatch, tensors, "k_scalars"),
                  "pseudoconvexity_check": count_calls(monkeypatch, tensors,
                                                       "pseudoconvexity_check")}
        report = run_k4(count=7)
        assert_same_records(report.records, whole.records)
        ts = report.records.column("t").tolist()
        chunks = [ts[0:3], ts[3:6], ts[6:]]
        for name, calls in pieces.items():
            at = [np.atleast_1d(args[1].t if name == "levi_closed" else args[1]).tolist()
                  for args in calls]
            assert at[0::2] == chunks, name
            assert [len(t) for t in at[1::2]] == [3, 3, 1], name
            assert np.concatenate(at[1::2]) == pytest.approx(ts), name

    def test_one_field_call_per_oracle_per_slice(self, monkeypatch):
        from test_columns import field_columns
        whole = run_k4(count=7)
        monkeypatch.setattr(suite, "_chunk_size", lambda checks, n: 3)
        calls = field_columns(monkeypatch)
        run_k4(count=1)
        one = dict(calls)
        # two samples per nconn call, so a chunk of 3 takes two calls; the others
        # take what the same budget gives (the connection's Levi-matrix field
        # gives n^2 = 4 values per column, so it takes a quarter)
        monkeypatch.setattr(numerics, "FIELD_VALUES", 2 * one["nonlinear_connection_fd"])
        del calls[:]
        report = run_k4(count=7)
        assert_same_records(report.records, whole.records)
        values = {"nonlinear_connection_fd": 1, "levi_oracle": 1, "connection_coefficients": 4,
                  "_disc_curvature": 1}
        per_call = {name: numerics.FIELD_VALUES // k // one[name] for name, k in values.items()}
        assert per_call["nonlinear_connection_fd"] == 2 and min(per_call.values()) >= 1
        for name, step in per_call.items():
            sizes = [size for field, size in calls if field == name]
            assert sizes == [k * one[name] for size in (3, 3, 1)
                             for k in slice_counts(size, step)], name
            # within the budget, unless one base point alone exceeds it
            assert all(size * values[name] <= numerics.FIELD_VALUES or size == one[name]
                       for size in sizes), name
        assert len(calls) == sum(len(slice_counts(size, step)) for size in (3, 3, 1)
                                 for step in per_call.values())

    def test_nconn_and_spray_compat_share_the_fd_connection(self, monkeypatch):
        calls = count_calls(monkeypatch, tensors, "nonlinear_connection_fd")
        report = run_k4(checks=("nconn", "spray_compat"))
        assert [pv.t.tolist() for _, pv, *_ in calls] == [report.records.column("t").tolist()]

    @pytest.mark.parametrize("checks", [("curvature",), RESIDUAL_CHECKS, CHECK_NAMES],
                             ids=["curvature", "residual", "verify"])
    def test_one_order3_jet_per_chunk(self, monkeypatch, checks):
        whole = run_k4(checks=checks, count=7)
        monkeypatch.setattr(suite, "_chunk_size", lambda checks, n: 3)
        raw = count_calls(monkeypatch, MetricProfile, "raw_jet")
        smooth = count_calls(monkeypatch, MetricProfile, "smooth_jet")
        report = run_k4(checks=checks, count=7)
        order3 = [t for _, t, _, order in raw if order == 3]
        assert [len(t) for t in order3] == [3, 3, 1]
        assert np.concatenate(order3).tolist() == report.records.column("t").tolist()
        assert all(order < 3 for *_, order in smooth)
        assert_same_records(report.records, whole.records)
        if "curvature" in checks:
            assert len(report.records.column("kf_wk")) == len(report.records)

    def test_residual_chunk_takes_one_uw_transform(self, monkeypatch):
        # wk_uw and lemma share the chunk's U/W domain mask and U/W data
        whole = run_k4(checks=RESIDUAL_CHECKS, count=7)
        monkeypatch.setattr(suite, "_chunk_size", lambda checks, n: 3)
        uw_data = count_calls(monkeypatch, curvature, "_uw_data")
        valid = count_calls(monkeypatch, MetricProfile, "is_valid")
        report = run_k4(checks=RESIDUAL_CHECKS, count=7)
        assert [len(t) for _, t, _ in uw_data] == [3, 3, 1]
        # the sampler's mask over its first attempts, then one per chunk
        assert [len(t) for _, t, _ in valid] == [7, 3, 3, 1]
        assert_same_records(report.records, whole.records)

    def test_shared_objects_give_the_same_bits(self, profiles):
        prof = profiles["wk-exp"]
        for pv in make_points(prof, n=3, count=2, seed=9):
            levi = tensors.levi_closed(prof, pv)
            spray = tensors.spray_coefficients(prof, pv, levi=levi)
            alone, shared = curvature.kahler_classify(prof, pv), \
                curvature.kahler_classify(prof, pv, levi=levi, spray=spray)
            assert alone == shared
            assert (tensors.nonlinear_connection_fd(prof, pv)
                    == tensors.nonlinear_connection_fd(prof, pv, levi=levi)).all()
            jet = prof.raw_jet(pv.t, pv.s, 3)
            assert curvature.holomorphic_curvature_closed(prof, pv) == \
                curvature.holomorphic_curvature_closed(prof, pv, jet)
            assert curvature.holomorphic_curvature_wk(prof, pv) == \
                curvature.holomorphic_curvature_wk(prof, pv, jet)


class TestSprayScalarsOnJets:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_value_coefficients_match_k_scalars_bits(self, name, profiles):
        prof = profiles[name]
        for pv in make_points(prof, n=3, count=5, seed=13):
            jets = _spray_scalars(**_order1_jets(prof.raw_jet(pv.t, pv.s, 3), pv.t, pv.s))
            assert all(isinstance(k, Jet2) for k in jets)
            assert [k.value for k in jets] == list(k_scalars(prof, pv.t, pv.s))

    def test_degenerate_k1_raises_on_jets(self):
        # phi = 3/4 - (s - 1/2)/2 around (t, s) = (2, 1/2): head = phi + (t-s) phi_s = 0
        t, s = Jet2.var_t(2.0, 1), Jet2.var_s(0.5, 1)
        zero = Jet2.constant(0.0, 1)
        phi = Jet2(1, [0.75, 0.0, -0.5])
        phi_s = Jet2.constant(-0.5, 1)
        with pytest.raises(DegenerateK1, match=r"k1 = 0.0 .* phi\^2 = 0.5625"):
            _spray_scalars(t, s, phi, zero, phi_s, zero, zero)
