"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import subprocess
import sys
import time

import numpy as np

import finslercheck as fc
from finslercheck.suite import SuiteConfig, run_suite
from finslercheck.tensors import metric_scalars

from conftest import ACCEPTANCE_LINES, POSITIVE_SLOPE_FS, catalog, make_points

CLASSIFICATION_FS = [
    ("t", fc.Linear(1.0)),
    ("t^2", fc.Power(1.0, 2.0)),
    ("e^t", fc.Exponential(1.0)),
    ("t/(1+t^2)", fc.Rational(1.0, 1.0)),
]


def announce(cid: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_uniformization_models():
    """Constant curvature of the three models at every (c, n), under 10 s."""
    worst = {"closed": 0.0, "wk": 0.0, "disc": 0.0, "std": 0.0}
    t0 = time.perf_counter()
    for k in (4, 0, -4):
        for c in (0.5, 1.0, 2.0):
            for n in (2, 3):
                config = SuiteConfig(profile={"family": "model", "k": k, "c": c},
                                     sample=fc.SampleSpec(n=n, count=200, seed=42),
                                     checks=("curvature",))
                rep = run_suite(config)
                assert len(rep.records) == 200
                detail = rep.criteria["curvature"]["detail"]
                worst["closed"] = max(worst["closed"], detail["max_closed_minus_k"])
                worst["wk"] = max(worst["wk"], detail["max_wk_minus_k"])
                worst["disc"] = max(worst["disc"], detail["max_disc_minus_k"])
                worst["std"] = max(worst["std"], detail["stddev_closed"])
    elapsed = time.perf_counter() - t0
    ok = (worst["closed"] < 1e-6 and worst["wk"] < 1e-6
          and worst["disc"] < 1e-4 and worst["std"] < 1e-8 and elapsed < 10.0)
    announce("1 (uniformization models)", ok,
             f"max|kf_closed-k|={worst['closed']:.2e} (<1e-6), "
             f"max|kf_wk-k|={worst['wk']:.2e} (<1e-6), "
             f"max|kf_disc-k|={worst['disc']:.2e} (<1e-4), "
             f"stddev={worst['std']:.2e} (<1e-8), runtime={elapsed:.1f}s (<10s)")


def test_criterion_2_classification():
    """Weakly-Kahler residuals vanish on the classified family, not off it."""
    worst_clean = 0.0
    worst_frac = 1.0
    for name, f in CLASSIFICATION_FS:
        clean = fc.wk_randers_profile(f)
        for pv in make_points(clean, count=100, seed=42):
            worst_clean = max(worst_clean,
                              abs(fc.wk_residual_phi(clean, pv.t, pv.s)),
                              abs(fc.wk_residual_uw(clean, pv.t, pv.s)))
        perturbed = fc.wk_randers_profile(f, h_scale=1.1)
        pts = make_points(perturbed, count=100, seed=42)
        frac_phi = np.mean([abs(fc.wk_residual_phi(perturbed, pv.t, pv.s)) > 1e-3
                            for pv in pts])
        frac_uw = np.mean([abs(fc.wk_residual_uw(perturbed, pv.t, pv.s)) > 1e-3
                           for pv in pts])
        worst_frac = min(worst_frac, frac_phi, frac_uw)
    ok = worst_clean < 1e-8 and worst_frac >= 0.9
    announce("2 (classification)", ok,
             f"max clean residual={worst_clean:.2e} (<1e-8), "
             f"min perturbed fraction above 1e-3 = {worst_frac:.2f} (>=0.9)")


def test_criterion_3_open_problem_witness():
    """wk-randers(e^t): weakly Kahler but not Kahler, machine verdict."""
    prof = fc.wk_randers_profile(fc.Exponential(1.0))
    pts = make_points(prof, count=50, seed=42)
    hits = 0
    for pv in pts:
        rep = fc.kahler_classify(prof, pv)
        if rep.weakly_residual < 1e-6 and rep.kahler_residual > 1e-3:
            hits += 1
    frac = hits / len(pts)
    config = SuiteConfig(profile={"family": "wk-randers",
                                  "f": {"kind": "exp", "c": 1.0, "a": 1.0}},
                         sample=fc.SampleSpec(n=2, count=20, seed=42),
                         checks=("classify",))
    verdict = run_suite(config).verdicts["classification"]["verdict"]
    ok = frac >= 0.9 and verdict == "weakly-kahler-not-kahler"
    announce("3 (open-problem witness)", ok,
             f"weakly<1e-6 and kahler>1e-3 at {frac:.0%} of samples (>=90%), "
             f"verdict={verdict!r}")


def test_criterion_4_oracle_equivalence():
    """Closed forms against FD oracles over the whole catalog, 100 samples."""
    worst = {"levi": 0.0, "det": 0.0, "nconn": 0.0}
    for name, prof in catalog().items():
        pts = make_points(prof, count=100, seed=42) \
            + make_points(prof, n=3, count=30, seed=43)
        for pv in pts:
            levi = fc.levi_closed(prof, pv)
            oracle = fc.levi_oracle(prof, pv)
            scale = float(np.max(np.abs(levi.levi)))
            worst["levi"] = max(worst["levi"],
                                float(np.max(np.abs(levi.levi - oracle))) / scale)
            closed = fc.det_closed(prof, pv.t, pv.s, pv.n)
            worst["det"] = max(worst["det"], abs(closed - levi.det) / abs(levi.det))
            sp = fc.spray_coefficients(prof, pv)
            nfd = fc.nonlinear_connection_fd(prof, pv)
            nscale = max(1.0, float(np.max(np.abs(sp.nconn))))
            worst["nconn"] = max(worst["nconn"],
                                 float(np.max(np.abs(sp.nconn - nfd))) / nscale)
    ok = worst["levi"] < 1e-6 and worst["det"] < 1e-8 and worst["nconn"] < 1e-6
    announce("4 (oracle equivalence)", ok,
             f"levi={worst['levi']:.2e} (<1e-6), det={worst['det']:.2e} (<1e-8), "
             f"nconn={worst['nconn']:.2e} (<1e-6)")


def test_criterion_5_universal_identities():
    """Integrability and k2/k3 identities hold with no Kahler hypothesis."""
    worst_lemma = 0.0
    worst_k2k3 = 0.0
    for name, prof in catalog().items():
        for pv in make_points(prof, count=100, seed=42):
            worst_lemma = max(worst_lemma,
                              abs(fc.lemma_integrability_residual(prof, pv.t, pv.s)))
            worst_k2k3 = max(worst_k2k3,
                             abs(fc.k2_k3_identity_residual(prof, pv.t, pv.s)))
    ok = worst_lemma < 1e-8 and worst_k2k3 < 1e-7
    announce("5 (universal identities)", ok,
             f"lemma={worst_lemma:.2e} (<1e-8), k2k3={worst_k2k3:.2e} (<1e-7)")


def test_criterion_6_homogeneity_and_unitary_invariance():
    """Euler identity and invariance under a seeded unitary rotation."""
    worst_euler = 0.0
    worst_unitary = 0.0
    for name, prof in catalog().items():
        pts = make_points(prof, count=100, seed=42)
        A = fc.seeded_unitary(2, 42)
        for pv in pts:
            levi = fc.levi_closed(prof, pv)
            worst_euler = max(worst_euler,
                              abs(complex(np.sum(levi.g_alpha * pv.v)) - levi.G) / levi.G)
            base = metric_scalars(prof, pv.z, pv.v)
            moved = metric_scalars(prof, A @ pv.z, A @ pv.v)
            worst_unitary = max(worst_unitary,
                                max(abs(base[k] - moved[k]) / max(1.0, abs(base[k]))
                                    for k in base))
    ok = worst_euler < 1e-8 and worst_unitary < 1e-8
    announce("6 (homogeneity + unitary invariance)", ok,
             f"euler={worst_euler:.2e} (<1e-8), unitary={worst_unitary:.2e} (<1e-8)")


def test_criterion_7_pseudoconvexity():
    """f > 0, f' > 0 generators give strongly pseudo-convex metrics."""
    all_ok = True
    for name, f, t_range in POSITIVE_SLOPE_FS:
        prof = fc.wk_randers_profile(f)
        for pv in make_points(prof, count=100, seed=42, t_range=t_range):
            cond1, cond2, ok = fc.pseudoconvexity_check(prof, pv.t, pv.s)
            levi = fc.levi_closed(prof, pv)
            pd = fc.positive_definite(levi.levi)
            all_ok &= (cond1 > 0 and cond2 > 0 and ok and pd)
    announce("7 (pseudo-convexity)", all_ok,
             "both closed-form conditions positive and Levi factorization "
             "positive definite at all samples")


def test_criterion_8_determinism(tmp_path):
    """Two verify runs with the same seed produce byte-identical JSON."""
    cmd = [sys.executable, "-m", "finslercheck", "verify", "--model", "k0",
           "--samples", "10", "--seed", "42"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    announce("8 (determinism)", ok,
             f"exit codes ({a.returncode}, {b.returncode}), "
             f"stdout identical: {a.stdout == b.stdout} ({len(a.stdout)} bytes)")
