"""The benchmark's workloads: CLI invocations made from a seed, and their expected verdicts.

Each workload is a list of ``Invocation``s, one "pass".  The benchmark writes
the profile descriptor files a pass needs, derives every invocation's
``--seed`` from the benchmark seed, and checks each report it gets back
against the verdict the paper predicts for that input.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

# profile descriptors written to files and passed with --profile
PROFILES = {
    "wk-exp": {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0}},
    "hermitian-exp": {"family": "hermitian", "f": {"kind": "exp", "c": 1.0, "a": 1.0}},
    "randers": {"family": "randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0},
                "g": {"kind": "linear", "c": 0.5}, "h": {"kind": "constant", "c": 0.5}},
    "wk-exp-h1.1": {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0},
                    "h_scale": 1.1},
}

MODEL_K = {"k4": 4, "k0": 0, "km4": -4}
MODEL_C = (0.5, 1.0, 2.0)
CLASSIFICATION = "weakly-kahler-not-kahler"
CLASSIFY_FRACTION = 0.9     # finslercheck.suite.CLASSIFY_FRACTION
RESIDUAL_CHECKS = ("wk_phi", "wk_uw", "lemma", "k2k3")

# sample counts per invocation: "full" is the benchmark, "tiny" the smoke test
SIZES = {
    "full": {"verify_n4": 40, "verify_n2": 40, "curvature": 200, "residual": 2000},
    "tiny": {"verify_n4": 10, "verify_n2": 10, "curvature": 10, "residual": 40},
}

WORKLOADS = ("verify-oracle", "uniformization", "residual-catalog")


@dataclass(frozen=True)
class Invocation:
    """One ``finslercheck`` call: argv without ``--out``, and what it must report."""

    name: str
    argv: tuple
    fmt: str
    samples: int
    exit_code: int
    criteria: dict          # check name -> expected pass/fail; None means "every criterion passes"
    classification: str | None = None      # exact verdict required
    # paper fact 1 read from the verdict's fractions.  At n = 4 about 7% of
    # samples (s/t above ~0.8) have a Kahler residual under the 1e-3 "nonzero"
    # threshold, so about one seed in seven falls short, at 40 samples, of the
    # 90% that the verdict "weakly-kahler-not-kahler" needs: the suite then
    # says "indeterminate".
    weakly_not_kahler: bool = False
    target_k: int | None = None

    def out_name(self) -> str:
        return f"{self.name}.{self.fmt}"


def profile_files(workload: str) -> dict:
    """Descriptor files the workload's invocations read, by file name."""
    if workload == "verify-oracle":
        names = ("wk-exp",)
    elif workload == "residual-catalog":
        names = ("hermitian-exp", "randers", "wk-exp-h1.1")
    else:
        names = ()
    return {f"{name}.json": PROFILES[name] for name in names}


def setup_descriptors(workload: str) -> list:
    """Every profile a workload builds, including the models given by --model."""
    descs = list(profile_files(workload).values())
    if workload == "verify-oracle":
        descs.append({"family": "model", "k": 4, "c": 1.0})
    elif workload == "uniformization":
        descs += [{"family": "model", "k": k, "c": c}
                  for k in MODEL_K.values() for c in MODEL_C]
    return descs


def invocations(workload: str, seed: int, size: str = "full") -> list:
    """The workload's pass; every ``--seed`` is drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    counts = SIZES[size]

    def seed_args():
        return ("--seed", str(rng.randrange(2 ** 31)))

    if workload == "verify-oracle":
        return [
            Invocation("verify-wk-exp-n4",
                       ("verify", "--profile", "wk-exp.json", "--n", "4",
                        "--samples", str(counts["verify_n4"])) + seed_args(),
                       "json", counts["verify_n4"], 0, None, weakly_not_kahler=True),
            Invocation("verify-k4-n2",
                       ("verify", "--model", "k4", "--n", "2",
                        "--samples", str(counts["verify_n2"])) + seed_args(),
                       "csv", counts["verify_n2"], 0, None, classification=CLASSIFICATION),
        ]
    if workload == "uniformization":
        return [
            Invocation(f"curvature-{tag}-c{c}-n{n}",
                       ("curvature", "--model", tag, "--c", str(c), "--n", str(n),
                        "--samples", str(counts["curvature"])) + seed_args(),
                       "json", counts["curvature"], 0, {"curvature": True}, target_k=k)
            for tag, k in MODEL_K.items() for c in MODEL_C for n in (2, 3)
        ]
    if workload == "residual-catalog":
        wk_fail = {"wk_phi": False, "wk_uw": False, "lemma": True, "k2k3": True}
        plan = (("hermitian-exp", "json", dict.fromkeys(RESIDUAL_CHECKS, True)),
                ("randers", "csv", wk_fail),
                ("wk-exp-h1.1", "json", wk_fail))
        return [
            Invocation(f"residual-{name}",
                       ("residual", "--profile", f"{name}.json", "--n", "3",
                        "--samples", str(counts["residual"])) + seed_args(),
                       fmt, counts["residual"], 0 if all(expect.values()) else 1, expect)
            for name, fmt, expect in plan
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def summarize_report(text: str, fmt: str) -> dict:
    """Criteria, verdict, model target and sample counts read back from a report."""
    if fmt == "json":
        doc = json.loads(text)
        detail = doc["criteria"].get("curvature", {}).get("detail", {})
        verdict = doc["verdicts"].get("classification", {})
        return {
            "criteria": {name: c["passed"] for name, c in doc["criteria"].items()
                         if c["passed"] is not None},
            "classification": verdict.get("verdict"),
            "weakly_zero_fraction": verdict.get("weakly_zero_fraction"),
            "kahler_zero_fraction": verdict.get("kahler_zero_fraction"),
            "target_k": detail.get("target_k"),
            "records": len(doc["records"]),
            "rejections": len(doc["rejections"]),
        }
    criteria, classification, records, rejections = {}, None, 0, 0
    rows = csv.reader(io.StringIO(text))
    next(rows)                                       # column header
    for row in rows:
        if not row[0].startswith("#"):
            records += 1
        elif row[0] == "# criterion":
            criteria[row[1]] = row[2] == "passed=true"
        elif row[0] == "# verdict" and row[1] == "classification":
            classification = row[2]
        elif row[0] == "# rejection":
            rejections += 1
    return {"criteria": criteria, "classification": classification, "target_k": None,
            "records": records, "rejections": rejections}


def problems(inv: Invocation, exit_code: int, summary: dict | None) -> list:
    """Every way the invocation's outcome differs from its expectation."""
    found = []
    if exit_code != inv.exit_code:
        found.append(f"exit code {exit_code}, expected {inv.exit_code}")
    if summary is None:
        return found + ["no report written"]
    if inv.criteria is None:
        failing = sorted(name for name, ok in summary["criteria"].items() if not ok)
        if failing or not summary["criteria"]:
            found.append(f"criteria not all passing: {failing}")
    else:
        for name, want in inv.criteria.items():
            got = summary["criteria"].get(name)
            if got is not want:
                found.append(f"criterion {name}: {got}, expected {want}")
    if inv.classification is not None and summary["classification"] != inv.classification:
        found.append(f"classification {summary['classification']!r}, "
                     f"expected {inv.classification!r}")
    if inv.weakly_not_kahler and not (
            summary["classification"] in (CLASSIFICATION, "indeterminate")
            and summary["weakly_zero_fraction"] >= CLASSIFY_FRACTION
            and summary["kahler_zero_fraction"] < CLASSIFY_FRACTION):
        found.append(f"not weakly-Kahler-but-not-Kahler: classification "
                     f"{summary['classification']!r}, weakly_zero_fraction "
                     f"{summary['weakly_zero_fraction']}, kahler_zero_fraction "
                     f"{summary['kahler_zero_fraction']}")
    if inv.target_k is not None and summary["target_k"] != inv.target_k:
        found.append(f"target_k {summary['target_k']!r}, expected {inv.target_k}")
    if summary["records"] + summary["rejections"] != inv.samples:
        found.append(f"{summary['records']} records + {summary['rejections']} rejections, "
                     f"expected {inv.samples} samples")
    return found
