"""finslercheck benchmark: CLI workloads timed end to end, and a traced per-layer run.

    python3 bench/run.py --workload verify-oracle --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  The package is imported from ``src/``.  Every
invocation goes through ``finslercheck.cli.main(argv)`` in this process, one
after another (one client, closed loop).  With ``--trace 0`` the workload's
pass is repeated until ``--seconds`` have elapsed and the end-to-end metrics
are printed; with ``--trace 1`` one untraced and one traced pass are run and
the per-layer metrics are printed.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (samples) and
``metrics``.  A fuller record, with the environment and for traced runs the
spans, is written under ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = {"full": 7, "tiny": 2}
TABLE_SAMPLES = {"full": 20, "tiny": 2}
TABLE_PROBE_SAMPLES = 2
FD_CHECKS = ("levi_oracle", "nconn", "spray_compat", "curvature", "classify")
RESIDUAL_FUNCS = ("wk_residual_phi", "wk_residual_uw",
                  "lemma_integrability_residual", "k2_k3_identity_residual")

# run in a fresh interpreter to time set-up: import the CLI, build the profiles
SETUP_CODE = """\
import json, sys
import finslercheck.cli
from finslercheck.profiles import profile_from_descriptor
for desc in json.loads(sys.argv[1]):
    profile_from_descriptor(desc)
"""


class Runner:
    """Runs invocations through the CLI, times them and checks every report."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.times = {}          # invocation name -> seconds per execution
        self.first = {}          # invocation name -> (exit code, digest, summary, bytes)
        self.problems = {}       # invocation name -> list of problems
        self.attempted = 0
        self.failed = 0

    def execute(self, inv: workloads.Invocation) -> float:
        out = self.work / inv.out_name()
        argv = list(inv.argv) + ["--format", inv.fmt, "--out", str(out)]
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        self.times.setdefault(inv.name, []).append(elapsed)
        data = out.read_bytes() if out.exists() else None
        digest = hashlib.sha256(data).hexdigest() if data is not None else None
        if inv.name not in self.first:
            summary = workloads.summarize_report(data.decode(), inv.fmt) if data else None
            found = workloads.problems(inv, code, summary)
            self.first[inv.name] = (code, digest, summary, len(data or b""))
        elif (code, digest) != self.first[inv.name][:2]:
            found = ["report or exit code differs from the invocation's first run"]
        else:
            found = []
        summary = self.first[inv.name][2]
        self.attempted += inv.samples
        self.failed += inv.samples if found else summary["rejections"]
        self.problems.setdefault(inv.name, []).extend(found)
        if data is not None:
            out.unlink()
        return elapsed

    def run_pass(self, invs) -> float:
        return sum(self.execute(inv) for inv in invs)

    def samples(self, invs) -> int:
        """Samples checked in one pass."""
        return sum(self.first[inv.name][2]["records"] for inv in invs)

    def correct(self) -> bool:
        return not any(self.problems.values())


def measure_setup(workload: str, repeats: int) -> list:
    """Seconds for a fresh interpreter to import the CLI and build the profiles."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(workloads.setup_descriptors(workload))]
    times = []
    for i in range(repeats + 1):     # the first run writes bytecode caches and is not kept
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, env=env, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def run_measured(runner, invs, args, record) -> dict:
    """Set-up timing, then a closed loop over the pass until ``--seconds`` have elapsed
    since the run began; end-to-end metrics."""
    start = time.perf_counter()
    setup = measure_setup(args.workload, SETUP_REPEATS[args.size])
    i = 0
    while i < len(invs) or time.perf_counter() - start < args.seconds:
        runner.execute(invs[i % len(invs)])
        i += 1
    if len(runner.times[invs[0].name]) < 2:  # guard the byte-identical report guarantee
        runner.execute(invs[0])
    # one pass costs the sum over its invocations of each one's median time
    wall = sum(statistics.median(runner.times[inv.name]) for inv in invs)
    record["setup_runs_s"] = setup
    record["passes"] = i / len(invs)
    return {
        "wall_s": (wall, "s"),
        "samples_per_s": (runner.samples(invs) / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(runner, invs, args, record) -> dict:
    """One untraced and one traced pass, argument replays and the per-check table."""
    from tracing import Tracer

    untraced = runner.run_pass(invs)
    report_bytes = sum(runner.first[inv.name][3] for inv in invs)
    tracer = Tracer(args.seed)
    tracer.instrument()
    try:
        traced = runner.run_pass(invs)
    finally:
        tracer.restore()
    table, table_tracer = check_table(runner, args)
    metrics = layer_metrics(tracer, table_tracer, runner.samples(invs), report_bytes,
                            untraced, traced)
    metrics.update(table)
    record["trace"] = {"summary": tracer.summary(), "counts": dict(tracer.counts),
                       "missing_boundaries": tracer.missing,
                       "spans": ["id parent name start_ns end_ns"] + tracer.spans}
    return metrics


def layer_metrics(tr, fallback, samples, report_bytes, untraced, traced) -> dict:
    """Per-layer metrics of the traced pass.

    Times per call replay the workload's own arguments.  A function the
    workload never calls is timed on the per-check table's arguments
    (``fallback``) instead, so that every time is a measurement.
    """
    def per_sample(name, unit):
        return (tr.calls(name) / samples, unit)

    def replay_s(name, **kwargs):
        seconds = tr.replay(name, **kwargs)
        return seconds if seconds is not None else fallback.replay(name, **kwargs)

    def replay(name, unit, scale):
        seconds = replay_s(name)
        return (seconds * scale if seconds is not None else 0.0, unit)

    def div(a, b):       # 0 where a boundary was never crossed
        return a / b if b else 0.0

    stats = tr.stats
    probes = tr.calls("numerics._probe")
    main_ns = stats["cli.main"][1]
    numerics_self = sum(st[2] for name, st in stats.items() if name.startswith("numerics."))
    draws = tr.counts["sampling.draws"]
    sampling_s = replay_s("sampling.sample_domain_detailed", weight=lambda res: len(res[0]))
    residual_us = sum(replay_s(f"curvature.{fn}") or 0.0 for fn in RESIDUAL_FUNCS) * 1e6
    jet_ops = sum(n for name, n in tr.counts.items() if name.startswith("jets."))
    return {
        "numerics.probes_per_sample": (probes / samples, "probes/sample"),
        "numerics.distinct_probe_ratio": (div(tr.distinct_probes, probes), "ratio"),
        "numerics.probe_us": replay("numerics._probe", "us", 1e6),
        "numerics.wirtinger_mixed_hessian.ms": replay("numerics.wirtinger_mixed_hessian",
                                                      "ms", 1e3),
        "numerics.wirtinger_second.us": replay("numerics.wirtinger_second", "us", 1e6),
        "numerics.wirtinger_gradient.us": replay("numerics.wirtinger_gradient", "us", 1e6),
        "numerics.hermitian_inverse_det.us": replay("numerics.hermitian_inverse_det",
                                                    "us", 1e6),
        "numerics.self_share": (div(numerics_self, main_ns), "ratio"),
        "tensors.invariants.calls_per_sample": per_sample("tensors.invariants", "calls/sample"),
        "tensors.levi_closed.calls_per_sample": per_sample("tensors.levi_closed",
                                                           "calls/sample"),
        "tensors.levi_closed.us": replay("tensors.levi_closed", "us", 1e6),
        "tensors.levi_oracle.ms": replay("tensors.levi_oracle", "ms", 1e3),
        "tensors.nonlinear_connection_fd.ms": replay("tensors.nonlinear_connection_fd",
                                                     "ms", 1e3),
        "tensors.spray_coefficients.us": replay("tensors.spray_coefficients", "us", 1e6),
        "tensors.connection_coefficients.ms": replay("tensors.connection_coefficients",
                                                     "ms", 1e3),
        "curvature.holomorphic_curvature_direct.ms": replay(
            "curvature.holomorphic_curvature_direct", "ms", 1e3),
        "curvature.holomorphic_curvature_closed.us": replay(
            "curvature.holomorphic_curvature_closed", "us", 1e6),
        "curvature.kahler_classify.ms": replay("curvature.kahler_classify", "ms", 1e3),
        "curvature.residuals.us": (residual_us, "us"),
        "profiles.value.calls_per_sample": per_sample("profiles.value", "calls/sample"),
        "profiles.value.us": replay("profiles.value", "us", 1e6),
        "profiles.raw_jet.calls_per_sample": per_sample("profiles.raw_jet", "calls/sample"),
        "profiles.raw_jet.us": replay("profiles.raw_jet", "us", 1e6),
        "profiles.jet.calls_per_sample": per_sample("profiles.jet", "calls/sample"),
        "profiles.jet.us": replay("profiles.jet", "us", 1e6),
        "jets.ops_per_sample": (jet_ops / samples, "ops/sample"),
        "jets.mul.us": replay("jets.mul", "us", 1e6),
        "jets.truediv.us": replay("jets.truediv", "us", 1e6),
        "jets.sqrt.us": replay("jets.sqrt", "us", 1e6),
        "functions1d.derivs.calls_per_sample": per_sample("functions1d.derivs", "calls/sample"),
        "functions1d.derivs.us": replay("functions1d.derivs", "us", 1e6),
        "sampling.ms_per_sample": ((sampling_s or 0.0) * 1e3, "ms/sample"),
        "sampling.accept_ratio": (div(tr.counts["sampling.accepted"], draws), "ratio"),
        "suite.run_suite.self_ms_per_sample": (stats["suite.run_suite"][2] / 1e6 / samples,
                                               "ms/sample"),
        "report.emit_report.ms": (div(stats["report.emit_report"][1] / 1e6,
                                      stats["report.emit_report"][0]), "ms"),
        "report.bytes": (report_bytes, "bytes"),
        "cli.main.self_ms": (div(stats["cli.main"][2] / 1e6, stats["cli.main"][0]), "ms"),
        "trace.overhead_ratio": (traced / untraced, "ratio"),
    }


def check_table(runner, args):
    """Each check run alone on the wk-randers profile: ms and probes per sample, n = 2, 3, 4.

    Returns the metrics and the tracer of the probe-counting runs, whose
    captured arguments time the functions a workload never calls.
    """
    from finslercheck.sampling import SampleSpec
    from finslercheck.suite import CHECK_NAMES, SuiteConfig, run_suite
    from tracing import Tracer

    def run(check, n, count):
        config = SuiteConfig(profile=workloads.PROFILES["wk-exp"],
                             sample=SampleSpec(n=n, count=count, seed=args.seed),
                             checks=(check,))
        report = run_suite(config)
        runner.attempted += count
        if report.criteria[check]["passed"] is False:
            runner.failed += count
            runner.problems.setdefault(f"check-{check}-n{n}", []).append("criterion failed")
        return report

    out = {}
    tracer = Tracer(args.seed)
    for n in (2, 3, 4):
        for check in CHECK_NAMES:
            start = time.perf_counter()
            report = run(check, n, TABLE_SAMPLES[args.size])
            elapsed = time.perf_counter() - start
            out[f"suite.check.{check}.ms_per_sample.n{n}"] = (
                elapsed * 1e3 / len(report.records), "ms/sample")
        tracer.instrument()
        try:
            for check in CHECK_NAMES:
                before = tracer.calls("numerics._probe")
                report = run(check, n, TABLE_PROBE_SAMPLES)
                if check in FD_CHECKS:
                    out[f"suite.check.{check}.probes_per_sample.n{n}"] = (
                        (tracer.calls("numerics._probe") - before) / len(report.records),
                        "probes/sample")
        finally:
            tracer.restore()
    return out, tracer


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    files = sorted((SRC / "finslercheck").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += len(data.splitlines())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS default)"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    from finslercheck import cli

    invs = workloads.invocations(args.workload, args.seed, args.size)
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": environment()}
    try:
        for name, desc in workloads.profile_files(args.workload).items():
            (work / name).write_text(json.dumps(desc), encoding="utf-8")
        runner = Runner(cli, work)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            run = run_traced if args.trace else run_measured
            metrics = run(runner, invs, args, record)
        finally:
            os.chdir(cwd)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_fraction = runner.failed / runner.attempted
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  failed_fraction=failed_fraction,
                  invocations={inv.name: {"times_s": runner.times[inv.name],
                                          "problems": runner.problems[inv.name]}
                               for inv in invs},
                  other_problems={k: v for k, v in runner.problems.items()
                                  if v and k not in runner.times})
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:18s} {'failed_fraction':48s} {failed_fraction:14.6g} 1"
          f"  ({runner.failed} of {runner.attempted} samples)")
    for name, found in runner.problems.items():
        for problem in dict.fromkeys(found):
            print(f"# PROBLEM {name}: {problem}")
    print(json.dumps({"correct": runner.correct(), "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' shrinks every sample count (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "finslercheck" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'finslercheck'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
