"""Command-line interface.

Subcommands map to the verification layers:

    verify      full check suite over a seeded sample set
    curvature   the three holomorphic-curvature evaluations
    residual    weakly-Kahler equation residuals (both forms) + universal identities
    classify    Kahler-type residual ladder and verdict
    models      the three constant-curvature models (k = +4, 0, -4)

Exit codes: 0 all selected criteria pass, 1 criterion failure, 2 configuration
error, 3 numerical or I/O error.  The machine-readable report goes to --out
(or stdout when --out is omitted); human summaries go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import ConfigError, FinslerCheckError, InvalidCatalogEntry, InvalidCurvatureTag
from .numerics import FDConfig
from .report import emit_json, emit_report
from .sampling import SampleSpec
from .suite import CHECK_NAMES, SuiteConfig, SuiteReport, run_suite

# every other FinslerCheckError, and an ArithmeticError such as a 1-D derivative
# overflowing far out, is a numerical or I/O error (exit 3)
_CONFIG_ERRORS = (ConfigError, InvalidCatalogEntry, InvalidCurvatureTag)

_MODEL_TAGS = {"k4": (4, "+4"), "k0": (0, "0"), "km4": (-4, "-4")}

_SUBCOMMAND_CHECKS = {
    "verify": CHECK_NAMES,
    "curvature": ("curvature",),
    "residual": ("wk_phi", "wk_uw", "lemma", "k2k3"),
    "classify": ("classify",),
    "models": ("curvature", "wk_phi", "wk_uw", "lemma", "k2k3"),
}


def _add_common(p: argparse.ArgumentParser, with_profile: bool = True):
    if with_profile:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--profile", metavar="FILE",
                         help="profile descriptor JSON file")
        src.add_argument("--model", choices=sorted(_MODEL_TAGS),
                         help="constant-curvature model")
    p.add_argument("--c", type=float, default=1.0,
                   help="model parameter c > 0 (default 1)")
    p.add_argument("--n", type=int, default=2, help="complex dimension (default 2)")
    p.add_argument("--samples", type=int, default=100,
                   help="sample count (default 100)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--t-range", type=float, nargs=2, metavar=("LO", "HI"),
                   help="t sampling window (default: derived from profile validity)")
    p.add_argument("--s-range", type=float, nargs=2, metavar=("LO", "HI"),
                   default=(0.1, 0.9), help="s/t sampling window (default 0.1 0.9)")
    p.add_argument("--fd-step", type=float, default=FDConfig.step,
                   help="relative finite-difference step (default 1e-3)")
    p.add_argument("--fd-levels", type=int, default=FDConfig.richardson_levels,
                   help="Richardson extrapolation levels (default 2)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH",
                   help="report destination (default: stdout)")
    p.add_argument("--timestamp", action="store_true",
                   help="include a wall-clock timestamp in the report "
                        "(omitted by default so identical runs are byte-identical)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="finslercheck",
        description="verify closed-form tensors of unitary-invariant complex "
                    "Finsler metrics against finite-difference oracles")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "run the full check suite"),
        ("curvature", "holomorphic curvature: closed form vs the disc FD oracle"),
        ("residual", "weakly-Kahler and universal identity residuals"),
        ("classify", "Kahler-type classification ladder"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        if name == "verify":
            sp.add_argument("--checks", metavar="NAMES",
                            help="comma-separated check subset")
    sp = sub.add_parser("models", help="run the three constant-curvature models")
    _add_common(sp, with_profile=False)
    return p


def _profile_descriptor(args) -> dict:
    if getattr(args, "model", None):
        k, _ = _MODEL_TAGS[args.model]
        return {"family": "model", "k": k, "c": args.c}
    try:
        with open(args.profile, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read profile file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"profile file is not valid JSON: {exc}") from exc


def _suite_config(args, checks, profile: dict) -> SuiteConfig:
    if getattr(args, "checks", None):
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    sample = SampleSpec(
        n=args.n, count=args.samples, seed=args.seed,
        t_range=tuple(args.t_range) if args.t_range else None,
        s_fraction_range=tuple(args.s_range),
    )
    fd = FDConfig(step=args.fd_step, richardson_levels=args.fd_levels)
    return SuiteConfig(profile=profile, sample=sample, fd=fd,
                       checks=checks, include_timestamp=args.timestamp)


def _summarize(report: SuiteReport, label: str):
    lines = [f"{label}: {'PASS' if report.passed else 'FAIL'} "
             f"({len(report.records)} samples, {len(report.rejections)} rejected)"]
    for name, crit in report.criteria.items():
        if crit["passed"] is None:
            continue
        state = "pass" if crit["passed"] else "FAIL"
        lines.append(f"  {name}: {state}")
    cls = report.verdicts.get("classification")
    if cls:
        lines.append(f"  classification: {cls.get('message', cls.get('verdict'))}")
    print("\n".join(lines), file=sys.stderr)


def _run_single(args, checks) -> int:
    report = run_suite(_suite_config(args, checks, _profile_descriptor(args)))
    emit_report(report, format=args.format, destination=args.out)
    _summarize(report, args.command)
    has_criteria = any(c["passed"] is not None for c in report.criteria.values())
    if has_criteria and not report.passed:
        return 1
    return 0


def _run_models(args, checks) -> int:
    reports = {}
    for tag, (k, _) in _MODEL_TAGS.items():
        model = {"family": "model", "k": k, "c": args.c}
        reports[tag] = run_suite(_suite_config(args, checks, model))
    # the combined report is always JSON regardless of --format
    emit_json({"schema_version": reports["k4"].schema_version,
               "models": {tag: vars(rep) for tag, rep in reports.items()}},
              destination=args.out)
    for tag, report in reports.items():
        _summarize(report, f"model k={_MODEL_TAGS[tag][1]} c={args.c}")
    return 0 if all(report.passed for report in reports.values()) else 1


# one parser per process: a parser per call leaves reference cycles that only
# the cyclic collector frees, and it runs seldom when a run allocates few objects
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    run = _run_models if args.command == "models" else _run_single
    try:
        return run(args, _SUBCOMMAND_CHECKS[args.command])
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FinslerCheckError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
