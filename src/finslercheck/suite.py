"""Suite execution: run selected checks over a seeded sample set and aggregate.

Checks come in two kinds.  Criterion checks compare a per-sample scalar against
a fixed tolerance from the ladder below and contribute to the overall verdict;
the ``classify`` check is informational and instead yields a Kahler-type
classification ("kahler" / "weakly-kahler-not-kahler" / "not-weakly-kahler").
No selected check is ever skipped silently: anything not run is recorded with a
reason in the criteria table.

Tolerance ladder: 1e-8 for jet-analytic identities, 1e-6 for quantities behind
one finite difference, 1e-4 for the direct (FD-of-spray) curvature.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import curvature as curv
from . import tensors
from .errors import ConfigError, FinslerCheckError
from .numerics import FDConfig, positive_definite
from .profiles import profile_from_descriptor
from .sampling import SampleSpec, default_t_range, sample_domain_detailed, seeded_unitary
from .tensors import PointVector, _abs, _cmul, _matvec, _sum_rows

__all__ = ["SuiteConfig", "SuiteReport", "run_suite", "CHECK_NAMES",
           "CHECK_COLUMNS", "TOLERANCES", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"

CURVATURE_TOL_DIRECT = 1e-4      # |kf_direct - kf_closed| and |kf_direct - k|
CURVATURE_TOL_WK = 1e-6          # |kf_closed - kf_wk| and |kf_* - k|
CURVATURE_TOL_STD = 1e-8         # sample stddev of kf_closed on models
CLASSIFY_ZERO = 1e-6             # residual counts as vanishing
CLASSIFY_NONZERO = 1e-3          # residual counts as bounded away from zero
CLASSIFY_FRACTION = 0.9

_UNITARY_SEED_SALT = 0x5EED


class _Chunk:
    """The pieces the checks share over a chunk of samples, each built once, when first used.

    ``pv`` holds the chunk's samples as columns, or one sample alone.  Every
    piece is then a column form (a stack for matrices) or the lone sample's.
    """

    def __init__(self, profile, pv, cfg, unitary):
        self.profile = profile
        self.pv = pv
        self.cfg = cfg
        self.unitary = unitary

    @cached_property
    def jet(self):
        """The order-3 jet of phi."""
        return curv._phi_jet(self.profile, self.pv.t, self.pv.s)

    @cached_property
    def uw(self):
        """The U/W data of ``wk_uw`` and ``lemma``; the domain is checked before the jet."""
        t, s = self.pv.t, self.pv.s
        curv._check_uw_domain(self.profile, t, s)
        return curv._uw_data(self.jet, t, s)

    @cached_property
    def k(self):
        """The spray scalars k1, k2, k3."""
        return tensors.k_scalars(self.profile, self.pv.t, self.pv.s)

    @cached_property
    def conds(self):
        """The pseudo-convexity conditions (cond1, cond2, ok)."""
        return tensors.pseudoconvexity_check(self.profile, self.pv.t, self.pv.s)

    @cached_property
    def levi(self):
        """The closed-form Levi data."""
        return tensors.levi_closed(self.profile, self.pv, self.cfg)

    @cached_property
    def spray(self):
        """The spray and the closed-form nonlinear connection."""
        return tensors.spray_coefficients(self.profile, self.pv, self.cfg,
                                          levi=self.levi, k=self.k)

    @cached_property
    def nconn_fd(self):
        """The FD oracle of the nonlinear connection, shared by ``nconn`` and ``spray_compat``."""
        return tensors.nonlinear_connection_fd(self.profile, self.pv, self.cfg, levi=self.levi)


# A check maps the chunk to its outputs: an array with one entry per sample
# (a masked entry is left out of that sample's record), or one value for a
# lone sample.  Matrices come as stacks (B, n, n), vectors as columns (n, B).

def _max_entry(x, axes=(-2, -1)):
    return np.max(np.abs(x), axis=axes)


def _check_levi_oracle(ctx):
    H = tensors.levi_oracle(ctx.profile, ctx.pv, ctx.cfg)
    levi = ctx.levi.levi
    return {"levi_oracle_dev": _max_entry(levi - H) / np.maximum(_max_entry(levi), 1e-300)}


def _check_determinant(ctx):
    dc = tensors.det_closed(ctx.profile, ctx.pv.t, ctx.pv.s, ctx.pv.n)
    det = ctx.levi.det
    return {"det_dev": abs(dc - det) / np.maximum(abs(det), 1e-300)}


def _check_pseudoconvexity(ctx):
    cond1, cond2, ok = ctx.conds
    pd = positive_definite(ctx.levi.levi, tol_pd=ctx.cfg.tol_pd)
    return {"cond1": cond1, "cond2": cond2, "pseudoconvex_ok": np.where(ok & pd, 1.0, 0.0)}


def _quadratic_form(M, v):
    """sum_ab M[a, b] v^a conj(v^b), in the order of the one-sample einsum('ab,a,b->').

    That einsum forms each product as (M[a, b] v^a) conj(v^b) in complex
    scalar arithmetic; at n = 2 it adds the two row sums, at larger n it keeps
    one running sum in row-major order.
    """
    n = len(v)
    vbar = np.conj(v)

    def term(a, b):
        return _cmul(_cmul(M[..., a, b], v[a]), vbar[b])

    if n == 2:
        return (term(0, 0) + term(0, 1)) + (term(1, 0) + term(1, 1))
    acc = 0.0
    for a in range(n):
        for b in range(n):
            acc = acc + term(a, b)
    return acc


def _check_euler(ctx):
    levi, v = ctx.levi, ctx.pv.v
    e1 = _abs(_sum_rows(levi.g_alpha * v) - levi.G) / levi.G
    e2 = _abs(_quadratic_form(levi.levi, v) - levi.G) / levi.G
    return {"euler_dev": np.maximum(e1, e2)}


def _check_nconn(ctx):
    nconn = ctx.spray.nconn
    return {"nconn_dev": _max_entry(nconn - ctx.nconn_fd) / np.maximum(_max_entry(nconn), 1.0)}


def _check_spray_compat(ctx):
    lhs = _matvec(ctx.nconn_fd, ctx.pv.v)
    spray = ctx.spray.spray
    scale = np.maximum(np.max(np.abs(spray), axis=0), 1.0)
    return {"spray_compat_dev": _max_entry(lhs - np.moveaxis(spray, 0, -1), -1) / scale}


def _check_wk_phi(ctx):
    return {"wk_phi_residual": abs(curv.wk_residual_phi(ctx.profile, ctx.pv.t, ctx.pv.s, ctx.jet))}


def _check_wk_uw(ctx):
    pv = ctx.pv
    return {"wk_uw_residual": abs(curv.wk_residual_uw(ctx.profile, pv.t, pv.s, d=ctx.uw))}


def _check_lemma(ctx):
    pv = ctx.pv
    return {"lemma_residual":
            abs(curv.lemma_integrability_residual(ctx.profile, pv.t, pv.s, d=ctx.uw))}


def _check_k2k3(ctx):
    return {"k2k3_residual":
            abs(curv.k2_k3_identity_residual(ctx.profile, ctx.pv.t, ctx.pv.s, ctx.jet))}


def _check_curvature(ctx):
    rep = curv.curvature_report(ctx.profile, ctx.pv, ctx.cfg, ctx.jet, ctx.k)
    out = {"kf_closed": rep.kf_closed, "kf_direct": rep.kf_direct,
           "kf_dev_direct": abs(rep.kf_direct - rep.kf_closed)}
    # over columns kf_wk is masked, never None; masked entries are left out of the records
    if rep.kf_wk is not None:
        out["kf_wk"] = rep.kf_wk
        out["kf_dev_wk"] = abs(rep.kf_closed - rep.kf_wk)
    return out


def _rotate(unitary, x):
    """unitary @ x for a vector or each column of (n, B), with the one-vector product's bits."""
    return np.moveaxis(_matvec(unitary, x), -1, 0)


def _check_unitary(ctx):
    pv = ctx.pv
    base = tensors.metric_scalars(ctx.profile, pv.z, pv.v, ctx.cfg,
                                  levi=ctx.levi, k=ctx.k, conds=ctx.conds)
    moved = tensors.metric_scalars(ctx.profile, _rotate(ctx.unitary, pv.z),
                                   _rotate(ctx.unitary, pv.v), ctx.cfg)
    devs = [abs(base[key] - moved[key]) / np.maximum(abs(base[key]), 1.0) for key in base]
    return {"unitary_dev": np.max(devs, axis=0)}


def _check_classify(ctx):
    rep = curv.kahler_classify(ctx.profile, ctx.pv, ctx.cfg, levi=ctx.levi, spray=ctx.spray)
    return {"classify_strong": rep.strong_residual,
            "classify_kahler": rep.kahler_residual,
            "classify_weakly": rep.weakly_residual}


# name: (check, the primary per-sample column it contributes to the CSV, tolerance)
_CHECKS = {
    "levi_oracle": (_check_levi_oracle, "levi_oracle_dev", 1e-6),
    "determinant": (_check_determinant, "det_dev", 1e-8),
    # boolean check: all samples must pass
    "pseudoconvexity": (_check_pseudoconvexity, "pseudoconvex_ok", 0.0),
    "euler": (_check_euler, "euler_dev", 1e-8),
    "nconn": (_check_nconn, "nconn_dev", 1e-6),
    "spray_compat": (_check_spray_compat, "spray_compat_dev", 1e-6),
    "wk_phi": (_check_wk_phi, "wk_phi_residual", 1e-8),
    "wk_uw": (_check_wk_uw, "wk_uw_residual", 1e-8),
    "lemma": (_check_lemma, "lemma_residual", 1e-8),
    "k2k3": (_check_k2k3, "k2k3_residual", 1e-7),
    # direct-vs-closed; the tighter sub-tolerances are the CURVATURE_TOL_* above
    "curvature": (_check_curvature, "kf_closed", 1e-4),
    "unitary": (_check_unitary, "unitary_dev", 1e-8),
    # verdict-type, not pass/fail
    "classify": (_check_classify, "classify_weakly", 0.0),
}

CHECK_NAMES = tuple(_CHECKS)
CHECK_COLUMNS = {name: column for name, (_, column, _) in _CHECKS.items()}
TOLERANCES = {name: tol for name, (_, _, tol) in _CHECKS.items()}

# samples per chunk: bounds the direct curvature's stencil, (n, 24 CHUNK) columns
CHUNK = 128


@dataclass(frozen=True)
class SuiteConfig:
    """Profile descriptor + sampling + FD configuration + check selection."""

    profile: dict
    sample: SampleSpec
    fd: FDConfig = FDConfig()
    checks: tuple = CHECK_NAMES
    include_timestamp: bool = False

    def __post_init__(self):
        bad = [c for c in self.checks if c not in _CHECKS]
        if bad:
            raise ConfigError(f"unknown checks {bad}; available: {sorted(_CHECKS)}")
        if not self.checks:
            raise ConfigError("at least one check must be selected")


@dataclass
class SuiteReport:
    schema_version: str
    config: dict
    records: list
    rejections: list
    aggregates: dict
    criteria: dict
    verdicts: dict
    passed: bool


def _check_rows(ctx, checks):
    """G and the outputs of ``checks`` at each sample of ``ctx``: a list of dicts, keys in order.

    Masked entries are left out.
    """
    pv = ctx.pv
    out = {"G": pv.r * ctx.profile.value(pv.t, pv.s)}
    for name in checks:
        check, _, _ = _CHECKS[name]
        out.update(check(ctx))
    values = [np.atleast_1d(col).tolist() for col in out.values()]
    return [{key: x for key, x in zip(out, row) if x is not None} for row in zip(*values)]


def _chunk_records(profile, indices, pv, config, unitary):
    """The records of a chunk of samples, the columns of ``pv``, in sample order.

    Every check runs over the whole chunk at once.  When that raises, the
    chunk runs again sample by sample, each sample alone, check by check in
    ``config.checks`` order, so the error that escapes is the first one that
    order meets.
    """
    try:
        # a floating-point event the per-sample floats would raise on, or
        # pass silently, sends the chunk the per-sample way too
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            rows = _check_rows(_Chunk(profile, pv, config.fd, unitary), config.checks)
    except (FinslerCheckError, ArithmeticError, ValueError):
        # the array-valued pieces of a lone sample stay silent; its floats
        # raise as Python floats do
        with np.errstate(all="ignore"):
            rows = [_check_rows(_Chunk(profile, PointVector(pv.z[:, k], pv.v[:, k]),
                                       config.fd, unitary), config.checks)[0]
                    for k in range(len(indices))]
    records = []
    for index, row, t, s, r, pairing, z, v in zip(
            indices, rows, pv.t.tolist(), pv.s.tolist(), pv.r.tolist(), pv.pairing.tolist(),
            pv.z.T.tolist(), pv.v.T.tolist()):
        rec = {
            "index": index,
            "n": pv.n,
            "t": t,
            "s": s,
            "r": r,
            "pairing": [pairing.real, pairing.imag],
            "G": row.pop("G"),
            "z": [[x.real, x.imag] for x in z],
            "v": [[x.real, x.imag] for x in v],
        }
        rec.update(row)
        records.append(rec)
    return records


def _aggregate(records, fields):
    out = {}
    for name in fields:
        vals = [r[name] for r in records if name in r]
        if not vals:
            continue
        arr = np.asarray(vals, dtype=float)
        out[name] = {
            "count": int(arr.size),
            "max": float(np.max(arr)),
            "mean": float(np.mean(arr)),
            "stddev": float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0,
        }
    return out


def _curvature_criterion(aggregates, records, model_k):
    """Pass/fail of the curvature check, with the model target when known."""
    detail = {}
    ok = True
    dev_d = aggregates.get("kf_dev_direct")
    if dev_d is None:
        return False, {"reason": "no curvature records"}
    detail["max_dev_direct_vs_closed"] = dev_d["max"]
    ok &= dev_d["max"] < CURVATURE_TOL_DIRECT
    dev_w = aggregates.get("kf_dev_wk")
    if dev_w is not None:
        detail["max_dev_closed_vs_wk"] = dev_w["max"]
        ok &= dev_w["max"] < CURVATURE_TOL_WK
    else:
        detail["wk_formula"] = "not applicable at any sample"
    if model_k is not None:
        closed = aggregates["kf_closed"]
        detail["target_k"] = model_k
        detail["max_closed_minus_k"] = max(abs(r["kf_closed"] - model_k) for r in records)
        detail["stddev_closed"] = closed["stddev"]
        ok &= detail["max_closed_minus_k"] < CURVATURE_TOL_WK
        ok &= closed["stddev"] < CURVATURE_TOL_STD
        max_direct_dev = max(abs(r["kf_direct"] - model_k) for r in records)
        detail["max_direct_minus_k"] = max_direct_dev
        ok &= max_direct_dev < CURVATURE_TOL_DIRECT
        wk_devs = [abs(r["kf_wk"] - model_k) for r in records if "kf_wk" in r]
        if wk_devs:
            detail["max_wk_minus_k"] = max(wk_devs)
            ok &= max(wk_devs) < CURVATURE_TOL_WK
    return bool(ok), detail


def _classify_verdict(records):
    """Aggregate Kahler-type verdict from the per-sample residual ladder."""
    total = len(records)
    if total == 0:
        return {"verdict": "no samples"}
    frac = lambda key, pred: sum(1 for r in records if pred(r[key])) / total
    weakly_zero = frac("classify_weakly", lambda x: x < CLASSIFY_ZERO)
    kahler_zero = frac("classify_kahler", lambda x: x < CLASSIFY_ZERO)
    kahler_big = frac("classify_kahler", lambda x: x > CLASSIFY_NONZERO)
    weakly_big = frac("classify_weakly", lambda x: x > CLASSIFY_NONZERO)
    strong_zero = frac("classify_strong", lambda x: x < CLASSIFY_ZERO)
    detail = {"weakly_zero_fraction": weakly_zero, "kahler_zero_fraction": kahler_zero,
              "kahler_nonzero_fraction": kahler_big, "weakly_nonzero_fraction": weakly_big,
              "strong_zero_fraction": strong_zero}
    if weakly_zero >= CLASSIFY_FRACTION and kahler_zero >= CLASSIFY_FRACTION:
        detail["verdict"] = "kahler"
        detail["message"] = "Kahler (hence weakly Kahler)"
    elif weakly_zero >= CLASSIFY_FRACTION and kahler_big >= CLASSIFY_FRACTION:
        detail["verdict"] = "weakly-kahler-not-kahler"
        detail["message"] = "weakly Kahler but not Kahler"
    elif weakly_big >= CLASSIFY_FRACTION:
        detail["verdict"] = "not-weakly-kahler"
        detail["message"] = "not weakly Kahler"
    else:
        detail["verdict"] = "indeterminate"
        detail["message"] = "residuals do not separate cleanly"
    return detail


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute the selected checks over the seeded sample set."""
    try:
        profile = profile_from_descriptor(config.profile)
    except Exception as exc:
        raise ConfigError(f"profile descriptor rejected: {exc}") from exc

    spec = config.sample
    if spec.t_range is None:
        spec = SampleSpec(n=spec.n, count=spec.count, seed=spec.seed,
                          t_range=default_t_range(profile),
                          s_fraction_range=spec.s_fraction_range)

    samples, rejections = sample_domain_detailed(spec, profile)
    model_k = config.profile.get("k") if config.profile.get("family") == "model" else None
    unitary = seeded_unitary(spec.n, spec.seed ^ _UNITARY_SEED_SALT)

    records = []
    for start in range(0, len(samples), CHUNK):
        records += _chunk_records(profile, samples.index[start:start + CHUNK],
                                  samples.columns(start, start + CHUNK), config, unitary)

    numeric_fields = sorted({k for r in records for k in r
                             if isinstance(r[k], float) and k not in ("t", "s", "r", "G")})
    aggregates = _aggregate(records, numeric_fields)

    criteria = {}
    verdicts = {}
    for name in config.checks:
        _, column, tol = _CHECKS[name]
        if name == "classify":
            verdicts["classification"] = _classify_verdict(records)
            criteria[name] = {"kind": "verdict", "passed": None, "column": column}
            continue
        if name == "curvature":
            passed, detail = _curvature_criterion(aggregates, records, model_k)
            criteria[name] = {"kind": "criterion", "tolerance": tol,
                              "passed": passed, "detail": detail, "column": column}
            continue
        agg = aggregates.get(column)
        if agg is None:
            criteria[name] = {"kind": "criterion", "passed": False,
                              "skipped": True, "reason": "no records produced",
                              "column": column}
            continue
        if name == "pseudoconvexity":
            passed = agg["count"] > 0 and min(r[column] for r in records) >= 1.0
            criteria[name] = {"kind": "criterion", "passed": bool(passed),
                              "tolerance": "all samples strongly pseudo-convex",
                              "column": column}
        else:
            criteria[name] = {"kind": "criterion", "tolerance": tol,
                              "passed": bool(agg["max"] < tol), "column": column}

    passed = all(c["passed"] for c in criteria.values() if c["passed"] is not None)
    if not records:
        passed = False

    config_echo = {
        "profile": config.profile,
        "sample": {
            "n": spec.n, "count": spec.count, "seed": spec.seed,
            "t_range": list(spec.t_range), "s_fraction_range": list(spec.s_fraction_range),
        },
        "fd": asdict(config.fd),
        "checks": list(config.checks),
        "rng": "philox4x64 keyed (seed, sample_index)",
    }
    if config.include_timestamp:
        config_echo["timestamp"] = _dt.datetime.now(_dt.timezone.utc).isoformat()

    return SuiteReport(
        schema_version=SCHEMA_VERSION,
        config=config_echo,
        records=records,
        rejections=rejections,
        aggregates=aggregates,
        criteria=criteria,
        verdicts=verdicts,
        passed=passed,
    )
