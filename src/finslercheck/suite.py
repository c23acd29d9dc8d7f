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

import numpy as np

from . import curvature as curv
from . import tensors
from .errors import ConfigError, FinslerCheckError
from .numerics import FDConfig, positive_definite
from .profiles import profile_from_descriptor
from .sampling import SampleSpec, default_t_range, sample_domain_detailed, seeded_unitary
from .tensors import PointVector

__all__ = ["SuiteConfig", "SuiteReport", "run_suite", "CHECK_NAMES",
           "CHECK_COLUMNS", "TOLERANCES", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"

TOLERANCES = {
    "levi_oracle": 1e-6,
    "determinant": 1e-8,
    "pseudoconvexity": 0.0,      # boolean check: all samples must pass
    "euler": 1e-8,
    "nconn": 1e-6,
    "spray_compat": 1e-6,
    "wk_phi": 1e-8,
    "wk_uw": 1e-8,
    "lemma": 1e-8,
    "k2k3": 1e-7,
    "curvature": 1e-4,           # direct-vs-closed; tighter sub-tolerances below
    "unitary": 1e-8,
    "classify": 0.0,             # verdict-type, not pass/fail
}

CURVATURE_TOL_DIRECT = 1e-4      # |kf_direct - kf_closed| and |kf_direct - k|
CURVATURE_TOL_WK = 1e-6          # |kf_closed - kf_wk| and |kf_* - k|
CURVATURE_TOL_STD = 1e-8         # sample stddev of kf_closed on models
CLASSIFY_ZERO = 1e-6             # residual counts as vanishing
CLASSIFY_NONZERO = 1e-3          # residual counts as bounded away from zero
CLASSIFY_FRACTION = 0.9

# the primary per-sample column each check contributes to the CSV
CHECK_COLUMNS = {
    "levi_oracle": "levi_oracle_dev",
    "determinant": "det_dev",
    "pseudoconvexity": "pseudoconvex_ok",
    "euler": "euler_dev",
    "nconn": "nconn_dev",
    "spray_compat": "spray_compat_dev",
    "wk_phi": "wk_phi_residual",
    "wk_uw": "wk_uw_residual",
    "lemma": "lemma_residual",
    "k2k3": "k2k3_residual",
    "curvature": "kf_closed",
    "unitary": "unitary_dev",
    "classify": "classify_weakly",
}

CHECK_NAMES = tuple(CHECK_COLUMNS)

DEFAULT_CHECKS = CHECK_NAMES
_UNITARY_SEED_SALT = 0x5EED


@dataclass(frozen=True)
class SuiteConfig:
    """Profile descriptor + sampling + FD configuration + check selection."""

    profile: dict
    sample: SampleSpec
    fd: FDConfig = FDConfig()
    checks: tuple = DEFAULT_CHECKS
    include_timestamp: bool = False

    def __post_init__(self):
        bad = [c for c in self.checks if c not in CHECK_COLUMNS]
        if bad:
            raise ConfigError(f"unknown checks {bad}; available: {sorted(CHECK_COLUMNS)}")
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


class _SampleContext:
    """Caches the expensive shared pieces across checks at one sample."""

    def __init__(self, profile, pv, cfg):
        self.profile = profile
        self.pv = pv
        self.cfg = cfg
        self._levi = None
        self._spray = None
        self._nconn_fd = None

    @property
    def levi(self):
        if self._levi is None:
            self._levi = tensors.levi_closed(self.profile, self.pv, self.cfg)
        return self._levi

    @property
    def spray(self):
        if self._spray is None:
            self._spray = tensors.spray_coefficients(self.profile, self.pv, self.cfg,
                                                      levi=self.levi)
        return self._spray

    @property
    def nconn_fd(self):
        if self._nconn_fd is None:
            self._nconn_fd = tensors.nonlinear_connection_fd(self.profile, self.pv, self.cfg,
                                                             levi=self.levi)
        return self._nconn_fd


def _check_levi_oracle(ctx):
    H = tensors.levi_oracle(ctx.profile, ctx.pv, ctx.cfg)
    scale = max(float(np.max(np.abs(ctx.levi.levi))), 1e-300)
    return {"levi_oracle_dev": float(np.max(np.abs(ctx.levi.levi - H))) / scale}


def _check_determinant(ctx):
    dc = tensors.det_closed(ctx.profile, ctx.pv.t, ctx.pv.s, ctx.pv.n)
    scale = max(abs(ctx.levi.det), 1e-300)
    return {"det_dev": abs(dc - ctx.levi.det) / scale}


def _check_pseudoconvexity(ctx):
    cond1, cond2, ok = tensors.pseudoconvexity_check(ctx.profile, ctx.pv.t, ctx.pv.s)
    pd = positive_definite(ctx.levi.levi, tol_pd=ctx.cfg.tol_pd)
    return {"cond1": cond1, "cond2": cond2,
            "pseudoconvex_ok": float(ok and pd)}


def _check_euler(ctx):
    levi = ctx.levi
    e1 = abs(complex(np.sum(levi.g_alpha * ctx.pv.v)) - levi.G) / levi.G
    quad = complex(np.einsum('ab,a,b->', levi.levi, ctx.pv.v, np.conj(ctx.pv.v)))
    e2 = abs(quad - levi.G) / levi.G
    return {"euler_dev": max(e1, e2)}


def _check_nconn(ctx):
    scale = max(float(np.max(np.abs(ctx.spray.nconn))), 1.0)
    dev = float(np.max(np.abs(ctx.spray.nconn - ctx.nconn_fd))) / scale
    return {"nconn_dev": dev}


def _check_spray_compat(ctx):
    lhs = ctx.nconn_fd @ ctx.pv.v
    scale = max(float(np.max(np.abs(ctx.spray.spray))), 1.0)
    return {"spray_compat_dev": float(np.max(np.abs(lhs - ctx.spray.spray))) / scale}


# Checks without a per-sample FD oracle run over a chunk of samples at once:
# ``pv`` holds the chunk's pairs as columns, ``jet`` is the chunk's order-3 jet
# of phi and ``d`` its U/W data, which ``wk_uw`` and ``lemma`` share.  At one
# sample (``pv`` a lone pair, neither passed in) each is the per-sample check.

def _check_wk_phi(profile, pv, cfg, jet=None, d=None):
    return {"wk_phi_residual": abs(curv.wk_residual_phi(profile, pv.t, pv.s, jet))}


def _check_wk_uw(profile, pv, cfg, jet=None, d=None):
    return {"wk_uw_residual": abs(curv.wk_residual_uw(profile, pv.t, pv.s, jet, d))}


def _check_lemma(profile, pv, cfg, jet=None, d=None):
    return {"lemma_residual":
            abs(curv.lemma_integrability_residual(profile, pv.t, pv.s, jet, d))}


def _check_k2k3(profile, pv, cfg, jet=None, d=None):
    return {"k2k3_residual": abs(curv.k2_k3_identity_residual(profile, pv.t, pv.s, jet))}


def _check_curvature(profile, pv, cfg, jet=None, d=None):
    rep = curv.curvature_report(profile, pv, cfg, jet)
    out = {"kf_closed": rep.kf_closed, "kf_direct": rep.kf_direct,
           "kf_dev_direct": abs(rep.kf_direct - rep.kf_closed)}
    # over columns kf_wk is masked, never None; masked entries are left out of the records
    if rep.kf_wk is not None:
        out["kf_wk"] = rep.kf_wk
        out["kf_dev_wk"] = abs(rep.kf_closed - rep.kf_wk)
    return out


_CHUNK_CHECKS = {
    "wk_phi": _check_wk_phi,
    "wk_uw": _check_wk_uw,
    "lemma": _check_lemma,
    "k2k3": _check_k2k3,
    "curvature": _check_curvature,
}

# samples per chunk: bounds the direct curvature's stencil, (n, 24 CHUNK) columns
CHUNK = 128


def _check_unitary(ctx, unitary):
    base = tensors.metric_scalars(ctx.profile, ctx.pv.z, ctx.pv.v, ctx.cfg, levi=ctx.levi)
    moved = tensors.metric_scalars(ctx.profile, unitary @ ctx.pv.z, unitary @ ctx.pv.v, ctx.cfg)
    dev = max(abs(base[k] - moved[k]) / max(abs(base[k]), 1.0) for k in base)
    return {"unitary_dev": dev}


def _check_classify(ctx):
    rep = curv.kahler_classify(ctx.profile, ctx.pv, ctx.cfg, levi=ctx.levi, spray=ctx.spray)
    return {"classify_strong": rep.strong_residual,
            "classify_kahler": rep.kahler_residual,
            "classify_weakly": rep.weakly_residual}


_SAMPLE_CHECKS = {
    "levi_oracle": _check_levi_oracle,
    "determinant": _check_determinant,
    "pseudoconvexity": _check_pseudoconvexity,
    "euler": _check_euler,
    "nconn": _check_nconn,
    "spray_compat": _check_spray_compat,
    "classify": _check_classify,
}


def _rows(columns: dict) -> list:
    """Per-sample dicts of Python floats from a check's columns, keys in order.

    Masked entries are left out.
    """
    values = [col.tolist() for col in columns.values()]
    return [{key: x for key, x in zip(columns, row) if x is not None}
            for row in zip(*values)]


def _chunk_columns(profile, pv, checks, cfg):
    """G and each chunked check in ``checks`` over the column PointVector ``pv`` at once.

    Each comes back as a list with one entry per sample.
    """
    out = {"G": (pv.r * profile.value(pv.t, pv.s)).tolist()}
    names = [name for name in checks if name in _CHUNK_CHECKS]
    if names:
        jet = curv._phi_jet(profile, pv.t, pv.s)
        d = curv.uw(profile, pv.t, pv.s, jet) if {"wk_uw", "lemma"} & set(names) else None
        for name in names:
            out[name] = _rows(_CHUNK_CHECKS[name](profile, pv, cfg, jet, d))
    return out


def _chunk_records(profile, indices, pv, config, unitary):
    """The records of a chunk of samples, the columns of ``pv``, in sample order.

    The chunked checks run over the whole chunk first, the others sample by
    sample.  When the chunked stage raises, the chunk runs again sample by
    sample and check by check in ``config.checks`` order, so the error that
    escapes is the first one that order meets.
    """
    try:
        # a floating-point event the per-sample floats would raise on, or
        # pass silently, sends the chunk the per-sample way too
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            columns = _chunk_columns(profile, pv, config.checks, config.fd)
    except (FinslerCheckError, ArithmeticError, ValueError):
        columns = None
    per_sample = columns is None or any(name not in _CHUNK_CHECKS for name in config.checks)
    records = []
    for k, (index, t, s, r, pairing, z, v) in enumerate(zip(
            indices, pv.t.tolist(), pv.s.tolist(), pv.r.tolist(), pv.pairing.tolist(),
            pv.z.T.tolist(), pv.v.T.tolist())):
        rec = {
            "index": index,
            "n": pv.n,
            "t": t,
            "s": s,
            "r": r,
            "pairing": [pairing.real, pairing.imag],
            "G": columns["G"][k] if columns is not None else r * profile.value(t, s),
            "z": [[x.real, x.imag] for x in z],
            "v": [[x.real, x.imag] for x in v],
        }
        if per_sample:
            ctx = _SampleContext(profile, PointVector(pv.z[:, k], pv.v[:, k]), config.fd)
        for name in config.checks:
            if name in _CHUNK_CHECKS:
                rec.update(columns[name][k] if columns is not None
                           else _CHUNK_CHECKS[name](profile, ctx.pv, config.fd))
            elif name == "unitary":
                rec.update(_check_unitary(ctx, unitary))
            else:
                rec.update(_SAMPLE_CHECKS[name](ctx))
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
        if name == "classify":
            verdicts["classification"] = _classify_verdict(records)
            criteria[name] = {"kind": "verdict", "passed": None,
                              "column": CHECK_COLUMNS[name]}
            continue
        if name == "curvature":
            passed, detail = _curvature_criterion(aggregates, records, model_k)
            criteria[name] = {"kind": "criterion", "tolerance": TOLERANCES[name],
                              "passed": passed, "detail": detail,
                              "column": CHECK_COLUMNS[name]}
            continue
        column = CHECK_COLUMNS[name]
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
            tol = TOLERANCES[name]
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
