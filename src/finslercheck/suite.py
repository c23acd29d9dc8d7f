"""Suite execution: run selected checks over a seeded sample set and aggregate.

Checks come in two kinds.  Criterion checks compare a per-sample scalar against
a fixed tolerance from the ladder below and contribute to the overall verdict;
the ``classify`` check is informational and instead yields a Kahler-type
classification ("kahler" / "weakly-kahler-not-kahler" / "not-weakly-kahler").
Every selected check runs on every sample, or the run raises.

Tolerance ladder: 1e-8 for jet-analytic identities, 1e-6 for quantities behind
one finite difference, 1e-4 for the direct (FD-of-spray) curvature.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from . import curvature as curv
from . import numerics, tensors
from .errors import ConfigError, FinslerCheckError
from .numerics import FDConfig, positive_definite
from .profiles import profile_from_descriptor
from .sampling import SampleSpec, default_t_range, sample_domain_detailed, seeded_unitary
from .tensors import PointVector, _abs, _cmul, _matvec, _sum_rows

__all__ = ["SuiteConfig", "SuiteReport", "Records", "run_suite", "CHECK_NAMES",
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

    ``pv`` holds the chunk's samples as columns, and every piece is a column
    form (a stack for matrices).
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
# (a masked entry is left out of that sample's record).  Matrices come as
# stacks (B, n, n), vectors as columns (n, B).

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
    # kf_wk is masked where the wk formula does not apply
    return {"kf_closed": rep.kf_closed, "kf_direct": rep.kf_direct,
            "kf_dev_direct": abs(rep.kf_direct - rep.kf_closed), "kf_wk": rep.kf_wk,
            "kf_dev_wk": abs(rep.kf_closed - rep.kf_wk)}


def _rotate(unitary, x):
    """unitary @ x for a vector or each column of (n, B), with the one-vector product's bits."""
    return np.moveaxis(_matvec(unitary, x), -1, 0)


def _check_unitary(ctx):
    pv = ctx.pv
    base = tensors._metric_scalars(ctx.levi, ctx.k, ctx.conds)
    # built after the samples' pieces, so that the error metric_scalars would meet first escapes
    turned = _Chunk(ctx.profile, PointVector(_rotate(ctx.unitary, pv.z),
                                             _rotate(ctx.unitary, pv.v)), ctx.cfg, ctx.unitary)
    moved = tensors._metric_scalars(turned.levi, turned.k, turned.conds)
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

# the residual identities hold a few values per sample and call no stencil,
# so a chunk of only these takes numerics.FIELD_VALUES samples.  Any other
# takes 2048 // (n + 4) (341 at n = 2, 56 at n = 32), which keeps the traced
# peak of the direct curvature's one stencil, (n, 24 B) columns that numerics
# cannot slice, and of the FD oracles' estimates near 4 MB at n <= 4; each
# chunk costs a few ms of numpy calls whatever its size, so fewer take less time
_SCALAR_CHECKS = frozenset({"wk_phi", "wk_uw", "lemma", "k2k3"})


def _chunk_size(checks, n):
    """Samples per chunk of ``checks`` at dimension ``n``."""
    return numerics.FIELD_VALUES if _SCALAR_CHECKS.issuperset(checks) else 2048 // (n + 4)


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


class Records:
    """A run's per-sample records as columns.

    Row k of ``values`` holds sample k's index, n, t, s, r, pairing, z, v (re,
    im of each entry), G and check ``fields``; ``present`` marks what it holds.
    """

    def __init__(self, n, fields, values, present):
        self.n, self.fields, self.values, self.present = n, tuple(fields), values, present

    def layout(self):
        """(key, first column, shape) of each record key, in record order."""
        n, cut = self.n, 8 + 4 * self.n
        return ([("index", 0, ()), ("n", 1, ()), ("t", 2, ()), ("s", 3, ()), ("r", 4, ()),
                 ("pairing", 5, (2,)), ("G", cut - 1, ()), ("z", 7, (n, 2)),
                 ("v", 7 + 2 * n, (n, 2))]
                + [(key, cut + j, ()) for j, key in enumerate(self.fields)])

    def column(self, key):
        """The present entries of scalar key ``key`` (``index``, ``t``, ``s``, ``r``, ``G``
        or a check field) as one array, in sample order."""
        j = next(col for name, col, _ in self.layout() if name == key)
        return self.values[self.present[:, j], j]

    def __len__(self):
        return len(self.values)


@dataclass
class SuiteReport:
    schema_version: str
    config: dict
    records: Records
    rejections: list
    aggregates: dict
    criteria: dict
    verdicts: dict
    passed: bool


def _metric(ctx):
    return {"G": ctx.pv.r * ctx.profile.value(ctx.pv.t, ctx.pv.s)}


def _check_rows(ctx, checks, sample=None):
    """G and the outputs of ``checks``: keys, and values and presence with a row per sample.

    The checks run in order, then G.  In a one-sample chunk of index ``sample``
    an error is raised again naming the check (or G), the sample and its (t, s).
    """
    pv = ctx.pv
    out = {"G": None}       # first in each row, evaluated last
    for what, step in [(f"check {name}", _CHECKS[name][0]) for name in checks] + [("G", _metric)]:
        try:
            out.update(step(ctx))
        except (FinslerCheckError, ArithmeticError) as exc:
            if sample is None:
                raise
            where = f"{what} at sample {sample}, (t, s) = ({pv.t[0]}, {pv.s[0]})"
            raise type(exc)(f"{where}: {exc}") from exc
    return (tuple(out), np.column_stack([np.ma.getdata(x) for x in out.values()]),
            np.column_stack([~np.ma.getmaskarray(x) for x in out.values()]))


def _checked_rows(profile, indices, pv, config, unitary):
    """``_check_rows`` of the samples ``pv`` holds, at once or, where that raises, in halves.

    Every check runs over the samples at once, and a floating-point event
    raises.  When that raises, each half runs the same way, the first half
    first, down to one-sample chunks, whose error names the check, the sample
    and (t, s); so the error that escapes is that of the first sample that
    raises, and of its first check in ``config.checks`` order.
    """
    lone = len(indices) == 1
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return _check_rows(_Chunk(profile, pv, config.fd, unitary), config.checks,
                               sample=indices[0] if lone else None)
    except (FinslerCheckError, ArithmeticError, ValueError):
        if lone:
            raise
    half = len(indices) // 2
    rows = [_checked_rows(profile, indices[part], PointVector(pv.z[:, part], pv.v[:, part]),
                          config, unitary) for part in (slice(None, half), slice(half, None))]
    return rows[0][0], *(np.concatenate([row[i] for row in rows]) for i in (1, 2))


def _chunk_records(profile, indices, pv, config, unitary):
    """The check fields, and ``Records`` values and presence, of the samples ``pv`` holds."""
    keys, checked, present = _checked_rows(profile, indices, pv, config, unitary)
    values = np.column_stack([indices, np.full(len(indices), pv.n), pv.t, pv.s, pv.r,
                              pv.pairing.real, pv.pairing.imag,
                              *(np.ascontiguousarray(x.T).view(float) for x in (pv.z, pv.v))])
    return (keys[1:], np.column_stack([values, checked]),
            np.column_stack([np.ones(values.shape, dtype=bool), present]))


def _aggregate(records):
    out = {}
    for name in sorted(records.fields):
        arr = records.column(name)
        if not arr.size:
            continue
        # a huge entry overflows the stddev to inf or nan: the report writer rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            out[name] = {
                "count": int(arr.size),
                "max": float(np.max(arr)),
                "mean": float(np.mean(arr)),
                "stddev": float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0,
            }
    return out


def _curvature_criterion(aggregates, records, model_k):
    """Pass/fail of the curvature check, with the model target when known."""
    detail = {"max_dev_direct_vs_closed": aggregates["kf_dev_direct"]["max"]}
    ok = detail["max_dev_direct_vs_closed"] < CURVATURE_TOL_DIRECT
    dev_w = aggregates.get("kf_dev_wk")
    if dev_w is not None:
        detail["max_dev_closed_vs_wk"] = dev_w["max"]
        ok &= dev_w["max"] < CURVATURE_TOL_WK
    else:
        detail["wk_formula"] = "not applicable at any sample"
    if model_k is not None:
        detail["target_k"] = model_k
        # a NaN that np.max passes on, and Python's max may not, is in the field's
        # aggregates too, which the report writer rejects before any criterion
        for key, tol in (("closed", CURVATURE_TOL_WK), ("direct", CURVATURE_TOL_DIRECT),
                         ("wk", CURVATURE_TOL_WK)):
            dev = np.abs(records.column(f"kf_{key}") - model_k)
            if dev.size:
                detail[f"max_{key}_minus_k"] = float(np.max(dev))
                ok &= detail[f"max_{key}_minus_k"] < tol
        detail["stddev_closed"] = aggregates["kf_closed"]["stddev"]
        ok &= detail["stddev_closed"] < CURVATURE_TOL_STD
    return bool(ok), detail


def _classify_verdict(records):
    """Aggregate Kahler-type verdict from the per-sample residual ladder."""
    total = len(records)
    weakly, kahler, strong = (records.column(f"classify_{key}")
                              for key in ("weakly", "kahler", "strong"))
    frac = lambda holds: int(np.count_nonzero(holds)) / total
    weakly_zero = frac(weakly < CLASSIFY_ZERO)
    kahler_zero = frac(kahler < CLASSIFY_ZERO)
    kahler_big = frac(kahler > CLASSIFY_NONZERO)
    weakly_big = frac(weakly > CLASSIFY_NONZERO)
    strong_zero = frac(strong < CLASSIFY_ZERO)
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
        spec = replace(spec, t_range=default_t_range(profile))

    samples, rejections = sample_domain_detailed(spec, profile)
    model_k = config.profile.get("k") if config.profile.get("family") == "model" else None
    unitary = seeded_unitary(spec.n, spec.seed ^ _UNITARY_SEED_SALT)

    chunk = _chunk_size(config.checks, spec.n)
    chunks = [_chunk_records(profile, samples.index[start:start + chunk],
                             samples.columns(start, start + chunk), config, unitary)
              for start in range(0, len(samples), chunk)]
    # the sampler accepts at least one sample
    records = Records(spec.n, chunks[0][0], *(np.concatenate([c[i] for c in chunks])
                                              for i in (1, 2)))
    aggregates = _aggregate(records)

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
        if name == "pseudoconvexity":
            criteria[name] = {"kind": "criterion",
                              "passed": bool(np.min(records.column(column)) >= 1.0),
                              "tolerance": "all samples strongly pseudo-convex",
                              "column": column}
        else:
            criteria[name] = {"kind": "criterion", "tolerance": tol,
                              "passed": bool(aggregates[column]["max"] < tol), "column": column}

    passed = all(c["passed"] for c in criteria.values() if c["passed"] is not None)

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
