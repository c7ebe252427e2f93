"""Deterministic Monte Carlo driver and its summaries.

Replication r of a scenario derives its randomness from (seed, r), so results
are bit-identical however the replications are scheduled; summaries reduce the
per-replication draws in replication order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..diagnostics import md_bias_bound
from ..estimators import ESTIMATORS, GroupArrays
from ..exceptions import ConfigError
from ..first_stage import estimate_arrays
from ..md import OracleSpec, fit_md_arrays
from ..moments import DEFAULT_RANK_TOL
from .dgp import ScenarioConfig, simulate

_Z95 = 1.959963984540054

ESTIMATOR_TAGS = tuple(ESTIMATORS)


@dataclass(frozen=True)
class McSummary:
    """Monte Carlo summary for one estimator.

    Coefficient-shaped fields are arrays over the effect coordinates (the
    basis coefficients of the design). ``mc_se`` is sd / sqrt(R); with a
    single replication the sd is reported as zero by convention. ``coverage``
    is the share of nominal 95 percent intervals containing the truth, or None
    when the estimator carries no standard errors.
    """

    estimator: str
    replications: int
    mean: np.ndarray
    sd: np.ndarray
    mc_se: np.ndarray
    bias: np.ndarray
    coverage: Optional[np.ndarray]
    mean_dropped_share: float


def default_spec(cfg: ScenarioConfig) -> OracleSpec:
    """Second-stage design matching the simulated processes.

    Heterogeneity spans every coordinate except the last (each group gets its
    own nuisance intercepts), and the policy acts on the last coordinate only:
    one basis matrix per policy column, with a one in the effect row.
    """
    k, p = cfg.k, cfg.p
    gamma = np.eye(k)[:, : k - 1]
    basis = []
    for j in range(p):
        b = np.zeros((k, p))
        b[k - 1, j] = 1.0
        basis.append(b)
    return OracleSpec(gamma, basis)


def true_coefficients(cfg: ScenarioConfig, spec: OracleSpec) -> np.ndarray:
    """Effect-coordinate truth of a scenario, in the design's basis."""
    from .plim import composition_truth  # local import to avoid a cycle

    if cfg.composition is not None:
        truth = composition_truth(cfg)
        B = np.zeros((cfg.k, cfg.p))
        B[cfg.k - 1, 0] = truth["beta1"]
        B[cfg.k - 1, 1] = truth["beta2"]
        return spec.basis_coefficients(B)
    return spec.basis_coefficients(cfg.b0)


def run_replications(
    cfg: ScenarioConfig,
    estimators: Sequence[str],
    R: int,
    spec: Optional[OracleSpec] = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> dict[str, dict[str, np.ndarray]]:
    """Raw per-replication draws for each estimator tag.

    Returns ``{tag: {"coefs": (R, m), "ses": (R, m), "dropped": (R,)}}``; the
    summary layer and the acceptance checks both build on this.
    """
    if R < 1:
        raise ConfigError("the replication count must be at least 1")
    for tag in estimators:
        if tag not in ESTIMATORS:
            raise ConfigError(
                f"unknown estimator {tag!r}; available: {', '.join(ESTIMATOR_TAGS)}"
            )
        if ESTIMATORS[tag].instrumented and cfg.kind != "iv":
            raise ConfigError(f"{tag} requires an instrumented scenario")
    if spec is None:
        spec = default_spec(cfg)
    out = {tag: {"coefs": [], "ses": [], "dropped": []} for tag in estimators}
    for r in range(1, R + 1):
        data = simulate(cfg, r)
        arrays = GroupArrays(
            data.H1, data.H2, data.n, data.W,
            H2_pop=data.H2_pop, theta_true=data.theta_true,
        )
        for tag in estimators:
            est = ESTIMATORS[tag].run(arrays, spec, rank_tol)
            out[tag]["coefs"].append(est.coefs)
            out[tag]["ses"].append(est.ses)
            out[tag]["dropped"].append(1.0 - float(np.mean(est.used)))
            del est  # free its fit before the next estimator runs
    return {
        tag: {key: np.asarray(values) for key, values in v.items()}
        for tag, v in out.items()
    }


def summarize_draws(
    tag: str, draws: dict[str, np.ndarray], b_true: np.ndarray
) -> McSummary:
    coefs = draws["coefs"]
    ses = draws["ses"]
    R = coefs.shape[0]
    mean = coefs.mean(axis=0)
    sd = coefs.std(axis=0, ddof=1) if R > 1 else np.zeros(mean.shape)
    mc_se = sd / np.sqrt(R)
    b_true = np.asarray(b_true, dtype=float)
    bias = mean - b_true
    coverage = None
    if np.all(np.isfinite(ses)) and np.any(ses > 0):
        covered = np.abs(coefs - b_true[None, :]) <= _Z95 * ses
        coverage = covered.mean(axis=0)
    return McSummary(
        estimator=tag,
        replications=R,
        mean=mean,
        sd=sd,
        mc_se=mc_se,
        bias=bias,
        coverage=coverage,
        mean_dropped_share=float(np.mean(draws["dropped"])),
    )


def run_monte_carlo(
    cfg: ScenarioConfig,
    estimators: Sequence[str],
    R: int,
    spec: Optional[OracleSpec] = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> list[McSummary]:
    """Run R replications of a scenario and summarize each estimator.

    Deterministic given the configuration: replication r draws from streams
    keyed on (cfg.seed, r), and summaries reduce in replication order.
    """
    if spec is None:
        spec = default_spec(cfg)
    draws = run_replications(cfg, estimators, R, spec=spec, rank_tol=rank_tol)
    b_true = true_coefficients(cfg, spec)
    return [summarize_draws(tag, draws[tag], b_true) for tag in estimators]


def selection_bound_audit(
    cfg: ScenarioConfig,
    R: int,
    spec: Optional[OracleSpec] = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> dict[str, np.ndarray]:
    """Check the discarded-group bound on every replication of a scenario.

    For each replication, fits the second stage on the true group parameters
    twice (all groups, then only the groups whose sample Jacobian inverts),
    measures the realized coefficient deviation in Frobenius norm, and
    evaluates the bound with the oracle residuals of the full fit. Returns the
    per-replication deviations, bounds, and dropped shares.
    """
    if spec is None:
        spec = default_spec(cfg)
    deviations = np.zeros(R)
    bounds = np.zeros(R)
    shares = np.zeros(R)
    for r in range(1, R + 1):
        data = simulate(cfg, r)
        _, omega = estimate_arrays(data.H1, data.H2, rank_tol=rank_tol)
        full = fit_md_arrays(
            data.theta_true, np.ones(data.G, dtype=int), data.W, spec
        )
        sel = fit_md_arrays(data.theta_true, omega, data.W, spec)
        delta = np.concatenate(
            [
                (sel.alpha_hat - full.alpha_hat).reshape(-1),
                (sel.B_hat - full.B_hat).reshape(-1),
            ]
        )
        deviations[r - 1] = float(np.linalg.norm(delta))
        report = md_bias_bound(
            data.W, omega, full.resid, spec, residual_source="oracle"
        )
        bounds[r - 1] = report.bound_value
        shares[r - 1] = 1.0 - float(np.mean(omega))
    return {"deviation": deviations, "bound": bounds, "dropped_share": shares}
