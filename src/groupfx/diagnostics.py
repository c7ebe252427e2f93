"""Computable warnings and bounds for the two-step estimator.

The point of the two-step route is that its failure modes are visible: groups
that had to be discarded are counted, the worst-case effect of discarding them
is bounded, and the implicit weights of one-step alternatives have closed
forms that can be inspected. This module turns those observations into report
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .exceptions import DesignDeficientError, InvalidInputError
from .first_stage import GroupEstimate
from .gmm import weighted_slope
from .md import _EIG_TOL, OracleSpec
from .moments import as_columns, design_singular


@dataclass(frozen=True)
class SelectionReport:
    """How many groups the two-step estimator had to discard.

    ``flag`` is raised when the discarded share exceeds 1/sqrt(G), the scale
    at which the selection effect stops being negligible next to the
    second-stage statistical noise.
    """

    G: int
    dropped: int
    share: float
    heuristic_threshold: float
    flag: bool


@dataclass(frozen=True)
class BoundReport:
    """Worst-case deviation caused by discarding groups.

    ``bound_value`` assembles exactly as
    (1 / min(1, kappa)) * sqrt(1 + max ||W||^2) / lambda_min(M)
    * max ||r||_2 * (dropped / G)
    from the stored components. ``residual_source`` records whether the
    residuals were oracle quantities (simulations) or feasible proxies.
    """

    bound_value: float
    kappa: float
    lambda_min_M: float
    max_policy_norm: float
    max_residual_norm: float
    dropped_share: float
    residual_source: str = "proxy"


def selection_report(estimates: Sequence[GroupEstimate]) -> SelectionReport:
    """Count discarded groups and compare their share against 1/sqrt(G)."""
    return selection_report_arrays(np.array([e.omega for e in estimates], dtype=int))


def selection_report_arrays(omega: np.ndarray) -> SelectionReport:
    """:func:`selection_report` from the (G,) selection indicators."""
    G = int(np.shape(omega)[0])
    if G < 1:
        raise InvalidInputError("selection report needs at least one group")
    dropped = G - int(np.count_nonzero(omega))
    share = dropped / G
    threshold = 1.0 / np.sqrt(G)
    return SelectionReport(
        G=G,
        dropped=dropped,
        share=share,
        heuristic_threshold=float(threshold),
        flag=bool(share > threshold),
    )


def md_bias_bound(
    policies: np.ndarray,
    omegas: np.ndarray,
    residuals: np.ndarray,
    spec: OracleSpec,
    residual_source: str = "proxy",
) -> BoundReport:
    """Bound on the coefficient shift from fitting only the selected groups.

    Parameters
    ----------
    policies : ndarray, shape (G, p)
    omegas : ndarray, shape (G,)
        Selection indicators.
    residuals : ndarray, shape (G, k)
        Per-group second-stage residuals; oracle residuals when available
        (simulations), feasible ones otherwise. Set ``residual_source``
        accordingly, it is carried into the report.

    The bound is proportional to the discarded share, with a constant built
    from the design: the identification constant, the smallest eigenvalue of
    the selected policy moment matrix M = (1/G) sum omega_g (1, W_g)'(1, W_g),
    and the largest policy and residual norms.
    """
    W = as_columns(policies)
    omegas = np.asarray(omegas, dtype=float)
    res = as_columns(residuals)
    G = W.shape[0]
    if omegas.shape[0] != G or res.shape[0] != G:
        raise InvalidInputError("policies, omegas and residuals must align")
    ones_w = np.concatenate([np.ones((G, 1)), W], axis=1)
    M = (ones_w.T * omegas) @ ones_w / G
    eigs = np.linalg.eigvalsh(M)
    lam_min = float(eigs[0])
    if design_singular(M, ones_w, _EIG_TOL):
        raise DesignDeficientError(
            "selected policy moment matrix is singular; the bound is undefined"
        )
    max_w = float(np.max(np.linalg.norm(W, axis=1))) if G else 0.0
    max_r = float(np.max(np.linalg.norm(res, axis=1)))
    dropped_share = float(np.sum(1.0 - omegas) / G)
    kap = spec.kappa
    bound = (
        (1.0 / min(1.0, kap))
        * (np.sqrt(1.0 + max_w**2) / lam_min)
        * max_r
        * dropped_share
    )
    return BoundReport(
        bound_value=float(bound),
        kappa=float(kap),
        lambda_min_M=lam_min,
        max_policy_norm=max_w,
        max_residual_norm=max_r,
        dropped_share=dropped_share,
        residual_source=residual_source,
    )


def banking_weight(p_a: float, p_b: float) -> float:
    """Effective weight of a market with two identifying firm shares.

    Equals p_a p_b / (p_a + p_b)^2; symmetric, and never above 1/4 (the
    arithmetic-geometric mean inequality, attained when the shares match).
    """
    if not (0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0):
        raise InvalidInputError("shares must lie in [0, 1]")
    if p_a + p_b <= 0.0:
        raise InvalidInputError("at least one share must be positive")
    return float(p_a * p_b / (p_a + p_b) ** 2)


def banking_bias(
    delta_u: np.ndarray,
    delta_w: np.ndarray,
    p_a: np.ndarray,
    p_b: np.ndarray,
    prob: np.ndarray,
) -> float:
    """Asymptotic slope bias of the pooled estimator in the two-share design.

    Enumerates Cov_w[delta_u, delta_w] / Var_w[delta_w] over the finite
    support, with state weights from :func:`banking_weight`.
    """
    du = np.asarray(delta_u, dtype=float)
    dw = np.asarray(delta_w, dtype=float)
    pa = np.asarray(p_a, dtype=float)
    pb = np.asarray(p_b, dtype=float)
    pr = np.asarray(prob, dtype=float)
    if not (du.shape == dw.shape == pa.shape == pb.shape == pr.shape):
        raise InvalidInputError("all state arrays must share one shape")
    if np.any(pr < 0) or abs(float(np.sum(pr)) - 1.0) > 1e-12:
        raise InvalidInputError("state probabilities must form a distribution")
    w = np.array([banking_weight(a, b) for a, b in zip(pa, pb)])
    return weighted_slope(du, dw, pr * w)


def conditioning_summary(
    estimates: Sequence[GroupEstimate],
) -> Optional[Mapping[str, float]]:
    """Smallest-singular-value summary of the selected sample Jacobians."""
    return conditioning_summary_arrays(
        np.array([e.H2_hat for e in estimates]), [e.omega for e in estimates]
    )


def conditioning_summary_arrays(
    H2: np.ndarray, omega: np.ndarray
) -> Optional[Mapping[str, float]]:
    """:func:`conditioning_summary` from stacked H2 (G, k, k) and omega (G,)."""
    selected = np.asarray(H2)[np.asarray(omega) == 1]
    if not selected.shape[0]:
        return None
    arr = np.linalg.svd(selected, compute_uv=False)[:, -1]
    return {
        "min_smallest_singular_value": float(np.min(arr)),
        "median_smallest_singular_value": float(np.median(arr)),
    }
