"""Within-group and pooled instrumented estimators.

The pooled fit regresses the outcome change on group dummies, the event, and
the event-policy interaction, instrumented by the dummies, the instrument,
and the instrument-policy interaction. With the dummies partialled out the
just-identified system collapses to two stacked covariance equations per
group, so only the averaged moments are needed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import DesignDeficientError, InvalidInputError
from ..md import FitResult
from ..moments import (
    DEFAULT_RANK_TOL,
    GroupSample,
    average_moments,
    design_singular,
    solve_theta,
    stack_averages,
)


def tsls_group(
    sample: GroupSample, rank_tol: float = DEFAULT_RANK_TOL
) -> Optional[np.ndarray]:
    """Exactly identified within-group instrumented estimate.

    Shares the contract of :func:`groupfx.moments.solve_theta`: None when the
    sample instrument-regressor cross moments are singular (for the two-by-two
    design, when the in-sample covariance of instrument and event vanishes).
    """
    return solve_theta(average_moments(sample), rank_tol=rank_tol)


def tsls_pooled_arrays(
    H1: np.ndarray,
    H2: np.ndarray,
    n: np.ndarray,
    W: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled instrumented fit from stacked moment averages.

    Returns the coefficient pair (base effect, policy interaction) and its
    group-clustered sandwich variance.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim == 2:
        if W.shape[1] != 1:
            raise InvalidInputError("the pooled instrumented fit takes a scalar policy")
        W = W[:, 0]
    H1 = np.asarray(H1, dtype=float)
    H2 = np.asarray(H2, dtype=float)
    nf = np.asarray(n, dtype=float)
    # within-group Cov(z, dy) and Cov(z, e), times the group size
    m_z = H2[:, 1, 0]
    szy = (H1[:, 1] - m_z * H1[:, 0]) * nf
    sze = (H2[:, 1, 1] - m_z * H2[:, 0, 1]) * nf
    A = np.empty((2, 2))
    A[0, 0] = np.sum(sze)
    A[0, 1] = np.sum(sze * W)
    A[1, 0] = A[0, 1]
    A[1, 1] = np.sum(sze * W * W)
    rhs = np.array([np.sum(szy), np.sum(szy * W)])
    if design_singular(A, np.stack([np.ones_like(W), W], axis=1), 1e-12):
        raise DesignDeficientError(
            "instrumented design is rank deficient: compliance does not vary "
            "enough across policy values"
        )
    coefs = np.linalg.solve(A, rhs)
    resid = szy - sze * (coefs[0] + coefs[1] * W)
    scores = np.stack([resid, resid * W], axis=1)
    bread = np.linalg.inv(A)
    vcov = bread @ (scores.T @ scores) @ bread.T
    return coefs, vcov


def tsls_pooled(
    samples: Sequence[GroupSample],
    policies: np.ndarray,
    spec=None,
) -> FitResult:
    """Pooled instrumented fit from raw group samples.

    The result is packaged as a :class:`FitResult` with the policy-interaction
    coefficient as the single effect entry (``B_hat[0, 0]``) and the base
    effect in ``alpha_hat``; group-level quantities are not reported because
    the dummies are concentrated out. ``spec`` is accepted for interface
    symmetry and not consulted.
    """
    if not samples:
        raise InvalidInputError("no group samples supplied")
    H1, H2 = stack_averages(samples)
    n = np.array([s.n_g for s in samples], dtype=float)
    coefs, vcov = tsls_pooled_arrays(H1, H2, n, policies)
    return FitResult(
        B_hat=np.array([[coefs[1]]]),
        alpha_hat=np.array([coefs[0]]),
        basis_coefs=np.array([coefs[1]]),
        alpha_tilde=np.array([coefs[0]]),
        lam=None,
        resid=None,
        vcov_B=vcov[1:, 1:],
        vcov_full=vcov,
        n_used=len(samples),
        n_dropped=0,
        positions=np.arange(len(samples)),
        ids=[s.group_id for s in samples],
    )
