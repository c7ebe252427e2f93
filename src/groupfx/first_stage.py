"""Per-group first-stage estimation.

Two routes to a group estimate: the plug-in solve of the sample moment system
(which can fail on unlucky samples, recorded by the selection indicator
omega), and a design-based alternative that inverts an externally supplied
population Jacobian and therefore never fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .exceptions import InvalidInputError, InvalidProbabilityError
from .moments import (
    DEFAULT_RANK_TOL,
    GroupSample,
    block_means,
    nonsingular,
    stack_averages,
)


@dataclass(frozen=True)
class GroupEstimate:
    """First-stage output for one group.

    ``omega`` is 1 exactly when ``theta_hat`` is present. The sample Jacobian
    ``H2_hat`` is retained even for unselected groups; the pooled estimator
    and the selection diagnostics both need it.
    """

    group_id: str
    theta_hat: Optional[np.ndarray]
    omega: int
    n_g: int
    H2_hat: np.ndarray
    H1_hat: np.ndarray

    def __post_init__(self) -> None:
        if self.omega not in (0, 1):
            raise InvalidInputError(f"omega must be 0 or 1, got {self.omega}")
        if (self.theta_hat is None) == (self.omega == 1):
            raise InvalidInputError("theta_hat must be present iff omega is 1")


@dataclass(frozen=True)
class AuxiliaryDesign:
    """Known population Jacobian for one group.

    ``source`` records where the matrix came from ("supplied" for file input,
    "modeled" when produced by a caller-side model hook).
    """

    H2_pop: np.ndarray
    source: str = "supplied"
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self) -> None:
        H2 = np.asarray(self.H2_pop, dtype=float)
        if H2.ndim != 2 or H2.shape[0] != H2.shape[1]:
            raise InvalidInputError(f"H2_pop must be square, got shape {H2.shape}")
        if not np.all(np.isfinite(H2)):
            raise InvalidInputError("H2_pop must be finite")
        if not nonsingular(H2, self.rank_tol):
            raise InvalidInputError(
                "auxiliary H2_pop is singular at the configured rank tolerance"
            )
        object.__setattr__(self, "H2_pop", H2)


def estimate_group(
    sample: GroupSample, rank_tol: float = DEFAULT_RANK_TOL
) -> GroupEstimate:
    """Plug-in estimate theta_hat = H2_hat^{-1} H1_hat with selection indicator.

    A singular sample Jacobian yields omega = 0 and no theta_hat; the averages
    are recorded either way.
    """
    return estimate_groups([sample], rank_tol=rank_tol)[sample.group_id]


def estimate_group_alt(sample: GroupSample, aux: AuxiliaryDesign) -> GroupEstimate:
    """Design-based estimate using a known population Jacobian.

    theta_hat = H2_pop^{-1} H1_hat is defined for every sample, so omega is
    always 1, and it is unconditionally unbiased under the moment model.
    """
    return estimate_groups([sample], aux={sample.group_id: aux})[sample.group_id]


def estimate_groups(
    samples: Sequence[GroupSample],
    rank_tol: float = DEFAULT_RANK_TOL,
    aux: Optional[Mapping[str, AuxiliaryDesign]] = None,
) -> dict[str, GroupEstimate]:
    """Estimate every group, returning an ordered map keyed by group_id.

    The groups are solved together by :func:`estimate_arrays`, and the output
    order is the input order. When ``aux`` is given it must cover every group
    and the design-based route is used throughout.
    """
    seen: set[str] = set()
    for sample in samples:
        gid = sample.group_id
        if gid in seen:
            raise InvalidInputError(f"duplicate group_id {gid!r}")
        seen.add(gid)
    if not samples:
        return {}
    H1, H2 = stack_averages(samples)
    H2_pop = None
    if aux is not None:
        H2_pop = stack_aux(aux, [s.group_id for s in samples])
        if H2_pop.shape != H2.shape:
            raise InvalidInputError(
                f"auxiliary designs are {H2_pop.shape[1]}-dimensional, "
                f"the groups have k={H2.shape[1]}"
            )
    theta, omega = estimate_arrays(H1, H2, rank_tol=rank_tol, H2_pop=H2_pop)
    return {
        s.group_id: GroupEstimate(
            group_id=s.group_id,
            theta_hat=theta[i] if omega[i] else None,
            omega=int(omega[i]),
            n_g=s.n_g,
            H2_hat=H2[i],
            H1_hat=H1[i],
        )
        for i, s in enumerate(samples)
    }


def stack_aux(
    aux: Mapping[str, AuxiliaryDesign], group_ids: Sequence[str]
) -> np.ndarray:
    """The population Jacobians of the given groups, stacked to (G, k, k).

    Raises if ``aux`` does not cover every group.
    """
    for gid in group_ids:
        if gid not in aux:
            raise InvalidInputError(f"no auxiliary design for group {gid!r}")
    return np.stack([aux[gid].H2_pop for gid in group_ids])


def ipw_tau(delta_y: np.ndarray, e: np.ndarray, pi: float) -> float:
    """Inverse-probability-weighted effect estimate with known event probability.

    Computes the sample average of (e - pi) / (pi (1 - pi)) * delta_y. Defined
    even when the sample contains no events; algebraically identical to the
    effect coordinate of :func:`estimate_group_alt` with the population
    Jacobian [[1, pi], [pi, pi]].
    """
    if not (0.0 < pi < 1.0):
        raise InvalidProbabilityError(f"pi must lie strictly in (0, 1), got {pi}")
    dy = np.asarray(delta_y, dtype=float)
    ev = np.asarray(e, dtype=float)
    if dy.ndim != 1 or dy.shape != ev.shape:
        raise InvalidInputError("delta_y and e must be equal-length vectors")
    if dy.shape[0] < 1:
        raise InvalidInputError("ipw_tau needs at least one observation")
    if not (np.all(np.isfinite(dy)) and np.all(np.isfinite(ev))):
        raise InvalidInputError("ipw_tau inputs must be finite")
    weights = (ev - pi) / (pi * (1.0 - pi))
    return float(block_means(weights * dy, [dy.shape[0]])[0])


def estimate_arrays(
    H1: np.ndarray,
    H2: np.ndarray,
    rank_tol: float = DEFAULT_RANK_TOL,
    H2_pop: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized first stage over stacked per-group moment averages.

    Parameters
    ----------
    H1 : ndarray, shape (G, k)
    H2 : ndarray, shape (G, k, k)
    H2_pop : ndarray, shape (G, k, k), optional
        When given, the design-based route is used and every group is selected.

    Returns
    -------
    theta : ndarray, shape (G, k)
        Estimates; rows of unselected groups are zero and must be masked by
        ``omega``.
    omega : ndarray, shape (G,)
        Selection indicators (all ones on the design-based route).
    """
    H1 = np.asarray(H1, dtype=float)
    H2 = np.asarray(H2, dtype=float)
    G, k = H1.shape
    if H2_pop is not None:
        theta = np.linalg.solve(np.asarray(H2_pop, dtype=float), H1[..., None])[..., 0]
        return theta, np.ones(G, dtype=int)
    omega = nonsingular(H2, rank_tol)
    theta = np.zeros((G, k))
    if np.any(omega):
        theta[omega] = np.linalg.solve(H2[omega], H1[omega][..., None])[..., 0]
    return theta, omega.astype(int)
