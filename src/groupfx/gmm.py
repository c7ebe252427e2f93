"""Pooled one-step GMM estimation and its population-limit diagnostics.

Because the moments are linear in theta, the pooled estimator is a weighted
least squares problem in disguise: each group enters with the effective weight
matrix H2' A H2 built from its sample Jacobian. The quadratic forms are
assembled directly from the averaged moments, so groups whose Jacobian is
singular still contribute; nothing is dropped, which is exactly what makes the
implicit weighting invisible in practice.

The second half of the module works on finite-support scenario descriptions,
where the estimator's probability limit, the consistency condition, and the
decomposition of weighting bias into its causal and statistical parts can all
be computed by exact enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import (
    DegenerateScenarioError,
    InvalidInputError,
    UnsupportedScenarioError,
)
from .first_stage import estimate_arrays
from .md import _EIG_TOL, FitResult, OracleSpec, concentrate_weights, fit_core
from .moments import DEFAULT_RANK_TOL, GroupSample, as_columns, stack_averages

_SYM_TOL = 1e-12


def _check_psd_stack(A: np.ndarray, psd_tol: float, what: str) -> None:
    """Reject a (n, k, k) stack that is not symmetric PSD at its own scale.

    The asymmetry is measured against the largest entry and the most
    negative eigenvalue against the largest eigenvalue magnitude, so the
    decision does not depend on the units of the matrices.
    """
    if A.size == 0:
        raise InvalidInputError(f"{what} must not be empty")
    if np.max(np.abs(A - A.transpose(0, 2, 1))) > _SYM_TOL * np.max(np.abs(A)):
        raise InvalidInputError(f"{what} must be symmetric")
    eigs = np.linalg.eigvalsh((A + A.transpose(0, 2, 1)) / 2.0)
    if np.min(eigs) < -psd_tol * np.max(np.abs(eigs)):
        raise InvalidInputError(f"{what} must be positive semidefinite")


@dataclass(frozen=True)
class GmmWeights:
    """Per-group weighting matrices for the pooled objective.

    ``matrices`` is None for the identity preset (the default, matching the
    pooled regression interpretation) or a (G, k, k) stack of symmetric
    positive semidefinite matrices aligned with the groups.
    """

    matrices: Optional[np.ndarray] = None
    preset: str = "identity"

    def __post_init__(self) -> None:
        if self.matrices is None:
            return
        A = np.asarray(self.matrices, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise InvalidInputError("weight matrices must be a (G, k, k) stack")
        _check_psd_stack(A, 1e-12, "weight matrices")
        object.__setattr__(self, "matrices", A)
        object.__setattr__(self, "preset", "custom")


def effective_weight(H2_hat: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Implicit group weight H2' A H2 applied by the pooled estimator."""
    H2 = np.asarray(H2_hat, dtype=float)
    A = np.asarray(A, dtype=float)
    return H2.T @ A @ H2


def fit_gmm_pooled_arrays(
    H1: np.ndarray,
    H2: np.ndarray,
    W: np.ndarray,
    spec: OracleSpec,
    weights: Optional[GmmWeights] = None,
    group_ids: Optional[Sequence[str]] = None,
    rank_tol: float = DEFAULT_RANK_TOL,
    first_stage: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> FitResult:
    """Pooled GMM fit from stacked per-group moment averages.

    Builds the per-group quadratic forms A~ = H2' A H2 and linear terms
    H2' A H1, concentrates the group fixed effects, and solves the same
    Schur-complement system as the minimum distance fit, with matrix-valued
    weights. Every group participates; ``n_used``/``n_dropped`` still report
    how many sample Jacobians were invertible, for comparison with the
    two-step estimator. Residuals are reported for the groups where the
    plug-in theta exists. ``first_stage`` passes the (theta, omega) that
    :func:`estimate_arrays` returns for these H1, H2 and ``rank_tol``, so a
    caller that already has them does not solve the groups again.
    """
    H1 = np.asarray(H1, dtype=float)
    H2 = np.asarray(H2, dtype=float)
    G = H1.shape[0]
    if weights is None or weights.matrices is None:
        atilde = H2.transpose(0, 2, 1) @ H2
        c = np.einsum("glk,gl->gk", H2, H1)
    else:
        A = weights.matrices
        if A.shape[0] != G:
            raise InvalidInputError("weight matrices must align with the groups")
        atilde = H2.transpose(0, 2, 1) @ A @ H2
        c = np.einsum("glk,glr,gr->gk", H2, A, H1)

    if first_stage is None:
        first_stage = estimate_arrays(H1, H2, rank_tol=rank_tol)
    theta, omega = first_stage
    theta = np.where(omega[:, None].astype(bool), theta, np.nan)
    fit = fit_core(
        theta,
        W,
        spec,
        include=np.ones(G, dtype=bool),
        weights=spec.group_weights,
        matrix_weights=atilde,
        linear_terms=c,
        group_ids=group_ids,
    )
    fit.n_used = int(np.sum(omega))
    fit.n_dropped = int(G - np.sum(omega))
    return fit


def fit_gmm_pooled(
    samples: Sequence[GroupSample],
    policies: np.ndarray,
    spec: OracleSpec,
    weights: Optional[GmmWeights] = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> FitResult:
    """Pooled GMM fit from raw group samples; see :func:`fit_gmm_pooled_arrays`."""
    if not samples:
        raise InvalidInputError("no group samples supplied")
    H1, H2 = stack_averages(samples)
    ids = [s.group_id for s in samples]
    return fit_gmm_pooled_arrays(
        H1, H2, policies, spec, weights=weights, group_ids=ids, rank_tol=rank_tol
    )


@dataclass(frozen=True)
class DiscreteScenario:
    """Finite-support description of the group population.

    Each state s carries a policy vector, the group's intercept heterogeneity
    (the potential outcome is alpha_s + B0_true w), the effective weighting
    matrix the estimator applies in that state, and the state probability.
    Effective weight matrices may be singular (for example, states where the
    sample Jacobian degenerates); the population system only needs the
    aggregated blocks to be invertible.
    """

    W: np.ndarray  # (S, p); a vector is one policy column
    alpha: np.ndarray  # (S, k)
    atilde: np.ndarray  # (S, k, k), symmetric PSD
    prob: np.ndarray  # (S,)
    B0_true: np.ndarray  # (k, p)
    gamma: np.ndarray  # (k, q)
    b0_basis: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        W = as_columns(self.W)
        alpha = np.asarray(self.alpha, dtype=float)
        atilde = np.asarray(self.atilde, dtype=float)
        prob = np.asarray(self.prob, dtype=float)
        if W.ndim != 2 or W.shape[0] != prob.shape[0]:
            raise InvalidInputError(
                f"W must have one row per state ({prob.shape[0]}), got shape {W.shape}"
            )
        if np.any(prob < 0):
            raise InvalidInputError("state probabilities must be nonnegative")
        if abs(float(np.sum(prob)) - 1.0) > 1e-12:
            raise InvalidInputError("state probabilities must sum to 1")
        _check_psd_stack(atilde, 1e-9, "effective weight matrices")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "atilde", atilde)
        object.__setattr__(self, "prob", prob)
        object.__setattr__(self, "B0_true", np.asarray(self.B0_true, dtype=float))
        object.__setattr__(self, "gamma", as_columns(self.gamma))
        object.__setattr__(
            self, "b0_basis", tuple(np.asarray(b, dtype=float) for b in self.b0_basis)
        )

    @property
    def spec(self) -> OracleSpec:
        return OracleSpec(self.gamma, list(self.b0_basis))

    @property
    def n_states(self) -> int:
        return self.prob.shape[0]

    @classmethod
    def from_dict(cls, payload: dict) -> "DiscreteScenario":
        """Build a scenario from the structured (JSON-compatible) form."""
        required = {"W", "alpha", "atilde", "prob", "B0_true", "gamma", "b0_basis"}
        missing = required - set(payload)
        if missing:
            raise InvalidInputError(f"scenario payload missing keys {sorted(missing)}")
        unknown = set(payload) - required
        if unknown:
            raise InvalidInputError(f"scenario payload has unknown keys {sorted(unknown)}")
        k = len(payload["alpha"][0])
        gamma = np.asarray(payload["gamma"], dtype=float)
        if gamma.size == 0:
            gamma = np.zeros((k, 0))
        elif gamma.ndim == 1:
            gamma = gamma.reshape(k, -1)
        return cls(
            W=np.asarray(payload["W"], dtype=float),
            alpha=np.asarray(payload["alpha"], dtype=float),
            atilde=np.asarray(payload["atilde"], dtype=float),
            prob=np.asarray(payload["prob"], dtype=float),
            B0_true=np.asarray(payload["B0_true"], dtype=float),
            gamma=gamma,
            b0_basis=tuple(np.asarray(b, dtype=float) for b in payload["b0_basis"]),
        )

    def to_dict(self) -> dict:
        return {
            "W": self.W.tolist(),
            "alpha": self.alpha.tolist(),
            "atilde": self.atilde.tolist(),
            "prob": self.prob.tolist(),
            "B0_true": self.B0_true.tolist(),
            "gamma": self.gamma.tolist(),
            "b0_basis": [b.tolist() for b in self.b0_basis],
        }


def _population_blocks(scn: DiscreteScenario):
    """Concentrated population quantities shared by the plim computations."""
    spec = scn.spec
    U = spec.U
    Q, _, _ = concentrate_weights(
        scn.atilde, np.zeros((scn.n_states, spec.k)), spec.gamma
    )
    Qc = np.einsum("ka,skl,lb->sab", U, Q, U)  # states' forms in projected space
    p = scn.prob
    H11 = np.einsum("s,sab->ab", p, Qc)
    eigs = np.linalg.eigvalsh(H11)
    if eigs[0] <= _EIG_TOL * eigs[-1]:
        raise DegenerateScenarioError(
            "population intercept system is singular; no state gives the "
            "projected coordinates positive weight"
        )
    alpha_proj = scn.alpha @ U  # (S, k')
    alpha0_t = np.linalg.solve(H11, np.einsum("s,sab,sb->a", p, Qc, alpha_proj))
    eps_t = alpha_proj - alpha0_t[None, :]
    return spec, U, Qc, H11, alpha0_t, eps_t


def gmm_plim(scn: DiscreteScenario) -> dict[str, np.ndarray]:
    """Exact probability limit of the pooled estimator on a discrete scenario.

    Solves the population GLS intercept problem, forms the Schur complement of
    the population Hessian in the projected coordinates, and projects the
    unconstrained coefficient error onto the effect subspace in the Hessian
    metric, all by exhaustive enumeration over the support.

    Returns a dict with ``B_lim`` (k x p), ``alpha0`` (the selection-adjusted
    population intercept, k-vector), and ``bias`` (B_lim - B0_true).
    """
    spec, U, Qc, H11, alpha0_t, eps_t = _population_blocks(scn)
    kp, m, p_dim = spec.k_proj, spec.m, spec.p
    pr = scn.prob
    Wmat = scn.W

    # population kron(W, Qc) blocks: row block i of H21 holds E[W_i * Qc]
    H21 = np.concatenate(
        [np.einsum("s,s,sab->ab", pr, Wmat[:, i], Qc) for i in range(p_dim)], axis=0
    )
    H22 = np.zeros((p_dim * kp, p_dim * kp))
    for i in range(p_dim):
        for j in range(p_dim):
            H22[i * kp : (i + 1) * kp, j * kp : (j + 1) * kp] = np.einsum(
                "s,s,s,sab->ab", pr, Wmat[:, i], Wmat[:, j], Qc
            )
    C1 = np.einsum("s,sab,sb->a", pr, Qc, eps_t)
    C2 = np.einsum("s,sab,sb,si->ai", pr, Qc, eps_t, Wmat).reshape(-1, order="F")

    H11_inv_H12 = np.linalg.solve(H11, H21.T)
    S = H22 - H21 @ H11_inv_H12
    try:
        v_unc = np.linalg.solve(S, C2 - H21 @ np.linalg.solve(H11, C1))
    except np.linalg.LinAlgError as exc:
        raise DegenerateScenarioError("population Schur complement is singular") from exc

    if m:
        psi = np.stack(
            [(U.T @ b).reshape(-1, order="F") for b in spec.b0_basis], axis=1
        )
        gram = psi.T @ S @ psi
        try:
            coefs = np.linalg.solve(gram, psi.T @ S @ v_unc)
        except np.linalg.LinAlgError as exc:
            raise DegenerateScenarioError(
                "effect subspace is degenerate under the population metric"
            ) from exc
        delta_B = spec.effect_from_coefficients(coefs)
    else:
        delta_B = np.zeros((spec.k, p_dim))

    return {
        "B_lim": scn.B0_true + delta_B,
        "alpha0": U @ alpha0_t,
        "bias": delta_B,
    }


def consistency_condition(scn: DiscreteScenario) -> np.ndarray:
    """Population condition whose vanishing characterizes a zero plim bias.

    Returns the k x p matrix P_perp Cov[A~ eps0, W] computed by enumeration:
    the covariance of the weighted heterogeneity residuals with the policy,
    projected orthogonal to the fixed-effect directions. Its norm is zero
    exactly when :func:`gmm_plim` reports zero bias (up to the projection onto
    the effect subspace, which cannot create bias from a zero covariance).
    """
    spec, U, Qc, H11, alpha0_t, eps_t = _population_blocks(scn)
    pr = scn.prob
    weighted = np.einsum("sab,sb->sa", Qc, eps_t)  # U' A~ eps0 per state
    mean_w = np.einsum("s,sa->a", pr, weighted)
    mean_W = np.einsum("s,si->i", pr, scn.W)
    cov = np.einsum("s,sa,si->ai", pr, weighted, scn.W) - np.outer(mean_w, mean_W)
    return U @ cov


def weighted_slope(y: np.ndarray, x: np.ndarray, weight: np.ndarray) -> float:
    """Slope of the weighted regression of y on x over a finite support.

    Cov_w[y, x] / Var_w[x] with nonnegative state masses ``weight`` (they
    need not sum to 1), evaluated as sum w y (x - mu) / sum w x (x - mu).
    A variance that vanishes next to sum w x^2 counts as zero, so the
    decision does not depend on the units of x.
    """
    mass = float(np.sum(weight))
    if mass <= 0.0:
        raise DegenerateScenarioError("all states carry zero weight")
    dx = x - float(np.sum(weight * x) / mass)
    denom = float(np.sum(weight * x * dx))
    if denom <= _EIG_TOL * float(np.sum(weight * x * x)):
        raise DegenerateScenarioError("weighted variance of the regressor is zero")
    return float(np.sum(weight * y * dx)) / denom


@dataclass(frozen=True)
class BinaryWeightScenario:
    """Scalar-outcome scenario with a binary policy and potential weights.

    Each state carries the heterogeneity residual ``eps``, the realized binary
    policy ``w``, the two potential effective weights ``sigma0``/``sigma1``
    (the weight the estimator would apply under w = 0 and w = 1), and the
    state probability.
    """

    eps: np.ndarray
    w: np.ndarray
    sigma0: np.ndarray
    sigma1: np.ndarray
    prob: np.ndarray

    def __post_init__(self) -> None:
        for name in ("eps", "w", "sigma0", "sigma1", "prob"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not set(np.unique(self.w)).issubset({0.0, 1.0}):
            raise UnsupportedScenarioError(
                "weighting-bias decomposition requires a binary policy"
            )
        if abs(float(np.sum(self.prob)) - 1.0) > 1e-12 or np.any(self.prob < 0):
            raise InvalidInputError("state probabilities must form a distribution")


def _cond_mean(values: np.ndarray, prob: np.ndarray, mask: np.ndarray) -> float:
    pm = float(np.sum(prob[mask]))
    if pm <= 0.0:
        raise UnsupportedScenarioError("both policy arms need positive probability")
    return float(np.sum(prob[mask] * values[mask]) / pm)


def bias_decomposition(scn: BinaryWeightScenario) -> dict[str, float]:
    """Split the weighted-error imbalance into causal and static parts.

    ``endogenous`` is the treated-arm mean of (sigma1 - sigma0) eps: the part
    of the imbalance created because the policy itself moves the weights.
    ``statistical`` compares sigma0-weighted errors across arms: the part that
    exists before the policy touches anything. Their sum equals the total
    imbalance E[sigma1 eps | w=1] - E[sigma0 eps | w=0] by construction, and
    ``total`` reports that quantity computed independently.
    """
    treated = scn.w == 1.0
    control = ~treated
    endogenous = _cond_mean((scn.sigma1 - scn.sigma0) * scn.eps, scn.prob, treated)
    statistical = _cond_mean(scn.sigma0 * scn.eps, scn.prob, treated) - _cond_mean(
        scn.sigma0 * scn.eps, scn.prob, control
    )
    total = _cond_mean(scn.sigma1 * scn.eps, scn.prob, treated) - _cond_mean(
        scn.sigma0 * scn.eps, scn.prob, control
    )
    return {"endogenous": endogenous, "statistical": statistical, "total": total}
