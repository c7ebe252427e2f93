"""Second-stage minimum distance regression.

Fits theta_hat_g ~ alpha + Gamma lambda_g + B W_g over selected groups by
weighted least squares, with the intercept normalized to Gamma' alpha = 0 and
the effect matrix B constrained to a user-chosen linear subspace. The
group-specific lambda_g are concentrated out in closed form, the remaining
problem is reduced to the projected coordinates orthogonal to Gamma, and the
normal equations are solved through their Schur complement, so a fit costs one
small dense solve however many groups there are.

The same machinery accepts matrix-valued group weights, which is how the
pooled one-step estimator is computed; see :mod:`groupfx.gmm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .exceptions import (
    DesignDeficientError,
    InvalidDesignError,
    InvalidInputError,
    NoDataError,
)
from .first_stage import GroupEstimate
from .moments import as_columns, design_singular

_EIG_TOL = 1e-12
_SPAN_TOL = 1e-8  # relative residual of B outside the effect basis


def gamma_perp_projector(gamma: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of gamma'.

    Returns I - gamma (gamma' gamma)^{-1} gamma'; the identity when gamma has
    zero columns. Raises on rank-deficient gamma.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2:
        raise InvalidDesignError(f"gamma must be a matrix, got shape {gamma.shape}")
    k, q = gamma.shape
    if q == 0:
        return np.eye(k)
    svals = np.linalg.svd(gamma, compute_uv=False)
    if svals[-1] <= _EIG_TOL * svals[0]:
        raise InvalidDesignError("gamma must have full column rank")
    return np.eye(k) - gamma @ np.linalg.solve(gamma.T @ gamma, gamma.T)


def _null_basis(gamma: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of gamma', shape (k, k - q)."""
    k, q = gamma.shape
    if q == 0:
        return np.eye(k)
    u, _, _ = np.linalg.svd(gamma, full_matrices=True)
    return u[:, q:]


def b0_basis_full(k: int, p: int) -> list[np.ndarray]:
    """Basis of all k x p matrices (no restriction on the effect matrix)."""
    out = []
    for i in range(k):
        for j in range(p):
            m = np.zeros((k, p))
            m[i, j] = 1.0
            out.append(m)
    return out


def b0_basis_scalar(k: int) -> list[np.ndarray]:
    """Basis {I_k}: one common effect across all k coordinates (p = k)."""
    return [np.eye(k)]


def b0_basis_diagonal(k: int) -> list[np.ndarray]:
    """Basis of diagonal k x k effect matrices (p = k)."""
    out = []
    for i in range(k):
        m = np.zeros((k, k))
        m[i, i] = 1.0
        out.append(m)
    return out


class OracleSpec:
    """Design of the second-stage regression.

    Parameters
    ----------
    gamma : ndarray, shape (k, q)
        Directions of unobserved group heterogeneity; q = 0 (shape (k, 0) or
        an empty list) means no group fixed effects.
    b0_basis : sequence of ndarray, each (k, p)
        Linearly independent matrices spanning the admissible effect subspace.
        An empty list with an explicit ``policy_dim`` gives a pure intercept
        model.
    group_weights : ndarray, optional
        Per-group nonnegative weights aligned with the estimates passed to the
        fitting functions; None means unit weights.
    policy_dim : int, optional
        Required when ``b0_basis`` is empty; inferred otherwise.

    Raises
    ------
    InvalidDesignError
        If gamma is rank deficient or square (q = k leaves nothing orthogonal
        to project onto), the basis is linearly dependent, or the
        identification constant kappa vanishes.
    """

    def __init__(
        self,
        gamma: np.ndarray | Sequence[Sequence[float]],
        b0_basis: Sequence[np.ndarray],
        group_weights: Optional[np.ndarray] = None,
        policy_dim: Optional[int] = None,
    ) -> None:
        gamma = as_columns(gamma)
        k, q = gamma.shape
        if k < 1:
            raise InvalidDesignError("gamma must have at least one row")
        if q >= k:
            raise InvalidDesignError(
                "gamma with q >= k leaves no identifiable direction "
                "(the projector orthogonal to gamma is zero)"
            )
        basis = [np.asarray(b, dtype=float) for b in b0_basis]
        if basis:
            p = basis[0].shape[1]
            for b in basis:
                if b.shape != (k, p):
                    raise InvalidDesignError(
                        f"basis matrices must all be {k}x{p}, got {b.shape}"
                    )
            if policy_dim is not None and policy_dim != p:
                raise InvalidDesignError(
                    f"policy_dim {policy_dim} contradicts basis shape {basis[0].shape}"
                )
        else:
            if policy_dim is None:
                raise InvalidDesignError("policy_dim is required with an empty basis")
            p = int(policy_dim)

        self.gamma = gamma
        self.k = k
        self.q = q
        self.p = p
        self.b0_basis = basis
        self.m = len(basis)
        self.group_weights = (
            None if group_weights is None else np.asarray(group_weights, dtype=float)
        )
        if self.group_weights is not None and np.any(self.group_weights < 0):
            raise InvalidDesignError("group_weights must be nonnegative")

        self.P_perp = gamma_perp_projector(gamma)
        self.U = _null_basis(gamma)
        self.k_proj = self.U.shape[1]
        # (m, k, p) tensor; B = sum_j coefs[j] * basis[j].
        self.basis_tensor = (
            np.stack(basis) if basis else np.zeros((0, k, p))
        )
        if self.m:
            phi = self.basis_tensor.reshape(self.m, k * p).T
            svals = np.linalg.svd(phi, compute_uv=False)
            if svals[-1] <= _EIG_TOL * svals[0]:
                raise InvalidDesignError("b0_basis matrices are linearly dependent")
        self.kappa = kappa(self)
        if self.kappa <= _EIG_TOL:
            raise InvalidDesignError(
                "effect subspace is not identified after removing group "
                f"fixed effects (kappa = {self.kappa:.3e})"
            )

    def basis_coefficients(self, B: np.ndarray) -> np.ndarray:
        """Coordinates of B in the basis; B must lie in the spanned subspace."""
        B = np.asarray(B, dtype=float)
        if self.m == 0:
            if B.size and np.any(B != 0.0):
                raise InvalidInputError("nonzero B with an empty effect basis")
            return np.zeros(0)
        phi = self.basis_tensor.reshape(self.m, -1).T
        b = B.reshape(-1)
        coefs, *_ = np.linalg.lstsq(phi, b, rcond=None)
        # measured against B's own norm, so the test does not depend on units
        if np.linalg.norm(phi @ coefs - b) > _SPAN_TOL * np.linalg.norm(b):
            raise InvalidInputError("B does not lie in the spanned effect subspace")
        return coefs

    def effect_from_coefficients(self, coefs: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return np.zeros((self.k, self.p))
        return np.einsum("jkp,j->kp", self.basis_tensor, coefs)


def kappa(spec: OracleSpec) -> float:
    """Identification constant of the design.

    The minimum, over unit-Frobenius-norm matrices in the effect subspace, of
    the Frobenius norm after projecting orthogonal to gamma. Equals the
    smallest singular value of the projection restricted to the subspace; 1
    when gamma is empty, and conventionally 1 for an empty effect basis.
    """
    if spec.m == 0:
        return 1.0
    phi = spec.basis_tensor.reshape(spec.m, spec.k * spec.p).T
    qmat, _ = np.linalg.qr(phi)
    projected = np.einsum(
        "kl,ljp->kjp",
        spec.P_perp,
        qmat.reshape(spec.k, spec.p, spec.m).transpose(0, 2, 1),
    )
    # columns of qmat are orthonormal vectorized subspace elements
    flat = projected.transpose(0, 2, 1).reshape(spec.k * spec.p, spec.m)
    svals = np.linalg.svd(flat, compute_uv=False)
    return float(svals[-1]) if svals.size else 1.0


@dataclass
class FitResult:
    """Solution of a second-stage fit.

    ``B_hat`` is reconstructed exactly from ``basis_coefs``, so it lies in the
    admissible subspace by construction; ``alpha_hat`` satisfies the
    normalization against gamma. ``vcov_B`` is the heteroskedasticity-robust
    variance of the basis coefficients (group = one observation block);
    ``vcov_full`` stacks the projected intercept coordinates first, then the
    basis coefficients.

    Group-level results are arrays with one row per fitted group, in input
    order: ``lam`` (rows, q) holds the concentrated group effects and
    ``resid`` (rows, k) the residuals theta_g - (alpha + gamma lambda_g +
    B W_g), a NaN row where theta_g is not finite. ``positions`` gives each
    row's position among the groups passed in, whose ids are ``ids`` (the
    positions themselves when None). ``lam`` and ``resid`` are None when the
    fit reports no group-level results.

    ``group_ids``, ``lambda_hat`` and ``residuals`` are read-only views keyed
    by group id, built on first read; ``residuals`` omits the NaN rows.
    """

    B_hat: np.ndarray
    alpha_hat: np.ndarray
    basis_coefs: np.ndarray
    alpha_tilde: np.ndarray
    lam: Optional[np.ndarray]
    resid: Optional[np.ndarray]
    vcov_B: np.ndarray
    vcov_full: np.ndarray
    n_used: int
    n_dropped: int
    positions: np.ndarray
    pinv_fallback: bool = False
    ids: Optional[Sequence] = None
    _scores: Optional[np.ndarray] = None
    _bread: Optional[np.ndarray] = None
    _dims: Optional[tuple[int, int, int]] = None  # (k, p, m)
    _views: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def coef_std_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.vcov_B), 0.0, None))

    def _fitted_ids(self) -> tuple[str, ...]:
        if "ids" not in self._views:
            pos = self.positions.tolist()
            ids = pos if self.ids is None else [self.ids[g] for g in pos]
            self._views["ids"] = tuple(str(g) for g in ids)
        return self._views["ids"]

    @property
    def group_ids(self) -> list[str]:
        return list(self._fitted_ids())

    @property
    def lambda_hat(self) -> Mapping[str, np.ndarray]:
        if "lambda_hat" not in self._views:
            rows = () if self.lam is None else zip(self._fitted_ids(), self.lam)
            self._views["lambda_hat"] = dict(rows)
        return MappingProxyType(self._views["lambda_hat"])

    @property
    def residuals(self) -> Mapping[str, np.ndarray]:
        if "residuals" not in self._views:
            rows = {}
            if self.resid is not None:
                defined = ~np.all(np.isnan(self.resid), axis=1)
                rows = {
                    gid: r
                    for gid, r, ok in zip(self._fitted_ids(), self.resid, defined)
                    if ok
                }
            self._views["residuals"] = rows
        return MappingProxyType(self._views["residuals"])


def _solve_psd(A: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve A x = rhs for symmetric PSD A, falling back to the pseudo-inverse."""
    if A.size == 0:
        return np.zeros(rhs.shape), False
    try:
        sol = np.linalg.solve(A, rhs)
        if np.all(np.isfinite(sol)):
            # reject solutions from numerically singular systems, relative
            # to A's own scale so that the decision ignores the units of W
            eigs = np.linalg.eigvalsh((A + A.T) / 2.0)
            if eigs[0] > _EIG_TOL * 1e-4 * eigs[-1]:
                return sol, False
    except np.linalg.LinAlgError:
        pass
    return np.linalg.pinv((A + A.T) / 2.0) @ rhs, True


def _schur_core(
    Q: np.ndarray,
    d: np.ndarray,
    W: np.ndarray,
    spec: OracleSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """Solve the concentrated normal equations by their Schur complement.

    Q (n, k, k) are the per-group quadratic forms after the group fixed
    effects have been concentrated out, d (n, k) the matching linear terms.
    Returns (alpha_tilde, basis_coefs, bread, K, used_pinv), where bread is
    the inverse of the stacked coefficient Hessian and K the per-group effect
    design blocks.
    """
    U = spec.U
    T = spec.basis_tensor
    K = np.einsum("jkp,gp->gkj", T, W) if spec.m else np.zeros((W.shape[0], spec.k, 0))
    UQ = np.einsum("ka,gkl->gal", U, Q)
    H11 = np.einsum("gal,lb->ab", UQ, U)
    H12 = np.einsum("gal,glj->aj", UQ, K)
    H22 = np.einsum("gki,gkl,glj->ij", K, Q, K)
    r1 = np.einsum("ka,gk->a", U, d)
    r2 = np.einsum("gkj,gk->j", K, d)

    used_pinv = False
    H11_inv_H12, f1 = _solve_psd(H11, H12)
    H11_inv_r1, f2 = _solve_psd(H11, r1)
    S = H22 - H12.T @ H11_inv_H12
    b, f3 = _solve_psd(S, r2 - H12.T @ H11_inv_r1)
    used_pinv = f1 or f2 or f3
    alpha_tilde = H11_inv_r1 - H11_inv_H12 @ b

    kp, m = H11.shape[0], H22.shape[0]
    H_full = np.zeros((kp + m, kp + m))
    H_full[:kp, :kp] = H11
    H_full[:kp, kp:] = H12
    H_full[kp:, :kp] = H12.T
    H_full[kp:, kp:] = H22
    try:
        bread = np.linalg.inv(H_full)
    except np.linalg.LinAlgError:
        bread = np.linalg.pinv(H_full)
        used_pinv = True
    return alpha_tilde, b, bread, K, used_pinv


def concentrate_weights(
    atilde: np.ndarray, c: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concentrate group fixed effects out of matrix-weighted quadratic forms.

    Given per-group weight matrices A~ (n, k, k) and linear terms c (n, k) of
    the objective sum_g m' A~ m - 2 c' m over m = alpha + gamma lambda + B W,
    returns (Q, d, GAG_pinv) with Q = A~ - A~ gamma (gamma' A~ gamma)^+ gamma' A~
    and d transformed to match, plus the pseudo-inverses needed to recover the
    concentrated lambda afterwards.
    """
    n, k, _ = atilde.shape
    q = gamma.shape[1]
    if q == 0:
        return atilde, c, np.zeros((n, 0, 0))
    AG = atilde @ gamma
    GAG = np.einsum("kq,gkl,lr->gqr", gamma, atilde, gamma)
    GAG_pinv = np.linalg.pinv(GAG)
    Q = atilde - AG @ GAG_pinv @ AG.transpose(0, 2, 1)
    Q = (Q + Q.transpose(0, 2, 1)) / 2.0
    d = c - np.einsum("gkq,gqr,rl,gl->gk", AG, GAG_pinv, gamma.T, c)
    return Q, d, GAG_pinv


def _recover_lambda(
    atilde: np.ndarray,
    c: np.ndarray,
    GAG_pinv: np.ndarray,
    gamma: np.ndarray,
    m_hat: np.ndarray,
) -> np.ndarray:
    if gamma.shape[1] == 0:
        return np.zeros((atilde.shape[0], 0))
    resid = c - np.einsum("gkl,gl->gk", atilde, m_hat)
    return np.einsum("gqr,rk,gk->gq", GAG_pinv, gamma.T, resid)


def _design_checks(
    W: np.ndarray, weights: np.ndarray, include: np.ndarray, spec: OracleSpec
) -> None:
    n_sel = int(np.sum(include & (weights > 0)))
    if n_sel == 0:
        raise NoDataError("no selected groups: every omega is 0")
    # a pure intercept design (p = 0) is exactly identified group by group
    required = 1 if spec.p == 0 else max(spec.p + 1, 2)
    if n_sel < required:
        raise DesignDeficientError(
            f"only {n_sel} effective selected groups for a design needing "
            f"at least {required}"
        )
    ones_w = np.concatenate(
        [np.ones((W.shape[0], 1)), W], axis=1
    )  # (G, 1 + p) regressor rows
    wsel = weights * include
    M = (ones_w.T * wsel) @ ones_w / max(np.sum(include), 1)
    if design_singular(M, ones_w, _EIG_TOL):
        raise DesignDeficientError(
            "weighted policy moment matrix is singular; the selected groups "
            "do not span the policy design"
        )


def fit_core(
    theta: np.ndarray,
    W: np.ndarray,
    spec: OracleSpec,
    include: np.ndarray,
    weights: Optional[np.ndarray] = None,
    matrix_weights: Optional[np.ndarray] = None,
    linear_terms: Optional[np.ndarray] = None,
    group_ids: Optional[Sequence[str]] = None,
) -> FitResult:
    """Shared fitting routine over stacked group arrays.

    ``include`` masks the groups entering the objective. With scalar weights
    the quadratic form is w_g P_perp; with ``matrix_weights`` it is the given
    matrices concentrated against gamma. ``linear_terms`` overrides the
    per-group linear part c_g (used by the pooled moment-based estimator,
    where theta may not exist for every group; rows of ``theta`` are then only
    used for residual reporting and may be NaN where undefined).
    """
    theta = np.asarray(theta, dtype=float)
    W = as_columns(W)
    G = W.shape[0]
    if W.shape[1] != spec.p:
        raise InvalidInputError(f"policies have p={W.shape[1]}, design has p={spec.p}")
    if not np.all(np.isfinite(W)):
        raise InvalidInputError("policies must be finite")
    include = np.asarray(include, dtype=bool)
    if weights is None:
        weights = np.ones(G)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (G,):
        raise InvalidInputError("group_weights must align with the groups")
    if group_ids is not None and len(group_ids) != G:
        raise InvalidInputError("group_ids must align with the groups")
    _design_checks(W, weights, include, spec)

    sel = np.flatnonzero(include)
    W_s = W[sel]
    w_s = weights[sel]
    th_s = theta[sel]

    if matrix_weights is None:
        if not np.all(np.isfinite(th_s)):
            raise InvalidInputError("theta estimates of selected groups must be finite")
        atilde = None
        c = None
        Q = spec.P_perp[None, :, :] * w_s[:, None, None]
        d = (th_s @ spec.P_perp) * w_s[:, None]
        GAG_pinv = None
    else:
        mw = np.asarray(matrix_weights, dtype=float)[sel]
        atilde = mw * w_s[:, None, None]
        if linear_terms is not None:
            c = np.asarray(linear_terms, dtype=float)[sel] * w_s[:, None]
        else:
            c = np.einsum("gkl,gl->gk", atilde, th_s)
        Q, d, GAG_pinv = concentrate_weights(atilde, c, spec.gamma)

    alpha_tilde, b, bread, K, used_pinv = _schur_core(Q, d, W_s, spec)
    B_hat = spec.effect_from_coefficients(b)
    alpha_hat = spec.U @ alpha_tilde
    m_hat = alpha_hat[None, :] + W_s @ B_hat.T

    if GAG_pinv is None:
        lam = (
            np.einsum(
                "qr,rk,gk->gq",
                np.linalg.pinv(spec.gamma.T @ spec.gamma),
                spec.gamma.T,
                th_s - m_hat,
            )
            if spec.q
            else np.zeros((sel.size, 0))
        )
    else:
        lam = _recover_lambda(atilde, c, GAG_pinv, spec.gamma, m_hat)

    res_scores = d - np.einsum("gkl,gl->gk", Q, m_hat)
    s1 = res_scores @ spec.U
    s2 = np.einsum("gkj,gk->gj", K, res_scores)
    scores = np.concatenate([s1, s2], axis=1)
    meat = scores.T @ scores
    vcov_full = bread @ meat @ bread
    kp = spec.k_proj
    vcov_B = vcov_full[kp:, kp:]

    resid = th_s - (alpha_hat + lam @ spec.gamma.T + W_s @ B_hat.T)
    resid[~np.all(np.isfinite(th_s), axis=1)] = np.nan

    return FitResult(
        B_hat=B_hat,
        alpha_hat=alpha_hat,
        basis_coefs=b,
        alpha_tilde=alpha_tilde,
        lam=lam,
        resid=resid,
        vcov_B=vcov_B,
        vcov_full=vcov_full,
        n_used=int(sel.size),
        n_dropped=int(G - sel.size),
        positions=sel,
        pinv_fallback=used_pinv,
        ids=group_ids,
        _scores=scores,
        _bread=bread,
        _dims=(spec.k, spec.p, spec.m),
    )


def fit_md_arrays(
    theta: np.ndarray,
    omega: np.ndarray,
    W: np.ndarray,
    spec: OracleSpec,
    matrix_weights: Optional[np.ndarray] = None,
    group_ids: Optional[Sequence[str]] = None,
) -> FitResult:
    """Array-level minimum distance fit; the fast path used by simulations."""
    omega = np.asarray(omega)
    include = omega.astype(bool)
    return fit_core(
        theta,
        W,
        spec,
        include=include,
        weights=spec.group_weights,
        matrix_weights=matrix_weights,
        group_ids=group_ids,
    )


def fit_md(
    estimates: Sequence[GroupEstimate],
    policies: np.ndarray,
    spec: OracleSpec,
    matrix_weights: Optional[np.ndarray] = None,
) -> FitResult:
    """Weighted minimum distance fit of group estimates on policies.

    Groups with omega = 0 are dropped from the objective (their count is
    reported in ``n_dropped``); the remaining groups are fitted with the
    spec's scalar weights, or with the optional per-group ``matrix_weights``
    (aligned with ``estimates``) in place of the identity metric.

    ``policies`` has one row per estimate, aligned by position.
    """
    if len(estimates) == 0:
        raise NoDataError("no group estimates supplied")
    k = spec.k
    theta = np.full((len(estimates), k), np.nan)
    omega = np.zeros(len(estimates), dtype=int)
    ids = []
    for i, est in enumerate(estimates):
        ids.append(est.group_id)
        omega[i] = est.omega
        if est.theta_hat is not None:
            if est.theta_hat.shape != (k,):
                raise InvalidInputError(
                    f"estimate for group {est.group_id!r} has dimension "
                    f"{est.theta_hat.shape}, design expects ({k},)"
                )
            theta[i] = est.theta_hat
    return fit_md_arrays(
        theta, omega, policies, spec, matrix_weights=matrix_weights, group_ids=ids
    )


def md_objective(
    theta: np.ndarray,
    omega: np.ndarray,
    W: np.ndarray,
    spec: OracleSpec,
    alpha_tilde: np.ndarray,
    basis_coefs: np.ndarray,
) -> float:
    """Concentrated MD objective at given projected coefficients.

    Evaluates sum_g omega_g w_g || P_perp (theta_g - alpha - B W_g) ||^2 with
    lambda_g concentrated out; used by the gradient-check tests.
    """
    W = as_columns(W)
    weights = spec.group_weights if spec.group_weights is not None else 1.0
    B = spec.effect_from_coefficients(basis_coefs)
    alpha = spec.U @ alpha_tilde
    resid = (theta - alpha[None, :] - W @ B.T) @ spec.P_perp
    sq = np.sum(resid * resid, axis=1)
    return float(np.sum(np.asarray(omega) * weights * sq))


def ehw_vcov(
    fit: FitResult,
    policies: np.ndarray,
    spec: OracleSpec,
    cluster: Optional[Sequence] = None,
) -> np.ndarray:
    """Heteroskedasticity-robust sandwich variance of the fitted coefficients.

    Each group is one observation block; passing ``cluster`` (one key per
    group, aligned with the estimates originally fitted) sums scores within
    clusters before forming the middle matrix. Returns the variance of the
    stacked (projected intercept, basis coefficient) vector; the basis block
    equals ``fit.vcov_B`` when no clustering is requested.
    """
    if fit._scores is None or fit._bread is None:
        raise InvalidInputError("fit does not carry score information")
    if fit._dims is not None and fit._dims != (spec.k, spec.p, spec.m):
        raise InvalidInputError("spec does not match the one used for this fit")
    W = as_columns(policies)
    if W.shape[1] != spec.p:
        raise InvalidInputError("policies do not match the design's policy_dim")
    scores = fit._scores
    if cluster is not None:
        keys = list(cluster)
        if len(keys) != scores.shape[0]:
            raise InvalidInputError(
                "cluster keys must align one-to-one with the fitted groups"
            )
        agg: dict[object, np.ndarray] = {}
        for key, row in zip(keys, scores):
            agg[key] = agg.get(key, 0.0) + row
        scores = np.stack(list(agg.values()))
    meat = scores.T @ scores
    return fit._bread @ meat @ fit._bread
