"""The estimators by name, on stacked per-group moment averages.

``groupfx estimate`` and the Monte Carlo driver both dispatch through
:data:`ESTIMATORS`; every entry maps :class:`GroupArrays` to an
:class:`Estimate`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .first_stage import estimate_arrays
from .gmm import fit_gmm_pooled_arrays
from .md import FitResult, OracleSpec, fit_md_arrays
from .simlab.tsls import tsls_pooled_arrays


class GroupArrays(NamedTuple):
    """Averages H1 (G, k) and H2 (G, k, k), sizes n and policies W (G, p).

    ``H2_pop`` (known Jacobians) and ``theta_true`` are read only by the
    entries that need them; ``group_ids`` keys the fitted residuals.
    """

    H1: np.ndarray
    H2: np.ndarray
    n: np.ndarray
    W: np.ndarray
    H2_pop: Optional[np.ndarray] = None
    theta_true: Optional[np.ndarray] = None
    group_ids: Optional[Sequence[str]] = None


class Estimate(NamedTuple):
    """One estimator's result.

    ``rows`` are the (name, estimate, std_error) triples a report prints,
    ``coefs``/``ses`` the effect coefficients in the design's basis, ``used``
    marks the groups in the fit, and ``fit`` is the second stage, if any.
    ``theta``/``omega`` are the per-group first stage the entry solved, as
    returned by :func:`estimate_arrays`, if it solved one.
    """

    rows: list[tuple[str, float, float]]
    coefs: np.ndarray
    ses: np.ndarray
    used: np.ndarray
    fit: Optional[FitResult] = None
    theta: Optional[np.ndarray] = None
    omega: Optional[np.ndarray] = None


class Estimator(NamedTuple):
    """A table entry: ``run(arrays, spec, rank_tol) -> Estimate``.

    ``needs_aux`` entries read ``H2_pop``, ``needs_truth`` entries read
    ``theta_true`` (simulations only), and ``instrumented`` entries need a
    simulated scenario with an instrument.
    """

    run: Callable[[GroupArrays, OracleSpec, float], Estimate]
    needs_aux: bool = False
    needs_truth: bool = False
    instrumented: bool = False


def oracle_fit(
    true_thetas: np.ndarray, policies: np.ndarray, spec: OracleSpec
) -> FitResult:
    """Benchmark fit on the true group parameters with every group retained."""
    theta = np.asarray(true_thetas, dtype=float)
    return fit_md_arrays(theta, np.ones(theta.shape[0], dtype=int), policies, spec)


def _from_fit(
    fit: FitResult, spec: OracleSpec, used: np.ndarray, theta=None, omega=None
) -> Estimate:
    kp = spec.k_proj
    v_alpha = spec.U @ fit.vcov_full[:kp, :kp] @ spec.U.T
    alpha_se = np.sqrt(np.clip(np.diag(v_alpha), 0.0, None))
    b_se = fit.coef_std_errors
    rows = [(f"alpha_{i + 1}", fit.alpha_hat[i], alpha_se[i]) for i in range(spec.k)]
    rows += [(f"b_{j + 1}", fit.basis_coefs[j], b_se[j]) for j in range(spec.m)]
    return Estimate(rows, fit.basis_coefs.copy(), b_se, used, fit, theta, omega)


def _two_step(a: GroupArrays, spec: OracleSpec, rank_tol: float, H2_pop=None) -> Estimate:
    theta, omega = estimate_arrays(a.H1, a.H2, rank_tol=rank_tol, H2_pop=H2_pop)
    fit = fit_md_arrays(theta, omega, a.W, spec, group_ids=a.group_ids)
    return _from_fit(fit, spec, omega, theta, omega)


def _gmm(a: GroupArrays, spec: OracleSpec, rank_tol: float) -> Estimate:
    theta, omega = estimate_arrays(a.H1, a.H2, rank_tol=rank_tol)
    fit = fit_gmm_pooled_arrays(
        a.H1, a.H2, a.W, spec, group_ids=a.group_ids, rank_tol=rank_tol,
        first_stage=(theta, omega),
    )
    return _from_fit(fit, spec, np.ones(a.H1.shape[0], dtype=int), theta, omega)


def _oracle(a: GroupArrays, spec: OracleSpec, rank_tol: float) -> Estimate:
    fit = oracle_fit(a.theta_true, a.W, spec)
    return _from_fit(fit, spec, np.ones(a.H1.shape[0], dtype=int))


def _tsls(a: GroupArrays, spec: OracleSpec, rank_tol: float) -> Estimate:
    coefs, vcov = tsls_pooled_arrays(a.H1, a.H2, a.n, a.W)
    ses = np.sqrt(np.clip(np.diag(vcov), 0.0, None))
    # the interaction is the last coordinate's policy slope; express it in
    # the design's basis (an input error when the basis cannot hold it)
    slope = np.zeros((spec.k, spec.p))
    slope[-1, 0] = 1.0
    basis = spec.basis_coefficients(slope)
    return Estimate(
        [("tau0", coefs[0], ses[0]), ("beta", coefs[1], ses[1])],
        basis * coefs[1],
        np.abs(basis) * ses[1],
        np.ones(a.H1.shape[0], dtype=int),
    )


ESTIMATORS: dict[str, Estimator] = {
    "md": Estimator(_two_step),
    "md_alt": Estimator(
        lambda a, spec, rank_tol: _two_step(a, spec, rank_tol, a.H2_pop), needs_aux=True
    ),
    "gmm": Estimator(_gmm),
    "tsls": Estimator(_tsls, instrumented=True),
    "oracle": Estimator(_oracle, needs_truth=True),
}
ESTIMATORS["tsls_pooled"] = ESTIMATORS["tsls"]  # the simulate spelling
