"""Exact population limits for the synthetic processes.

Each builder maps a finite-support :class:`ScenarioConfig` into the discrete
population object the estimator-limit machinery consumes, by enumerating every
realization that can matter: policy value, heterogeneity vector, and, for
fixed group sizes, the within-group event count that pins down the sample
Jacobian. The resulting numbers are the ground truth the Monte Carlo runs are
checked against.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..exceptions import UnsupportedScenarioError
from ..gmm import DiscreteScenario, weighted_slope
from ..md import OracleSpec
from .dgp import ScenarioConfig, composition_att


def _n_support(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    if cfg.n_law[0] == "constant":
        return np.array([int(cfg.n_law[1])]), np.array([1.0])
    _, values, probs = cfg.n_law
    return np.asarray(values, dtype=int), np.asarray(probs, dtype=float)


def _binom_pmf(n: int, pi: float) -> np.ndarray:
    if pi <= 0.0 or pi >= 1.0:
        out = np.zeros(n + 1)
        out[n if pi >= 1.0 else 0] = 1.0
        return out
    t = np.arange(n + 1, dtype=float)
    log_comb = np.array(
        [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(n + 1)]
    )
    return np.exp(log_comb + t * math.log(pi) + (n - t) * math.log1p(-pi))


def _base_states(cfg: ScenarioConfig) -> Iterable[tuple[np.ndarray, np.ndarray, float]]:
    wvals, wprobs = cfg.policy_support()
    asup = np.asarray(cfg.alpha_support, dtype=float)
    aprobs = np.asarray(cfg.alpha_probs, dtype=float)
    for wi in range(wvals.shape[0]):
        for ai in range(asup.shape[0]):
            pr = float(wprobs[wi] * aprobs[ai])
            if pr > 0.0:
                yield wvals[wi], asup[ai], pr


def did_gmm_scenario(cfg: ScenarioConfig, spec: OracleSpec) -> DiscreteScenario:
    """Population of effective weights implied by the pooled fit of a DiD setup.

    With identity weighting on the moments, a group's effective weight matrix
    is H2_hat' H2_hat, and H2_hat is a deterministic function of the group's
    event count. Enumerating (policy, heterogeneity, group size, event count)
    therefore captures the estimator's population exactly; the outcome noise
    averages out of every block.
    """
    if cfg.kind != "did" or cfg.composition is not None:
        raise UnsupportedScenarioError("pooled-limit enumeration covers plain DiD setups")
    n_vals, n_probs = _n_support(cfg)
    Ws, alphas, atildes, probs = [], [], [], []
    for w, a, pr in _base_states(cfg):
        pi = float(cfg.selection_prob(np.array([a[-1]]), np.array([w[0]]))[0])
        for nv, npr in zip(n_vals, n_probs):
            pmf = _binom_pmf(int(nv), pi)
            for t in range(int(nv) + 1):
                if pmf[t] <= 0.0:
                    continue
                share = t / nv
                h2 = np.array([[1.0, share], [share, share]])
                Ws.append(w)
                alphas.append(a)
                atildes.append(h2.T @ h2)
                probs.append(pr * float(npr) * float(pmf[t]))
    return DiscreteScenario(
        W=np.asarray(Ws),
        alpha=np.asarray(alphas),
        atilde=np.asarray(atildes),
        prob=np.asarray(probs),
        B0_true=cfg.b0,
        gamma=spec.gamma,
        b0_basis=tuple(spec.b0_basis),
    )


def did_selection_scenario(cfg: ScenarioConfig, spec: OracleSpec) -> DiscreteScenario:
    """Population of the two-step fit restricted to computable groups.

    Restricting to groups whose sample Jacobian inverts is a weighted fit with
    weight matrix omega * I, so the induced population splits each base state
    by the invertibility event: for the difference design that event is simply
    "some but not all units experience the event".
    """
    if cfg.kind != "did" or cfg.composition is not None:
        raise UnsupportedScenarioError("selection-limit enumeration covers plain DiD setups")
    n_vals, n_probs = _n_support(cfg)
    k = cfg.k
    eye = np.eye(k)
    zero = np.zeros((k, k))
    Ws, alphas, atildes, probs = [], [], [], []
    for w, a, pr in _base_states(cfg):
        pi = float(cfg.selection_prob(np.array([a[-1]]), np.array([w[0]]))[0])
        p_sel = 0.0
        for nv, npr in zip(n_vals, n_probs):
            p_degenerate = (1.0 - pi) ** int(nv) + pi ** int(nv)
            p_sel += float(npr) * (1.0 - p_degenerate)
        for atil, weight in ((eye, p_sel), (zero, 1.0 - p_sel)):
            if weight <= 0.0:
                continue
            Ws.append(w)
            alphas.append(a)
            atildes.append(atil)
            probs.append(pr * weight)
    return DiscreteScenario(
        W=np.asarray(Ws),
        alpha=np.asarray(alphas),
        atilde=np.asarray(atildes),
        prob=np.asarray(probs),
        B0_true=cfg.b0,
        gamma=spec.gamma,
        b0_basis=tuple(spec.b0_basis),
    )


def iv_pooled_tsls_bias(cfg: ScenarioConfig) -> float:
    """Slope bias of the pooled instrumented fit, by exact enumeration.

    The pooled estimator weights each group by its within-group
    instrument-event covariance (the compliance rate times the instrument
    variance), so its limit is a weighted regression of the group effect on
    the policy. The bias is the weighted covariance of the heterogeneity with
    the policy over the weighted policy variance, with means taken under the
    compliance-weighted measure.
    """
    if cfg.kind != "iv":
        raise UnsupportedScenarioError("compliance-weight enumeration needs kind='iv'")
    ws, als, prs = [], [], []
    for w, a, pr in _base_states(cfg):
        ws.append(w[0])
        als.append(a[-1])
        prs.append(pr)
    W = np.asarray(ws)
    alpha_eff = np.asarray(als)
    pr = np.asarray(prs)
    pi = cfg.selection_prob(alpha_eff, W)
    C = pi * 0.25  # instrument variance of a fair coin
    return weighted_slope(alpha_eff, W, pr * C)


def composition_truth(cfg: ScenarioConfig) -> dict[str, float]:
    """Implied aggregate coefficients of the composition scenario.

    With binary policy coordinates the aggregate effect is exactly linear:
    tau_g(w) = a + beta1 w1 + beta2 w2, where beta1 is the pure composition
    term. Also reports the slope a misspecified fit on W2 alone converges to
    (the omitted-variable projection over the policy distribution).
    """
    comp = cfg.composition
    if comp is None or cfg.p != 2:
        raise UnsupportedScenarioError("composition truth needs a composition block")
    tau00 = float(composition_att(comp, np.array([0.0]), np.array([0.0]))[0])
    tau10 = float(composition_att(comp, np.array([1.0]), np.array([0.0]))[0])
    beta1 = tau10 - tau00
    beta2 = comp.beta2
    intercept = tau00

    wvals, wprobs = cfg.policy_support()
    omitted_slope = beta2 + beta1 * weighted_slope(wvals[:, 0], wvals[:, 1], wprobs)
    return {
        "intercept": intercept,
        "beta1": beta1,
        "beta2": beta2,
        "omitted_w1_slope_w2": omitted_slope,
    }
