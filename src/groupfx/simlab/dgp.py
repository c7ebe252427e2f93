"""Synthetic data-generating processes on finite supports.

Every source of randomness lives on an enumerable support (two-point
heterogeneity, binary or gridded policies, logistic selection links evaluated
at finitely many points), so each process has an exact population counterpart
that the plim builders in :mod:`groupfx.simlab.plim` can enumerate. Randomness
is drawn from counter-based generators keyed on (seed, replication, stream),
which makes every replication bit-reproducible independently of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..exceptions import ConfigError
from ..moments import GroupSample, group_averages, group_samples

# stream purposes for the counter-based generator
_STREAMS = {
    "policy": 1,
    "alpha": 2,
    "nsize": 3,
    "treat": 4,
    "noise": 5,
    "instrument": 6,
    "complier": 7,
    "trait": 8,
}


def stream_rng(seed: int, replication: int, purpose: str) -> np.random.Generator:
    """Counter-based generator for one (seed, replication, purpose) triple."""
    if purpose not in _STREAMS:
        raise ConfigError(f"unknown random stream {purpose!r}")
    key = np.array(
        [np.uint64(seed), np.uint64(replication) * np.uint64(64) + np.uint64(_STREAMS[purpose])],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class CompositionConfig:
    """Unit-trait channel for the two-dimensional policy scenario.

    The first policy coordinate shifts who selects into the event (through the
    trait), the second shifts the individual effect directly. ``trait_values``
    and ``trait_probs`` give the finite trait distribution; selection follows
    a logistic link in (trait, W1) and the individual effect is
    tau_base + tau_trait * trait + beta2 * W2.
    """

    trait_values: tuple[float, ...] = (0.0, 1.0)
    trait_probs: tuple[float, ...] = (0.6, 0.4)
    sel_a0: float = -0.5
    sel_a1: float = 1.0
    sel_a2: float = 0.5
    tau_base: float = 1.0
    tau_trait: float = 2.0
    beta2: float = 0.5

    def selection_prob(self, trait: np.ndarray, w1: np.ndarray) -> np.ndarray:
        return _sigmoid(self.sel_a0 + self.sel_a1 * trait + self.sel_a2 * w1)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a synthetic group-level experiment.

    Laws are tagged tuples so that configurations stay JSON-friendly:

    * ``n_law``: ("constant", n) or ("choice", values, probs)
    * ``policy_law``: ("bernoulli", rho), ("grid", values, probs), or
      ("binary_pair", p00, p01, p10, p11) for correlated two-dimensional
      binary policies (states ordered (W1, W2) = 00, 01, 10, 11)
    * ``selection_link``: ("logistic", a0, a1, a2) giving the event (or
      complier) probability sigmoid(a0 + a1 * alpha_eff + a2 * W), where
      alpha_eff is the last coordinate of the group's heterogeneity vector
      and W its first policy coordinate, or ("constant", pi)

    ``alpha_support`` rows are the per-group heterogeneity vectors alpha_g;
    the realized group parameter is theta_g = alpha_g + B0 W_g. ``kind``
    selects the moment design ("did" or "iv"); a ``composition`` block
    switches to the two-dimensional trait scenario.
    """

    G: int
    n_law: tuple
    policy_law: tuple
    alpha_support: tuple[tuple[float, ...], ...]
    alpha_probs: tuple[float, ...]
    b0_true: tuple[tuple[float, ...], ...]
    selection_link: tuple
    noise_sigma: float
    seed: int
    kind: str = "did"
    composition: Optional[CompositionConfig] = None
    # optional override of the Gaussian default: ("two_point", values, probs)
    # with a mean-zero two-point distribution
    noise_law: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.G < 1:
            raise ConfigError("G must be at least 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")
        if self.kind not in ("did", "iv"):
            raise ConfigError(f"unknown moment kind {self.kind!r}")
        tag = self.n_law[0]
        if tag == "constant":
            if int(self.n_law[1]) < 1:
                raise ConfigError("constant group size must be positive")
        elif tag == "choice":
            _, values, probs = self.n_law
            _check_dist("n_law", probs)
            if any(int(v) < 1 for v in values):
                raise ConfigError("group sizes must be positive")
        else:
            raise ConfigError(f"unknown n_law {tag!r}")
        ptag = self.policy_law[0]
        if ptag == "bernoulli":
            if not 0.0 <= self.policy_law[1] <= 1.0:
                raise ConfigError("bernoulli rate must lie in [0, 1]")
        elif ptag == "grid":
            _check_dist("policy_law", self.policy_law[2])
        elif ptag == "binary_pair":
            _check_dist("policy_law", self.policy_law[1:])
        else:
            raise ConfigError(f"unknown policy_law {ptag!r}")
        _check_dist("alpha_law", self.alpha_probs)
        kdims = {len(a) for a in self.alpha_support}
        if len(kdims) != 1:
            raise ConfigError("alpha_support rows must share one dimension")
        stag = self.selection_link[0]
        if stag == "constant":
            # 1.0 is allowed: full-compliance instrumented designs
            if not 0.0 < self.selection_link[1] <= 1.0:
                raise ConfigError("constant selection probability must be in (0, 1]")
        elif stag != "logistic":
            raise ConfigError(f"unknown selection_link {stag!r}")
        if self.noise_law is not None:
            if self.noise_law[0] != "two_point":
                raise ConfigError(f"unknown noise_law {self.noise_law[0]!r}")
            _, values, probs = self.noise_law
            _check_dist("noise_law", probs)
            mean = float(np.dot(np.asarray(values, float), np.asarray(probs, float)))
            if abs(mean) > 1e-12:
                raise ConfigError("two-point noise must have mean zero")

    @property
    def k(self) -> int:
        return len(self.alpha_support[0])

    @property
    def p(self) -> int:
        if self.policy_law[0] == "binary_pair":
            return 2
        return 1

    @property
    def b0(self) -> np.ndarray:
        return np.asarray(self.b0_true, dtype=float)

    def policy_support(self) -> tuple[np.ndarray, np.ndarray]:
        """Finite support of the policy law as (values (S, p), probs (S,))."""
        tag = self.policy_law[0]
        if tag == "bernoulli":
            rho = float(self.policy_law[1])
            return np.array([[0.0], [1.0]]), np.array([1.0 - rho, rho])
        if tag == "grid":
            vals = np.asarray(self.policy_law[1], dtype=float).reshape(-1, 1)
            return vals, np.asarray(self.policy_law[2], dtype=float)
        vals = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        return vals, np.asarray(self.policy_law[1:], dtype=float)

    def selection_prob(self, alpha_eff: np.ndarray, w0: np.ndarray) -> np.ndarray:
        if self.selection_link[0] == "constant":
            return np.full(np.broadcast(alpha_eff, w0).shape, self.selection_link[1])
        _, a0, a1, a2 = self.selection_link
        return _sigmoid(a0 + a1 * alpha_eff + a2 * w0)


def _check_dist(name: str, probs) -> None:
    arr = np.asarray(probs, dtype=float)
    if np.any(arr < 0) or abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ConfigError(f"{name} probabilities must form a distribution")


@dataclass
class SimulatedData:
    """One replication's worth of groups, in stacked-array form.

    ``H1``/``H2`` are the within-group moment averages (identical, bit for
    bit, to re-averaging the unit-level data), ``theta_true`` the realized
    group parameters, ``H2_pop`` the population Jacobians that the
    design-based estimator treats as known, and ``event_prob`` the per-group
    event (or complier) probability behind them. The raw unit-level columns
    are kept for export and spot checks.
    """

    kind: str
    n: np.ndarray
    W: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    theta_true: np.ndarray
    H2_pop: np.ndarray
    event_prob: np.ndarray
    units: dict = field(default_factory=dict)

    @property
    def G(self) -> int:
        return self.n.shape[0]

    def group_ids(self) -> list[str]:
        return [f"g{i:06d}" for i in range(self.G)]

    def samples(self) -> list[GroupSample]:
        """Materialize per-group samples (desk-scale use: export, round trips)."""
        u = self.units
        return group_samples(self.group_ids(), self.n, u["delta_y"], u["e"], u.get("z"))


def _draw_noise(cfg: ScenarioConfig, rng: np.random.Generator, N: int) -> np.ndarray:
    if cfg.noise_law is not None:
        _, values, probs = cfg.noise_law
        return rng.choice(np.asarray(values, dtype=float), size=N, p=probs)
    return cfg.noise_sigma * rng.standard_normal(N)


def _draw_group_level(cfg: ScenarioConfig, replication: int) -> tuple[np.ndarray, ...]:
    """Draw (n, W, alpha) for every group, plus each unit's group index."""
    rng_n = stream_rng(cfg.seed, replication, "nsize")
    rng_w = stream_rng(cfg.seed, replication, "policy")
    rng_a = stream_rng(cfg.seed, replication, "alpha")

    if cfg.n_law[0] == "constant":
        n = np.full(cfg.G, int(cfg.n_law[1]), dtype=np.int64)
    else:
        _, values, probs = cfg.n_law
        n = rng_n.choice(np.asarray(values, dtype=np.int64), size=cfg.G, p=probs)

    vals, probs = cfg.policy_support()
    idx = rng_w.choice(vals.shape[0], size=cfg.G, p=probs)
    W = vals[idx]

    support = np.asarray(cfg.alpha_support, dtype=float)
    aidx = rng_a.choice(support.shape[0], size=cfg.G, p=np.asarray(cfg.alpha_probs))
    alpha = support[aidx]
    return n, W, alpha, np.repeat(np.arange(cfg.G), n)


def _replication(
    n, W, theta, pi, H2_pop, gi, dy, e, z: Optional[np.ndarray] = None
) -> SimulatedData:
    """Package one replication; its units come in consecutive blocks of sizes n."""
    H1, H2 = group_averages(n, dy, e, z)
    units = {"group_index": gi, "delta_y": dy, "e": e}
    if z is not None:
        units["z"] = z
    return SimulatedData(
        kind="did" if z is None else "iv",
        n=n,
        W=W,
        H1=H1,
        H2=H2,
        theta_true=theta,
        H2_pop=H2_pop,
        event_prob=pi,
        units=units,
    )


def _population_jacobian(m_e: np.ndarray, m_z, m_ze: np.ndarray) -> np.ndarray:
    """Per-group E[h2] = [[1, E e], [E z, E z e]] from the three expectations."""
    H2_pop = np.empty(m_e.shape + (2, 2))
    H2_pop[:, 0, 0] = 1.0
    H2_pop[:, 0, 1] = m_e
    H2_pop[:, 1, 0] = m_z
    H2_pop[:, 1, 1] = m_ze
    return H2_pop


def simulate_did(cfg: ScenarioConfig, replication: int) -> SimulatedData:
    """One replication of the difference design.

    Per group: draw the policy, the heterogeneity vector, and the group size;
    the realized parameter is theta_g = alpha_g + B0 W_g. Per unit: the event
    is Bernoulli with the group's linked probability, and the outcome change
    is theta_g[0] + theta_g[1] * event + noise.
    """
    if cfg.kind != "did" or cfg.composition is not None:
        raise ConfigError("simulate_did requires a plain 'did' configuration")
    n, W, alpha, gi = _draw_group_level(cfg, replication)
    theta = alpha + W @ cfg.b0.T
    pi = cfg.selection_prob(alpha[:, -1], W[:, 0])

    N = gi.shape[0]
    rng_t = stream_rng(cfg.seed, replication, "treat")
    rng_e = stream_rng(cfg.seed, replication, "noise")
    e = (rng_t.random(N) < pi[gi]).astype(np.int64)
    eps = _draw_noise(cfg, rng_e, N)
    dy = theta[gi, 0] + theta[gi, 1] * e + eps

    return _replication(n, W, theta, pi, _population_jacobian(pi, pi, pi), gi, dy, e)


def simulate_iv(cfg: ScenarioConfig, replication: int) -> SimulatedData:
    """One replication of the instrumented design.

    Per unit: a fair-coin instrument, a complier indicator with the group's
    linked probability, the event equal to their product, and the same outcome
    equation as the difference design. Full compliance (a constant link at
    probability about 1) collapses this to :func:`simulate_did` with the event
    equal to the instrument.
    """
    if cfg.kind != "iv":
        raise ConfigError("simulate_iv requires kind='iv'")
    n, W, alpha, gi = _draw_group_level(cfg, replication)
    theta = alpha + W @ cfg.b0.T
    pi = cfg.selection_prob(alpha[:, -1], W[:, 0])

    N = gi.shape[0]
    rng_z = stream_rng(cfg.seed, replication, "instrument")
    rng_c = stream_rng(cfg.seed, replication, "complier")
    rng_e = stream_rng(cfg.seed, replication, "noise")
    z = (rng_z.random(N) < 0.5).astype(np.int64)
    compl = (rng_c.random(N) < pi[gi]).astype(np.int64)
    e = z * compl
    eps = _draw_noise(cfg, rng_e, N)
    dy = theta[gi, 0] + theta[gi, 1] * e + eps

    H2_pop = _population_jacobian(pi / 2.0, 0.5, pi / 2.0)
    return _replication(n, W, theta, pi, H2_pop, gi, dy, e, z)


def composition_event_prob(comp: CompositionConfig, w1: np.ndarray) -> np.ndarray:
    """Group-level event probability, integrating the trait analytically."""
    pv = np.asarray(comp.trait_probs)
    tv = np.asarray(comp.trait_values)
    return np.sum(
        pv[None, :] * comp.selection_prob(tv[None, :], np.asarray(w1)[:, None]), axis=1
    )


def composition_att(comp: CompositionConfig, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Aggregate effect among selected units, by exact trait enumeration."""
    pv = np.asarray(comp.trait_probs)
    tv = np.asarray(comp.trait_values)
    w1 = np.asarray(w1, dtype=float)
    sel = comp.selection_prob(tv[None, :], w1[:, None]) * pv[None, :]
    tau_x = comp.tau_base + comp.tau_trait * tv
    mean_tau = np.sum(sel * tau_x[None, :], axis=1) / np.sum(sel, axis=1)
    return mean_tau + comp.beta2 * np.asarray(w2, dtype=float)


def simulate_composition(cfg: ScenarioConfig, replication: int) -> SimulatedData:
    """One replication of the two-dimensional composition scenario.

    Individual effects vary with a latent trait; the first policy coordinate
    shifts selection into the event through that trait, so the aggregate
    effect among selected units moves with it even though no individual effect
    does. The recorded ground truth integrates over the trait distribution
    exactly rather than by simulation.
    """
    comp = cfg.composition
    if comp is None or cfg.p != 2:
        raise ConfigError(
            "simulate_composition needs a composition block and a two-dimensional policy"
        )
    n, W, alpha, gi = _draw_group_level(cfg, replication)
    delta = alpha[:, 0]
    tau_g = composition_att(comp, W[:, 0], W[:, 1])
    theta = np.stack([delta, tau_g], axis=1)
    pi = composition_event_prob(comp, W[:, 0])

    N = gi.shape[0]
    rng_x = stream_rng(cfg.seed, replication, "trait")
    rng_t = stream_rng(cfg.seed, replication, "treat")
    rng_e = stream_rng(cfg.seed, replication, "noise")
    tv = np.asarray(comp.trait_values)
    xidx = rng_x.choice(tv.shape[0], size=N, p=np.asarray(comp.trait_probs))
    x = tv[xidx]
    p_sel = comp.selection_prob(x, W[gi, 0])
    e = (rng_t.random(N) < p_sel).astype(np.int64)
    tau_i = comp.tau_base + comp.tau_trait * x + comp.beta2 * W[gi, 1]
    eps = _draw_noise(cfg, rng_e, N)
    dy = delta[gi] + tau_i * e + eps

    return _replication(n, W, theta, pi, _population_jacobian(pi, pi, pi), gi, dy, e)


def simulate(cfg: ScenarioConfig, replication: int) -> SimulatedData:
    """Dispatch on the configuration's moment design."""
    if cfg.composition is not None:
        return simulate_composition(cfg, replication)
    if cfg.kind == "iv":
        return simulate_iv(cfg, replication)
    return simulate_did(cfg, replication)
