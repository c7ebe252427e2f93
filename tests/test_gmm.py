import numpy as np
import pytest

import groupfx as gx
from groupfx.exceptions import InvalidInputError, UnsupportedScenarioError
from groupfx.gmm import (
    BinaryWeightScenario,
    DiscreteScenario,
    fit_gmm_pooled_arrays,
)
from groupfx.md import fit_md_arrays
from conftest import (
    dense_population_reference,
    did_group,
    random_psd,
    random_spec,
)


def _effect_row_spec():
    return gx.OracleSpec(np.array([[1.0], [0.0]]), [np.array([[0.0], [1.0]])])


def _four_state_scenario(b0=1.0):
    # scalar outcome, no fixed effects, binary policy, two-point heterogeneity,
    # weights 2 + W * alpha
    return DiscreteScenario(
        W=np.array([[0.0], [0.0], [1.0], [1.0]]),
        alpha=np.array([[-1.0], [1.0], [-1.0], [1.0]]),
        atilde=np.array([[[2.0]], [[2.0]], [[1.0]], [[3.0]]]),
        prob=np.full(4, 0.25),
        B0_true=np.array([[b0]]),
        gamma=np.zeros((1, 0)),
        b0_basis=(np.array([[1.0]]),),
    )


def _product_scenario(rng, spec, S_w=None, S_a=3, constant_weight=False, constant_alpha=False):
    """Product-measure scenario: policy independent of heterogeneity."""
    k, p = spec.k, spec.p
    if S_w is None:
        S_w = p + 2  # enough support to identify the policy design
    Wsup = rng.standard_normal((S_w, p))
    Asup = rng.standard_normal((S_a, k))
    if constant_alpha:
        Asup = np.tile(rng.standard_normal(k), (S_a, 1))
    pw = rng.dirichlet(np.ones(S_w))
    pa = rng.dirichlet(np.ones(S_a))
    A0 = random_psd(rng, k)
    Ws, As, Ats, prs = [], [], [], []
    for i in range(S_w):
        for j in range(S_a):
            Ws.append(Wsup[i])
            As.append(Asup[j])
            Ats.append(A0 if constant_weight else random_psd(rng, k))
            prs.append(pw[i] * pa[j])
    B0 = spec.effect_from_coefficients(rng.standard_normal(spec.m))
    return DiscreteScenario(
        W=np.asarray(Ws),
        alpha=np.asarray(As),
        atilde=np.asarray(Ats),
        prob=np.asarray(prs),
        B0_true=B0,
        gamma=spec.gamma,
        b0_basis=tuple(spec.b0_basis),
    )


class TestEffectiveWeight:
    def test_identity(self):
        np.testing.assert_array_equal(gx.effective_weight(np.eye(2), np.eye(2)), np.eye(2))

    def test_did_half_treated(self):
        H2 = np.array([[1.0, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(
            gx.effective_weight(H2, np.eye(2)), [[1.25, 0.75], [0.75, 0.5]]
        )

    def test_zero_weighting(self):
        H2 = np.array([[1.0, 0.3], [0.3, 0.3]])
        np.testing.assert_array_equal(
            gx.effective_weight(H2, np.zeros((2, 2))), np.zeros((2, 2))
        )

    def test_psd_preserved(self, rng):
        for _ in range(10):
            H2 = rng.standard_normal((3, 3))
            A = random_psd(rng, 3)
            eigs = np.linalg.eigvalsh(gx.effective_weight(H2, A))
            assert eigs.min() > -1e-10


class TestGmmWeights:
    def test_identity_preset(self):
        assert gx.GmmWeights().preset == "identity"

    def test_asymmetric_rejected(self):
        A = np.array([[[1.0, 0.5], [0.2, 1.0]]])
        with pytest.raises(InvalidInputError):
            gx.GmmWeights(matrices=A)

    def test_indefinite_rejected(self):
        A = np.array([[[1.0, 0.0], [0.0, -0.5]]])
        with pytest.raises(InvalidInputError):
            gx.GmmWeights(matrices=A)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 0)])
    def test_empty_stack_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="must not be empty"):
            gx.GmmWeights(matrices=np.zeros(shape))


class TestScaleRelativeWeightCheck:
    # GmmWeights and DiscreteScenario share one check, relative to the stack
    @staticmethod
    def _build(kind, atilde):
        if kind == "weights":
            return gx.GmmWeights(matrices=atilde)
        S = atilde.shape[0]
        return DiscreteScenario(
            W=np.arange(S, dtype=float),
            alpha=np.zeros((S, 2)),
            atilde=atilde,
            prob=np.full(S, 1.0 / S),
            B0_true=np.zeros((2, 1)),
            gamma=np.zeros((2, 0)),
            b0_basis=(np.array([[0.0], [1.0]]),),
        )

    @pytest.mark.parametrize("kind", ["weights", "scenario"])
    @pytest.mark.parametrize(
        "bad",
        [np.diag([1.0, -1e-4]), np.array([[1.0, 1e-6], [0.0, 1.0]])],
        ids=["indefinite", "asymmetric"],
    )
    def test_small_invalid_stack_rejected(self, kind, bad):
        with pytest.raises(InvalidInputError):
            self._build(kind, 1e-8 * bad[None])

    @pytest.mark.parametrize("kind", ["weights", "scenario"])
    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_rescaled_valid_stack_accepted(self, kind, scale):
        # one positive definite and one singular PSD matrix
        stack = np.array([[[2.0, 0.5], [0.5, 1.0]], [[0.25, 0.25], [0.25, 0.25]]])
        self._build(kind, scale * stack)


class TestFitGmmPooled:
    def test_constant_jacobians_match_md(self, rng):
        # identical sample Jacobians: the effective weights are constant and
        # the pooled fit coincides with the plain two-step fit
        spec = _effect_row_spec()
        G = 20
        H2 = np.tile(np.array([[1.0, 0.4], [0.4, 0.4]]), (G, 1, 1))
        theta = rng.standard_normal((G, 2))
        H1 = np.einsum("gkl,gl->gk", H2, theta)
        W = rng.standard_normal((G, 1))
        fit_g = fit_gmm_pooled_arrays(H1, H2, W, spec)
        fit_m = fit_md_arrays(theta, np.ones(G, int), W, spec)
        np.testing.assert_allclose(fit_g.B_hat, fit_m.B_hat, atol=1e-8)
        np.testing.assert_allclose(fit_g.alpha_hat, fit_m.alpha_hat, atol=1e-8)

    def test_single_group_exactly_identified(self):
        spec = gx.OracleSpec(np.zeros((2, 0)), [], policy_dim=0)
        sample = did_group("g", [(3.0, 1), (1.0, 0)])
        fit = gx.fit_gmm_pooled([sample], np.zeros((1, 0)), spec)
        est = gx.estimate_group(sample)
        np.testing.assert_allclose(fit.alpha_hat, est.theta_hat, atol=1e-10)

    def test_policy_dependent_shares_separate_gmm_from_md(self, rng):
        # within-group event shares differ by policy, so the pooled fit and
        # the two-step fit weight the (noisy) group estimates differently;
        # the matrix-weighted refit reproduces the gap exactly
        spec = _effect_row_spec()
        G = 60
        W = np.repeat([[0.0], [1.0], [2.0]], G // 3, axis=0)
        share = np.select(
            [W[:, 0] == 0.0, W[:, 0] == 1.0], [0.2, 0.5], default=0.9
        )
        alpha = np.stack([np.zeros(G), rng.choice([-1.0, 1.0], G)], axis=1)
        theta = alpha + W @ np.array([[0.0], [0.5]]).T
        theta = theta + 0.3 * rng.standard_normal(theta.shape)
        H2 = np.empty((G, 2, 2))
        H2[:, 0, 0] = 1.0
        H2[:, 0, 1] = share
        H2[:, 1, 0] = share
        H2[:, 1, 1] = share
        H1 = np.einsum("gkl,gl->gk", H2, theta)
        fit_g = fit_gmm_pooled_arrays(H1, H2, W, spec)
        fit_m = fit_md_arrays(theta, np.ones(G, int), W, spec)
        assert abs(fit_g.B_hat[1, 0] - fit_m.B_hat[1, 0]) > 1e-4
        atilde = H2.transpose(0, 2, 1) @ H2
        refit = fit_md_arrays(theta, np.ones(G, int), W, spec, matrix_weights=atilde)
        np.testing.assert_allclose(refit.B_hat, fit_g.B_hat, atol=1e-8)
        np.testing.assert_allclose(refit.alpha_hat, fit_g.alpha_hat, atol=1e-8)

    def test_singular_groups_still_contribute(self, rng):
        # no-event groups stay in the pooled objective; with no fixed effects
        # in the design their intercept information moves the answer
        spec = gx.OracleSpec(np.zeros((2, 0)), gx.b0_basis_full(2, 1))
        G = 24
        share = rng.uniform(0.2, 0.8, G)
        share[:3] = 0.0  # no events: singular Jacobian, still pooled in
        W = rng.standard_normal((G, 1))
        theta = np.stack(
            [rng.standard_normal(G), 1.0 + 0.5 * W[:, 0] + rng.standard_normal(G)],
            axis=1,
        )
        H2 = np.empty((G, 2, 2))
        H2[:, 0, 0] = 1.0
        H2[:, 0, 1] = share
        H2[:, 1, 0] = share
        H2[:, 1, 1] = share
        H1 = np.einsum("gkl,gl->gk", H2, theta)
        fit = fit_gmm_pooled_arrays(H1, H2, W, spec)
        assert fit.n_dropped == 3
        assert np.all(np.isfinite(fit.B_hat))
        fit_wo = fit_gmm_pooled_arrays(H1[3:], H2[3:], W[3:], spec)
        assert not np.allclose(fit.B_hat, fit_wo.B_hat, atol=1e-12)

    def test_no_event_group_is_inert_under_group_fixed_effects(self, rng):
        # with a per-group intercept direction, a no-event group's moment
        # information is absorbed entirely by its own fixed effect: the pooled
        # fit is unchanged whether the group is present or not
        spec = _effect_row_spec()
        G = 20
        share = rng.uniform(0.2, 0.8, G)
        share[0] = 0.0
        W = rng.standard_normal((G, 1))
        theta = np.stack(
            [rng.standard_normal(G), 1.0 + 0.5 * W[:, 0] + rng.standard_normal(G)],
            axis=1,
        )
        H2 = np.empty((G, 2, 2))
        H2[:, 0, 0] = 1.0
        H2[:, 0, 1] = share
        H2[:, 1, 0] = share
        H2[:, 1, 1] = share
        H1 = np.einsum("gkl,gl->gk", H2, theta)
        fit = fit_gmm_pooled_arrays(H1, H2, W, spec)
        fit_wo = fit_gmm_pooled_arrays(H1[1:], H2[1:], W[1:], spec)
        np.testing.assert_allclose(fit.B_hat, fit_wo.B_hat, atol=1e-10)


class TestDiscreteScenario:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            DiscreteScenario(
                W=np.array([[0.0], [1.0]]),
                alpha=np.zeros((2, 1)),
                atilde=np.ones((2, 1, 1)),
                prob=np.array([0.6, 0.6]),
                B0_true=np.zeros((1, 1)),
                gamma=np.zeros((1, 0)),
                b0_basis=(np.eye(1),),
            )

    def test_asymmetric_weights_rejected(self):
        with pytest.raises(InvalidInputError):
            DiscreteScenario(
                W=np.array([[0.0]]),
                alpha=np.zeros((1, 2)),
                atilde=np.array([[[1.0, 0.4], [0.1, 1.0]]]),
                prob=np.array([1.0]),
                B0_true=np.zeros((2, 1)),
                gamma=np.zeros((2, 0)),
                b0_basis=(np.array([[1.0], [0.0]]),),
            )


class TestDiscreteScenarioPolicyShape:
    def test_vector_policy_is_one_column(self):
        scn = _four_state_scenario()
        payload = scn.to_dict()
        payload["W"] = [w[0] for w in payload["W"]]
        clone = DiscreteScenario.from_dict(payload)
        np.testing.assert_array_equal(clone.W, scn.W)

    def test_rows_must_match_states(self):
        # two states and two policy columns: a transposed W is not guessed
        with pytest.raises(InvalidInputError, match="one row per state"):
            DiscreteScenario(
                W=np.array([[0.0, 1.0]]),
                alpha=np.zeros((2, 1)),
                atilde=np.ones((2, 1, 1)),
                prob=np.array([0.5, 0.5]),
                B0_true=np.zeros((1, 2)),
                gamma=np.zeros((1, 0)),
                b0_basis=(np.array([[1.0, 0.0]]),),
            )


class TestGmmPlim:
    def test_four_state_fixture(self):
        scn = _four_state_scenario(b0=1.0)
        res = gx.gmm_plim(scn)
        assert res["alpha0"][0] == pytest.approx(0.25, abs=1e-12)
        assert res["bias"][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert res["B_lim"][0, 0] == pytest.approx(1.5, abs=1e-12)
        cond = gx.consistency_condition(scn)
        assert cond[0, 0] == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(
            res["B_lim"], dense_population_reference(scn), atol=1e-10
        )

    def test_constant_weights_product_measure(self, rng):
        spec = random_spec(rng, k=2, q=1, p=1)
        scn = _product_scenario(rng, spec, constant_weight=True)
        res = gx.gmm_plim(scn)
        np.testing.assert_allclose(res["bias"], 0.0, atol=1e-10)
        np.testing.assert_allclose(res["B_lim"], scn.B0_true, atol=1e-10)
        np.testing.assert_allclose(gx.consistency_condition(scn), 0.0, atol=1e-10)

    def test_constant_alpha_zero_residual(self, rng):
        spec = random_spec(rng, k=3, q=1, p=2)
        scn = _product_scenario(rng, spec, constant_alpha=True)
        np.testing.assert_allclose(gx.gmm_plim(scn)["bias"], 0.0, atol=1e-10)
        np.testing.assert_allclose(gx.consistency_condition(scn), 0.0, atol=1e-10)

    def test_against_dense_population_reference(self, rng):
        for _ in range(30):
            spec = random_spec(rng)
            S = int(rng.integers(spec.p + 2, spec.p + 8))
            scn = DiscreteScenario(
                W=rng.standard_normal((S, spec.p)),
                alpha=rng.standard_normal((S, spec.k)),
                atilde=np.stack([random_psd(rng, spec.k) for _ in range(S)]),
                prob=rng.dirichlet(np.ones(S)),
                B0_true=spec.effect_from_coefficients(rng.standard_normal(spec.m)),
                gamma=spec.gamma,
                b0_basis=tuple(spec.b0_basis),
            )
            np.testing.assert_allclose(
                gx.gmm_plim(scn)["B_lim"], dense_population_reference(scn), atol=1e-8
            )

    def test_bias_zero_iff_condition_zero(self, rng):
        checked = zeros = 0
        while checked < 120:
            spec = random_spec(rng, k=int(rng.integers(1, 4)))
            kind = checked % 3
            scn = _product_scenario(
                rng,
                spec,
                constant_weight=(kind == 0),
                constant_alpha=(kind == 1),
            )
            checked += 1
            bias = np.linalg.norm(gx.gmm_plim(scn)["bias"])
            cond = np.linalg.norm(gx.consistency_condition(scn))
            assert (bias <= 1e-10) == (cond <= 1e-10), (bias, cond, kind)
            zeros += bias <= 1e-10
        assert zeros >= 40  # both sides of the equivalence get exercised

    def test_monte_carlo_matches_enumerated_limit(self, rng):
        # draw groups from the four-state population and fit with the matrix
        # weights the pooled estimator would apply
        scn = _four_state_scenario(b0=1.0)
        spec = scn.spec
        target = gx.gmm_plim(scn)["B_lim"][0, 0]
        G, R = 5000, 40
        means = []
        theta_states = scn.alpha + scn.W @ scn.B0_true.T
        for _ in range(R):
            idx = rng.choice(4, size=G, p=scn.prob)
            fit = fit_md_arrays(
                theta_states[idx],
                np.ones(G, int),
                scn.W[idx],
                spec,
                matrix_weights=scn.atilde[idx],
            )
            means.append(fit.B_hat[0, 0])
        means = np.asarray(means)
        mc_se = means.std(ddof=1) / np.sqrt(R)
        assert abs(means.mean() - target) < 4 * mc_se


class TestBiasDecomposition:
    def _random_scenario(self, rng, product=False, equal_weights=False):
        S_a = int(rng.integers(2, 5))
        eps_vals = rng.standard_normal(S_a)
        s0 = rng.uniform(0.1, 1.0, S_a)
        s1 = s0.copy() if equal_weights else rng.uniform(0.1, 1.0, S_a)
        if product:
            pw = rng.dirichlet(np.ones(2))
            pa = rng.dirichlet(np.ones(S_a))
            eps, w, sig0, sig1, prob = [], [], [], [], []
            for i, wv in enumerate((0.0, 1.0)):
                for j in range(S_a):
                    eps.append(eps_vals[j])
                    w.append(wv)
                    sig0.append(s0[j])
                    sig1.append(s1[j])
                    prob.append(pw[i] * pa[j])
            return BinaryWeightScenario(
                eps=np.array(eps), w=np.array(w), sigma0=np.array(sig0),
                sigma1=np.array(sig1), prob=np.array(prob),
            )
        S = 2 * S_a
        w = rng.integers(0, 2, S).astype(float)
        w[0], w[1] = 0.0, 1.0  # both arms must carry mass
        sigma0 = rng.uniform(0.1, 1.0, S)
        sigma1 = sigma0.copy() if equal_weights else rng.uniform(0.1, 1.0, S)
        return BinaryWeightScenario(
            eps=rng.standard_normal(S),
            w=w,
            sigma0=sigma0,
            sigma1=sigma1,
            prob=rng.dirichlet(np.ones(S)),
        )

    def test_equal_potential_weights_kill_endogenous_term(self, rng):
        for _ in range(20):
            scn = self._random_scenario(rng, equal_weights=True)
            parts = gx.bias_decomposition(scn)
            assert parts["endogenous"] == pytest.approx(0.0, abs=1e-12)

    def test_independent_errors_kill_statistical_term(self, rng):
        for _ in range(20):
            scn = self._random_scenario(rng, product=True)
            parts = gx.bias_decomposition(scn)
            assert parts["statistical"] == pytest.approx(0.0, abs=1e-12)
            if np.any(scn.sigma1 != scn.sigma0):
                pass  # endogenous term is free to be nonzero here

    def test_randomized_assignment_with_weight_shift(self, rng):
        # product measure but sigma1 correlates with eps: pure causal channel
        found_nonzero = False
        for _ in range(20):
            scn = self._random_scenario(rng, product=True)
            parts = gx.bias_decomposition(scn)
            assert parts["statistical"] == pytest.approx(0.0, abs=1e-12)
            found_nonzero = found_nonzero or abs(parts["endogenous"]) > 1e-3
        assert found_nonzero

    def test_identity_sums_exactly(self, rng):
        for _ in range(100):
            scn = self._random_scenario(rng, product=bool(rng.integers(0, 2)))
            parts = gx.bias_decomposition(scn)
            total = parts["endogenous"] + parts["statistical"]
            assert total == pytest.approx(parts["total"], abs=1e-12)

    def test_non_binary_policy_rejected(self):
        with pytest.raises(UnsupportedScenarioError):
            BinaryWeightScenario(
                eps=np.zeros(2),
                w=np.array([0.0, 2.0]),
                sigma0=np.ones(2),
                sigma1=np.ones(2),
                prob=np.array([0.5, 0.5]),
            )


class TestScenarioSerialization:
    def test_round_trip_preserves_plim(self):
        scn = _four_state_scenario(b0=1.0)
        clone = DiscreteScenario.from_dict(scn.to_dict())
        np.testing.assert_allclose(
            gx.gmm_plim(clone)["B_lim"], gx.gmm_plim(scn)["B_lim"], atol=1e-14
        )

    def test_missing_and_unknown_keys_rejected(self):
        payload = _four_state_scenario().to_dict()
        payload.pop("prob")
        with pytest.raises(InvalidInputError):
            DiscreteScenario.from_dict(payload)
        payload = _four_state_scenario().to_dict()
        payload["extra"] = 1
        with pytest.raises(InvalidInputError):
            DiscreteScenario.from_dict(payload)

    def test_empty_gamma_round_trips(self):
        scn = _four_state_scenario()
        clone = DiscreteScenario.from_dict(scn.to_dict())
        assert clone.gamma.shape == (1, 0)


class TestPlimOrderingStress:
    def test_asymmetric_policy_scales(self, rng):
        # wildly different scales across policy coordinates expose any
        # transposition slip in the stacked population blocks
        for _ in range(20):
            k, q, p = 3, 1, 2
            gamma = rng.standard_normal((k, q))
            proj = gx.gamma_perp_projector(gamma)
            basis = [proj @ rng.standard_normal((k, p)) for _ in range(3)]
            spec = gx.OracleSpec(gamma, basis)
            S = 7
            scn = DiscreteScenario(
                W=np.column_stack(
                    [rng.standard_normal(S), 10.0 * rng.standard_normal(S)]
                ),
                alpha=rng.standard_normal((S, k)),
                atilde=np.stack([random_psd(rng, k, ridge=0.2) for _ in range(S)]),
                prob=rng.dirichlet(np.ones(S)),
                B0_true=spec.effect_from_coefficients(rng.standard_normal(spec.m)),
                gamma=gamma,
                b0_basis=tuple(basis),
            )
            np.testing.assert_allclose(
                gx.gmm_plim(scn)["B_lim"],
                dense_population_reference(scn),
                atol=1e-8,
            )


class TestListArrayParity:
    def test_sample_and_array_paths_agree(self, rng):
        from conftest import did_group

        spec = _effect_row_spec()
        samples, W = [], []
        for g in range(15):
            n = int(rng.integers(3, 10))
            e = rng.integers(0, 2, n)
            dy = rng.standard_normal(n)
            samples.append(did_group(f"g{g}", list(zip(dy.tolist(), e.tolist()))))
            W.append([float(rng.standard_normal())])
        W = np.asarray(W)
        fit_list = gx.fit_gmm_pooled(samples, W, spec)
        avgs = [gx.average_moments(s) for s in samples]
        fit_arr = fit_gmm_pooled_arrays(
            np.stack([a.H1 for a in avgs]),
            np.stack([a.H2 for a in avgs]),
            W,
            spec,
            group_ids=[s.group_id for s in samples],
        )
        np.testing.assert_array_equal(fit_list.B_hat, fit_arr.B_hat)
        assert fit_list.group_ids == fit_arr.group_ids


class TestArrayBackedResult:
    """The residual arrays and the id-keyed views of a fit."""

    def _data(self):
        from groupfx.simlab import load_preset, simulate

        preset = load_preset("selection_demo", G=200)
        data = simulate(preset.cfg, 1)
        # ids out of sorted order, so input order is observable
        ids = [f"g{g}" for g in np.random.default_rng(3).permutation(data.G)]
        return preset.spec, data, ids

    def test_gmm_residuals_match_per_group_formula(self):
        spec, data, ids = self._data()
        theta, omega = gx.first_stage.estimate_arrays(data.H1, data.H2)
        assert 0 < omega.sum() < data.G  # some NaN theta rows
        fit = fit_gmm_pooled_arrays(data.H1, data.H2, data.W, spec, group_ids=ids)
        assert fit.resid.shape == (data.G, spec.k)
        for g in range(data.G):
            if omega[g]:
                expected = theta[g] - (
                    fit.alpha_hat + spec.gamma @ fit.lam[g] + fit.B_hat @ data.W[g]
                )
                np.testing.assert_array_equal(fit.resid[g], expected)
                np.testing.assert_array_equal(fit.residuals[ids[g]], expected)
            else:
                assert np.all(np.isnan(fit.resid[g]))
        assert set(fit.residuals) == {ids[g] for g in np.flatnonzero(omega)}
        assert fit.group_ids == ids
        assert list(fit.lambda_hat) == ids

    def test_md_views_follow_the_fitted_groups(self):
        spec, data, ids = self._data()
        theta, omega = gx.first_stage.estimate_arrays(data.H1, data.H2)
        fit = fit_md_arrays(theta, omega, data.W, spec, group_ids=ids)
        kept = [ids[g] for g in np.flatnonzero(omega)]
        assert fit.group_ids == kept == list(fit.lambda_hat) == list(fit.residuals)
        np.testing.assert_array_equal(fit.positions, np.flatnonzero(omega))
        with pytest.raises(TypeError):
            fit.residuals[kept[0]] = np.zeros(spec.k)
        with pytest.raises(AttributeError):
            fit.group_ids = []
