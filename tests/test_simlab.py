import dataclasses

import numpy as np
import pytest

import groupfx as gx
from groupfx.exceptions import ConfigError, DesignDeficientError
from groupfx.first_stage import estimate_arrays
from groupfx.md import fit_md_arrays
from groupfx.simlab import (
    CompositionConfig,
    ScenarioConfig,
    available_presets,
    composition_att,
    composition_truth,
    default_spec,
    did_gmm_scenario,
    did_selection_scenario,
    iv_pooled_tsls_bias,
    load_preset,
    oracle_fit,
    run_monte_carlo,
    run_replications,
    simulate,
    simulate_composition,
    simulate_did,
    simulate_iv,
    stream_rng,
    tsls_group,
    tsls_pooled,
    true_coefficients,
)
from conftest import dense_md_reference, iv_group


def _did_cfg(**kw):
    base = dict(
        G=60,
        n_law=("constant", 25),
        policy_law=("bernoulli", 0.5),
        alpha_support=((0.5, -1.0), (-0.5, 1.0)),
        alpha_probs=(0.5, 0.5),
        b0_true=((0.0,), (0.4,)),
        selection_link=("constant", 0.5),
        noise_sigma=1.0,
        seed=123,
        kind="did",
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestDeterminism:
    def test_same_replication_is_bit_identical(self):
        cfg = _did_cfg()
        d1 = simulate_did(cfg, 3)
        d2 = simulate_did(cfg, 3)
        for field in ("W", "H1", "H2", "theta_true"):
            np.testing.assert_array_equal(getattr(d1, field), getattr(d2, field))
        np.testing.assert_array_equal(d1.units["delta_y"], d2.units["delta_y"])

    def test_replications_differ(self):
        cfg = _did_cfg()
        d1 = simulate_did(cfg, 1)
        d2 = simulate_did(cfg, 2)
        assert not np.array_equal(d1.units["delta_y"], d2.units["delta_y"])

    def test_streams_are_independent(self):
        a = stream_rng(7, 1, "policy").random(4)
        b = stream_rng(7, 1, "alpha").random(4)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, stream_rng(7, 1, "policy").random(4))

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigError):
            stream_rng(7, 1, "nope")


class TestSimulateDid:
    def test_noiseless_recovery(self):
        cfg = _did_cfg(noise_sigma=0.0, n_law=("constant", 40), G=30)
        data = simulate_did(cfg, 1)
        theta, omega = estimate_arrays(data.H1, data.H2)
        sel = omega.astype(bool)
        assert sel.any()
        np.testing.assert_allclose(theta[sel], data.theta_true[sel], atol=1e-12)

    def test_theta_follows_policy(self):
        cfg = _did_cfg()
        data = simulate_did(cfg, 2)
        expected = data.theta_true[:, 1] - 0.4 * data.W[:, 0]
        assert set(np.round(expected, 10)) <= {-1.0, 1.0}

    def test_moment_averages_match_unit_recomputation(self):
        cfg = _did_cfg(G=10)
        data = simulate_did(cfg, 1)
        for i, sample in enumerate(data.samples()):
            avgs = gx.average_moments(sample)
            np.testing.assert_array_equal(avgs.H1, data.H1[i])
            np.testing.assert_array_equal(avgs.H2, data.H2[i])

    def test_constant_link_in_unit_interval(self):
        with pytest.raises(ConfigError):
            _did_cfg(selection_link=("constant", 0.0))
        with pytest.raises(ConfigError):
            _did_cfg(selection_link=("constant", 1.2))


class TestSimulateIv:
    def test_full_compliance_reduces_to_event_equals_instrument(self):
        cfg = _did_cfg(kind="iv", selection_link=("constant", 1.0))
        data = simulate_iv(cfg, 1)
        np.testing.assert_array_equal(data.units["e"], data.units["z"])
        theta, omega = estimate_arrays(data.H1, data.H2)
        for i, s in enumerate(data.samples()):
            if omega[i]:
                est = tsls_group(s)
                np.testing.assert_allclose(est, theta[i], atol=1e-12)

    def test_noiseless_group_estimates_exact(self):
        cfg = _did_cfg(kind="iv", noise_sigma=0.0, selection_link=("constant", 0.6))
        data = simulate_iv(cfg, 1)
        theta, omega = estimate_arrays(data.H1, data.H2)
        sel = omega.astype(bool)
        np.testing.assert_allclose(theta[sel], data.theta_true[sel], atol=1e-10)


class TestTslsGroup:
    def test_wald_ratio_fixture(self):
        sample = iv_group(
            "g", [(3.0, 1, 1.0), (1.0, 0, 1.0), (1.0, 0, 0.0), (1.0, 0, 0.0)]
        )
        est = tsls_group(sample)
        # Wald: (mean dy | z=1) - (mean dy | z=0) over (mean e | z=1) - (mean e | z=0)
        assert est[1] == pytest.approx((2.0 - 1.0) / (0.5 - 0.0), abs=1e-12)
        np.testing.assert_allclose(
            est, gx.solve_theta(gx.average_moments(sample)), atol=1e-14
        )

    def test_no_compliers_singular(self):
        sample = iv_group("g", [(1.0, 0, 1.0), (2.0, 0, 0.0)])
        assert tsls_group(sample) is None


class TestTslsPooled:
    def test_constant_compliance_matches_md(self):
        cfg = _did_cfg(
            kind="iv",
            G=400,
            n_law=("constant", 200),
            selection_link=("constant", 0.6),
            noise_sigma=0.3,
        )
        data = simulate_iv(cfg, 1)
        fit = tsls_pooled(data.samples(), data.W)
        theta, omega = estimate_arrays(data.H1, data.H2)
        spec = default_spec(cfg)
        md = fit_md_arrays(theta, omega, data.W, spec)
        assert fit.B_hat[0, 0] == pytest.approx(md.basis_coefs[0], abs=0.05)

    def test_constant_heterogeneity_is_unbiased(self):
        cfg = _did_cfg(
            kind="iv",
            G=500,
            n_law=("constant", 150),
            alpha_support=((0.3, 0.7),),
            alpha_probs=(1.0,),
            selection_link=("logistic", 0.2, 0.0, 1.0),
            noise_sigma=0.3,
        )
        assert iv_pooled_tsls_bias(cfg) == pytest.approx(0.0, abs=1e-12)
        draws = run_replications(cfg, ["tsls_pooled"], R=30)
        c = draws["tsls_pooled"]["coefs"][:, 0]
        mc_se = c.std(ddof=1) / np.sqrt(c.size)
        assert abs(c.mean() - 0.4) < 4 * mc_se

    @pytest.mark.parametrize("s", [1e-7, 1e5])
    def test_plim_bias_follows_policy_units(self, s):
        # W scaled by s and the link slope by 1/s leave the compliance
        # weights alone, so the slope bias scales by exactly 1/s
        base = load_preset("iv_compliance_demo").cfg

        def bias(scale):
            cfg = dataclasses.replace(
                base,
                policy_law=("grid", (0.0, scale), (0.5, 0.5)),
                selection_link=("logistic", 0.2, 0.7, 0.9 / scale),
            )
            return iv_pooled_tsls_bias(cfg)

        assert bias(s) * s == pytest.approx(bias(1.0), rel=1e-12)

    def test_rank_failure_raises(self):
        cfg = _did_cfg(kind="iv", G=8, policy_law=("grid", (1.0,), (1.0,)))
        data = simulate_iv(cfg, 1)
        with pytest.raises(DesignDeficientError):
            tsls_pooled(data.samples(), data.W)


class TestOracleFit:
    def test_equals_md_on_true_parameters(self, rng):
        cfg = _did_cfg()
        data = simulate_did(cfg, 4)
        spec = default_spec(cfg)
        fit = oracle_fit(data.theta_true, data.W, spec)
        ref = fit_md_arrays(
            data.theta_true, np.ones(data.G, int), data.W, spec
        )
        np.testing.assert_array_equal(fit.B_hat, ref.B_hat)
        a_ref, B_ref = dense_md_reference(
            data.theta_true, np.ones(data.G, int), data.W, spec
        )
        np.testing.assert_allclose(fit.B_hat, B_ref, atol=1e-8)
        np.testing.assert_allclose(fit.alpha_hat, a_ref, atol=1e-8)


class TestRunMonteCarlo:
    def test_single_replication_conventions(self):
        cfg = _did_cfg(G=40)
        (summary,) = run_monte_carlo(cfg, ["md"], R=1)
        assert summary.replications == 1
        np.testing.assert_array_equal(summary.sd, 0.0)
        np.testing.assert_array_equal(summary.mc_se, 0.0)

    def test_summaries_deterministic(self):
        cfg = _did_cfg(G=40)
        s1 = run_monte_carlo(cfg, ["md", "gmm"], R=3)
        s2 = run_monte_carlo(cfg, ["md", "gmm"], R=3)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.sd, b.sd)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            run_monte_carlo(_did_cfg(), ["bogus"], R=1)

    def test_tsls_needs_instrumented_scenario(self):
        with pytest.raises(ConfigError):
            run_monte_carlo(_did_cfg(), ["tsls_pooled"], R=1)

    def test_replication_count_validated(self):
        with pytest.raises(ConfigError):
            run_monte_carlo(_did_cfg(), ["md"], R=0)


class TestInducedScenarios:
    def test_probabilities_sum_to_one(self):
        cfg = _did_cfg(selection_link=("logistic", 0.0, 0.8, 0.6), n_law=("constant", 12))
        spec = default_spec(cfg)
        for scn in (did_gmm_scenario(cfg, spec), did_selection_scenario(cfg, spec)):
            assert np.sum(scn.prob) == pytest.approx(1.0, abs=1e-12)

    def test_single_unit_groups_never_selected(self):
        cfg = _did_cfg(n_law=("constant", 1))
        spec = default_spec(cfg)
        scn = did_selection_scenario(cfg, spec)
        # every state with identity weight carries zero probability
        live = scn.prob[[np.allclose(a, np.eye(2)) for a in scn.atilde]]
        assert np.all(live == 0.0)

    def test_constant_link_gmm_limit_matches_mc(self):
        # policy moves the event share only; heterogeneity is independent, so
        # the pooled fit of this saturated binary design stays centered
        cfg = _did_cfg(selection_link=("logistic", 0.0, 0.0, 1.0))
        spec = default_spec(cfg)
        scn = did_gmm_scenario(cfg, spec)
        bias = gx.gmm_plim(scn)["bias"][1, 0]
        assert bias == pytest.approx(0.0, abs=1e-10)


class TestComposition:
    def _comp_cfg(self, **comp_kw):
        comp = CompositionConfig(**comp_kw)
        return ScenarioConfig(
            G=50,
            n_law=("constant", 60),
            policy_law=("binary_pair", 0.35, 0.15, 0.15, 0.35),
            alpha_support=((0.5, 0.0), (-0.5, 0.0)),
            alpha_probs=(0.5, 0.5),
            b0_true=((0.0, 0.0), (0.0, 0.0)),
            selection_link=("constant", 0.5),
            noise_sigma=0.2,
            seed=99,
            kind="did",
            composition=comp,
        )

    def test_no_selection_channel_means_no_composition_effect(self):
        cfg = self._comp_cfg(sel_a2=0.0)
        truth = composition_truth(cfg)
        assert truth["beta1"] == pytest.approx(0.0, abs=1e-12)
        assert truth["beta2"] == pytest.approx(0.5)

    def test_att_enumeration_matches_manual(self):
        comp = CompositionConfig()
        w1 = np.array([0.0, 1.0])
        pv = np.array(comp.trait_probs)
        tv = np.array(comp.trait_values)
        for i, w in enumerate(w1):
            sel = comp.selection_prob(tv, np.full(tv.shape, w)) * pv
            manual = np.sum(sel * (comp.tau_base + comp.tau_trait * tv)) / np.sum(sel)
            got = composition_att(comp, np.array([w]), np.array([0.0]))[0]
            assert got == pytest.approx(manual, rel=1e-12)

    def test_simulated_event_shares_track_selection(self):
        cfg = self._comp_cfg()
        data = simulate_composition(cfg, 1)
        share = data.H2[:, 0, 1]
        np.testing.assert_allclose(share.mean(), data.event_prob.mean(), atol=0.05)

    def test_dispatch(self):
        cfg = self._comp_cfg()
        assert simulate(cfg, 1).kind == "did"

    def test_true_coefficients_use_composition_truth(self):
        cfg = self._comp_cfg()
        spec = default_spec(cfg)
        b = true_coefficients(cfg, spec)
        truth = composition_truth(cfg)
        np.testing.assert_allclose(b, [truth["beta1"], truth["beta2"]], atol=1e-12)


class TestPresets:
    def test_registry_lists_all(self):
        names = available_presets()
        assert "gmm_bias_demo" in names and "selection_demo" in names

    def test_unknown_name_lists_options(self):
        with pytest.raises(ConfigError, match="available presets"):
            load_preset("nope")

    def test_override_scale(self):
        p = load_preset("gmm_bias_demo", G=100, seed=1)
        assert p.cfg.G == 100 and p.cfg.seed == 1

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            load_preset("gmm_bias_demo", noise_sigma=0.0)


class TestNoiseLaw:
    def test_two_point_noise_values(self):
        cfg = _did_cfg(noise_law=("two_point", (-1.0, 1.0), (0.5, 0.5)))
        data = simulate_did(cfg, 1)
        eps = data.units["delta_y"] - (
            data.theta_true[data.units["group_index"], 0]
            + data.theta_true[data.units["group_index"], 1] * data.units["e"]
        )
        assert set(np.round(eps, 12)) <= {-1.0, 1.0}

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ConfigError):
            _did_cfg(noise_law=("two_point", (0.0, 1.0), (0.5, 0.5)))

    def test_unknown_noise_law_rejected(self):
        with pytest.raises(ConfigError):
            _did_cfg(noise_law=("laplace", 1.0))


class TestGmmLimitCases:
    def test_constant_heterogeneity_gmm_unbiased(self):
        # weights move with the policy, but with a single heterogeneity point
        # the population residual vanishes and the pooled limit is centered
        cfg = _did_cfg(
            alpha_support=((0.4, 0.7),),
            alpha_probs=(1.0,),
            selection_link=("logistic", -0.3, 0.0, 1.2),
            n_law=("constant", 12),
        )
        spec = default_spec(cfg)
        scn = did_gmm_scenario(cfg, spec)
        bias = gx.gmm_plim(scn)["bias"]
        np.testing.assert_allclose(bias, 0.0, atol=1e-10)
        np.testing.assert_allclose(gx.consistency_condition(scn), 0.0, atol=1e-10)

    def test_limit_ignores_weight_units(self):
        preset = load_preset("gmm_bias_demo")
        scn = did_gmm_scenario(preset.cfg, preset.spec)
        scaled = dataclasses.replace(scn, atilde=scn.atilde * 1e-12)
        np.testing.assert_allclose(
            gx.gmm_plim(scaled)["bias"], gx.gmm_plim(scn)["bias"], rtol=1e-12, atol=0
        )

    def test_heterogeneity_with_policy_dependent_weights_biased(self):
        # the shipped demonstration scenario: both channels active
        preset = load_preset("gmm_bias_demo")
        assert abs(preset.targets["gmm_plim_bias"]) > 0.1
        assert abs(preset.targets["md_plim_bias"]) < 0.01


class TestEnumerationSensitivity:
    def test_event_count_expansion_is_material(self):
        # collapsing the sample-Jacobian states to the population Jacobian
        # moves the demo target by several Monte Carlo standard errors, so the
        # acceptance comparison can tell the two enumerations apart
        from groupfx.simlab.plim import _base_states
        from groupfx.gmm import DiscreteScenario

        preset = load_preset("gmm_bias_demo")
        cfg, spec = preset.cfg, preset.spec
        Ws, As, Ats, prs = [], [], [], []
        for w, a, pr in _base_states(cfg):
            pi = float(cfg.selection_prob(np.array([a[-1]]), np.array([w[0]]))[0])
            H2 = np.array([[1.0, pi], [pi, pi]])
            Ws.append(w)
            As.append(a)
            Ats.append(H2.T @ H2)
            prs.append(pr)
        coarse = DiscreteScenario(
            W=np.asarray(Ws), alpha=np.asarray(As), atilde=np.asarray(Ats),
            prob=np.asarray(prs), B0_true=cfg.b0, gamma=spec.gamma,
            b0_basis=tuple(spec.b0_basis),
        )
        coarse_bias = gx.gmm_plim(coarse)["bias"][-1, 0]
        mc_window = 4 * 0.047 / np.sqrt(500)  # 4 standard errors at demo scale
        assert abs(preset.targets["gmm_plim_bias"] - coarse_bias) > 2 * mc_window
