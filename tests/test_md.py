import numpy as np
import pytest

import groupfx as gx
from groupfx.exceptions import (
    DesignDeficientError,
    InvalidDesignError,
    InvalidInputError,
    NoDataError,
)
from groupfx.md import fit_md_arrays, md_objective
from conftest import dense_md_reference, random_spec


def _effect_row_spec(**kw):
    # two-coordinate outcome, free per-group intercept, policy on the effect row
    return gx.OracleSpec(np.array([[1.0], [0.0]]), [np.array([[0.0], [1.0]])], **kw)


class TestProjector:
    def test_ones_two_dim(self):
        np.testing.assert_array_equal(
            gx.gamma_perp_projector(np.ones((2, 1))), [[0.5, -0.5], [-0.5, 0.5]]
        )

    def test_empty_gamma_is_identity(self):
        np.testing.assert_array_equal(
            gx.gamma_perp_projector(np.zeros((3, 0))), np.eye(3)
        )

    def test_first_basis_vector(self):
        g = np.array([[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(
            gx.gamma_perp_projector(g), np.diag([0.0, 1.0, 1.0]), atol=1e-14
        )

    def test_rank_deficient_rejected(self):
        with pytest.raises(InvalidDesignError):
            gx.gamma_perp_projector(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestOracleSpec:
    def test_square_gamma_rejected(self):
        with pytest.raises(InvalidDesignError):
            gx.OracleSpec(np.eye(2), [np.eye(2)])

    def test_dependent_basis_rejected(self):
        b = np.array([[1.0], [0.0]])
        with pytest.raises(InvalidDesignError):
            gx.OracleSpec(np.zeros((2, 0)), [b, 2 * b])

    def test_unidentified_subspace_rejected(self):
        # effect aligned with the fixed-effect direction projects to zero
        with pytest.raises(InvalidDesignError):
            gx.OracleSpec(np.ones((2, 1)), [np.ones((2, 1))])

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidDesignError):
            _effect_row_spec(group_weights=np.array([1.0, -1.0]))

    def test_basis_coefficient_round_trip(self, rng):
        spec = random_spec(rng)
        coefs = rng.standard_normal(spec.m)
        B = spec.effect_from_coefficients(coefs)
        np.testing.assert_allclose(spec.basis_coefficients(B), coefs, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1.0])
    def test_out_of_span_rejected_at_any_scale(self, scale):
        # the basis spans only the second row
        with pytest.raises(InvalidInputError, match="spanned effect subspace"):
            _effect_row_spec().basis_coefficients(scale * np.ones((2, 1)))

    @pytest.mark.parametrize("scale", [1e-12, 1e8])
    def test_rescaled_in_span_accepted(self, scale):
        coefs = _effect_row_spec().basis_coefficients(scale * np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(coefs, [scale], rtol=1e-12)


class TestKappa:
    @pytest.mark.parametrize("k", [2, 5])
    def test_scalar_effect_with_common_intercept(self, k):
        spec = gx.OracleSpec(np.ones((k, 1)), gx.b0_basis_scalar(k))
        assert spec.kappa == pytest.approx(np.sqrt((k - 1) / k), abs=1e-12)

    def test_no_gamma_gives_one(self):
        spec = gx.OracleSpec(np.zeros((3, 0)), gx.b0_basis_full(3, 2))
        assert spec.kappa == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_across_dimensions(self):
        for k in range(2, 11):
            spec = gx.OracleSpec(np.ones((k, 1)), gx.b0_basis_scalar(k))
            assert spec.kappa == pytest.approx(np.sqrt((k - 1) / k), abs=1e-12)


class TestFitMd:
    def test_exact_interpolation_scalar(self):
        spec = gx.OracleSpec(np.zeros((1, 0)), gx.b0_basis_full(1, 1))
        theta = np.array([[1.0], [3.0], [5.0]])
        W = np.array([[0.0], [1.0], [2.0]])
        fit = fit_md_arrays(theta, np.ones(3, int), W, spec)
        assert fit.B_hat[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert fit.alpha_hat[0] == pytest.approx(1.0, abs=1e-10)
        for r in fit.residuals.values():
            np.testing.assert_allclose(r, 0.0, atol=1e-10)

    def test_scalar_effect_recovery_with_fixed_effects(self):
        # theta_g = (lam_g + 3 w1, lam_g + 3 w2): exact fit, B = 3 I
        spec = gx.OracleSpec(np.ones((2, 1)), gx.b0_basis_scalar(2))
        lams = [0.0, 5.0, 2.0]
        Ws = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        theta = np.array([[l + 3 * w[0], l + 3 * w[1]] for l, w in zip(lams, Ws)])
        fit = fit_md_arrays(theta, np.ones(3, int), Ws, spec)
        np.testing.assert_allclose(fit.B_hat, 3 * np.eye(2), atol=1e-9)
        assert abs(spec.gamma.T @ fit.alpha_hat) < 1e-10 * (1 + np.linalg.norm(fit.alpha_hat))

    def test_dropping_consistent_group_changes_nothing(self):
        spec = gx.OracleSpec(np.zeros((1, 0)), gx.b0_basis_full(1, 1))
        theta = np.array([[1.0], [3.0], [5.0], [7.0]])
        W = np.array([[0.0], [1.0], [2.0], [3.0]])
        full = fit_md_arrays(theta, np.ones(4, int), W, spec)
        part = fit_md_arrays(theta, np.array([1, 1, 1, 0]), W, spec)
        np.testing.assert_allclose(part.B_hat, full.B_hat, atol=1e-10)
        assert part.n_dropped == 1 and part.n_used == 3

    def test_all_dropped_raises(self):
        spec = _effect_row_spec()
        with pytest.raises(NoDataError):
            fit_md_arrays(np.zeros((3, 2)), np.zeros(3, int), np.zeros((3, 1)), spec)

    def test_too_few_groups_raises(self):
        spec = gx.OracleSpec(np.zeros((1, 0)), gx.b0_basis_full(1, 2))
        theta = np.zeros((2, 1))
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DesignDeficientError):
            fit_md_arrays(theta, np.ones(2, int), W, spec)

    def test_singular_policy_design_raises(self):
        spec = gx.OracleSpec(np.zeros((1, 0)), gx.b0_basis_full(1, 1))
        theta = np.random.default_rng(0).standard_normal((5, 1))
        W = np.ones((5, 1))  # no variation: constant column collinear with 1
        with pytest.raises(DesignDeficientError):
            fit_md_arrays(theta, np.ones(5, int), W, spec)

    def test_fit_md_wraps_group_estimates(self, rng):
        ests, W = [], []
        for g in range(12):
            theta = rng.standard_normal(2)
            ests.append(
                gx.GroupEstimate(
                    group_id=f"g{g}",
                    theta_hat=theta,
                    omega=1,
                    n_g=10,
                    H2_hat=np.eye(2),
                    H1_hat=theta,
                )
            )
            W.append(rng.standard_normal(1))
        spec = _effect_row_spec()
        fit = gx.fit_md(ests, np.asarray(W), spec)
        theta_arr = np.stack([e.theta_hat for e in ests])
        ref = fit_md_arrays(theta_arr, np.ones(12, int), np.asarray(W), spec)
        np.testing.assert_allclose(fit.B_hat, ref.B_hat, atol=1e-12)
        assert fit.group_ids == [f"g{g}" for g in range(12)]


class TestFitInvariants:
    def test_oracle_equivalence_against_dense_reference(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            G = int(rng.integers(spec.p + spec.q + 4, 30))
            theta = rng.standard_normal((G, spec.k))
            W = rng.standard_normal((G, spec.p))
            fit = fit_md_arrays(theta, np.ones(G, int), W, spec)
            a_ref, B_ref = dense_md_reference(theta, np.ones(G, int), W, spec)
            np.testing.assert_allclose(fit.B_hat, B_ref, atol=1e-8)
            np.testing.assert_allclose(fit.alpha_hat, a_ref, atol=1e-8)

    def test_normalization_invariance(self, rng):
        spec = gx.OracleSpec(np.ones((2, 1)), gx.b0_basis_scalar(2))
        G = 15
        theta = rng.standard_normal((G, 2))
        W = rng.standard_normal((G, 2))
        base = fit_md_arrays(theta, np.ones(G, int), W, spec)
        shift = spec.gamma @ rng.standard_normal(1)
        shifted = fit_md_arrays(theta + shift, np.ones(G, int), W, spec)
        np.testing.assert_allclose(shifted.B_hat, base.B_hat, atol=1e-8)

    def test_weight_scaling_invariance(self, rng):
        G = 12
        theta = rng.standard_normal((G, 2))
        W = rng.standard_normal((G, 1))
        w = rng.uniform(0.5, 2.0, G)
        f1 = fit_md_arrays(theta, np.ones(G, int), W, _effect_row_spec(group_weights=w))
        f2 = fit_md_arrays(
            theta, np.ones(G, int), W, _effect_row_spec(group_weights=37.0 * w)
        )
        np.testing.assert_allclose(f2.B_hat, f1.B_hat, atol=1e-10)
        np.testing.assert_allclose(f2.alpha_hat, f1.alpha_hat, atol=1e-10)
        for g in f1.lambda_hat:
            np.testing.assert_allclose(f2.lambda_hat[g], f1.lambda_hat[g], atol=1e-10)

    def test_constraints_hold_at_solution(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            G = int(rng.integers(spec.p + spec.q + 4, 25))
            theta = rng.standard_normal((G, spec.k))
            W = rng.standard_normal((G, spec.p))
            fit = fit_md_arrays(theta, np.ones(G, int), W, spec)
            if spec.q:
                viol = np.linalg.norm(spec.gamma.T @ fit.alpha_hat)
                assert viol <= 1e-10 * (1 + np.linalg.norm(fit.alpha_hat))
            recon = spec.effect_from_coefficients(fit.basis_coefs)
            assert np.max(np.abs(recon - fit.B_hat)) <= 1e-12

    def test_normal_equations_residual(self, rng):
        # weighted score of the concentrated objective vanishes at the solution
        spec = random_spec(rng, k=3, q=1, p=2)
        G = 20
        theta = rng.standard_normal((G, 3))
        W = rng.standard_normal((G, 2))
        fit = fit_md_arrays(theta, np.ones(G, int), W, spec)
        resid = (theta - fit.alpha_hat - W @ fit.B_hat.T) @ spec.P_perp
        score_alpha = spec.U.T @ resid.sum(axis=0)
        scale = np.linalg.norm(theta)
        assert np.linalg.norm(score_alpha) <= 1e-8 * (1 + scale)
        for j, b in enumerate(spec.b0_basis):
            score_b = np.sum(resid * (W @ b.T))
            assert abs(score_b) <= 1e-8 * (1 + scale)

    def test_gradient_check_finite_differences(self, rng):
        spec = random_spec(rng, k=3, q=1, p=2)
        G = 25
        theta = rng.standard_normal((G, 3))
        W = rng.standard_normal((G, 2))
        omega = np.ones(G, int)
        fit = fit_md_arrays(theta, omega, W, spec)
        h = 1e-5
        for _ in range(5):
            da = rng.standard_normal(spec.k_proj)
            db = rng.standard_normal(spec.m)
            up = md_objective(
                theta, omega, W, spec, fit.alpha_tilde + h * da, fit.basis_coefs + h * db
            )
            dn = md_objective(
                theta, omega, W, spec, fit.alpha_tilde - h * da, fit.basis_coefs - h * db
            )
            deriv = (up - dn) / (2 * h)
            curvature = (up + dn - 2 * md_objective(
                theta, omega, W, spec, fit.alpha_tilde, fit.basis_coefs
            )) / h**2
            assert abs(deriv) <= 1e-6 * max(1.0, abs(curvature))


class TestEhwVcov:
    def test_zero_residuals_zero_variance(self):
        spec = gx.OracleSpec(np.zeros((1, 0)), gx.b0_basis_full(1, 1))
        theta = np.array([[1.0], [3.0], [5.0]])
        W = np.array([[0.0], [1.0], [2.0]])
        fit = fit_md_arrays(theta, np.ones(3, int), W, spec)
        np.testing.assert_allclose(gx.ehw_vcov(fit, W, spec), 0.0, atol=1e-18)

    def test_classical_hc0_three_group_fixture(self):
        spec = gx.OracleSpec(np.zeros((1, 0)), gx.b0_basis_full(1, 1))
        y = np.array([[1.0], [2.0], [4.0]])
        W = np.array([[0.0], [1.0], [2.0]])
        fit = fit_md_arrays(y, np.ones(3, int), W, spec)
        X = np.concatenate([np.ones((3, 1)), W], axis=1)
        beta = np.linalg.solve(X.T @ X, X.T @ y[:, 0])
        r = y[:, 0] - X @ beta
        bread = np.linalg.inv(X.T @ X)
        meat = (X * r[:, None] ** 2).T @ X
        expected = bread @ meat @ bread
        got = gx.ehw_vcov(fit, W, spec)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(fit.vcov_full, expected, atol=1e-12)

    def test_duplicating_groups_halves_variance(self, rng):
        spec = gx.OracleSpec(np.zeros((1, 0)), gx.b0_basis_full(1, 1))
        G = 9
        theta = rng.standard_normal((G, 1))
        W = rng.standard_normal((G, 1))
        v1 = fit_md_arrays(theta, np.ones(G, int), W, spec).vcov_full
        v2 = fit_md_arrays(
            np.vstack([theta, theta]),
            np.ones(2 * G, int),
            np.vstack([W, W]),
            spec,
        ).vcov_full
        np.testing.assert_allclose(v2, v1 / 2, atol=1e-12)

    def test_cluster_collapse(self, rng):
        spec = gx.OracleSpec(np.zeros((1, 0)), gx.b0_basis_full(1, 1))
        G = 10
        theta = rng.standard_normal((G, 1))
        W = rng.standard_normal((G, 1))
        fit = fit_md_arrays(theta, np.ones(G, int), W, spec)
        one_per_group = gx.ehw_vcov(fit, W, spec, cluster=list(range(G)))
        np.testing.assert_allclose(one_per_group, fit.vcov_full, atol=1e-14)
        paired = gx.ehw_vcov(fit, W, spec, cluster=[i // 2 for i in range(G)])
        assert paired.shape == fit.vcov_full.shape
        assert not np.allclose(paired, fit.vcov_full)

    def test_mismatched_inputs_rejected(self, rng):
        spec = gx.OracleSpec(np.zeros((1, 0)), gx.b0_basis_full(1, 1))
        theta = rng.standard_normal((5, 1))
        W = rng.standard_normal((5, 1))
        fit = fit_md_arrays(theta, np.ones(5, int), W, spec)
        other = gx.OracleSpec(np.zeros((2, 0)), gx.b0_basis_full(2, 1))
        with pytest.raises(InvalidInputError):
            gx.ehw_vcov(fit, W, other)
        with pytest.raises(InvalidInputError):
            gx.ehw_vcov(fit, W, spec, cluster=[0, 1])


class TestKappaBruteForce:
    def test_restricted_minimum_is_attained(self, rng):
        # random search over the subspace cannot go below kappa, and comes
        # close to it; run on designs with kappa both at and below one
        specs = [
            gx.OracleSpec(np.ones((3, 1)), gx.b0_basis_diagonal(3)),
            gx.OracleSpec(np.ones((4, 1)), gx.b0_basis_scalar(4)),
        ]
        gamma = rng.standard_normal((3, 1))
        proj = gx.gamma_perp_projector(gamma)
        specs.append(gx.OracleSpec(gamma, [proj @ rng.standard_normal((3, 2)) for _ in range(3)]))
        for spec in specs:
            best = np.inf
            for _ in range(50000):
                c = rng.standard_normal(spec.m)
                B = spec.effect_from_coefficients(c)
                nb = np.linalg.norm(B)
                if nb < 1e-12:
                    continue
                best = min(best, np.linalg.norm(spec.P_perp @ B) / nb)
            assert spec.kappa <= best + 1e-9
            assert best - spec.kappa < 0.02


class TestPolicyUnits:
    """Rank decisions do not depend on the units of the policy column."""

    @pytest.mark.parametrize("c", [1e-6, 1e8])
    def test_rescaled_policies(self, c):
        from groupfx.simlab import load_preset, simulate, tsls_pooled_arrays

        preset = load_preset("iv_compliance_demo", G=60)
        data = simulate(preset.cfg, 1)
        theta, omega = gx.first_stage.estimate_arrays(data.H1, data.H2)
        omega[:3] = 0  # some dropped groups, so the bound is not trivially zero
        spec = preset.spec

        base = fit_md_arrays(theta, omega, data.W, spec)
        scaled = fit_md_arrays(theta, omega, data.W * c, spec)
        np.testing.assert_allclose(scaled.basis_coefs * c, base.basis_coefs, rtol=1e-10)

        coefs, _ = tsls_pooled_arrays(data.H1, data.H2, data.n, data.W)
        coefs_c, _ = tsls_pooled_arrays(data.H1, data.H2, data.n, data.W * c)
        assert coefs_c[1] * c == pytest.approx(coefs[1], rel=1e-10)

        resid = np.stack([base.residuals[g] for g in base.group_ids])
        full = np.zeros((data.G, spec.k))
        full[omega.astype(bool)] = resid
        report = gx.md_bias_bound(data.W * c, omega, full, spec)
        assert np.isfinite(report.bound_value) and report.bound_value > 0
        assert report.max_policy_norm == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-12, 1e-10, 1e10])
    def test_fallback_ignores_policy_units(self, c):
        from groupfx.simlab import load_preset, simulate

        preset = load_preset("iv_compliance_demo", G=60)
        data = simulate(preset.cfg, 1)
        theta, omega = gx.first_stage.estimate_arrays(data.H1, data.H2)
        base = fit_md_arrays(theta, omega, data.W, preset.spec)
        scaled = fit_md_arrays(theta, omega, data.W * c, preset.spec)
        assert not base.pinv_fallback and not scaled.pinv_fallback
        np.testing.assert_allclose(scaled.basis_coefs * c, base.basis_coefs, rtol=1e-10)
