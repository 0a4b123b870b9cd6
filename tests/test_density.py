import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbc import density, policy
from driftbc.errors import ConfigError, DataError, ShapeError

from oracles import fit_gmm_oracle, trapezoid_integral_2d


def blob(rng, center, n, spread=1.0, d=2):
    return center + spread * rng.standard_normal((n, d))


class TestFitGmm:
    def test_degenerate_single_cluster(self):
        v = np.array([0.5, -1.5])
        states = np.tile(v, (30, 1))
        with pytest.warns(density.CovarianceFloorWarning):
            model = density.fit_gmm(states, n_components=1, seed=0)
        np.testing.assert_allclose(model.means[0], v, atol=1e-12)
        np.testing.assert_allclose(model.variances[0], model.cov_floor, atol=1e-15)

    def test_recovers_standard_normal(self):
        rng = np.random.default_rng(1)
        states = blob(rng, np.zeros(2), 200)
        model = density.fit_gmm(states, n_components=1, seed=0)
        sample_mean = states.mean(axis=0)
        sample_var = states.var(axis=0)
        assert np.all(np.abs(model.means[0]) < 0.2)
        assert np.all(np.abs(model.variances[0] - 1.0) < 0.3)
        # single-component fit must match the closed-form MLE
        np.testing.assert_allclose(model.means[0], sample_mean, atol=1e-6)
        np.testing.assert_allclose(model.variances[0], sample_var, atol=1e-6)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(2)
        states = np.vstack([
            blob(rng, np.array([5.0, 5.0]), 150, spread=0.5),
            blob(rng, np.array([-5.0, -5.0]), 150, spread=0.5),
        ])
        model = density.fit_gmm(states, n_components=2, seed=3)
        w = np.sort(model.mixture_weights)
        assert abs(w[0] - 0.5) < 0.1 and abs(w[1] - 0.5) < 0.1
        # oracle: nearest-center assignment counts also split evenly
        d0 = np.linalg.norm(states - model.means[0], axis=1)
        d1 = np.linalg.norm(states - model.means[1], axis=1)
        frac = np.mean(d0 < d1)
        assert 0.4 < frac < 0.6

    def test_too_many_components_rejected(self):
        states = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ConfigError, match="distinct"):
            density.fit_gmm(states, n_components=3, seed=0)

    def test_log_likelihood_is_monotone(self):
        rng = np.random.default_rng(4)
        states = np.vstack([
            blob(rng, np.array([2.0, 0.0]), 120),
            blob(rng, np.array([-2.0, 1.0]), 80, spread=0.7),
        ])
        model = density.fit_gmm(states, n_components=4, seed=5)
        lls = model.ll_history
        assert len(lls) >= 2
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-8

    def test_weights_stay_probability_vector(self):
        rng = np.random.default_rng(6)
        states = blob(rng, np.zeros(3), 100, d=3)
        model = density.fit_gmm(states, n_components=5, seed=7)
        assert model.mixture_weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.mixture_weights >= 0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(1, 4))
    def test_em_monotone_property(self, seed, k):
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((60, 2)) * rng.uniform(0.5, 2.0)
        model = density.fit_gmm(states, n_components=k, seed=seed)
        lls = model.ll_history
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))
        assert model.mixture_weights.sum() == pytest.approx(1.0, abs=1e-9)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_states_rejected_before_em(self, monkeypatch, bad):
        monkeypatch.setattr(density, "_farthest_point_seeds", refuse_em)
        states = blob(np.random.default_rng(8), np.zeros(2), 50)
        states[17, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            density.fit_gmm(states, n_components=2, seed=0)

    @pytest.mark.parametrize("floor", [0.0, -1.0, np.nan, np.inf])
    def test_bad_cov_floor_rejected_before_em(self, monkeypatch, floor):
        monkeypatch.setattr(density, "_farthest_point_seeds", refuse_em)
        states = blob(np.random.default_rng(9), np.zeros(2), 50)
        with pytest.raises(ConfigError, match="cov_floor"):
            density.fit_gmm(states, n_components=2, seed=0, cov_floor=floor)


def refuse_em(*args):
    raise AssertionError("EM started")


def assert_fit_matches_oracle(states, k, seed, alpha=0.05, cov_floor=1e-4):
    """fit_gmm equals the straight-line EM of the oracle bit for bit; returns
    the model and the oracle's iteration count."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = density.fit_gmm(states, n_components=k, seed=seed, alpha=alpha,
                                cov_floor=cov_floor)
    weights, means, variances, lls, quantile, floored = fit_gmm_oracle(
        states, k, seed, alpha, cov_floor)
    assert model.mixture_weights.tobytes() == weights.tobytes()
    assert model.means.tobytes() == means.tobytes()
    assert model.variances.tobytes() == variances.tobytes()
    assert np.array(model.ll_history).tobytes() == np.array(lls).tobytes()
    assert np.float64(model.calibration_log_quantile).tobytes() \
        == np.float64(quantile).tobytes()
    warned = any(issubclass(w.category, density.CovarianceFloorWarning) for w in caught)
    assert warned == floored
    return model, len(lls)


class TestSumLastAxis:
    """fit_gmm reproduces numpy's reduction order for its sums over d and K;
    a numpy whose .sum(axis=-1) adds in another order fails here by name."""

    @pytest.mark.parametrize("n", list(range(1, 21)) + [127, 128, 129, 130])
    def test_matches_numpy_sum_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        # magnitudes over twelve decades, so that another order of adds
        # shows in the last bits
        a = rng.standard_normal((31, 5, n)) * 10.0 ** rng.uniform(-6, 6, (31, 5, n))
        out = np.empty((31, 5))
        density._sum_last_axis(a.copy(), out)
        assert out.tobytes() == a.sum(axis=-1).tobytes()
        if n >= 8:
            left_to_right = a[..., 0].copy()
            for j in range(1, n):
                left_to_right += a[..., j]
            assert left_to_right.tobytes() != out.tobytes()


class TestFitMatchesOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 16, 17])
    @pytest.mark.parametrize("d", [1, 3, 4, 8, 9])
    def test_grid_of_components_and_dims(self, k, d):
        rng = np.random.default_rng(100 * k + d)
        states = rng.standard_normal((300, d)) * rng.uniform(0.5, 2.0, d)
        assert_fit_matches_oracle(states, k, seed=k + d)

    def test_full_run_of_em_max_iters(self):
        states = np.random.default_rng(0).standard_normal((400, 3))
        _, iters = assert_fit_matches_oracle(states, 6, seed=0)
        assert iters == density.EM_MAX_ITERS

    def test_early_stop(self):
        states = np.random.default_rng(3).standard_normal((400, 3))
        _, iters = assert_fit_matches_oracle(states, 6, seed=3)
        assert 1 < iters < density.EM_MAX_ITERS

    def test_floored_component(self):
        rng = np.random.default_rng(11)
        states = np.vstack([np.tile([1.0, -2.0, 0.5], (40, 1)),
                            rng.standard_normal((120, 3)) * 2])
        model, _ = assert_fit_matches_oracle(states, 3, seed=4)
        assert np.min(model.variances) == model.cov_floor

    def test_duplicate_states(self):
        rng = np.random.default_rng(12)
        states = np.repeat(rng.standard_normal((50, 2)), 3, axis=0)
        assert_fit_matches_oracle(states, 4, seed=2)

    @pytest.mark.parametrize("k, d, alpha", [(1, 2, 0.05), (8, 4, 0.05), (9, 3, 0.3)])
    def test_calibration_is_the_scoring_quantile(self, k, d, alpha):
        states = np.random.default_rng(k * d).standard_normal((500, d))
        model = density.fit_gmm(states, n_components=k, seed=1, alpha=alpha)
        expected = float(np.quantile(density.gmm_log_density(model, states), alpha))
        assert np.float64(model.calibration_log_quantile).tobytes() \
            == np.float64(expected).tobytes()


class TestLogDensity:
    def test_single_component_at_mean(self):
        model = density.GmmModel(
            mixture_weights=np.array([1.0]), means=np.zeros((1, 2)),
            variances=np.ones((1, 2)), calibration_log_quantile=0.0, alpha=0.05,
        )
        ld = density.gmm_log_density(model, np.zeros(2))
        assert ld == pytest.approx(-1.8378771, abs=1e-6)

    def test_identical_components_equal_single(self):
        m1 = density.GmmModel(
            mixture_weights=np.array([1.0]), means=np.zeros((1, 2)),
            variances=np.ones((1, 2)), calibration_log_quantile=0.0, alpha=0.05,
        )
        m2 = density.GmmModel(
            mixture_weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)),
            variances=np.ones((2, 2)), calibration_log_quantile=0.0, alpha=0.05,
        )
        s = np.array([0.3, -0.7])
        assert density.gmm_log_density(m2, s) == pytest.approx(
            density.gmm_log_density(m1, s), rel=1e-12)

    def test_far_point_has_tiny_density(self):
        model = density.GmmModel(
            mixture_weights=np.array([1.0]), means=np.zeros((1, 2)),
            variances=np.ones((1, 2)), calibration_log_quantile=0.0, alpha=0.05,
        )
        s = np.array([20.0, 0.0])
        assert density.gmm_log_density(model, s) < -150

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(8)
        states = blob(rng, np.zeros(2), 80)
        model = density.fit_gmm(states, n_components=3, seed=9)
        qs = rng.standard_normal((7, 2))
        batch = density.gmm_log_density(model, qs)
        singles = np.array([density.gmm_log_density(model, q) for q in qs])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_dimension_mismatch(self):
        model = density.GmmModel(
            mixture_weights=np.array([1.0]), means=np.zeros((1, 2)),
            variances=np.ones((1, 2)), calibration_log_quantile=0.0, alpha=0.05,
        )
        with pytest.raises(ShapeError):
            density.gmm_log_density(model, np.zeros(3))


class TestMembership:
    def make_model(self):
        rng = np.random.default_rng(10)
        states = blob(rng, np.zeros(2), 500)
        return density.fit_gmm(states, n_components=2, seed=11), states

    def test_at_quantile_exactly_one(self):
        model, _ = self.make_model()
        # find the log-density analytically: invert on a radial ray is hard, so
        # instead check the formula at a synthetic point by direct clamp math
        q = model.calibration_log_quantile
        # membership uses min(1, exp(ld - q)); ld == q must give exactly 1
        assert np.minimum(1.0, np.exp(q - q)) == 1.0

    def test_half_score_one_log_two_below(self):
        model, states = self.make_model()
        ld = density.gmm_log_density(model, states)
        scores = density.membership_score(model, states)
        target = model.calibration_log_quantile - np.log(2.0)
        # verify the mapping pointwise rather than hunting for an exact state
        expected = np.minimum(1.0, np.exp(ld - model.calibration_log_quantile))
        np.testing.assert_allclose(scores, expected, rtol=1e-12)
        assert np.minimum(1.0, np.exp(target - model.calibration_log_quantile)) == pytest.approx(0.5, rel=1e-12)

    def test_most_training_states_score_one(self):
        model, states = self.make_model()
        scores = density.membership_score(model, states)
        frac = np.mean(scores >= 1.0 - 1e-12)
        assert 0.92 <= frac <= 0.98

    def test_scores_bounded_and_monotone(self):
        model, _ = self.make_model()
        ray = np.array([[t, 0.0] for t in np.linspace(0, 25, 60)])
        scores = density.membership_score(model, ray)
        assert np.all(scores >= 0) and np.all(scores <= 1)
        ld = density.gmm_log_density(model, ray)
        order = np.argsort(ld)
        assert np.all(np.diff(scores[order]) >= -1e-12)

    def test_far_state_scores_near_zero(self):
        model, _ = self.make_model()
        assert density.membership_score(model, np.array([40.0, 40.0])) < 0.01


def fit_joint_1d(seed=0, n=400):
    """1-D state, 1-D action joint model fitted on synthetic demos."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, 1)) * 0.8
    actions = np.tanh(states) + 0.05 * rng.standard_normal((n, 1))
    pol = policy.init_policy(1, 1, action_low=np.array([-5.0]), action_high=np.array([5.0]),
                             hidden_dims=(16,), rng=np.random.default_rng(seed + 1),
                             provenance="toy1d")
    policy.run_weighted_bc(pol, states, actions, np.ones(n), steps=1500, batch_size=64,
                           learning_rate=2e-3, rng=np.random.default_rng(seed + 2))
    gmm = density.fit_gmm(states, n_components=2, seed=seed, provenance="toy1d")
    return density.JointDensityModel(policy_ref=pol, gmm=gmm), states, actions


class TestJointDensity:
    def test_factorization_identity(self):
        model, states, actions = fit_joint_1d()
        s, a = states[0], actions[0]
        val = density.joint_log_density(model, s, a)
        parts = policy.log_prob(model.policy_ref, s, a) + density.gmm_log_density(model.gmm, s)
        assert val == parts

    def test_provenance_mismatch_rejected(self):
        model, states, _ = fit_joint_1d()
        other_gmm = density.fit_gmm(states, n_components=1, seed=3, provenance="other")
        with pytest.raises(ConfigError, match="provenance"):
            density.JointDensityModel(policy_ref=model.policy_ref, gmm=other_gmm)

    def test_joint_density_integrates_to_one(self):
        model, states, _ = fit_joint_1d(seed=5)
        gmm = model.gmm
        # 6 sigma state grid around the mixture, action grid covering mu(s) +/- 6 sigma
        s_sd = np.sqrt(gmm.variances.max())
        s_lo = gmm.means.min() - 6 * s_sd
        s_hi = gmm.means.max() + 6 * s_sd
        mus = [policy.action_mean(model.policy_ref, np.array([s]))[0]
               for s in np.linspace(s_lo, s_hi, 50)]
        a_sd = float(np.exp(model.policy_ref.log_std[0]))
        a_lo = min(mus) - 6 * a_sd
        a_hi = max(mus) + 6 * a_sd

        def dens(s, a):
            return float(np.exp(density.joint_log_density(model, np.array([s]), np.array([a]))))

        total = trapezoid_integral_2d(dens, s_lo, s_hi, a_lo, a_hi, n=161)
        assert total == pytest.approx(1.0, abs=2e-2)

    def test_expert_action_beats_anti_expert(self):
        model, states, actions = fit_joint_1d(seed=7)
        s = states[3]
        good = actions[3]
        bad = -good if abs(good[0]) > 0.1 else good + 1.0
        assert density.joint_log_density(model, s, good) > density.joint_log_density(model, s, bad)


def density_ratio(p_expert, p_supp, s, a, **bounds):
    """The clamped supplementary-over-expert ratio, as run_offline forms it."""
    return density.clamped_ratio(density.joint_log_density(p_supp, s, a)
                                 - density.joint_log_density(p_expert, s, a), **bounds)


class TestDensityRatio:
    def test_identical_models_give_one(self):
        model, states, actions = fit_joint_1d(seed=9)
        r = density_ratio(model, model, states[0], actions[0])
        assert r == pytest.approx(1.0, abs=0)

    def test_clamp_active_at_max(self):
        # synthetic log densities via two GMMs offset by a big constant
        base = density.GmmModel(
            mixture_weights=np.array([1.0]), means=np.zeros((1, 1)),
            variances=np.ones((1, 1)), calibration_log_quantile=0.0, alpha=0.05,
            provenance="p",
        )
        shifted = density.GmmModel(
            mixture_weights=np.array([1.0]), means=np.zeros((1, 1)),
            variances=np.full((1, 1), np.exp(-20.0)),  # hugely peaked: log diff ~ +10 at mean
            calibration_log_quantile=0.0, alpha=0.05, provenance="p",
        )
        pol = policy.init_policy(1, 1, np.array([-5.0]), np.array([5.0]),
                                 hidden_dims=(4,), rng=np.random.default_rng(0),
                                 provenance="p")
        m_e = density.JointDensityModel(policy_ref=pol, gmm=base)
        m_s = density.JointDensityModel(policy_ref=pol, gmm=shifted)
        s = np.zeros(1)
        a = policy.action_mean(pol, s)
        assert density_ratio(m_e, m_s, s, a, r_max=10.0) == pytest.approx(10.0, rel=1e-12)
        # swap roles: big negative log difference hits the lower clamp
        assert density_ratio(m_s, m_e, s, a, r_min=0.1) == pytest.approx(0.1, rel=1e-12)

    def test_moderate_log_difference(self):
        pol = policy.init_policy(1, 1, np.array([-5.0]), np.array([5.0]),
                                 hidden_dims=(4,), rng=np.random.default_rng(0),
                                 provenance="p")
        g1 = density.GmmModel(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)),
                              0.0, 0.05, provenance="p")
        # e^{-1} ratio: inflate variance so log density at the mean drops by exactly 1
        g2 = density.GmmModel(np.array([1.0]), np.zeros((1, 1)),
                              np.ones((1, 1)) * np.exp(2.0), 0.0, 0.05, provenance="p")
        m_e = density.JointDensityModel(policy_ref=pol, gmm=g1)
        m_s = density.JointDensityModel(policy_ref=pol, gmm=g2)
        s = np.zeros(1)
        a = policy.action_mean(pol, s)
        r = density_ratio(m_e, m_s, s, a, r_min=1e-6, r_max=1e6)
        assert r == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_ratio_invariant_to_common_shift(self):
        # exp(clip((x+c)-(y+c))) == exp(clip(x-y)) holds for the clamp formula
        for x, y, c in [(0.3, -0.2, 5.0), (-4.0, 1.0, -3.3)]:
            lhs = np.exp(np.clip((x + c) - (y + c), np.log(0.1), np.log(10)))
            rhs = np.exp(np.clip(x - y, np.log(0.1), np.log(10)))
            assert lhs == pytest.approx(rhs, rel=1e-15)


class TestGmmCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        states = blob(rng, np.ones(3), 120, d=3)
        model = density.fit_gmm(states, n_components=3, seed=13, provenance="pm/expert")
        path = tmp_path / "gmm.ckpt"
        density.save_gmm(path, model, extra={"config_hash": "deadbeef"})
        loaded, extra = density.load_gmm(path)
        assert extra == {"config_hash": "deadbeef"}
        assert loaded.provenance == "pm/expert"
        assert loaded.alpha == model.alpha
        assert loaded.calibration_log_quantile == model.calibration_log_quantile
        assert loaded.mixture_weights.tobytes() == model.mixture_weights.tobytes()
        assert loaded.means.tobytes() == model.means.tobytes()
        assert loaded.variances.tobytes() == model.variances.tobytes()

    def test_queries_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        states = blob(rng, np.zeros(2), 100)
        model = density.fit_gmm(states, n_components=2, seed=15)
        path = tmp_path / "gmm.ckpt"
        density.save_gmm(path, model)
        loaded, _ = density.load_gmm(path)
        q = rng.standard_normal((5, 2))
        np.testing.assert_array_equal(
            density.gmm_log_density(loaded, q), density.gmm_log_density(model, q))
