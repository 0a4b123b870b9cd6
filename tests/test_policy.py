import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbc import numeric, policy
from driftbc.errors import ConfigError, DataError, NumericError, ShapeError

from oracles import fd_grads, grads_close


def make_policy(seed=0, state_dim=3, action_dim=2, hidden=(8,), init_log_std=0.0):
    return policy.init_policy(
        state_dim, action_dim,
        action_low=-np.ones(action_dim), action_high=np.ones(action_dim),
        hidden_dims=hidden, rng=np.random.default_rng(seed),
        init_log_std=init_log_std,
    )


class TestSampling:
    def test_sample_is_clamped_mean_plus_scaled_noise(self):
        pol = make_policy(seed=1)
        pol.log_std[:] = [0.5, -1.0]
        s = np.array([0.2, -0.4, 1.0])
        mu = policy.action_mean(pol, s)
        clamped = 0
        for seed in range(20):
            a = policy.sample_action(pol, s, np.random.default_rng(seed))
            noise = np.random.default_rng(seed).standard_normal(2) * np.exp(pol.log_std)
            np.testing.assert_array_equal(a, np.clip(mu + noise, -1, 1))
            clamped += bool(np.any(np.abs(mu + noise) > 1))
        assert clamped > 0

    def test_tight_log_std_concentrates_samples(self):
        pol = make_policy(seed=2)
        pol.log_std[:] = -5.0
        s = np.zeros(3)
        mu = np.clip(policy.action_mean(pol, s), -1, 1)
        rng = np.random.default_rng(0)
        hits = 0
        n = 400
        for _ in range(n):
            a = policy.sample_action(pol, s, rng)
            if np.all(np.abs(a - mu) < 0.05):
                hits += 1
        assert hits / n > 0.99

    def test_sample_mean_matches_clt_bound(self):
        pol = make_policy(seed=3, action_dim=1)
        pol.log_std[:] = -1.0
        # put the mean well inside the bounds so clamping never bites
        s = np.zeros(3)
        mu = policy.action_mean(pol, s)
        if abs(mu[0]) > 0.5:
            pol.mean_net.biases[-1][:] -= mu
            mu = policy.action_mean(pol, s)
        rng = np.random.default_rng(4)
        samples = np.array([policy.sample_action(pol, s, rng)[0] for _ in range(10000)])
        sigma = np.exp(-1.0)
        assert abs(samples.mean() - mu[0]) < 3 * sigma / 100

    def test_samples_respect_bounds(self):
        pol = make_policy(seed=5)
        pol.log_std[:] = 2.0
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = policy.sample_action(pol, rng.standard_normal(3), rng)
            assert np.all(a >= -1.0) and np.all(a <= 1.0)


class TestLogProb:
    def test_at_mean_only_normalizer_remains(self):
        pol = make_policy(seed=7)
        s = np.array([0.1, 0.2, 0.3])
        mu = policy.action_mean(pol, s)
        lp = policy.log_prob(pol, s, mu)
        expected = -0.5 * np.sum(np.log(2 * np.pi) + 2 * pol.log_std)
        assert lp == pytest.approx(expected, rel=1e-12)

    def test_standard_normal_value(self):
        pol = make_policy(seed=8, action_dim=1)
        s = np.zeros(3)
        pol.mean_net.biases[-1][:] -= policy.action_mean(pol, s)  # mu(s) = 0
        pol.log_std[:] = 0.0
        assert policy.log_prob(pol, s, np.zeros(1)) == pytest.approx(-0.9189385, abs=1e-6)

    def test_one_sigma_shift_costs_half(self):
        pol = make_policy(seed=9, action_dim=2)
        pol.log_std[:] = np.array([0.3, -0.2])
        s = np.array([0.5, -0.5, 0.0])
        mu = policy.action_mean(pol, s)
        base = policy.log_prob(pol, s, mu)
        shifted = mu.copy()
        shifted[0] += np.exp(pol.log_std[0])
        assert policy.log_prob(pol, s, shifted) == pytest.approx(base - 0.5, rel=1e-12)


class TestWeightedBcLoss:
    def test_zero_weights_zero_everything(self):
        pol = make_policy(seed=10)
        rng = np.random.default_rng(0)
        loss, grads = policy.weighted_bc_loss(
            pol, rng.standard_normal((5, 3)), rng.standard_normal((5, 2)), np.zeros(5))
        assert loss == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_unit_weights_equal_vanilla_nll(self):
        pol = make_policy(seed=11)
        rng = np.random.default_rng(1)
        s = rng.standard_normal((6, 3))
        a = rng.standard_normal((6, 2))
        loss, _ = policy.weighted_bc_loss(pol, s, a, np.ones(6))
        nll = -np.mean([policy.log_prob(pol, si, ai) for si, ai in zip(s, a)])
        assert loss == pytest.approx(nll, rel=1e-12)

    def test_linear_in_weight(self):
        pol = make_policy(seed=12)
        s = np.array([[0.1, 0.2, 0.3]])
        a = np.array([[0.4, -0.4]])
        l1, g1 = policy.weighted_bc_loss(pol, s, a, np.ones(1))
        l2, g2 = policy.weighted_bc_loss(pol, s, a, np.full(1, 2.0))
        assert l2 == pytest.approx(2 * l1, rel=1e-12)
        for x, y in zip(g1, g2):
            np.testing.assert_allclose(y, 2 * x, rtol=1e-12)

    def test_scaled_weights_scale_loss_exactly(self):
        pol = make_policy(seed=13)
        rng = np.random.default_rng(2)
        s = rng.standard_normal((8, 3))
        a = rng.standard_normal((8, 2))
        w = rng.uniform(0.1, 3.0, 8)
        l1, _ = policy.weighted_bc_loss(pol, s, a, w)
        l3, _ = policy.weighted_bc_loss(pol, s, a, 3.0 * w)
        assert l3 == pytest.approx(3 * l1, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        pol = make_policy(seed=14, hidden=(6, 5))
        s = rng.standard_normal((4, 3))
        a = rng.standard_normal((4, 2))
        w = rng.uniform(0.2, 2.0, 4)
        _, grads = policy.weighted_bc_loss(pol, s, a, w)
        params = policy.policy_params(pol)

        def loss():
            val, _ = policy.weighted_bc_loss(pol, s, a, w)
            return val

        fd = fd_grads(loss, params, step=1e-5)
        assert grads_close(grads, fd, tol=1e-4)

    def test_nonfinite_weight_raises(self):
        pol = make_policy(seed=15)
        with pytest.raises(DataError):
            policy.weighted_bc_loss(pol, np.zeros((1, 3)), np.zeros((1, 2)), np.array([np.nan]))

    def test_negative_weight_raises(self):
        pol = make_policy(seed=15)
        with pytest.raises(DataError):
            policy.weighted_bc_loss(pol, np.zeros((1, 3)), np.zeros((1, 2)), np.array([-0.1]))

    def test_empty_batch_raises(self):
        pol = make_policy(seed=15)
        with pytest.raises(DataError):
            policy.weighted_bc_loss(pol, np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 5.0))
    def test_weight_scaling_property(self, seed, scale):
        rng = np.random.default_rng(seed)
        pol = make_policy(seed=seed)
        s = rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 2))
        w = rng.uniform(0.0, 2.0, 3)
        l1, _ = policy.weighted_bc_loss(pol, s, a, w)
        l2, _ = policy.weighted_bc_loss(pol, s, a, scale * w)
        assert l2 == pytest.approx(scale * l1, rel=1e-9, abs=1e-12)


class DemoStub:
    def __init__(self, states, actions):
        self.states = states
        self.actions = actions

    def provenance_label(self):
        return "stub"


class TestTraining:
    def test_one_sample_overfit(self):
        s = np.array([[0.3, -0.2, 0.5]])
        a = np.array([[0.6, -0.6]])
        # train_reference_policy's streams for seed 0 and label "ref"
        pol = policy.init_policy(3, 2, -np.ones(2), np.ones(2), hidden_dims=(16,),
                                 rng=numeric.named_generator(0, "ref_policy_init_ref"))
        policy.run_weighted_bc(pol, s, a, np.ones(1), 4000, 64, 3e-3,
                               numeric.named_generator(0, "ref_policy_train_ref"))
        np.testing.assert_allclose(policy.action_mean(pol, s[0]), a[0], atol=0.01)

    def test_loss_decreases_over_training(self):
        rng = np.random.default_rng(20)
        s = rng.uniform(-1, 1, (400, 3))
        a = np.tanh(s[:, :2]) * 0.5
        pol = make_policy(seed=21, hidden=(16,))
        hist = []
        policy.run_weighted_bc(pol, s, a, np.ones(len(s)), steps=1500,
                               batch_size=64, learning_rate=1e-3,
                               rng=np.random.default_rng(22),
                               on_step=lambda step, loss: hist.append((step, loss)))
        assert [step for step, _ in hist] == list(range(1, 1501))
        assert hist[-1][1] < hist[0][1]

    def test_log_std_stays_in_box(self):
        rng = np.random.default_rng(23)
        s = rng.uniform(-1, 1, (100, 3))
        a = np.zeros((100, 2))  # deterministic target drives sigma down hard
        pol = make_policy(seed=24, hidden=(8,))
        policy.run_weighted_bc(pol, s, a, np.ones(100), steps=2000,
                               batch_size=32, learning_rate=5e-3,
                               rng=np.random.default_rng(25))
        assert np.all(pol.log_std >= policy.LOG_STD_MIN - 1e-12)
        assert np.all(pol.log_std <= policy.LOG_STD_MAX + 1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_step(self):
        # squared residual against an astronomically large target overflows
        # float64 while every activation stays finite
        pol = make_policy(seed=26, hidden=(8,))
        s = np.ones((10, 3))
        a = np.full((10, 2), 1e200)
        with pytest.raises(NumericError, match="step 1"):
            policy.run_weighted_bc(pol, s, a, np.ones(10), steps=5,
                                   batch_size=4, learning_rate=5e-4,
                                   rng=np.random.default_rng(27))

    def test_empty_demos_raise(self):
        cfg = policy.PolicyTrainConfig(action_low=-np.ones(2), action_high=np.ones(2))
        with pytest.raises(ConfigError):
            policy.train_reference_policy(DemoStub(np.zeros((0, 3)), np.zeros((0, 2))), cfg, 0)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(26)
        s = rng.uniform(-1, 1, (50, 3))
        a = s[:, :2] * 0.3

        def run():
            pol = make_policy(seed=30, hidden=(8,))
            policy.run_weighted_bc(pol, s, a, np.ones(50), steps=200, batch_size=16,
                                   learning_rate=1e-3, rng=np.random.default_rng(31))
            return numeric.pack_floats(policy.policy_params(pol))

        assert run() == run()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        pol = make_policy(seed=40, hidden=(12, 7))
        pol.provenance = "expert/pm/0"
        pol.log_std[:] = [-1.3, 0.7]
        path = tmp_path / "pol.ckpt"
        policy.save_policy(path, pol, extra={"seed": "40"})
        loaded, extra = policy.load_policy(path)
        assert extra == {"seed": "40"}
        assert loaded.provenance == "expert/pm/0"
        assert loaded.mean_net.layer_dims == pol.mean_net.layer_dims
        for x, y in zip(policy.policy_params(loaded), policy.policy_params(pol)):
            assert x.tobytes() == y.tobytes()
        assert loaded.action_low.tobytes() == pol.action_low.tobytes()
        assert loaded.action_high.tobytes() == pol.action_high.tobytes()

    def test_truncation_detected(self, tmp_path):
        pol = make_policy(seed=41)
        path = tmp_path / "pol.ckpt"
        policy.save_policy(path, pol)
        raw = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:-8])
        with pytest.raises(DataError, match="more bytes"):
            policy.load_policy(tmp_path / "cut.ckpt")

    def test_unknown_activation_rejected(self, tmp_path):
        path = tmp_path / "pol.ckpt"
        policy.save_policy(path, make_policy(seed=42))
        raw = path.read_bytes()
        assert b"activation=tanh " in raw
        path.write_bytes(raw.replace(b"activation=tanh ", b"activation=tanx ", 1))
        with pytest.raises(DataError, match="unknown activation 'tanx'"):
            policy.load_policy(path)

    def test_bc_weight_bounds_from_clipped_discriminator(self):
        # any clipped d in [0.01, 0.99] must map into [1/99, 99]
        for d in np.linspace(0.01, 0.99, 50):
            w = d / (1 - d)
            assert 1 / 99 - 1e-12 <= w <= 99 + 1e-9
