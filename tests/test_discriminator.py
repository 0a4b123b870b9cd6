import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbc import discriminator as disc
from driftbc.errors import ConfigError, DataError, ShapeError
from oracles import fd_grads, grads_close


def zero_disc(state_dim=2, action_dim=1):
    m = disc.init_discriminator(state_dim, action_dim, hidden_dims=(4,),
                                rng=np.random.default_rng(0))
    for w in m.net.weights:
        w[:] = 0.0
    for b in m.net.biases:
        b[:] = 0.0
    return m


def linear_disc(weight, bias=0.0):
    """1-D state, zero-width action, single linear layer."""
    net = disc.init_mlp((1, 1), "identity", np.random.default_rng(0))
    net.weights[0][:] = weight
    net.biases[0][:] = bias
    return disc.DiscriminatorModel(net=net)


def rand_batch(rng, n, ds=2, da=1):
    return rng.standard_normal((n, ds)), rng.standard_normal((n, da))


class TestForward:
    def test_zero_net_outputs_half(self):
        m = zero_disc()
        assert disc.disc_forward(m, np.zeros(2), np.zeros(1)) == 0.5

    def test_large_positive_logit_clips_high(self):
        m = linear_disc(1.0)
        assert disc.disc_forward(m, np.array([10.0]), np.zeros(0)) == 0.99

    def test_large_negative_logit_clips_low(self):
        m = linear_disc(1.0)
        assert disc.disc_forward(m, np.array([-10.0]), np.zeros(0)) == 0.01

    def test_logistic_value(self):
        m = linear_disc(1.0)
        assert disc.disc_forward(m, np.array([-1.0]), np.zeros(0)) == pytest.approx(
            0.2689, abs=1e-4)

    def test_batch_shape(self):
        m = zero_disc()
        rng = np.random.default_rng(1)
        s, a = rand_batch(rng, 7)
        out = disc.disc_forward(m, s, a)
        assert out.shape == (7,)
        assert np.all(out == 0.5)


class TestBcWeight:
    def test_balanced_odds(self):
        assert disc.bc_weight(zero_disc(), np.zeros(2), np.zeros(1)) == pytest.approx(1.0)

    def test_high_clip_gives_ninety_nine(self):
        m = linear_disc(1.0)
        w = disc.bc_weight(m, np.array([50.0]), np.zeros(0))
        assert w == pytest.approx(99.0, rel=1e-12)

    def test_low_clip_gives_one_over_ninety_nine(self):
        m = linear_disc(1.0)
        w = disc.bc_weight(m, np.array([-50.0]), np.zeros(0))
        assert w == pytest.approx(1.0 / 99.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(z=st.floats(-30, 30))
    def test_weight_always_in_bounds(self, z):
        m = linear_disc(1.0)
        w = disc.bc_weight(m, np.array([z]), np.zeros(0))
        assert 1.0 / 99.0 - 1e-12 <= w <= 99.0 + 1e-9


class TestOfflineLoss:
    def test_chance_level_value(self):
        m = zero_disc()
        rng = np.random.default_rng(2)
        eb = rand_batch(rng, 8)
        sb = rand_batch(rng, 8)
        loss, _ = disc.offline_disc_loss(m, eb, sb, np.ones(8))
        assert loss == pytest.approx(2 * np.log(2), rel=1e-12)

    def test_zero_ratios_leave_expert_term(self):
        m = zero_disc()
        rng = np.random.default_rng(3)
        eb = rand_batch(rng, 4)
        sb = rand_batch(rng, 4)
        loss, _ = disc.offline_disc_loss(m, eb, sb, np.zeros(4))
        assert loss == pytest.approx(np.log(2), rel=1e-12)

    def test_clipped_perfect_separation_value(self):
        m = linear_disc(1.0)
        eb = (np.full((3, 1), 20.0), np.zeros((3, 0)))
        sb = (np.full((3, 1), -20.0), np.zeros((3, 0)))
        loss, grads = disc.offline_disc_loss(m, eb, sb, np.ones(3))
        assert loss == pytest.approx(2 * -np.log(0.99), rel=1e-9)
        # both sides clipped: no gradient flows
        for g in grads:
            assert np.all(g == 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        m = disc.init_discriminator(2, 1, hidden_dims=(6, 5), rng=rng)
        eb = rand_batch(rng, 4)
        sb = rand_batch(rng, 6)
        ratios = rng.uniform(0.1, 10.0, 6)
        _, grads = disc.offline_disc_loss(m, eb, sb, ratios)
        params = disc.disc_params(m)

        def loss():
            val, _ = disc.offline_disc_loss(m, eb, sb, ratios)
            return val

        fd = fd_grads(loss, params, step=1e-5)
        assert grads_close(grads, fd, tol=1e-4)

    def test_negative_ratio_rejected(self):
        m = zero_disc()
        rng = np.random.default_rng(6)
        with pytest.raises(DataError):
            disc.offline_disc_loss(m, rand_batch(rng, 2), rand_batch(rng, 2),
                                   np.array([1.0, -0.5]))


class TestRegLoss:
    def test_zero_when_output_equals_target(self):
        m = zero_disc()
        rng = np.random.default_rng(7)
        mb = rand_batch(rng, 6)
        loss, grads = disc.reg_loss(m, mb, np.full(6, 0.5))
        assert loss == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_squared_gap_value(self):
        m = zero_disc()
        rng = np.random.default_rng(8)
        mb = rand_batch(rng, 5)
        loss, _ = disc.reg_loss(m, mb, np.full(5, 0.9))
        assert loss == pytest.approx(0.16, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        m = disc.init_discriminator(2, 1, hidden_dims=(5, 4), rng=rng)
        mb = rand_batch(rng, 8)
        targets = rng.uniform(0.05, 0.95, 8)
        _, grads = disc.reg_loss(m, mb, targets)
        params = disc.disc_params(m)

        def loss():
            val, _ = disc.reg_loss(m, mb, targets)
            return val

        fd = fd_grads(loss, params, step=1e-5)
        assert grads_close(grads, fd, tol=1e-4)


class TestCombinedLoss:
    def test_zero_reg_weight_equals_offline_exactly(self):
        rng = np.random.default_rng(10)
        m = disc.init_discriminator(2, 1, hidden_dims=(6,), rng=rng)
        eb = rand_batch(rng, 4)
        sb = rand_batch(rng, 4)
        mb = rand_batch(rng, 4)
        ratios = rng.uniform(0.1, 10, 4)
        targets = rng.uniform(0, 1, 4)
        l0, g0 = disc.combined_offline_loss(m, eb, sb, mb, ratios, targets, 0.0)
        l1, g1 = disc.offline_disc_loss(m, eb, sb, ratios)
        assert l0 == l1
        for a, b in zip(g0, g1):
            np.testing.assert_array_equal(a, b)

    def test_weighted_sum_structure(self):
        rng = np.random.default_rng(11)
        m = disc.init_discriminator(2, 1, hidden_dims=(6,), rng=rng)
        eb = rand_batch(rng, 4)
        sb = rand_batch(rng, 4)
        mb = rand_batch(rng, 4)
        ratios = rng.uniform(0.1, 10, 4)
        targets = rng.uniform(0, 1, 4)
        lam = 0.37
        lc, _ = disc.combined_offline_loss(m, eb, sb, mb, ratios, targets, lam)
        lo, _ = disc.offline_disc_loss(m, eb, sb, ratios)
        lr, _ = disc.reg_loss(m, mb, targets)
        assert lc == pytest.approx(lo + lam * lr, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        m = disc.init_discriminator(2, 1, hidden_dims=(5,), rng=rng)
        eb = rand_batch(rng, 3)
        sb = rand_batch(rng, 5)
        mb = rand_batch(rng, 4)
        ratios = rng.uniform(0.1, 10, 5)
        targets = rng.uniform(0.1, 0.9, 4)
        _, grads = disc.combined_offline_loss(m, eb, sb, mb, ratios, targets, 0.8)
        params = disc.disc_params(m)

        def loss():
            val, _ = disc.combined_offline_loss(m, eb, sb, mb, ratios, targets, 0.8)
            return val

        fd = fd_grads(loss, params, step=1e-5)
        assert grads_close(grads, fd, tol=1e-4)

    def test_reg_weight_above_one_rejected(self):
        rng = np.random.default_rng(13)
        m = zero_disc()
        eb = rand_batch(rng, 2)
        with pytest.raises(ConfigError):
            disc.combined_offline_loss(m, eb, eb, eb, np.ones(2), np.ones(2) * 0.5, 1.5)


class TestOnlineLoss:
    def test_zero_scores_reduce_to_expert_term(self):
        m = zero_disc()
        rng = np.random.default_rng(14)
        eb = rand_batch(rng, 4)
        s, a = rand_batch(rng, 4)
        loss, _ = disc.online_disc_loss(m, eb, (s, a, np.zeros(4)))
        assert loss == pytest.approx(np.log(2), rel=1e-12)

    def test_unit_scores_equal_offline_with_unit_ratios(self):
        rng = np.random.default_rng(15)
        m = disc.init_discriminator(2, 1, hidden_dims=(6,), rng=rng)
        eb = rand_batch(rng, 4)
        s, a = rand_batch(rng, 5)
        l_on, g_on = disc.online_disc_loss(m, eb, (s, a, np.ones(5)))
        l_off, g_off = disc.offline_disc_loss(m, eb, (s, a), np.ones(5))
        assert l_on == l_off
        for x, y in zip(g_on, g_off):
            np.testing.assert_array_equal(x, y)

    def test_half_scores_value(self):
        m = zero_disc()
        rng = np.random.default_rng(16)
        eb = rand_batch(rng, 3)
        s, a = rand_batch(rng, 3)
        loss, _ = disc.online_disc_loss(m, eb, (s, a, np.full(3, 0.5)))
        assert loss == pytest.approx(1.5 * np.log(2), rel=1e-12)
        assert loss == pytest.approx(1.0397, abs=1e-4)

    def test_score_out_of_range_rejected(self):
        m = zero_disc()
        rng = np.random.default_rng(17)
        eb = rand_batch(rng, 2)
        s, a = rand_batch(rng, 2)
        with pytest.raises(DataError):
            disc.online_disc_loss(m, eb, (s, a, np.array([0.5, 1.5])))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(18)
        m = disc.init_discriminator(3, 2, hidden_dims=(6,), rng=rng)
        eb = (rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
        s = rng.standard_normal((5, 3))
        a = rng.standard_normal((5, 2))
        k = rng.uniform(0, 1, 5)
        _, grads = disc.online_disc_loss(m, eb, (s, a, k))
        params = disc.disc_params(m)

        def loss():
            val, _ = disc.online_disc_loss(m, eb, (s, a, k))
            return val

        fd = fd_grads(loss, params, step=1e-5)
        assert grads_close(grads, fd, tol=1e-4)


@pytest.mark.parametrize("loss", [
    lambda m, eb, ob, w: disc.offline_disc_loss(m, eb, ob, w),
    lambda m, eb, ob, w: disc.combined_offline_loss(m, eb, ob, eb, w, np.full(3, 0.5), 0.5),
    lambda m, eb, ob, w: disc.online_disc_loss(m, eb, (*ob, w)),
], ids=["offline", "combined", "online"])
def test_two_class_losses_reject_mismatched_widths(loss):
    rng = np.random.default_rng(19)
    m = disc.init_discriminator(4, 2, hidden_dims=(4,), rng=rng)
    expert = rand_batch(rng, 3, ds=4, da=2)   # 6 wide
    other = rand_batch(rng, 3, ds=3, da=2)    # 5 wide
    with pytest.raises(ShapeError, match="5 wide, expert rows 6"):
        loss(m, expert, other, np.full(3, 0.5))


class TestPooledBce:
    def test_perfect_predictions_hit_clip_floor(self):
        m = linear_disc(1.0)
        s = np.array([[20.0], [-20.0]])
        a = np.zeros((2, 0))
        loss, _ = disc.pooled_bce_loss(m, s, a, np.array([1.0, 0.0]))
        assert loss == pytest.approx(-np.log(0.99), rel=1e-9)

    def test_chance_is_log_two(self):
        m = zero_disc()
        rng = np.random.default_rng(19)
        s, a = rand_batch(rng, 6)
        loss = disc.eval_bce(m, s, a, np.array([1, 0, 1, 0, 1, 0]))
        assert loss == pytest.approx(np.log(2), rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(20)
        m = disc.init_discriminator(2, 1, hidden_dims=(5,), rng=rng)
        s, a = rand_batch(rng, 6)
        y = np.array([1.0, 0, 0, 1, 0, 1])
        _, grads = disc.pooled_bce_loss(m, s, a, y)
        params = disc.disc_params(m)

        def loss():
            val, _ = disc.pooled_bce_loss(m, s, a, y)
            return val

        fd = fd_grads(loss, params, step=1e-5)
        assert grads_close(grads, fd, tol=1e-4)


class TestRegWeightSchedule:
    def test_boundary_values(self):
        sched = disc.reg_weight_at
        assert sched(1) == 1.0
        assert sched(10000) == 1.0
        assert sched(10001) == pytest.approx(1 / (1 + np.log(2)), rel=1e-12)
        assert sched(10001) == pytest.approx(0.5907, abs=1e-4)
        assert sched(100000) == pytest.approx(1 / (1 + np.log(90001)), rel=1e-12)

    def test_non_increasing_and_bounded(self):
        steps = [0, 1, 100, 9999, 10000, 10001, 10002, 20000, 10 ** 6, 10 ** 9]
        vals = [disc.reg_weight_at(t) for t in steps]
        assert all(0 < v <= 1 for v in vals)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    @settings(max_examples=50, deadline=None)
    @given(t=st.integers(0, 10 ** 9))
    def test_schedule_in_unit_interval(self, t):
        v = disc.reg_weight_at(t)
        assert 0 < v <= 1

    def test_custom_cutoff(self):
        assert disc.reg_weight_at(5, cutoff_step=4) == pytest.approx(1 / (1 + np.log(2)))


class TestPointwiseOptimum:
    def test_closed_form_at_zero_reg_weight(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            pe, ps = rng.uniform(0.05, 10, 2)
            beta = rng.uniform(0.1, 50)
            d = disc.pointwise_optimum(pe, ps, supp_coef=beta, reg_weight=0.0)
            assert abs(d - pe / (pe + beta * ps)) < 1e-9

    def test_nine_to_one_imbalance(self):
        d = disc.pointwise_optimum(1.0, 1.0, supp_coef=9.0, reg_weight=0.0)
        assert d == pytest.approx(0.1, abs=1e-9)

    def test_large_reg_weight_reaches_posterior(self):
        for pe, ps, beta in [(1.0, 1.0, 9.0), (0.3, 2.0, 100.0), (5.0, 0.2, 2.0)]:
            d = disc.pointwise_optimum(pe, ps, supp_coef=beta, reg_weight=1e8,
                                       mix_density=1.0)
            assert abs(d - pe / (pe + ps)) < 1e-4

    def test_interpolation_strictly_between(self):
        d = disc.pointwise_optimum(1.0, 1.0, supp_coef=9.0, reg_weight=1.0,
                                   mix_density=1.0)
        assert 0.1 < d < 0.5

    def test_monotone_in_reg_weight(self):
        for beta in (2.0, 9.0, 100.0):
            vals = [disc.pointwise_optimum(1.0, 1.0, beta, lam, 1.0)
                    for lam in (0.0, 1.0, 10.0, 100.0, 1e4)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            biased = 1.0 / (1.0 + beta)
            target = 0.5
            for lam, v in zip((0.0, 1.0, 10.0, 100.0, 1e4), vals):
                if lam == 0:
                    assert v == pytest.approx(biased, abs=1e-9)
                else:
                    assert biased < v < target

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            disc.pointwise_optimum(0.0, 1.0)
        with pytest.raises(ConfigError):
            disc.pointwise_optimum(1.0, 1.0, reg_weight=-1.0)

    @settings(max_examples=30, deadline=None)
    @given(pe=st.floats(0.01, 10), ps=st.floats(0.01, 10), beta=st.floats(0.05, 50))
    def test_closed_form_property(self, pe, ps, beta):
        d = disc.pointwise_optimum(pe, ps, beta, 0.0)
        assert abs(d - pe / (pe + beta * ps)) < 1e-9


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        m = disc.init_discriminator(4, 2, hidden_dims=(16, 8), rng=rng)
        path = tmp_path / "d.ckpt"
        disc.save_discriminator(path, m, extra={"seed": "7"})
        loaded, extra = disc.load_discriminator(path)
        assert extra == {"seed": "7"}
        assert loaded.clip_lo == m.clip_lo and loaded.clip_hi == m.clip_hi
        for a, b in zip(disc.disc_params(loaded), disc.disc_params(m)):
            assert a.tobytes() == b.tobytes()

    def test_outputs_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        m = disc.init_discriminator(2, 1, rng=rng)
        path = tmp_path / "d.ckpt"
        disc.save_discriminator(path, m)
        loaded, _ = disc.load_discriminator(path)
        s, a = rand_batch(rng, 5)
        np.testing.assert_array_equal(disc.disc_forward(loaded, s, a),
                                      disc.disc_forward(m, s, a))

    def test_unknown_activation_rejected(self, tmp_path):
        path = tmp_path / "d.ckpt"
        disc.save_discriminator(path, disc.init_discriminator(2, 1, rng=np.random.default_rng(24)))
        raw = path.read_bytes()
        assert b"activation=relu " in raw
        path.write_bytes(raw.replace(b"activation=relu ", b"activation=tanx ", 1))
        with pytest.raises(DataError, match="unknown activation 'tanx'"):
            disc.load_discriminator(path)
