"""Online adapter: shift scoring, patience gating, buffer, updates, run loop."""

import copy
import hashlib

import numpy as np
import pytest

from driftbc import configio, demos, envs, offline, online
from driftbc.density import GmmModel, fit_gmm, load_gmm, membership_score, save_gmm
from driftbc.errors import ConfigError, DataError, ShapeError
from driftbc.numeric import named_generator
from oracles import membership_oracle


def single_gaussian(score_at_origin: float) -> GmmModel:
    """1-D unit Gaussian whose calibrated membership at x=0 equals the given
    value (for values <= 1)."""
    ld0 = -0.5 * np.log(2.0 * np.pi)
    return GmmModel(mixture_weights=np.array([1.0]), means=np.zeros((1, 1)),
                    variances=np.ones((1, 1)),
                    calibration_log_quantile=ld0 - np.log(score_at_origin),
                    alpha=0.05, cov_floor=1e-4, provenance="crafted")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("online_demos")
    spec = envs.make_spec("pointmass2d")
    exp = demos.generate_tier(spec, "expert", 10, seed=5)
    med = demos.generate_tier(spec, "medium", 30, seed=5)
    pe, ps = str(tmp / "e.demo"), str(tmp / "s.demo")
    demos.save_demoset(pe, exp)
    demos.save_demoset(ps, demos.mix_supplementary([med]))
    # the zero-noise gating example needs a policy trained well enough to
    # stay on-support without observation noise
    cfg = offline.OfflineConfig(env_id="pointmass2d", expert_demos=pe,
                                supp_demos=ps, seed=3, ref_steps=800,
                                disc_steps=1500, bc_steps=2500, reg_cutoff=750)
    return offline.run_offline(cfg), demos.load_demoset(pe)


def params_bytes(artifacts):
    chunks = [w.tobytes() for w in artifacts.policy.mean_net.weights]
    chunks += [b.tobytes() for b in artifacts.policy.mean_net.biases]
    chunks.append(artifacts.policy.log_std.tobytes())
    chunks += [w.tobytes() for w in artifacts.discriminator.net.weights]
    chunks += [b.tobytes() for b in artifacts.discriminator.net.biases]
    return b"".join(chunks)


def gmm_bytes(artifacts):
    out = b""
    for g in (artifacts.gmm_expert, artifacts.gmm_supp):
        out += g.mixture_weights.tobytes() + g.means.tobytes() + g.variances.tobytes()
        out += np.float64(g.calibration_log_quantile).tobytes()
    return out


# ------------------------------------------------------------------- kappa


class TestKappa:
    def test_mean_of_two_membership_scores(self):
        ge, gs = single_gaussian(0.6), single_gaussian(0.2)
        assert online.kappa(np.zeros(1), ge, gs) == pytest.approx(0.4, abs=1e-12)

    def test_deep_in_distribution_is_one(self):
        ge, gs = single_gaussian(1.0), single_gaussian(1.0)
        assert online.kappa(np.zeros(1), ge, gs) == 1.0

    def test_far_outside_support_decays_below_percent(self):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((400, 1))
        ge = fit_gmm(states, n_components=2, seed=1, provenance="a")
        gs = fit_gmm(states * 1.5, n_components=2, seed=2, provenance="b")
        assert online.kappa(np.array([20.0]), ge, gs) < 0.01

    def test_batch_shape_and_scalar(self):
        ge, gs = single_gaussian(0.6), single_gaussian(0.2)
        batch = online.kappa(np.zeros((7, 1)), ge, gs)
        assert batch.shape == (7,)
        assert isinstance(online.kappa(np.zeros(1), ge, gs), float)

    def test_noise_monotonicity_on_support(self, trained):
        art, expert_set = trained
        rng = np.random.default_rng(11)
        idx = rng.integers(0, expert_set.n_samples, 1000)
        base = expert_set.states[idx]
        k_lo = online.kappa(base + rng.standard_normal(base.shape) * 0.05,
                            art.gmm_expert, art.gmm_supp)
        k_hi = online.kappa(base + rng.standard_normal(base.shape) * 0.2,
                            art.gmm_expert, art.gmm_supp)
        assert k_hi.mean() <= k_lo.mean()


class TestKappaOracle:
    """kappa against a straight-line mixture density, bit for bit, on a
    model shaped like the online runs' (8 components over 4-D states)."""

    # sha256 of save_gmm's output for the fitted model below; the cached
    # log constants must not reach the file
    SAVED_DIGEST = "957134b7f5b69e0e64d510a72a09967d34c62ca49d61aaa55802c7ed89bcd431"

    @pytest.fixture(scope="class")
    def models(self):
        rng = np.random.default_rng(40)
        states = np.vstack([rng.standard_normal((150, 4)) * 0.4 + c
                            for c in rng.uniform(-1, 1, (4, 4))])
        ge = fit_gmm(states, n_components=8, seed=41, provenance="e")
        gs = fit_gmm(states[::2] * 1.3, n_components=8, seed=42, provenance="s")
        return ge, gs

    @staticmethod
    def oracle(s, ge, gs):
        scores = [membership_oracle(g.mixture_weights, g.means, g.variances,
                                    g.calibration_log_quantile, s) for g in (ge, gs)]
        return 0.5 * (scores[0] + scores[1])

    def check_states(self, ge, gs):
        rng = np.random.default_rng(43)
        states = rng.standard_normal((1200, 4)) * 1.5
        for s in states:
            assert online.kappa(s, ge, gs) == self.oracle(s, ge, gs), s

    def test_fitted_model_matches_oracle(self, models):
        self.check_states(*models)

    def test_round_tripped_model_matches_oracle(self, models, tmp_path):
        loaded = []
        for name, g in zip(("e", "s"), models):
            save_gmm(tmp_path / name, g)
            loaded.append(load_gmm(tmp_path / name)[0])
        self.check_states(*loaded)

    def test_saved_bytes_unchanged(self, models, tmp_path):
        save_gmm(tmp_path / "g", models[0])
        raw = (tmp_path / "g").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == self.SAVED_DIGEST
        save_gmm(tmp_path / "again", load_gmm(tmp_path / "g")[0])
        assert (tmp_path / "again").read_bytes() == raw

    def test_wrong_dimension_raises_shape_error(self, models):
        with pytest.raises(ShapeError, match="state dim 3 != model dim 4"):
            online.kappa(np.zeros(3), *models)
        with pytest.raises(ShapeError):
            online.kappa(np.zeros((5, 2)), *models)


# ---------------------------------------------------------------- detector


class TestDetector:
    def test_detector_validation(self):
        with pytest.raises(ConfigError, match="kappa_threshold"):
            online.ShiftDetector(kappa_threshold=1.5)
        with pytest.raises(ConfigError, match="patience"):
            online.ShiftDetector(patience=0)
        with pytest.raises(ConfigError, match="buffer_capacity"):
            online.ShiftDetector(buffer_capacity=0)

    def test_nineteen_then_reset_never_triggers(self):
        det = online.ShiftDetector()
        s, a = np.zeros(2), np.zeros(1)
        for _ in range(19):
            assert not online.observe_step(det, s, a, 0.1)
        assert not online.observe_step(det, s, a, 0.9)
        assert det.consecutive_count == 0

    def test_trigger_exactly_at_patience(self):
        det = online.ShiftDetector()
        s, a = np.zeros(2), np.zeros(1)
        fired = [online.observe_step(det, s, a, 0.1) for _ in range(20)]
        assert fired == [False] * 19 + [True]
        assert det.consecutive_count == 0
        assert len(det.buffer) == 20

    def test_alternating_never_triggers(self):
        det = online.ShiftDetector()
        s, a = np.zeros(2), np.zeros(1)
        for i in range(200):
            assert not online.observe_step(det, s, a, 0.1 if i % 2 == 0 else 0.9)

    def test_score_at_threshold_counts_as_in_distribution(self):
        det = online.ShiftDetector(kappa_threshold=0.4)
        s, a = np.zeros(2), np.zeros(1)
        online.observe_step(det, s, a, 0.39)
        online.observe_step(det, s, a, 0.4)
        assert det.consecutive_count == 0
        assert len(det.buffer) == 1  # only the sub-threshold step was stored

    def test_buffer_stores_given_state_action_score(self):
        det = online.ShiftDetector()
        s = np.array([1.0, 2.0])
        a = np.array([-0.5])
        online.observe_step(det, s, a, 0.25)
        (bs,), (ba,), (bk,) = online.buffer_snapshot(det)
        assert np.array_equal(bs, s) and np.array_equal(ba, a) and bk == 0.25
        s[0] = 99.0  # stored copy must not alias caller memory
        assert online.buffer_snapshot(det)[0][0][0] == 1.0

    def test_buffer_evicts_oldest(self):
        det = online.ShiftDetector(buffer_capacity=5)
        for i in range(8):
            det.buffer.append(np.array([float(i)]), np.zeros(1), 0.1)
        states, _, _ = online.buffer_snapshot(det)
        assert states[:, 0].tolist() == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_direct_construction_honours_capacity(self):
        det = online.ShiftDetector(buffer_capacity=5)
        for i in range(10):
            det.buffer.append(np.array([float(i), -i]), np.array([i / 10]), i / 20)
        states, actions, scores = online.buffer_snapshot(det)
        assert len(det.buffer) == 5
        assert states.tolist() == [[float(i), -i] for i in range(5, 10)]
        assert actions[:, 0].tolist() == [i / 10 for i in range(5, 10)]
        assert scores.tolist() == [i / 20 for i in range(5, 10)]

    @pytest.mark.parametrize("appends", [1, 4, 5, 6, 13])
    def test_snapshot_matches_stacked_history(self, appends):
        # the ring must give exactly what stacking the last 5 appends gives
        det = online.ShiftDetector(buffer_capacity=5)
        rng = np.random.default_rng(appends)
        history = [(rng.standard_normal(3), rng.standard_normal(2), rng.uniform())
                   for _ in range(appends)]
        for s, a, k in history:
            det.buffer.append(s, a, k)
        snap = online.buffer_snapshot(det)
        kept = history[-5:]
        expected = (np.stack([h[0] for h in kept]), np.stack([h[1] for h in kept]),
                    np.array([h[2] for h in kept]))
        for got, want in zip(snap, expected):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
        snap[0][:] = 0.0  # a snapshot is a copy, not a view of the ring
        assert online.buffer_snapshot(det)[0].tobytes() == expected[0].tobytes()

    def test_snapshot_empty_raises(self):
        with pytest.raises(DataError, match="empty"):
            online.buffer_snapshot(online.ShiftDetector())

    def test_snapshot_shapes(self):
        det = online.ShiftDetector()
        for i in range(4):
            det.buffer.append(np.zeros(3), np.zeros(2), 0.2)
        s, a, k = online.buffer_snapshot(det)
        assert s.shape == (4, 3) and a.shape == (4, 2) and k.shape == (4,)


# ------------------------------------------------------------------ update


class TestOnlineUpdate:
    def test_config_validation(self):
        with pytest.raises(ConfigError, match="positive"):
            online.OnlineUpdateConfig(disc_steps=0)
        with pytest.raises(ConfigError, match="positive"):
            online.OnlineUpdateConfig(policy_steps=-1)

    def snapshot_from(self, expert_set, n=30, kappa_value=0.2):
        states = expert_set.states[:n] + 0.3
        actions = expert_set.actions[:n]
        return states, actions, np.full(n, kappa_value)

    def test_successful_update_swaps_models(self, trained):
        art, expert_set = trained
        art = copy.deepcopy(art)
        before = params_bytes(art)
        gmms_before = gmm_bytes(art)
        ok = online.online_update(art, self.snapshot_from(expert_set), expert_set,
                                  online.OnlineUpdateConfig(disc_steps=10,
                                                            policy_steps=10),
                                  seed=0, update_index=0)
        assert ok
        assert params_bytes(art) != before
        assert gmm_bytes(art) == gmms_before  # density models stay frozen

    def test_update_deterministic_given_index(self, trained):
        art, expert_set = trained
        snap = self.snapshot_from(expert_set)
        cfg = online.OnlineUpdateConfig(disc_steps=8, policy_steps=8)
        a1, a2 = copy.deepcopy(art), copy.deepcopy(art)
        online.online_update(a1, snap, expert_set, cfg, seed=5, update_index=2)
        online.online_update(a2, snap, expert_set, cfg, seed=5, update_index=2)
        assert params_bytes(a1) == params_bytes(a2)
        a3 = copy.deepcopy(art)
        online.online_update(a3, snap, expert_set, cfg, seed=5, update_index=3)
        assert params_bytes(a3) != params_bytes(a1)

    def test_failed_update_leaves_models_bit_identical(self, trained):
        art, expert_set = trained
        art = copy.deepcopy(art)
        before = params_bytes(art)
        states, actions, scores = self.snapshot_from(expert_set)
        states = states.copy()
        states[0, 0] = np.nan  # poisons the forward pass mid-update
        ok = online.online_update(art, (states, actions, scores), expert_set,
                                  online.OnlineUpdateConfig(disc_steps=10,
                                                            policy_steps=10),
                                  seed=0, update_index=0)
        assert not ok
        assert params_bytes(art) == before

    def test_empty_snapshot_raises(self, trained):
        art, expert_set = trained
        empty = (np.empty((0, 4)), np.empty((0, 2)), np.empty(0))
        with pytest.raises(DataError, match="non-empty"):
            online.online_update(copy.deepcopy(art), empty, expert_set,
                                 online.OnlineUpdateConfig(), 0, 0)

    def test_update_without_discriminator_refused(self, trained):
        art, expert_set = trained
        art = copy.deepcopy(art)
        art.discriminator = None
        with pytest.raises(ConfigError, match="discriminator"):
            online.online_update(art, self.snapshot_from(expert_set), expert_set,
                                 online.OnlineUpdateConfig(), 0, 0)


# ---------------------------------------------------------------- run loop


def tiny_update_config():
    return online.OnlineUpdateConfig(disc_steps=4, policy_steps=4)


class TestRunOnline:
    def test_mode_and_arg_validation(self, trained):
        art, expert_set = trained
        with pytest.raises(ConfigError, match="adapt"):
            online.run_online(copy.deepcopy(art), expert_set, 0.1, 5, adapt="maybe")
        with pytest.raises(ConfigError, match="episodes"):
            online.run_online(copy.deepcopy(art), expert_set, 0.1, 0)

    def test_plain_artifacts_refused(self, trained, tmp_path):
        art, expert_set = trained
        stripped = copy.deepcopy(art)
        stripped.gmm_expert = None
        with pytest.raises(ConfigError, match="state-density"):
            online.run_online(stripped, expert_set, 0.1, 5)

    def test_off_mode_only_logs(self, trained):
        art, expert_set = trained
        art = copy.deepcopy(art)
        before = params_bytes(art)
        res = online.run_online(art, expert_set, 0.2, 5, adapt="off", seed=2)
        assert res.update_invocations == 0
        assert params_bytes(art) == before
        assert len(res.episode_returns) == 5
        assert all(not r.triggered and r.update_wall_ms == 0 for r in res.records)
        assert all(np.isfinite(r.kappa) for r in res.records)

    def test_zero_noise_never_triggers_at_default_threshold(self, trained):
        art, expert_set = trained
        res = online.run_online(copy.deepcopy(art), expert_set, 0.0, 20,
                                adapt="on", seed=1,
                                update_config=tiny_update_config())
        assert res.update_invocations == 0

    def test_always_mode_updates_every_patience_steps(self, trained):
        art, expert_set = trained
        res = online.run_online(copy.deepcopy(art), expert_set, 0.2, 3,
                                adapt="always", seed=2, patience=10,
                                update_config=tiny_update_config())
        total_steps = len(res.records)
        assert res.update_invocations == total_steps // 10
        fired = [i for i, r in enumerate(res.records, start=1) if r.triggered]
        assert fired == [10 * k for k in range(1, total_steps // 10 + 1)]

    def test_on_mode_gating_replayable(self, trained):
        art, expert_set = trained
        res = online.run_online(copy.deepcopy(art), expert_set, 0.2, 10,
                                adapt="on", seed=4, kappa_threshold=0.8,
                                patience=5, update_config=tiny_update_config())
        assert res.update_invocations > 0  # tight threshold must fire here
        n = online.validate_trigger_log(res.records, kappa_threshold=0.8, patience=5)
        assert n == res.update_invocations

    def test_run_deterministic(self, trained):
        art, expert_set = trained
        kw = dict(adapt="on", seed=6, kappa_threshold=0.8, patience=5,
                  update_config=tiny_update_config())
        r1 = online.run_online(copy.deepcopy(art), expert_set, 0.2, 6, **kw)
        r2 = online.run_online(copy.deepcopy(art), expert_set, 0.2, 6, **kw)
        assert np.array_equal(r1.episode_returns, r2.episode_returns)
        assert (configio.mask_wall_times(online.format_trigger_log(r1.records))
                == configio.mask_wall_times(online.format_trigger_log(r2.records)))

    def test_updates_change_behavior_not_gmms(self, trained):
        art, expert_set = trained
        art = copy.deepcopy(art)
        gmms_before = gmm_bytes(art)
        before = params_bytes(art)
        res = online.run_online(art, expert_set, 0.2, 10, adapt="on", seed=4,
                                kappa_threshold=0.8, patience=5,
                                update_config=tiny_update_config())
        assert res.update_invocations - res.failed_updates > 0
        assert params_bytes(art) != before
        assert gmm_bytes(art) == gmms_before


# ------------------------------------------------------------- trigger log


class TestTriggerLog:
    def make_records(self):
        recs = []
        for step in range(25):
            k = 0.1 if step < 23 else 0.9
            count_would_fire = step == 19
            recs.append(online.StepRecord(0, step, k, count_would_fire, 0))
        return recs

    def test_round_trip(self):
        recs = self.make_records()
        text = online.format_trigger_log(recs)
        assert online.parse_trigger_log(text) == recs

    def test_malformed_line(self):
        with pytest.raises(DataError, match="line 2"):
            online.parse_trigger_log(
                "episode=0 step=0 kappa=0.5 triggered=0 wall_ms=0\nnot a record\n")

    def test_validator_accepts_rule_following_log(self):
        assert online.validate_trigger_log(self.make_records(), 0.4, 20) == 1

    def test_validator_rejects_flipped_flag(self):
        recs = self.make_records()
        bad = list(recs)
        bad[19] = online.StepRecord(0, 19, bad[19].kappa, False, 0)
        with pytest.raises(DataError, match="episode 0 step 19"):
            online.validate_trigger_log(bad, 0.4, 20)

    def test_validator_resets_across_episodes(self):
        recs = [online.StepRecord(0, s, 0.1, False, 0) for s in range(15)]
        recs += [online.StepRecord(1, s, 0.1, s == 19, 0) for s in range(20)]
        assert online.validate_trigger_log(recs, 0.4, 20) == 1
        # without the boundary reset the count would fire at episode 1 step 4
        leaked = [online.StepRecord(0, s, 0.1, False, 0) for s in range(15)]
        leaked += [online.StepRecord(1, s, 0.1, s == 4, 0) for s in range(20)]
        with pytest.raises(DataError):
            online.validate_trigger_log(leaked, 0.4, 20)

    def test_threshold_zero_never_triggers(self, trained):
        art, expert_set = trained
        res = online.run_online(copy.deepcopy(art), expert_set, 0.2, 5,
                                adapt="on", seed=1, kappa_threshold=0.0,
                                update_config=tiny_update_config())
        assert res.update_invocations == 0
        assert online.validate_trigger_log(res.records, 0.0, 20) == 0
