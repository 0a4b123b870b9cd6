"""Offline trainer: staging, ablation flags, artifact storage, error paths."""

import os

import numpy as np
import pytest

from driftbc import configio, demos, density, envs, offline, policy
from driftbc.discriminator import (bc_weight, init_discriminator, load_discriminator,
                                   reg_weight_at)
from driftbc.errors import ConfigError, DataError, NumericError
from driftbc.numeric import adam_step, named_generator
from driftbc.policy import init_policy, load_policy, run_weighted_bc


REF_STEPS, DISC_STEPS, BC_STEPS, CUTOFF = 150, 200, 150, 100


@pytest.fixture(scope="module")
def demo_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("demos")
    spec = envs.make_spec("pointmass2d")
    exp = demos.generate_tier(spec, "expert", 10, seed=5)
    med = demos.generate_tier(spec, "medium", 16, seed=5)
    rnd = demos.generate_tier(spec, "random", 8, seed=5)
    supp = demos.mix_supplementary([med, rnd])
    paths = {"expert": str(tmp / "expert.demo"), "supp": str(tmp / "supp.demo"),
             "random": str(tmp / "random.demo")}
    demos.save_demoset(paths["expert"], exp)
    demos.save_demoset(paths["supp"], supp)
    demos.save_demoset(paths["random"], demos.generate_tier(spec, "random", 30, seed=9))
    return paths


def small_config(demo_paths, **kw):
    base = dict(env_id="pointmass2d", expert_demos=demo_paths["expert"],
                supp_demos=demo_paths["supp"], seed=3, ref_steps=REF_STEPS,
                disc_steps=DISC_STEPS, bc_steps=BC_STEPS, reg_cutoff=CUTOFF)
    base.update(kw)
    return offline.OfflineConfig(**base)


@pytest.fixture(scope="module")
def small_run(demo_paths):
    cfg = small_config(demo_paths)
    return cfg, offline.run_offline(cfg)


def policies_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.mean_net.weights, b.mean_net.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.mean_net.biases, b.mean_net.biases))
            and np.array_equal(a.log_std, b.log_std))


# ------------------------------------------------------------------ config


def test_config_round_trip_and_hash(demo_paths):
    cfg = small_config(demo_paths)
    again = offline.OfflineConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.hash() == cfg.hash()
    assert offline.OfflineConfig.from_dict(
        dict(cfg.to_dict(), seed="4")).hash() != cfg.hash()


def test_config_defaults_from_minimal_dict(demo_paths):
    cfg = offline.OfflineConfig.from_dict({
        "env_id": "pointmass2d", "expert_demos": demo_paths["expert"],
        "supp_demos": demo_paths["supp"]})
    assert cfg.disc_steps == offline.DEFAULT_DISC_STEPS
    assert cfg.reg_cutoff == offline.DEFAULT_REG_CUTOFF
    assert not cfg.plain_bc and not cfg.disable_reg


def test_config_validation(demo_paths):
    with pytest.raises(ConfigError, match="unknown env_id"):
        small_config(demo_paths, env_id="cartpole")
    with pytest.raises(ConfigError, match="batch_size"):
        small_config(demo_paths, batch_size=1)
    with pytest.raises(ConfigError, match="disc_steps"):
        small_config(demo_paths, disc_steps=0)
    with pytest.raises(ConfigError, match="supp_demos"):
        offline.OfflineConfig(env_id="pointmass2d", expert_demos=demo_paths["expert"])
    with pytest.raises(ConfigError, match="unknown config keys"):
        offline.OfflineConfig.from_dict({
            "env_id": "pointmass2d", "expert_demos": demo_paths["expert"],
            "supp_demos": demo_paths["supp"], "bogus": "1"})


BAD_CONFIG_VALUES = [
    ({"gmm_k": 0}, "gmm_k"),
    ({"gmm_alpha": 1.5}, "gmm_alpha"),
    ({"gmm_alpha": 0.0}, "gmm_alpha"),
    ({"gmm_cov_floor": -1.0}, "gmm_cov_floor"),
    ({"gmm_cov_floor": 0.0}, "gmm_cov_floor"),
    ({"ratio_min": 20.0, "ratio_max": 10.0}, "ratio_min <= ratio_max"),
    ({"ratio_min": -1.0}, "ratio_min"),
    ({"ratio_min": 0.0}, "ratio_min"),
    ({"learning_rate": -1.0}, "learning_rate"),
    ({"learning_rate": 0.0}, "learning_rate"),
    ({"learning_rate": float("nan")}, "learning_rate"),
    ({"reg_cutoff": -5}, "reg_cutoff"),
    ({"seed": -1}, "seed"),
]


@pytest.fixture
def nothing_trained(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("a reference policy was trained")

    monkeypatch.setattr(offline, "train_reference_policy", refuse)


@pytest.mark.parametrize("bad, message", BAD_CONFIG_VALUES)
def test_bad_config_values_rejected_before_training(demo_paths, nothing_trained,
                                                     bad, message):
    with pytest.raises(ConfigError, match=message):
        offline.run_offline(small_config(demo_paths, **bad))


def test_equal_ratio_bounds_accepted(demo_paths):
    cfg = small_config(demo_paths, ratio_min=2.0, ratio_max=2.0)
    assert cfg.ratio_min == cfg.ratio_max == 2.0


def test_zero_seed_and_reg_cutoff_accepted(demo_paths):
    cfg = small_config(demo_paths, seed=0, reg_cutoff=0)
    assert cfg.seed == cfg.reg_cutoff == 0


# ------------------------------------------------------------------ stages


def test_run_produces_all_models(small_run):
    _, art = small_run
    assert art.policy is not None and art.discriminator is not None
    assert art.ref_expert is not None and art.ref_supp is not None
    assert art.gmm_expert is not None and art.gmm_supp is not None
    je = density.JointDensityModel(art.ref_expert, art.gmm_expert)
    js = density.JointDensityModel(art.ref_supp, art.gmm_supp)
    assert je.gmm is art.gmm_expert and js.gmm is art.gmm_supp


def test_metrics_log_covers_every_stage(small_run):
    _, art = small_run
    lines = art.metrics.strip().split("\n")
    stages = {line.split()[0].split("=")[1] for line in lines}
    assert stages == {"ref_expert", "ref_supp", "gmm_expert", "gmm_supp",
                      "disc", "disc_eval", "bc"}
    disc_lines = [l for l in lines if l.startswith("stage=disc ")]
    bc_lines = [l for l in lines if l.startswith("stage=bc ")]
    assert len(disc_lines) == DISC_STEPS and len(bc_lines) == BC_STEPS
    for line in lines:
        parts = dict(tok.split("=", 1) for tok in line.split())
        assert set(parts) == {"stage", "step", "loss", "lambda", "wall_ms"}
        assert np.isfinite(float(parts["loss"]))
        int(parts["step"]); int(parts["wall_ms"])


def test_metrics_stamp_each_training_step_when_it_happens(demo_paths, monkeypatch):
    # a clock that advances once per policy optimizer step
    ticks = [0]

    def counting_adam_step(*args):
        ticks[0] += 1
        return adam_step(*args)

    monkeypatch.setattr(policy, "adam_step", counting_adam_step)
    monkeypatch.setattr(configio.Stopwatch, "ms", lambda self: ticks[0])
    art = offline.run_offline(small_config(demo_paths, ref_steps=20, bc_steps=30))
    stamps = {}
    for line in art.metrics.strip().split("\n"):
        parts = dict(tok.split("=", 1) for tok in line.split())
        stamps.setdefault(parts["stage"], []).append(int(parts["wall_ms"]))
    assert stamps["ref_expert"] == list(range(1, 21))
    assert stamps["ref_supp"] == list(range(21, 41))
    assert stamps["bc"] == list(range(41, 71))


def test_metrics_lambda_matches_schedule(small_run):
    cfg, art = small_run
    for line in art.metrics.strip().split("\n"):
        parts = dict(tok.split("=", 1) for tok in line.split())
        lam = float(parts["lambda"])
        if parts["stage"] in ("disc", "disc_eval"):
            assert lam == reg_weight_at(int(parts["step"]), cfg.reg_cutoff)
        else:
            assert lam == 0.0


def test_disc_eval_cadence(small_run):
    _, art = small_run
    steps = [int(dict(t.split("=", 1) for t in l.split())["step"])
             for l in art.metrics.strip().split("\n") if l.startswith("stage=disc_eval")]
    expected = DISC_STEPS // offline.DISC_EVAL_POINTS
    assert steps == list(range(expected, DISC_STEPS + 1, expected))


def test_reproducibility_bit_exact(demo_paths, small_run):
    cfg, art = small_run
    again = offline.run_offline(cfg)
    assert policies_equal(art.policy, again.policy)
    assert all(np.array_equal(x, y) for x, y in
               zip(art.discriminator.net.weights, again.discriminator.net.weights))
    assert np.array_equal(art.gmm_expert.means, again.gmm_expert.means)
    assert np.array_equal(art.gmm_supp.variances, again.gmm_supp.variances)
    assert (configio.mask_wall_times(art.metrics)
            == configio.mask_wall_times(again.metrics))


def test_seed_changes_result(demo_paths, small_run):
    _, art = small_run
    other = offline.run_offline(small_config(demo_paths, seed=4))
    assert not policies_equal(art.policy, other.policy)


def test_weight_sanity_expert_over_random(demo_paths):
    # random-tier supplementary data should earn lower BC weight than expert data
    cfg = offline.OfflineConfig(
        env_id="pointmass2d", expert_demos=demo_paths["expert"],
        supp_demos=demo_paths["random"], seed=0, ref_steps=200,
        disc_steps=600, bc_steps=50, reg_cutoff=300)
    art = offline.run_offline(cfg)
    exp_train, _ = demos.split_holdout(demos.load_demoset(demo_paths["expert"]), 0.1)
    rnd_train, _ = demos.split_holdout(demos.load_demoset(demo_paths["random"]), 0.1)
    w_e = bc_weight(art.discriminator, exp_train.states, exp_train.actions)
    w_r = bc_weight(art.discriminator, rnd_train.states, rnd_train.actions)
    assert w_e.mean() > w_r.mean()


# ---------------------------------------------------------------- ablations


def test_plain_bc_bit_exact_vanilla(demo_paths):
    spec = envs.make_spec("pointmass2d")
    cfg = offline.OfflineConfig(env_id="pointmass2d",
                                expert_demos=demo_paths["expert"],
                                plain_bc=True, seed=7, bc_steps=250)
    art = offline.run_offline(cfg)
    assert art.discriminator is None and art.gmm_expert is None

    train, _ = demos.split_holdout(demos.load_demoset(demo_paths["expert"]),
                                   cfg.holdout_fraction)
    pol = init_policy(spec.state_dim, spec.action_dim, spec.action_low,
                      spec.action_high, rng=named_generator(7, "policy_init"),
                      provenance="main")
    run_weighted_bc(pol, train.states, train.actions, np.ones(train.n_samples),
                    250, cfg.batch_size, cfg.learning_rate,
                    named_generator(7, "policy_train"))
    assert policies_equal(art.policy, pol)


def test_plain_bc_pools_supp_when_given(demo_paths):
    only_expert = offline.run_offline(offline.OfflineConfig(
        env_id="pointmass2d", expert_demos=demo_paths["expert"],
        plain_bc=True, seed=7, bc_steps=100))
    pooled = offline.run_offline(offline.OfflineConfig(
        env_id="pointmass2d", expert_demos=demo_paths["expert"],
        supp_demos=demo_paths["supp"], plain_bc=True, seed=7, bc_steps=100))
    assert pooled.discriminator is None
    assert not policies_equal(only_expert.policy, pooled.policy)


def test_disable_reg_zeroes_lambda(demo_paths):
    art = offline.run_offline(small_config(demo_paths, disable_reg=True,
                                           ref_steps=50, disc_steps=40, bc_steps=40))
    for line in art.metrics.strip().split("\n"):
        parts = dict(tok.split("=", 1) for tok in line.split())
        assert float(parts["lambda"]) == 0.0


# ------------------------------------------------------------- disc eval


def confident_disc(flip=False):
    disc = init_discriminator(1, 1, hidden_dims=(), activation="identity",
                              rng=np.random.default_rng(0))
    disc.net.weights[0][:] = np.array([[-1000.0 if flip else 1000.0, 0.0]])
    disc.net.biases[0][:] = 0.0
    return disc


def eval_batches():
    return ((np.ones((5, 1)), np.zeros((5, 1))),
            (-np.ones((7, 1)), np.zeros((7, 1))))


def test_eval_discriminator_confident_hits_clip_floor():
    expert, supp = eval_batches()
    loss = offline.eval_discriminator(confident_disc(), expert, supp)
    assert loss == pytest.approx(-np.log(0.99), rel=1e-12)


def test_eval_discriminator_coin_is_ln2():
    disc = confident_disc()
    disc.net.weights[0][:] = 0.0
    expert, supp = eval_batches()
    assert offline.eval_discriminator(disc, expert, supp) == float(np.log(2.0))


def test_eval_discriminator_untrained_near_ln2():
    disc = init_discriminator(2, 1, rng=np.random.default_rng(3))
    rng = np.random.default_rng(0)
    s = rng.standard_normal((200, 2))
    a = rng.standard_normal((200, 1))
    loss = offline.eval_discriminator(disc, (s[:100], a[:100]), (s[100:], a[100:]))
    assert loss >= np.log(2.0) - 0.1


def test_eval_discriminator_empty_side_raises():
    expert, _ = eval_batches()
    with pytest.raises(DataError, match="both sides"):
        offline.eval_discriminator(confident_disc(), expert,
                                   (np.empty((0, 1)), np.empty((0, 1))))


# -------------------------------------------------------------- error paths


def test_missing_demo_file(demo_paths, tmp_path):
    cfg = small_config(demo_paths, expert_demos=str(tmp_path / "ghost.demo"))
    with pytest.raises(DataError, match="missing demo file"):
        offline.run_offline(cfg)


def test_env_mismatch_rejected(demo_paths, tmp_path):
    pend = demos.generate_tier(envs.make_spec("pendulum1"), "random", 3, seed=1)
    path = str(tmp_path / "pend.demo")
    demos.save_demoset(path, pend)
    with pytest.raises(DataError, match="pendulum1"):
        offline.run_offline(small_config(demo_paths, expert_demos=path))


def test_nonfinite_loss_aborts_with_step(demo_paths):
    spec = envs.make_spec("pointmass2d")
    cfg = small_config(demo_paths, disable_reg=True, disc_steps=5)
    exp_train, exp_hold = demos.split_holdout(
        demos.load_demoset(demo_paths["expert"]), 0.1)
    sup_train, sup_hold = demos.split_holdout(
        demos.load_demoset(demo_paths["supp"]), 0.1)
    disc = init_discriminator(spec.state_dim, spec.action_dim,
                              rng=named_generator(cfg.seed, "disc_init"))
    sup_train.states[:] = np.nan
    log = offline._MetricsLog()
    with pytest.raises(NumericError, match="step 1"):
        offline._train_discriminator(
            cfg, disc, exp_train, sup_train, np.ones(sup_train.n_samples),
            np.zeros(exp_train.n_samples), np.zeros(sup_train.n_samples),
            ((exp_hold.states, exp_hold.actions), (sup_hold.states, sup_hold.actions)),
            log)


# ----------------------------------------------------------------- storage


def test_save_load_round_trip(small_run, tmp_path):
    cfg, art = small_run
    out = tmp_path / "run"
    written = offline.save_offline_artifacts(out, art)
    assert set(written) == set(offline.CHECKPOINT_FILES) | {
        offline.METRICS_FILE, offline.CONFIG_FILE}
    back = offline.load_offline_artifacts(out)
    assert back.config == cfg
    assert policies_equal(back.policy, art.policy)
    assert policies_equal(back.ref_expert, art.ref_expert)
    assert all(np.array_equal(x, y) for x, y in
               zip(back.discriminator.net.weights, art.discriminator.net.weights))
    assert np.array_equal(back.gmm_expert.means, art.gmm_expert.means)
    assert np.array_equal(back.gmm_supp.calibration_log_quantile,
                          art.gmm_supp.calibration_log_quantile)
    assert back.metrics == art.metrics


def test_checkpoints_carry_hash_and_seed(small_run, tmp_path):
    cfg, art = small_run
    out = tmp_path / "run"
    offline.save_offline_artifacts(out, art)
    _, extras = load_policy(os.path.join(out, offline.POLICY_FILE))
    assert extras["config_hash"] == cfg.hash()
    assert int(extras["seed"]) == cfg.seed
    _, extras = load_discriminator(os.path.join(out, offline.DISC_FILE))
    assert extras["config_hash"] == cfg.hash()


def test_load_reports_missing_artifacts(small_run, tmp_path):
    _, art = small_run
    out = tmp_path / "run"
    offline.save_offline_artifacts(out, art)
    os.remove(os.path.join(out, offline.GMM_SUPP_FILE))
    os.remove(os.path.join(out, offline.DISC_FILE))
    with pytest.raises(DataError, match=r"discriminator\.ckpt.*gmm_supp\.ckpt"):
        offline.load_offline_artifacts(out)


def test_load_detects_config_tamper(small_run, tmp_path):
    _, art = small_run
    out = tmp_path / "run"
    offline.save_offline_artifacts(out, art)
    cfg_path = os.path.join(out, offline.CONFIG_FILE)
    text = open(cfg_path, encoding="utf-8").read()
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("seed=3", "seed=12345"))
    with pytest.raises(DataError, match="config hash"):
        offline.load_offline_artifacts(out)


def test_plain_bc_partial_storage(demo_paths, tmp_path):
    art = offline.run_offline(offline.OfflineConfig(
        env_id="pointmass2d", expert_demos=demo_paths["expert"],
        plain_bc=True, seed=1, bc_steps=50))
    out = tmp_path / "pbc"
    written = offline.save_offline_artifacts(out, art)
    assert offline.DISC_FILE not in written
    with pytest.raises(DataError, match="incomplete artifacts"):
        offline.load_offline_artifacts(out)
    back = offline.load_offline_artifacts(out, require_full=False)
    assert back.discriminator is None
    assert policies_equal(back.policy, art.policy)
