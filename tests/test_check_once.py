"""The trainers check their whole inputs once and then run the loss cores.

Each trainer is compared with a reference loop that calls the public loss,
input checks and all, at every step over the same random batches: the final
parameters must be the same bytes. Bad inputs must raise the public losses'
typed errors before the first optimizer step, even when the bad row is one
that the first steps would not sample.
"""

import copy
import sys

import numpy as np
import pytest

from driftbc import discriminator, envs, offline, online, policy
from driftbc.demos import generate_tier, save_demoset
from driftbc.discriminator import (bc_weight, combined_offline_loss,
                                   init_discriminator, online_disc_loss,
                                   reg_weight_at)
from driftbc.errors import DataError
from driftbc.numeric import adam_step, init_adam, named_generator

ENV = "pointmass2d"


def reference_bc(pol, states, actions, weights, steps, batch_size, lr, rng):
    """run_weighted_bc with the public loss called at every step."""
    params = [pol.params]
    opt = init_adam(params, learning_rate=lr)
    grad = np.empty_like(pol.params)
    for _ in range(steps):
        idx = rng.integers(0, states.shape[0], size=batch_size)
        policy.weighted_bc_loss(pol, states[idx], actions[idx], weights[idx], out=grad)
        adam_step(params, [grad], opt)
        np.clip(pol.log_std, policy.LOG_STD_MIN, policy.LOG_STD_MAX, out=pol.log_std)


def reference_online_update(artifacts, snapshot, expert, config, seed, index):
    """online_update's models with online_disc_loss called at every step."""
    states_x, actions_x, scores_x = snapshot
    s_e, a_e = expert.states, expert.actions
    b = online.UPDATE_BATCH_SIZE
    disc = copy.deepcopy(artifacts.discriminator)
    pol = copy.deepcopy(artifacts.policy)
    rng = named_generator(seed, f"online_update{index}_disc")
    params = [disc.net.params]
    opt = init_adam(params, learning_rate=online.UPDATE_LEARNING_RATE)
    grad = np.empty_like(disc.net.params)
    for _ in range(config.disc_steps):
        idx_e = rng.integers(0, s_e.shape[0], size=b)
        idx_x = rng.integers(0, states_x.shape[0], size=b)
        online_disc_loss(disc, (s_e[idx_e], a_e[idx_e]),
                         (states_x[idx_x], actions_x[idx_x], scores_x[idx_x]), out=grad)
        adam_step(params, [grad], opt)
    s_all = np.concatenate([s_e, states_x])
    a_all = np.concatenate([a_e, actions_x])
    reference_bc(pol, s_all, a_all, bc_weight(disc, s_all, a_all), config.policy_steps,
                 b, online.UPDATE_LEARNING_RATE,
                 named_generator(seed, f"online_update{index}_policy"))
    return disc, pol


def reference_disc_training(config, disc, expert, supp, ratios, targets_e, targets_s):
    """_train_discriminator's parameters and losses with combined_offline_loss
    called at every step."""
    s_e, a_e, s_s, a_s = expert.states, expert.actions, supp.states, supp.actions
    b, half = config.batch_size, config.batch_size // 2
    rng = named_generator(config.seed, "disc_batch")
    params = [disc.net.params]
    opt = init_adam(params, learning_rate=config.learning_rate)
    grad = np.empty_like(disc.net.params)
    losses = []
    for step in range(1, config.disc_steps + 1):
        idx_e = rng.integers(0, s_e.shape[0], size=b)
        idx_s = rng.integers(0, s_s.shape[0], size=b)
        lam = 0.0 if config.disable_reg else reg_weight_at(step, config.reg_cutoff)
        mixed = (np.concatenate([s_e[idx_e[:half]], s_s[idx_s[:half]]]),
                 np.concatenate([a_e[idx_e[:half]], a_s[idx_s[:half]]]))
        targets = np.concatenate([targets_e[idx_e[:half]], targets_s[idx_s[:half]]])
        loss, _ = combined_offline_loss(disc, (s_e[idx_e], a_e[idx_e]),
                                        (s_s[idx_s], a_s[idx_s]), mixed,
                                        ratios[idx_s], targets, lam, out=grad)
        adam_step(params, [grad], opt)
        losses.append(loss)
    return losses


@pytest.fixture(scope="module")
def data():
    spec = envs.make_spec(ENV)
    expert = generate_tier(spec, "expert", 3, seed=5)
    supp = generate_tier(spec, "medium", 4, seed=5)
    rng = np.random.default_rng(60)
    return {
        "expert": expert, "supp": supp,
        "ratios": rng.uniform(0.1, 10.0, supp.n_samples),
        "targets_e": rng.uniform(0.0, 1.0, expert.n_samples),
        "targets_s": rng.uniform(0.0, 1.0, supp.n_samples),
    }


def fresh_models():
    spec = envs.make_spec(ENV)
    disc = init_discriminator(spec.state_dim, spec.action_dim,
                              rng=np.random.default_rng(61))
    pol = policy.init_policy(spec.state_dim, spec.action_dim, spec.action_low,
                             spec.action_high, rng=np.random.default_rng(62))
    return disc, pol


def artifacts_with(disc, pol):
    config = offline.OfflineConfig(env_id=ENV, expert_demos="e", supp_demos="s")
    return offline.OfflineArtifacts(config=config, policy=pol, discriminator=disc)


def snapshot(data, n=70):
    rng = np.random.default_rng(63)
    rows = np.arange(n) % data["supp"].n_samples
    return (data["supp"].states[rows] + 0.1, data["supp"].actions[rows],
            rng.uniform(0.0, 0.4, n))


def model_bytes(art):
    return art.discriminator.net.params.tobytes() + art.policy.params.tobytes()


@pytest.fixture
def no_optimizer_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an optimizer step ran before the inputs were checked")

    for module in (discriminator, policy):
        monkeypatch.setattr(module, "adam_step", refuse)


# ------------------------------------------------------------ byte identity


@pytest.mark.parametrize("batch_size", [64, 9])
def test_run_weighted_bc_matches_per_step_public_loss(data, batch_size):
    expert = data["expert"]
    weights = np.random.default_rng(64).uniform(0.0, 3.0, expert.n_samples)
    _, pol = fresh_models()
    ref = copy.deepcopy(pol)
    policy.run_weighted_bc(pol, expert.states, expert.actions, weights, 40,
                           batch_size, 5e-3, np.random.default_rng(65))
    reference_bc(ref, expert.states, expert.actions, weights, 40, batch_size, 5e-3,
                 np.random.default_rng(65))
    assert pol.params.tobytes() == ref.params.tobytes()


def test_online_update_matches_per_step_public_loss(data):
    disc, pol = fresh_models()
    art = artifacts_with(disc, pol)
    snap = snapshot(data)
    config = online.OnlineUpdateConfig(disc_steps=12, policy_steps=12)
    ref_disc, ref_pol = reference_online_update(art, snap, data["expert"], config, 7, 3)
    assert online.online_update(art, snap, data["expert"], config, 7, 3)
    assert art.discriminator.net.params.tobytes() == ref_disc.net.params.tobytes()
    assert art.policy.params.tobytes() == ref_pol.params.tobytes()


@pytest.mark.parametrize("disable_reg, batch_size", [
    (True, 64),    # every step has lambda = 0
    (False, 64),   # lambda = 1 up to the cutoff, then decaying
    (False, 9),    # an odd batch: the mixed batch holds 2 * 4 rows
])
def test_train_discriminator_matches_per_step_public_loss(data, disable_reg, batch_size):
    config = offline.OfflineConfig(env_id=ENV, expert_demos="e", supp_demos="s",
                                   seed=3, disc_steps=30, reg_cutoff=10,
                                   batch_size=batch_size, disable_reg=disable_reg)
    disc, _ = fresh_models()
    ref = copy.deepcopy(disc)
    expert, supp = data["expert"], data["supp"]
    log = offline._MetricsLog()
    holdout = ((expert.states, expert.actions), (supp.states, supp.actions))
    offline._train_discriminator(config, disc, expert, supp, data["ratios"],
                                 data["targets_e"], data["targets_s"], holdout, log)
    losses = reference_disc_training(config, ref, expert, supp, data["ratios"],
                                     data["targets_e"], data["targets_s"])
    assert disc.net.params.tobytes() == ref.net.params.tobytes()
    logged = [float(line.split()[2].split("=")[1]) for line in log.lines
              if line.startswith("stage=disc ")]
    assert logged == losses
    if not disable_reg:
        assert reg_weight_at(config.disc_steps, config.reg_cutoff) < 1.0


# ------------------------------------------------ bad input, before any step


@pytest.mark.parametrize("bad_score", [1.5, -0.1, np.nan])
def test_bad_snapshot_score_raises_before_any_step(data, no_optimizer_step, bad_score):
    art = artifacts_with(*fresh_models())
    before = model_bytes(art)
    states, actions, scores = snapshot(data, n=2000)
    scores[-1] = bad_score
    with pytest.raises(DataError):
        online.online_update(art, (states, actions, scores), data["expert"],
                             online.OnlineUpdateConfig(), 0, 0)
    assert model_bytes(art) == before


@pytest.mark.parametrize("bad_weight, match", [(-1.0, "negative"), (np.inf, "non-finite"),
                                               (np.nan, "non-finite")])
def test_bad_bc_weight_raises_before_any_step(data, no_optimizer_step, bad_weight, match):
    expert = data["expert"]
    weights = np.ones(expert.n_samples)
    weights[-1] = bad_weight
    _, pol = fresh_models()
    before = pol.params.tobytes()
    with pytest.raises(DataError, match=match):
        policy.run_weighted_bc(pol, expert.states, expert.actions, weights, 5, 4,
                               5e-4, np.random.default_rng(0))
    assert pol.params.tobytes() == before


@pytest.mark.parametrize("bad_ratio", [np.nan, np.inf])
def test_nonfinite_density_ratio_raises_before_any_step(data, no_optimizer_step, bad_ratio):
    config = offline.OfflineConfig(env_id=ENV, expert_demos="e", supp_demos="s",
                                   disc_steps=5)
    ratios = data["ratios"].copy()
    ratios[-1] = bad_ratio
    disc, _ = fresh_models()
    expert, supp = data["expert"], data["supp"]
    holdout = ((expert.states, expert.actions), (supp.states, supp.actions))
    with pytest.raises(DataError, match="non-finite per-sample weight"):
        offline._train_discriminator(config, disc, expert, supp, ratios,
                                     data["targets_e"], data["targets_s"], holdout,
                                     offline._MetricsLog())


# ------------------------------------------------------ the one trainer


@pytest.mark.filterwarnings("ignore::driftbc.density.CovarianceFloorWarning")
def test_every_core_call_runs_inside_train_discriminator(data, tmp_path, monkeypatch):
    """The offline stage, with and without the regularizer, and every online
    update step the discriminator through train_discriminator only."""
    trainer = discriminator.train_discriminator.__code__
    calls = {"two_class_core": [], "combined_core": []}
    for name in calls:
        core = getattr(discriminator, name)

        def counted(*args, _core=core, _name=name, **kwargs):
            calls[_name].append(sys._getframe(1).f_code is trainer)
            return _core(*args, **kwargs)

        # every module attribute bound to the core, however it was imported
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("driftbc") \
                    and getattr(module, name, None) is core:
                monkeypatch.setattr(module, name, counted)
    paths = {name: str(tmp_path / f"{name}.demos") for name in ("expert", "supp")}
    for name, path in paths.items():
        save_demoset(path, data[name])
    for disable_reg in (False, True):
        art = offline.run_offline(offline.OfflineConfig(
            env_id=ENV, expert_demos=paths["expert"], supp_demos=paths["supp"],
            ref_steps=10, disc_steps=15, bc_steps=10, reg_cutoff=5,
            disable_reg=disable_reg))
    assert calls == {"two_class_core": [True] * 15, "combined_core": [True] * 15}
    result = online.run_online(art, data["expert"], sigma=0.1, episodes=2,
                               adapt="always", seed=1, patience=20,
                               update_config=online.OnlineUpdateConfig(disc_steps=3,
                                                                       policy_steps=2))
    assert result.update_invocations > 0 and result.failed_updates == 0
    assert calls["two_class_core"] == [True] * (15 + 3 * result.update_invocations)
    assert calls["combined_core"] == [True] * 15
