"""The one episode driver and its per-episode noise blocks: play_episodes
draws each episode's observation and action noise once, as blocks, and must
give the returns, actions and trigger logs of a loop that draws per step."""

import copy
import sys

import numpy as np
import pytest

from driftbc import demos, envs, numeric, online
from driftbc.configio import mask_wall_times
from driftbc.demos import generate_tier, save_demoset
from driftbc.errors import ShapeError
from driftbc.evaluation import score_policy
from driftbc.numeric import NormalRows, init_mlp, named_generator
from driftbc.offline import OfflineConfig, run_offline
from driftbc.online import (OnlineUpdateConfig, format_trigger_log,
                            play_episodes, run_online)
from driftbc.policy import init_policy
from oracles import mlp_forward_row_oracle, play_episodes_oracle

pytestmark = pytest.mark.filterwarnings(
    "ignore::driftbc.density.CovarianceFloorWarning")


@pytest.fixture(scope="module")
def pointmass(tmp_path_factory):
    """Trained pointmass artifacts, whose policy ends some episodes early,
    and the expert demos they were trained on."""
    root = tmp_path_factory.mktemp("driver")
    spec = envs.make_spec("pointmass2d")
    expert = generate_tier(spec, "expert", 10, seed=5)
    save_demoset(root / "expert.demos", expert)
    save_demoset(root / "medium.demos", generate_tier(spec, "medium", 20, seed=5))
    artifacts = run_offline(OfflineConfig(
        env_id="pointmass2d", expert_demos=str(root / "expert.demos"),
        supp_demos=str(root / "medium.demos"), seed=3, ref_steps=200,
        disc_steps=400, bc_steps=400, reg_cutoff=200))
    return artifacts, expert


def pendulum_policy():
    spec = envs.make_spec("pendulum1")
    return init_policy(3, 1, spec.action_low, spec.action_high,
                       rng=np.random.default_rng(11), init_log_std=-1.0)


def played(play, policy, env_id, sigma, seed):
    """Returns and every step's (ep, t, state, obs, action, reward) bytes."""
    steps = []

    def record(ep, t, state, obs, action, reward):
        steps.append((ep, t, state.tobytes(), obs.tobytes(), action.tobytes(),
                      np.float64(reward).tobytes()))

    returns = play(lambda: policy, env_id, sigma, 6, seed, record)
    return returns.tobytes(), steps


# ------------------------------------------------------------ noise blocks


@pytest.mark.parametrize("width", [1, 3, 4])
def test_rows_are_the_per_step_draws(width):
    rows = NormalRows(named_generator(9, "rows"), 200, width)
    per_step = named_generator(9, "rows")
    for _ in range(200):
        assert rows.standard_normal(width).tobytes() == \
            per_step.standard_normal(width).tobytes()


def test_rows_refuse_a_wrong_width_and_an_extra_row():
    rows = NormalRows(np.random.default_rng(0), 2, 3)
    with pytest.raises(ShapeError, match="3 standard normals"):
        rows.standard_normal(2)
    rows.standard_normal(3)
    rows.standard_normal(3)
    with pytest.raises(ShapeError, match="every drawn row"):
        rows.standard_normal(3)


# ------------------------------------------------------ batch-1 forward


@pytest.mark.parametrize("dims,activation", [((3, 64, 64, 1), "tanh"),
                                             ((4, 64, 64, 2), "tanh"),
                                             ((5, 64, 64, 1), "relu"),
                                             ((1, 7, 1, 3), "tanh")])
def test_one_input_forward_has_the_bits_of_a_batch_of_one(dims, activation):
    rng = np.random.default_rng(4)
    net = init_mlp(dims, activation, rng)
    for b in net.biases:
        b[...] = rng.standard_normal(b.shape) * 0.1
    for _ in range(500):
        x = rng.standard_normal(dims[0]) * rng.choice([1e-3, 1.0, 30.0])
        want = mlp_forward_row_oracle(net.weights, net.biases, activation, x)
        assert numeric.forward(net, x).tobytes() == want.tobytes()
        assert numeric.forward(net, x[None, :])[0].tobytes() == want.tobytes()


def test_one_input_forward_sees_in_place_weight_edits():
    net = init_mlp((3, 8, 1), "tanh", np.random.default_rng(0))
    x = np.ones(3)
    before = numeric.forward(net, x)
    net.params *= 2.0
    after = numeric.forward(net, x)
    want = mlp_forward_row_oracle(net.weights, net.biases, "tanh", x)
    assert after.tobytes() == want.tobytes() and not np.array_equal(before, after)


# -------------------------------------------- block draws vs per-step draws


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_pointmass_episodes_match_the_per_step_loop(pointmass, sigma):
    artifacts, _ = pointmass
    got = played(play_episodes, artifacts.policy, "pointmass2d", sigma, 7)
    want = played(play_episodes_oracle, artifacts.policy, "pointmass2d", sigma, 7)
    assert got == want
    lengths = [sum(1 for s in got[1] if s[0] == ep) for ep in range(6)]
    assert min(lengths) < envs.HORIZON, lengths


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_pendulum_episodes_match_the_per_step_loop(sigma):
    policy = pendulum_policy()
    got = played(play_episodes, policy, "pendulum1", sigma, 3)
    assert got == played(play_episodes_oracle, policy, "pendulum1", sigma, 3)
    assert len(got[1]) == 6 * envs.HORIZON


@pytest.mark.parametrize("env_id,sigma", [("pendulum1", 0.0), ("pendulum1", 0.2),
                                          ("pointmass2d", 0.0), ("pointmass2d", 0.2)])
def test_score_policy_matches_the_per_step_loop(pointmass, env_id, sigma):
    policy = pendulum_policy() if env_id == "pendulum1" else pointmass[0].policy
    returns = score_policy(policy, env_id, sigma, 6, seed=2)
    assert returns.tobytes() == play_episodes_oracle(
        lambda: policy, env_id, sigma, 6, 2).tobytes()


def test_mid_episode_policy_swaps_match_the_per_step_loop(pointmass, monkeypatch):
    """adapt="always" replaces the policy every patience steps, inside
    episodes; the trigger log and returns must not depend on how the noise
    was drawn."""
    artifacts, expert = pointmass
    update = OnlineUpdateConfig(disc_steps=5, policy_steps=5)

    def run():
        return run_online(copy.deepcopy(artifacts), expert, sigma=0.2, episodes=4,
                          adapt="always", seed=6, patience=15, update_config=update)

    got = run()
    monkeypatch.setattr(online, "play_episodes", play_episodes_oracle)
    want = run()
    assert got.update_invocations == want.update_invocations > 10
    assert got.failed_updates == want.failed_updates
    assert got.episode_returns.tobytes() == want.episode_returns.tobytes()
    assert mask_wall_times(format_trigger_log(got.records)) == \
        mask_wall_times(format_trigger_log(want.records))
    assert any(r.triggered and 0 < r.step for r in got.records)


# ------------------------------------------------- the one episode driver


def test_every_env_step_runs_inside_run_episode(pointmass, monkeypatch):
    """Each envs.step call of score_policy, run_online and generate_tier
    comes from envs.run_episode: no second episode loop."""
    artifacts, expert = pointmass
    step = envs.step
    counts = {"all": 0, "driver": 0}

    def counted(*args, **kwargs):
        counts["all"] += 1
        if sys._getframe(1).f_code is envs.run_episode.__code__:
            counts["driver"] += 1
        return step(*args, **kwargs)

    # every module attribute bound to envs.step, however it was imported
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("driftbc") \
                and getattr(module, "step", None) is step:
            monkeypatch.setattr(module, "step", counted)
    score_policy(artifacts.policy, "pointmass2d", 0.1, 3, seed=1)
    run_online(copy.deepcopy(artifacts), expert, sigma=0.1, episodes=2,
               adapt="always", seed=1, patience=50,
               update_config=OnlineUpdateConfig(disc_steps=2, policy_steps=2))
    for env_id in envs.ENV_IDS:
        for tier in demos.TIERS:
            demos.generate_tier(envs.make_spec(env_id), tier, 2, seed=1)
    assert counts["all"] > 1000
    assert counts["driver"] == counts["all"]
