"""The two episode loops and the episodes they play: play_episodes
(run_episode, a step at a time) and score_policy (run_lockstep, every
episode of a chunk of (sigma, seed) cells at once) play episodes made by
envs.episode_noise, each a reset generator with its observation and action
noise drawn once, as blocks (the -0.0 observation block at sigma 0), and
must give the returns, actions and trigger logs of a loop that draws per
step."""

import copy
import sys
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from driftbc import demos, envs, numeric, online
from driftbc.configio import mask_wall_times
from driftbc.demos import generate_tier, save_demoset
from driftbc.errors import ConfigError
from driftbc.evaluation import ScoreNormalizer, score_policy
from driftbc.numeric import init_mlp, named_generator
from driftbc.offline import OfflineConfig, run_offline
from driftbc.online import (OnlineUpdateConfig, format_trigger_log,
                            play_episodes, run_online)
from driftbc.policy import init_policy, sample_action
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


def cell_episodes(spec, cells, episodes):
    """Episodes 0 .. episodes-1 of every (sigma, seed) cell, cell-major, as
    score_policy makes them."""
    return [envs.episode_noise(spec, seed, ep, sigma)
            for sigma, seed in cells for ep in range(episodes)]


def scored(policy, env_id, sigma, episodes, seed):
    """score_policy's returns on the one (sigma, seed) cell, as an array."""
    artifacts = SimpleNamespace(policy=policy, config=SimpleNamespace(env_id=env_id))
    normalizer = ScoreNormalizer(expert_return=0.0, random_return=-1.0)
    [cell] = score_policy(artifacts, normalizer, episodes, [(sigma, seed)])
    return np.array(cell.returns)


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
    """The property episode_noise rests on: row t of one (200, width) block
    holds a Generator's t-th standard_normal(width) draw."""
    block = named_generator(9, "rows").standard_normal((200, width))
    per_step = named_generator(9, "rows")
    for row in block:
        assert row.tobytes() == per_step.standard_normal(width).tobytes()


@pytest.mark.parametrize("env_id", envs.ENV_IDS)
@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_episode_noise_is_the_per_step_draws(env_id, sigma):
    spec = envs.make_spec(env_id)
    env_rng, obs_noise, act_noise = envs.episode_noise(spec, 4, 3, sigma)
    assert envs.reset(spec, env_rng).tobytes() == \
        envs.reset(spec, named_generator(4, "online_ep3_env")).tobytes()
    obs_rng = named_generator(4, "online_ep3_obs")
    act_rng = named_generator(4, "online_ep3_act")
    assert act_noise.shape == (spec.horizon, spec.action_dim)
    assert obs_noise.shape == (spec.horizon, spec.state_dim)
    if sigma == 0.0:
        assert obs_noise.tobytes() == np.full(obs_noise.shape, -0.0).tobytes()
    for t in range(spec.horizon):
        assert act_noise[t].tobytes() == act_rng.standard_normal(spec.action_dim).tobytes()
        if sigma != 0.0:
            want = obs_rng.standard_normal(spec.state_dim) * sigma
            assert obs_noise[t].tobytes() == want.tobytes()


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
    for e in (1, 2, 7, 20, 200):
        rows = rng.standard_normal((e, dims[0])) * rng.choice([1e-3, 1.0, 30.0], (e, 1))
        got = numeric.forward_rows(net, rows)
        assert got.shape == (e, dims[-1])
        for x, row in zip(rows, got):
            want = mlp_forward_row_oracle(net.weights, net.biases, activation, x)
            assert row.tobytes() == want.tobytes(), e


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


@pytest.mark.parametrize("env_id,sigma,episodes", [
    pytest.param(env_id, sigma, 6, id=f"{env_id}-{sigma}")
    for env_id in ("pendulum1", "pointmass2d") for sigma in (0.0, 0.2)]
    + [pytest.param("pointmass2d", 0.1, 24, id="pointmass2d-0.1-24-episodes")])
def test_score_policy_matches_the_per_step_loop(pointmass, env_id, sigma, episodes):
    """The lock-step loop against a per-step loop; on the 24 pointmass
    episodes the active set shrinks at several steps before the horizon."""
    policy = pendulum_policy() if env_id == "pendulum1" else pointmass[0].policy
    lengths = {}

    def record(ep, t, *_):
        lengths[ep] = t + 1

    returns = scored(policy, env_id, sigma, episodes, seed=2)
    assert returns.tobytes() == play_episodes_oracle(
        lambda: policy, env_id, sigma, episodes, 2, record).tobytes()
    if episodes > 6:
        early = [n for n in lengths.values() if n < envs.HORIZON]
        assert len(set(early)) >= 3, sorted(lengths.values())
        assert max(lengths.values()) == envs.HORIZON, sorted(lengths.values())


def test_score_policy_needs_an_episode():
    with pytest.raises(ConfigError, match="episodes must be positive"):
        scored(pendulum_policy(), "pendulum1", 0.1, 0, seed=2)


@pytest.mark.parametrize("env_id", ["pendulum1", "pointmass2d"])
def test_every_cell_of_one_loop_matches_the_per_step_loop(pointmass, env_id):
    """run_lockstep over the episodes of cells that mix sigma 0 with non-zero
    sigmas and repeat seeds: row block i has the bits of the per-step loop
    on cell i, and on pointmass the cells' episodes end at different steps."""
    policy = pendulum_policy() if env_id == "pendulum1" else pointmass[0].policy
    cells = [(0.0, 2), (0.2, 2), (0.0, 5), (0.1, 3), (0.05, 5)]
    spec = envs.make_spec(env_id)
    returns = envs.run_lockstep(spec, partial(sample_action, policy),
                                cell_episodes(spec, cells, 8))
    assert returns.shape == (len(cells) * 8,)
    returns = returns.reshape(len(cells), 8)
    ends = []
    for (sigma, seed), got in zip(cells, returns):
        lengths = {}

        def record(ep, t, *_):
            lengths[ep] = t + 1

        want = play_episodes_oracle(lambda: policy, env_id, sigma, 8, seed, record)
        assert got.tobytes() == want.tobytes(), (sigma, seed)
        ends.append(tuple(sorted(lengths.values())))
    if env_id == "pointmass2d":
        assert len(set(ends)) == len(cells), ends
        assert min(map(min, ends)) < envs.HORIZON == max(map(max, ends)), ends


def test_a_sigma_0_row_observes_an_exact_copy_of_its_state(monkeypatch):
    """A zero noise row would turn a -0.0 state entry into +0.0; a sigma-0
    row of a loop that also plays a noisy cell must see the state's bits."""
    assert not np.signbit(np.float64(-0.0) + 0.0)
    spec = envs.make_spec("pointmass2d")
    monkeypatch.setattr(envs, "reset", lambda spec, rng: np.array([0.5, -0.0, -0.0, 0.0]))
    seen = []

    def act_rows(obs, noise):
        seen.append(obs.copy())
        return np.zeros_like(noise)

    envs.run_lockstep(spec, act_rows, cell_episodes(spec, [(0.0, 1), (0.1, 1)], 2))
    assert seen[0][:2].tobytes() == np.array([[0.5, -0.0, -0.0, 0.0]] * 2).tobytes()
    assert not np.array_equal(seen[0][2:], seen[0][:2])


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


# -------------------------------------------------- the two episode loops


def patch_everywhere(monkeypatch, fn, replacement):
    """Replace every driftbc module attribute bound to fn, however it was
    imported."""
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("driftbc") \
                and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, replacement)


def test_every_env_step_runs_inside_run_episode(pointmass, monkeypatch):
    """Each envs.step call of score_policy, run_online and generate_tier
    comes from envs.run_episode, and each envs.step_rows call from
    envs.run_lockstep; score_policy makes no envs.step call. Two episode
    loops, each with its own step function, and no third."""
    artifacts, expert = pointmass
    counts = {}

    def count_calls(name, loop):
        fn = getattr(envs, name)
        counts[name] = {"all": 0, "loop": 0}

        def counted(*args, **kwargs):
            counts[name]["all"] += 1
            if sys._getframe(1).f_code is loop.__code__:
                counts[name]["loop"] += 1
            return fn(*args, **kwargs)

        patch_everywhere(monkeypatch, fn, counted)

    count_calls("step", envs.run_episode)
    count_calls("step_rows", envs.run_lockstep)
    scored(artifacts.policy, "pointmass2d", 0.1, 3, seed=1)
    assert counts["step"]["all"] == 0
    assert counts["step_rows"]["all"] > 0
    run_online(copy.deepcopy(artifacts), expert, sigma=0.1, episodes=2,
               adapt="always", seed=1, patience=50,
               update_config=OnlineUpdateConfig(disc_steps=2, policy_steps=2))
    for env_id in envs.ENV_IDS:
        for tier in demos.TIERS:
            demos.generate_tier(envs.make_spec(env_id), tier, 2, seed=1)
    assert counts["step"]["all"] > 1000
    assert counts["step"]["loop"] == counts["step"]["all"]
    assert counts["step_rows"]["loop"] == counts["step_rows"]["all"]


class RecordedDraws:
    """A Generator that records the size of every standard_normal draw."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def standard_normal(self, size):
        self.draws.append(size)
        return self.rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_every_online_noise_stream_is_drawn_inside_episode_noise(pointmass, monkeypatch):
    """Each online_ep{ep}_* generator of score_policy and run_online is made
    in envs.episode_noise and draws its block once, and at sigma 0 neither
    loop makes an observation stream."""
    artifacts, expert = pointmass
    spec = envs.make_spec("pointmass2d")
    draws = {}
    made_elsewhere = []

    def recorded(seed, name):
        rng = named_generator(seed, name)
        if not name.startswith("online_ep"):
            return rng
        caller = sys._getframe(1).f_code
        # episode_noise makes some of its generators in a generator expression
        if caller.co_filename != envs.__file__ \
                or caller.co_qualname.split(".")[0] != "episode_noise":
            made_elsewhere.append((name, caller.co_qualname))
        draws[name] = []
        return RecordedDraws(rng, draws[name])

    patch_everywhere(monkeypatch, named_generator, recorded)
    plays = ((3, lambda sigma: scored(artifacts.policy, "pointmass2d", sigma, 3, seed=1)),
             (2, lambda sigma: run_online(copy.deepcopy(artifacts), expert, sigma, 2,
                                          adapt="off", seed=2)))
    for sigma in (0.0, 0.1):
        for episodes, play in plays:
            draws.clear()
            play(sigma)
            parts = ("env", "act") if sigma == 0.0 else ("env", "obs", "act")
            assert sorted(draws) == sorted(f"online_ep{ep}_{part}" for ep in range(episodes)
                                           for part in parts)
            for name, sizes in draws.items():
                if name.endswith("_act"):
                    assert sizes == [(spec.horizon, spec.action_dim)], name
                elif name.endswith("_obs"):
                    assert sizes == [(spec.horizon, spec.state_dim)], name
                else:
                    assert sizes == [], name
    assert made_elsewhere == []
