"""Environment suite: dynamics fixed points, reset and noise statistics,
scripted-expert quality oracles, and determinism invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbc import envs
from driftbc.errors import ConfigError, NumericError, ShapeError
from oracles import env_step_oracle


def pm_spec(horizon=200):
    return envs.make_spec("pointmass2d", horizon=horizon)


def pend_spec(horizon=200):
    return envs.make_spec("pendulum1", horizon=horizon)


def still(spec, seed):
    """An episode without noise: reset from default_rng(seed), the -0.0
    observation block and a zero action block."""
    return (np.random.default_rng(seed), envs.still_block(spec),
            np.zeros((spec.horizon, spec.action_dim)))


def angle_from_upright(state):
    theta = np.arctan2(state[1], state[0])
    return (theta - np.pi + np.pi) % (2 * np.pi) - np.pi


# ---------------------------------------------------------------- make_spec


def test_spec_fields():
    pm = pm_spec()
    assert (pm.state_dim, pm.action_dim, pm.horizon) == (4, 2, 200)
    assert np.array_equal(pm.action_low, [-1.0, -1.0])
    assert np.array_equal(pm.action_high, [1.0, 1.0])
    pend = pend_spec()
    assert (pend.state_dim, pend.action_dim) == (3, 1)
    assert np.array_equal(pend.action_low, [-2.0])
    assert np.array_equal(pend.action_high, [2.0])
    assert pm.dt > 0 and pend.dt > 0


def test_spec_horizon_override():
    assert pm_spec(horizon=31).horizon == 31


def test_spec_unknown_env():
    with pytest.raises(ConfigError):
        envs.make_spec("cartpole")


# ------------------------------------------------------------------- reset


def test_reset_same_seed_identical():
    for env_id in envs.ENV_IDS:
        spec = envs.make_spec(env_id)
        a = envs.reset(spec, np.random.default_rng(7))
        b = envs.reset(spec, np.random.default_rng(7))
        assert np.array_equal(a, b)


def test_pointmass_reset_coverage():
    spec = pm_spec()
    rng = np.random.default_rng(0)
    starts = np.array([envs.reset(spec, rng) for _ in range(1000)])
    pos, vel = starts[:, :2], starts[:, 2:]
    assert np.all(np.abs(pos.mean(axis=0)) < 0.1)
    assert pos.min() >= -1.0 and pos.max() <= 1.0
    # spread reaches near the box corners
    assert pos.min() < -0.95 and pos.max() > 0.95
    assert np.array_equal(vel, np.zeros_like(vel))


def test_pendulum_reset_on_circle():
    spec = pend_spec()
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = envs.reset(spec, rng)
        # parameterization identity; 1 ulp of rounding allowed
        assert abs(s[0] ** 2 + s[1] ** 2 - 1.0) < 1e-15
        assert -1.0 <= s[2] <= 1.0


def test_pendulum_reset_angle_spread():
    spec = pend_spec()
    rng = np.random.default_rng(2)
    thetas = np.array([np.arctan2(s[1], s[0])
                       for s in (envs.reset(spec, rng) for _ in range(1000))])
    assert thetas.min() < -3.0 and thetas.max() > 3.0
    assert abs(np.mean(thetas)) < 0.2


# -------------------------------------------------------------------- step


def test_pointmass_done_at_goal():
    spec = pm_spec()
    state = np.array([0.8, 0.8, 0.0, 0.0])
    next_state, reward, done = envs.step(spec, state, np.zeros(2))
    assert done
    assert reward >= -0.05
    assert np.array_equal(next_state, state)


def test_pointmass_rest_stays_put():
    spec = pm_spec()
    state = np.array([-0.3, 0.4, 0.0, 0.0])
    next_state, _, _ = envs.step(spec, state, np.zeros(2))
    assert np.array_equal(next_state[:2], state[:2])


def test_pointmass_update_formula():
    spec = pm_spec()
    state = np.array([0.1, -0.2, 0.5, -0.4])
    action = np.array([0.3, 0.9])
    next_state, reward, done = envs.step(spec, state, action)
    vel = 0.95 * state[2:] + action * spec.dt
    pos = np.clip(state[:2] + vel * spec.dt, -1.0, 1.0)
    assert np.array_equal(next_state, np.concatenate([pos, vel]))
    assert reward == -np.linalg.norm(pos - envs.POINTMASS_GOAL)
    assert done == (np.linalg.norm(pos - envs.POINTMASS_GOAL) < 0.05)


def test_pointmass_position_clamped():
    spec = pm_spec()
    state = np.array([1.0, 1.0, 3.0, 3.0])  # outward velocity at the corner
    next_state, _, _ = envs.step(spec, state, np.ones(2))
    assert np.all(next_state[:2] <= 1.0)


def test_pendulum_upright_equilibrium():
    spec = pend_spec()
    upright = np.array([np.cos(np.pi), np.sin(np.pi), 0.0])
    next_state, reward, done = envs.step(spec, upright, np.zeros(1))
    assert abs(angle_from_upright(next_state)) < 1e-6
    assert abs(next_state[2]) < 1e-6
    assert reward > -1e-6
    assert not done


def test_pendulum_update_formula():
    spec = pend_spec()
    state = np.array([np.cos(0.7), np.sin(0.7), 1.3])
    torque = -1.1
    next_state, reward, _ = envs.step(spec, state, np.array([torque]))
    theta_dot = 1.3 + (-10.0 * np.sin(0.7) + torque) * spec.dt
    theta = 0.7 + theta_dot * spec.dt
    assert np.array_equal(next_state, [np.cos(theta), np.sin(theta), theta_dot])
    wrapped = (theta - np.pi + np.pi) % (2 * np.pi) - np.pi
    assert reward == pytest.approx(
        -(wrapped ** 2 + 0.1 * theta_dot ** 2 + 0.001 * torque ** 2), abs=0)


def test_pendulum_speed_clamped():
    spec = pend_spec()
    state = np.array([np.cos(0.5), np.sin(0.5), 7.99])
    for _ in range(10):
        state, _, _ = envs.step(spec, state, np.array([2.0]))
        assert abs(state[2]) <= 8.0


def test_pendulum_circle_never_drifts():
    spec = pend_spec()
    rng = np.random.default_rng(3)
    state = envs.reset(spec, rng)
    for _ in range(200):
        state, _, _ = envs.step(spec, state, rng.uniform(-2, 2, 1))
        assert abs(state[0] ** 2 + state[1] ** 2 - 1.0) < 1e-15


def test_step_clamps_action():
    for env_id, wild in (("pointmass2d", [9.0, -9.0]), ("pendulum1", [55.0])):
        spec = envs.make_spec(env_id)
        state = envs.reset(spec, np.random.default_rng(4))
        at_bound = np.clip(wild, spec.action_low, spec.action_high)
        a = envs.step(spec, state, np.array(wild))
        b = envs.step(spec, state, at_bound)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_step_rejects_non_finite_state():
    spec = pm_spec()
    with pytest.raises(NumericError):
        envs.step(spec, np.array([np.nan, 0.0, 0.0, 0.0]), np.zeros(2))


@pytest.mark.parametrize("env_id,state_len,action_len", [
    ("pointmass2d", 4, 1), ("pointmass2d", 4, 3), ("pointmass2d", 3, 2),
    ("pendulum1", 3, 2), ("pendulum1", 4, 1)])
def test_step_rejects_wrong_lengths(env_id, state_len, action_len):
    with pytest.raises(ShapeError, match=f"{env_id} steps"):
        envs.step(envs.make_spec(env_id), np.zeros(state_len), np.zeros(action_len))


def random_step_inputs(env_id, n, rng):
    """n (state, action) pairs: actions up to 2.5 times past the bounds, one
    in eight exactly on a bound; pointmass positions one in four on a wall
    and velocities that carry them through it; pendulum speeds past the
    limit and (cos, sin) pairs off the unit circle."""
    spec = envs.make_spec(env_id)
    hi = spec.action_high
    actions = rng.uniform(-2.5, 2.5, (n, spec.action_dim)) * hi
    on_bound = rng.random((n, spec.action_dim)) < 0.125
    actions[on_bound] = np.sign(actions[on_bound]) * np.broadcast_to(hi, actions.shape)[on_bound]
    if env_id == "pointmass2d":
        states = np.hstack([rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-3.0, 3.0, (n, 2))])
        wall = rng.random((n, 2)) < 0.25
        states[:, :2][wall] = rng.choice([-1.0, 1.0], wall.sum())
    else:
        theta = rng.uniform(-np.pi, np.pi, n)
        radius = rng.choice([1.0, 0.5, 2.0], n)
        states = np.column_stack([radius * np.cos(theta), radius * np.sin(theta),
                                  rng.uniform(-12.0, 12.0, n)])
    return spec, states, actions


@pytest.mark.parametrize("env_id", envs.ENV_IDS)
def test_step_matches_first_written_step_bit_for_bit(env_id):
    spec, states, actions = random_step_inputs(env_id, 10_000, np.random.default_rng(90))
    for state, action in zip(states, actions):
        got = envs.step(spec, state, action)
        want = env_step_oracle(spec, state, action)
        assert got[0].tobytes() == want[0].tobytes(), (state, action)
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes(), (state, action)
        assert got[2] == want[2] and type(got[1]) is type(want[1]) is float


@pytest.mark.parametrize("env_id", envs.ENV_IDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_still_rejects_non_finite_state(env_id, bad):
    spec = envs.make_spec(env_id)
    for i in range(spec.state_dim):
        state = np.zeros(spec.state_dim)
        state[i] = bad
        with pytest.raises(NumericError, match="non-finite state"):
            envs.step(spec, state, np.zeros(spec.action_dim))
        with pytest.raises(NumericError, match="non-finite state"):
            env_step_oracle(spec, state, np.zeros(spec.action_dim))


def squares_deciding_reward(states, actions):
    """(3, n) masks, one per square in pendulum's reward (from_upright,
    theta_dot, torque): the rows whose reward changes when that square is
    x * x (numpy's ** 2) in place of Python's x ** 2 (C pow, which
    np.float_power calls). The terms are recomputed here with numpy, column
    by column, as step computes them."""
    theta = np.arctan2(states[:, 1], states[:, 0])
    torque = np.clip(actions[:, 0], -2.0, 2.0)
    theta_dot = np.clip(states[:, 2] + (-10.0 * np.sin(theta) + torque) * 0.1, -8.0, 8.0)
    from_upright = (theta + theta_dot * 0.1 - np.pi + np.pi) % (2.0 * np.pi) - np.pi
    terms = (from_upright, theta_dot, torque)
    by_pow = [np.float_power(x, 2.0) for x in terms]

    def reward(squares):
        return squares[0] + 0.1 * squares[1] + 0.001 * squares[2]

    return np.array([reward([x * x if k == i else by_pow[k] for k, x in enumerate(terms)])
                     != reward(by_pow) for i in range(3)])


def step_rows_inputs(env_id, rng):
    """random_step_inputs' 10,000 rows, plus for pendulum angles within a
    few ulps of +-pi (sin of either sign and zero), and the rows whose
    reward the rounding of a square decides, out of 200,000 more random
    rows and 200,000 near upright rest, where the torque term counts."""
    spec, states, actions = random_step_inputs(env_id, 10_000, rng)
    if env_id == "pendulum1":
        near_pi = np.pi - np.concatenate([np.zeros(2), rng.integers(1, 8, 98) * 2.0 ** -51,
                                          rng.uniform(0.0, 1e-6, 100)])
        theta = near_pi * rng.choice([-1.0, 1.0], near_pi.size)
        edge = np.column_stack([np.cos(theta), np.sin(theta),
                                rng.uniform(-12.0, 12.0, theta.size)])
        edge[:2, :2] = [[-1.0, 0.0], [-1.0, -0.0]]
        _, pool_states, pool_actions = random_step_inputs(env_id, 200_000, rng)
        rest = np.column_stack([np.full(200_000, -1.0), rng.uniform(-1e-3, 1e-3, 200_000),
                                rng.uniform(-0.1, 0.1, 200_000)])
        pool_states = np.concatenate([pool_states, rest])
        pool_actions = np.concatenate([pool_actions, rng.uniform(-2.0, 2.0, (200_000, 1))])
        decided = squares_deciding_reward(pool_states, pool_actions).any(axis=0)
        states = np.concatenate([states, edge, pool_states[decided]])
        actions = np.concatenate([actions, rng.uniform(-3.0, 3.0, (theta.size, 1)),
                                  pool_actions[decided]])
    return spec, states, actions


@pytest.mark.parametrize("env_id", envs.ENV_IDS)
def test_step_rows_have_the_bits_of_step(env_id):
    spec, states, actions = step_rows_inputs(env_id, np.random.default_rng(91))
    want = [envs.step(spec, s, a) for s, a in zip(states, actions)]
    for chunk in (1, 7, states.shape[0]):
        for start in range(0, states.shape[0], chunk)[:400]:
            rows = slice(start, start + chunk)
            got = envs.step_rows(spec, states[rows], actions[rows])
            assert got[0].shape == (len(states[rows]), spec.state_dim)
            for i, (next_state, reward, done) in enumerate(want[rows]):
                assert got[0][i].tobytes() == next_state.tobytes(), (states[rows][i],)
                assert got[1][i].tobytes() == np.float64(reward).tobytes(), (states[rows][i],)
                assert got[2][i] == done
    if env_id == "pointmass2d":
        assert any(done for _, _, done in want)
    else:
        assert np.all(np.count_nonzero(squares_deciding_reward(states, actions), axis=1) > 10)


@pytest.mark.parametrize("env_id,state_shape,action_shape", [
    ("pointmass2d", (3, 4), (3, 1)), ("pointmass2d", (3, 3), (3, 2)),
    ("pointmass2d", (3, 4), (2, 2)), ("pointmass2d", (4,), (2,)),
    ("pendulum1", (2, 3), (2, 2)), ("pendulum1", (2, 4), (2, 1)),
    ("pendulum1", (2, 3), (2,))])
def test_step_rows_reject_wrong_widths(env_id, state_shape, action_shape):
    with pytest.raises(ShapeError, match=f"{env_id} steps"):
        envs.step_rows(envs.make_spec(env_id), np.zeros(state_shape), np.zeros(action_shape))


@pytest.mark.parametrize("env_id", envs.ENV_IDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rows_reject_a_non_finite_row(env_id, bad):
    spec = envs.make_spec(env_id)
    for i in range(spec.state_dim):
        states = np.zeros((5, spec.state_dim))
        states[3, i] = bad
        with pytest.raises(NumericError, match="non-finite state"):
            envs.step_rows(spec, states, np.zeros((5, spec.action_dim)))


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-np.pi, np.pi), speed=st.floats(-8, 8),
       torque=st.floats(-2, 2))
def test_pendulum_step_deterministic(theta, speed, torque):
    spec = pend_spec()
    state = np.array([np.cos(theta), np.sin(theta), speed])
    s1, r1, _ = envs.step(spec, state, np.array([torque]))
    s2, r2, _ = envs.step(spec, state, np.array([torque]))
    assert np.array_equal(s1, s2) and r1 == r2


# ----------------------------------------------------------------- observe


def test_observe_sigma_zero_identity():
    state = np.array([0.2, -0.0, 0.0])
    block = envs.episode_noise(pend_spec(), 0, 0, 0.0)[1]
    assert block.tobytes() == envs.still_block(pend_spec()).tobytes()
    assert np.signbit(block).all()
    obs = envs.observe(state, block[0])
    assert obs.tobytes() == state.tobytes()
    assert obs is not state


def test_observe_noise_std():
    spec = pm_spec()
    state = np.array([0.5, -0.5, 0.0, 1.0])
    # 50 episodes of 200 rows each
    blocks = [envs.episode_noise(spec, 5, ep, 0.1)[1] for ep in range(50)]
    draws = np.array([envs.observe(state, row) for block in blocks for row in block])
    assert draws.shape == (10000, 4)
    stds = draws.std(axis=0, ddof=1)
    assert np.all(stds >= 0.095) and np.all(stds <= 0.105)
    # unbiased around the true state
    assert np.all(np.abs(draws.mean(axis=0) - state) < 0.005)
    # all rows at once, as the lock-step loop observes
    rows = envs.observe(np.tile(state, (200, 1)), blocks[0])
    assert rows.tobytes() == draws[:200].tobytes()


def test_observe_fresh_draws():
    spec = pend_spec()
    state = np.zeros(3)
    block = envs.episode_noise(spec, 6, 0, 0.2)[1]
    a = envs.observe(state, block[0])
    b = envs.observe(state, block[1])
    assert not np.array_equal(a, b)
    other = envs.episode_noise(spec, 6, 1, 0.2)[1]
    assert not np.array_equal(a, envs.observe(state, other[0]))


# ---------------------------------------------------------- scripted expert


def test_pointmass_expert_reaches_goal():
    spec = pm_spec()
    reached = 0
    for seed in range(500):
        _, final_state, done = envs.run_episode(
            spec, lambda s, _: envs.scripted_expert(spec, s), still(spec, seed))
        dist = np.linalg.norm(final_state[:2] - envs.POINTMASS_GOAL)
        if done and dist < 0.05:
            reached += 1
    assert reached >= 495  # >= 99% of 500


def test_expert_zero_at_goal():
    spec = pm_spec()
    a = envs.scripted_expert(spec, np.array([0.8, 0.8, 0.0, 0.0]))
    assert np.linalg.norm(a) < 1e-6


def test_pendulum_expert_mean_return():
    spec = pend_spec()
    returns = [
        envs.run_episode(spec, lambda s, _: envs.scripted_expert(spec, s),
                         still(spec, seed))[0]
        for seed in range(100)
    ]
    assert np.mean(returns) > -200.0


def test_pendulum_expert_ends_upright():
    spec = pend_spec()
    for seed in range(20):
        _, final_state, _ = envs.run_episode(
            spec, lambda s, _: envs.scripted_expert(spec, s), still(spec, seed))
        assert abs(angle_from_upright(final_state)) < 0.1
        assert abs(final_state[2]) < 0.5


def test_expert_in_bounds():
    for env_id in envs.ENV_IDS:
        spec = envs.make_spec(env_id)
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = envs.reset(spec, rng)
            a = envs.scripted_expert(spec, s)
            assert np.all(a >= spec.action_low) and np.all(a <= spec.action_high)


# ------------------------------------------------------------- run_episode


def step_recorder():
    """An on_step hook for run_episode and the list of (state, action,
    reward) it appends to."""
    steps = []
    return steps, lambda t, state, obs, action, reward: steps.append((state, action, reward))


def test_rollout_shapes_and_return():
    spec = pend_spec()
    steps, record = step_recorder()
    total, _, done = envs.run_episode(spec, lambda s, _: envs.scripted_expert(spec, s),
                                      still(spec, 9), on_step=record)
    states, actions, rewards = map(np.array, zip(*steps))
    assert len(rewards) == 200 and not done
    assert states.shape == (200, 3)
    assert actions.shape == (200, 1)
    assert total == pytest.approx(rewards.sum())


def test_rollout_horizon_override():
    spec = pend_spec(horizon=7)
    steps, record = step_recorder()
    envs.run_episode(spec, lambda s, _: np.zeros(1), still(spec, 10), on_step=record)
    assert len(steps) == 7


def test_rollout_early_termination():
    spec = pm_spec()
    steps, record = step_recorder()
    _, final_state, done = envs.run_episode(spec, lambda s, _: envs.scripted_expert(spec, s),
                                            still(spec, 11), on_step=record)
    assert done and len(steps) < 200
    assert np.linalg.norm(final_state[:2] - envs.POINTMASS_GOAL) < 0.05


def test_rollout_deterministic():
    spec = pm_spec()
    recs = []
    for _ in range(2):
        steps, record = step_recorder()
        envs.run_episode(spec, lambda s, _: envs.scripted_expert(spec, s),
                         still(spec, 12), on_step=record)
        recs.append(tuple(map(np.array, zip(*steps))))
    assert np.array_equal(recs[0][0], recs[1][0])
    assert np.array_equal(recs[0][1], recs[1][1])
    assert np.array_equal(recs[0][2], recs[1][2])


def test_noise_never_touches_true_trajectory():
    spec = pend_spec()
    _, obs_noise, act_noise = envs.episode_noise(spec, 99, 0, 0.2)
    steps = []
    _, final_state, _ = envs.run_episode(
        spec, lambda s, _: envs.scripted_expert(spec, s),
        (np.random.default_rng(13), obs_noise, act_noise),
        lambda t, state, obs, action, reward: steps.append((state, obs, action, reward)))
    true_states, observed_states, actions, rewards = map(np.array, zip(*steps))
    # replay the recorded actions with no noise: true states must match
    state = envs.reset(spec, np.random.default_rng(13))
    for t in range(len(steps)):
        assert np.array_equal(state, true_states[t])
        state, reward, _ = envs.step(spec, state, actions[t])
        assert reward == rewards[t]
    assert np.array_equal(state, final_state)
    # and the noisy observations do differ from the true states
    assert not np.array_equal(observed_states, true_states)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_run_episode_hands_step_t_its_noise_rows(sigma):
    """At sigma 0 the -0.0 block hands act an exact copy of each state, as a
    new array."""
    spec = pend_spec(horizon=7)
    episode = envs.episode_noise(spec, 3, 0, sigma)
    _, obs_noise, act_noise = episode
    seen = []

    def act(obs, noise):
        seen.append((obs, noise))
        return noise

    steps, record = step_recorder()
    envs.run_episode(spec, act, episode, record)
    assert len(seen) == 7
    for t, ((obs, noise), (state, _, _)) in enumerate(zip(seen, steps)):
        assert noise.tobytes() == act_noise[t].tobytes()
        want = state if sigma == 0.0 else state + obs_noise[t]
        assert obs.tobytes() == want.tobytes() and obs is not state


def test_pointmass_return_bound():
    spec = pm_spec()
    bound = -spec.horizon * np.sqrt(8.0)
    rng = np.random.default_rng(14)
    for seed in range(10):
        total, _, _ = envs.run_episode(spec, lambda s, _: rng.uniform(-1, 1, 2),
                                       still(spec, seed))
        assert bound <= total <= 0.0
