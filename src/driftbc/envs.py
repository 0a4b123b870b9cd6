"""Two deterministic toy continuous-control tasks with scripted experts, plus
the Gaussian observation noise that induces distribution shift.

pointmass2d: damped double integrator on [-1,1]^2 driving to a fixed goal.
pendulum1: torque-limited rigid pendulum, angle measured from hanging down so
the upright target sits at pi; reward penalizes distance from upright.

Noise only ever perturbs what the agent observes; true dynamics evolve on the
unperturbed state.

An episode is one value, (env_rng, obs_block, act_block), that
episode_noise makes, and the two episode loops, each with its own step
function, play it:
- run_episode plays one episode a step at a time with step. Its callers are
  online.play_episodes, which steps every online episode, and
  demos.generate_tier, which records each demonstration step through on_step.
  A policy that an online update replaces mid-episode, or an observer that
  scores every step, needs this loop.
- run_lockstep plays a list of a frozen policy's episodes together with
  step_rows, one row per episode, dropping each row whose task has ended.
  Its one caller is evaluation.score_policy, which the adapt-off noise sweep
  calls on each chunk of whole cells. Every row has the bits run_episode
  would give it.
The per-step loop stays because step_rows on one row costs four to five
times what step does (32-52 us against 8-10 us on a 2-core x86-64 VM with
numpy 2.4); the lock-step loop pays that per-call cost once for all its
rows, so a 20-cell sweep of 20 episodes each takes under half the time
of its cells looped one by one. At step t both loops observe through
observe with row t of the observation block and act with row t of the
action block (policy.sample_action, for a policy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .numeric import named_generator

ENV_IDS = ("pointmass2d", "pendulum1")

POINTMASS_DT = 0.1
PENDULUM_DT = 0.1
HORIZON = 200

POINTMASS_GOAL = np.array([0.8, 0.8])
POINTMASS_GOAL_XY = tuple(POINTMASS_GOAL.tolist())
POINTMASS_DAMPING = 0.95
POINTMASS_DONE_DIST = 0.05

PENDULUM_G = 10.0
PENDULUM_L = 1.0
PENDULUM_M = 1.0
PENDULUM_MAX_SPEED = 8.0

# scripted-expert gains
PM_KP = 2.0
PM_KD = 1.0
PEND_ENERGY_GAIN = 1.0
PEND_ENERGY_MARGIN = 1.2    # covers the coarse-step energy-measurement bias
PEND_CAPTURE_ANGLE = 0.22   # gravity exceeds max torque beyond ~0.2 rad
PEND_CAPTURE_EXCESS = 0.6   # skip capture while spinning through too fast
PEND_KP = 12.0
PEND_KD = 4.0


@dataclass(frozen=True)
class EnvSpec:
    env_id: str
    state_dim: int
    action_dim: int
    horizon: int
    dt: float
    action_low: np.ndarray
    action_high: np.ndarray


def make_spec(env_id: str, horizon: int = HORIZON) -> EnvSpec:
    if env_id == "pointmass2d":
        return EnvSpec(env_id, 4, 2, horizon, POINTMASS_DT,
                       action_low=-np.ones(2), action_high=np.ones(2))
    if env_id == "pendulum1":
        return EnvSpec(env_id, 3, 1, horizon, PENDULUM_DT,
                       action_low=np.array([-2.0]), action_high=np.array([2.0]))
    raise ConfigError(f"unknown env_id {env_id!r}; valid: {', '.join(ENV_IDS)}")


def reset(spec: EnvSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.env_id == "pointmass2d":
        pos = rng.uniform(-1.0, 1.0, 2)
        return np.concatenate([pos, np.zeros(2)])
    theta = rng.uniform(-np.pi, np.pi)
    theta_dot = rng.uniform(-1.0, 1.0)
    return np.array([np.cos(theta), np.sin(theta), theta_dot])


def _wrap_angle(x: float) -> float:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def _clamp(x: float, low: float, high: float) -> float:
    """min(max(x, low), high) without the builtins' call cost: np.clip's
    value for the non-zero bounds used here, NaN included."""
    x = low if low > x else x
    return high if high < x else x


def step(spec: EnvSpec, state, action) -> tuple[np.ndarray, float, bool]:
    """One dynamics step; the action is clamped to bounds first. done reflects
    the task's own termination condition; the horizon is the caller's job.

    The arithmetic runs on Python floats, which round each operation as
    numpy's float64 does. numpy still computes arctan2, sin, cos, sqrt and
    the goal-gap dot product, whose rounding libm or a plain sum need not
    share.
    """
    values = np.asarray(state, dtype=np.float64).tolist()
    a = np.asarray(action, dtype=np.float64).tolist()
    if len(values) != spec.state_dim or len(a) != spec.action_dim:
        raise ShapeError(f"{spec.env_id} steps a {spec.state_dim}-state with a "
                         f"{spec.action_dim}-action, got {np.shape(state)} and "
                         f"{np.shape(action)}")
    if not all(map(math.isfinite, values)):
        raise NumericError(f"non-finite state passed to step: {np.asarray(state)}")
    low, high = spec.action_low.tolist(), spec.action_high.tolist()

    if spec.env_id == "pointmass2d":
        x, y, vx, vy = values
        vx = POINTMASS_DAMPING * vx + _clamp(a[0], low[0], high[0]) * spec.dt
        vy = POINTMASS_DAMPING * vy + _clamp(a[1], low[1], high[1]) * spec.dt
        x = _clamp(x + vx * spec.dt, -1.0, 1.0)
        y = _clamp(y + vy * spec.dt, -1.0, 1.0)
        gap = np.array((x - POINTMASS_GOAL_XY[0], y - POINTMASS_GOAL_XY[1]))
        # what np.linalg.norm computes for a 1-D float vector
        dist = float(np.sqrt(gap.dot(gap)))
        return np.array((x, y, vx, vy)), -dist, dist < POINTMASS_DONE_DIST

    cos_theta, sin_theta, theta_dot = values
    theta = float(np.arctan2(sin_theta, cos_theta))
    torque = _clamp(a[0], low[0], high[0])
    theta_acc = (-PENDULUM_G / PENDULUM_L) * np.sin(theta) + torque / (PENDULUM_M * PENDULUM_L ** 2)
    theta_dot = float(_clamp(theta_dot + theta_acc * spec.dt, -PENDULUM_MAX_SPEED,
                             PENDULUM_MAX_SPEED))
    theta = theta + theta_dot * spec.dt
    from_upright = _wrap_angle(theta - np.pi)
    reward = -(from_upright ** 2 + 0.1 * theta_dot ** 2 + 0.001 * torque ** 2)
    next_state = np.array([np.cos(theta), np.sin(theta), theta_dot])
    return next_state, float(reward), False


def step_rows(spec: EnvSpec, states, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """step on every row: states (E, state_dim) with actions (E, action_dim)
    give next states (E, state_dim), rewards (E,) and done (E,), row i with
    the bits step(spec, states[i], actions[i]) gives.

    Each operation is the one step makes, on whole columns. Two are not what
    the plain array expression would be: step squares Python floats with
    libm's pow, which np.float_power calls and numpy's ** 2 (x * x) does not
    match, and the goal-gap dot product is a stacked matmul, whose rows
    round as the 1-D gap.dot(gap) does.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != spec.state_dim \
            or actions.shape != (states.shape[0], spec.action_dim):
        raise ShapeError(f"{spec.env_id} steps rows of {spec.state_dim}-states with "
                         f"{spec.action_dim}-actions, got {states.shape} and "
                         f"{actions.shape}")
    if not np.isfinite(states).all():
        bad = states[~np.isfinite(states).all(axis=1)][0]
        raise NumericError(f"non-finite state passed to step: {bad}")
    a = np.minimum(np.maximum(actions, spec.action_low), spec.action_high)

    if spec.env_id == "pointmass2d":
        vel = POINTMASS_DAMPING * states[:, 2:] + a * spec.dt
        pos = np.minimum(np.maximum(states[:, :2] + vel * spec.dt, -1.0), 1.0)
        gap = (pos - POINTMASS_GOAL)[:, None, :]
        dist = np.sqrt(np.matmul(gap, gap.transpose(0, 2, 1))[:, 0, 0])
        return np.concatenate([pos, vel], axis=1), -dist, dist < POINTMASS_DONE_DIST

    theta = np.arctan2(states[:, 1], states[:, 0])
    torque = a[:, 0]
    theta_acc = (-PENDULUM_G / PENDULUM_L) * np.sin(theta) + torque / (PENDULUM_M * PENDULUM_L ** 2)
    theta_dot = np.minimum(np.maximum(states[:, 2] + theta_acc * spec.dt,
                                      -PENDULUM_MAX_SPEED), PENDULUM_MAX_SPEED)
    theta = theta + theta_dot * spec.dt
    from_upright = _wrap_angle(theta - np.pi)
    reward = -(np.float_power(from_upright, 2.0) + 0.1 * np.float_power(theta_dot, 2.0)
               + 0.001 * np.float_power(torque, 2.0))
    next_states = np.stack([np.cos(theta), np.sin(theta), theta_dot], axis=1)
    return next_states, reward, np.zeros(states.shape[0], dtype=bool)


def check_sigma(sigma: float) -> None:
    """The observation-noise level must be finite and >= 0."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma!r}")


def observe(state, noise) -> np.ndarray:
    """What the agent sees of state, as a new array: state + noise, one state
    with one noise row or rows of states with a row each. A -0.0 row, the
    one addend that keeps every float, signed zeros too, copies the state."""
    return np.asarray(state, dtype=np.float64) + noise


def scripted_expert(spec: EnvSpec, state) -> np.ndarray:
    """Deterministic demonstration controller for either task."""
    state = np.asarray(state, dtype=np.float64)
    if spec.env_id == "pointmass2d":
        pos, vel = state[:2], state[2:]
        a = PM_KP * (POINTMASS_GOAL - pos) - PM_KD * vel
        return np.clip(a, spec.action_low, spec.action_high)

    theta = float(np.arctan2(state[1], state[0]))
    theta_dot = float(state[2])
    from_upright = _wrap_angle(theta - np.pi)
    energy = 0.5 * theta_dot ** 2 - (PENDULUM_G / PENDULUM_L) * np.cos(theta)
    upright_rest = PENDULUM_G / PENDULUM_L
    excess = energy - upright_rest
    # PD can only hold where gravity stays under the torque limit and the
    # pass-through speed is small; elsewhere the energy pump rules
    if abs(from_upright) < PEND_CAPTURE_ANGLE and excess < PEND_CAPTURE_EXCESS:
        torque = -PEND_KP * from_upright - PEND_KD * theta_dot
    else:
        # pump energy toward just above the upright-rest level, along the motion
        gap = (upright_rest + PEND_ENERGY_MARGIN) - energy
        direction = np.sign(theta_dot) if abs(theta_dot) > 1e-3 else 1.0
        torque = PEND_ENERGY_GAIN * gap * direction
    return np.clip(np.array([torque]), spec.action_low, spec.action_high)


def run_episode(spec: EnvSpec, act, episode, on_step=None) -> tuple[float, np.ndarray, bool]:
    """The per-step episode loop over episode = (env_rng, obs_block,
    act_block): reset from env_rng, then observe, act and step until the task
    ends or the spec's horizon. Step t observes through observe with
    obs_block[t] and calls act(obs, act_block[t]); an episode that ends early
    leaves later rows unused. on_step(t, state, obs, action, reward), if
    given, runs after each step with the state the action was taken at.

    Returns the return summed step by step with +=, the final state, and
    whether the task ended before the horizon.
    """
    env_rng, obs_block, act_block = episode
    state = reset(spec, env_rng)
    total = 0.0
    done = False
    for t in range(spec.horizon):
        obs = observe(state, obs_block[t])
        action = act(obs, act_block[t])
        next_state, reward, done = step(spec, state, action)
        total += reward
        if on_step is not None:
            on_step(t, state, obs, action, reward)
        state = next_state
        if done:
            break
    return total, state, done


def still_block(spec: EnvSpec) -> np.ndarray:
    """The observation block of an episode without observation noise."""
    return np.full((spec.horizon, spec.state_dim), -0.0)


def episode_noise(spec: EnvSpec, seed: int, ep: int, sigma: float
                  ) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """Online episode ep under observation noise sigma (checked here), as
    (env_rng, obs_block, act_block): its reset generator online_ep{ep}_env,
    sigma times a (horizon, state_dim) block of standard normals from
    online_ep{ep}_obs (the -0.0 block at sigma 0, where that generator is
    not made), and a (horizon, action_dim) block from online_ep{ep}_act.

    Generator.standard_normal fills a block element by element from one
    stream, so row t holds the values a draw of d per step takes at step t.
    """
    check_sigma(sigma)
    env_rng, act_rng = (named_generator(seed, f"online_ep{ep}_{part}")
                        for part in ("env", "act"))
    obs_block = still_block(spec) if sigma == 0.0 else named_generator(
        seed, f"online_ep{ep}_obs").standard_normal((spec.horizon, spec.state_dim)) * sigma
    return env_rng, obs_block, act_rng.standard_normal((spec.horizon, spec.action_dim))


def run_lockstep(spec: EnvSpec, act_rows, episodes) -> np.ndarray:
    """The lock-step loop: play a list of a frozen policy's episodes
    together, and return their returns in order.

    Step t observes the n running rows' states through observe with rows t
    of their observation blocks, calls act_rows(obs, noise) once with the
    observations (n, state_dim) and rows t (n, action_dim) of the action
    blocks, and steps all n rows with step_rows. A row whose task ends
    leaves the rows after that step. Each row has the bits run_episode gives
    its episode when act_rows maps every row as that loop's act does, as
    every returns entry is summed step by step with +=.
    """
    env_rngs, obs_blocks, act_blocks = zip(*episodes)
    state_rows = np.array([reset(spec, env_rng) for env_rng in env_rngs])
    # (horizon, rows, d), so that step t of every row is one slice
    obs_noise = np.stack(obs_blocks, axis=1)
    act_noise = np.stack(act_blocks, axis=1)
    returns = np.zeros(len(env_rngs))
    live = slice(None)  # the running rows, as an index into 0 .. rows-1
    for t in range(spec.horizon):
        obs = observe(state_rows, obs_noise[t, live])
        state_rows, rewards, done = step_rows(spec, state_rows,
                                              act_rows(obs, act_noise[t, live]))
        returns[live] += rewards
        if done.any():
            keep = ~done
            live = np.arange(returns.size)[live][keep]
            state_rows = state_rows[keep]
            if live.size == 0:
                break
    return returns
