"""Two deterministic toy continuous-control tasks with scripted experts, plus
the Gaussian observation-noise wrapper that induces distribution shift.

pointmass2d: damped double integrator on [-1,1]^2 driving to a fixed goal.
pendulum1: torque-limited rigid pendulum, angle measured from hanging down so
the upright target sits at pi; reward penalizes distance from upright.

Noise only ever perturbs what the agent observes; true dynamics evolve on the
unperturbed state.

run_episode is the one episode loop. Its two callers are online.play_episodes,
which steps every evaluation and online episode, and demos.generate_tier, which
records each demonstration step through on_step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .numeric import NormalRows

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


@dataclass
class NoiseWrapper:
    """Adds N(0, sigma^2 I) to observations; sigma = 0 is the identity.
    rng is a Generator, or a NormalRows block drawn from one (see observe)."""

    sigma: float
    rng: np.random.Generator | NormalRows


def observe(wrapper: NoiseWrapper, state) -> np.ndarray:
    """state plus sigma times wrapper.rng.standard_normal(state_dim); no draw
    at sigma 0. play_episodes sets rng to a NormalRows block of the
    episode's online_ep{ep}_obs stream, so the observation of step t takes
    row t, the values a Generator would draw at that step."""
    state = np.asarray(state, dtype=np.float64)
    if wrapper.sigma == 0.0:
        return state.copy()
    return state + wrapper.rng.standard_normal(state.shape[0]) * wrapper.sigma


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


def run_episode(spec: EnvSpec, act, env_rng: np.random.Generator,
                wrapper: NoiseWrapper | None = None,
                on_step=None) -> tuple[float, np.ndarray, bool]:
    """The one episode loop: reset, then observe, act and step until the task
    ends or the spec's horizon. act sees the observed state only (the true state
    when there is no wrapper). on_step(t, state, obs, action, reward), if
    given, runs after each step with the state the action was taken at.

    Step t calls observe once and act once. When the wrapper's rng and the
    generator act samples from are NormalRows blocks, as play_episodes makes
    them, step t therefore uses row t of each, and an episode that ends
    early leaves its later rows unused.

    Returns the return summed step by step with +=, the final state, and
    whether the task ended before the horizon.
    """
    state = reset(spec, env_rng)
    total = 0.0
    done = False
    for t in range(spec.horizon):
        obs = state.copy() if wrapper is None else observe(wrapper, state)
        action = act(obs)
        next_state, reward, done = step(spec, state, action)
        total += reward
        if on_step is not None:
            on_step(t, state, obs, action, reward)
        state = next_state
        if done:
            break
    return total, state, done
