"""Two deterministic toy continuous-control tasks with scripted experts, plus
the Gaussian observation-noise wrapper that induces distribution shift.

pointmass2d: damped double integrator on [-1,1]^2 driving to a fixed goal.
pendulum1: torque-limited rigid pendulum, angle measured from hanging down so
the upright target sits at pi; reward penalizes distance from upright.

Noise only ever perturbs what the agent observes; true dynamics evolve on the
unperturbed state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError

ENV_IDS = ("pointmass2d", "pendulum1")

POINTMASS_DT = 0.1
PENDULUM_DT = 0.1
HORIZON = 200

POINTMASS_GOAL = np.array([0.8, 0.8])
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


def step(spec: EnvSpec, state, action) -> tuple[np.ndarray, float, bool]:
    """One dynamics step; the action is clamped to bounds first. done reflects
    the task's own termination condition; the horizon is the caller's job."""
    state = np.asarray(state, dtype=np.float64)
    if not np.isfinite(state).all():
        raise NumericError(f"non-finite state passed to step: {state}")
    # minimum(maximum(...)) is np.clip's value for the non-zero bounds used
    # here, at a fraction of its call cost on these 1- and 2-vectors
    a = np.minimum(np.maximum(np.asarray(action, dtype=np.float64), spec.action_low),
                   spec.action_high)

    if spec.env_id == "pointmass2d":
        pos, vel = state[:2], state[2:]
        vel = POINTMASS_DAMPING * vel + a * spec.dt
        pos = np.minimum(np.maximum(pos + vel * spec.dt, -1.0), 1.0)
        gap = pos - POINTMASS_GOAL
        # what np.linalg.norm computes for a 1-D float vector
        dist = float(np.sqrt(gap.dot(gap)))
        next_state = np.concatenate([pos, vel])
        return next_state, -dist, dist < POINTMASS_DONE_DIST

    theta = float(np.arctan2(state[1], state[0]))
    theta_dot = float(state[2])
    torque = float(a[0])
    theta_acc = (-PENDULUM_G / PENDULUM_L) * np.sin(theta) + torque / (PENDULUM_M * PENDULUM_L ** 2)
    theta_dot = float(min(max(theta_dot + theta_acc * spec.dt, -PENDULUM_MAX_SPEED),
                          PENDULUM_MAX_SPEED))
    theta = theta + theta_dot * spec.dt
    from_upright = _wrap_angle(theta - np.pi)
    reward = -(from_upright ** 2 + 0.1 * theta_dot ** 2 + 0.001 * torque ** 2)
    next_state = np.array([np.cos(theta), np.sin(theta), theta_dot])
    return next_state, float(reward), False


@dataclass
class NoiseWrapper:
    """Adds N(0, sigma^2 I) to observations; sigma = 0 is the identity."""

    sigma: float
    rng: np.random.Generator


def observe(wrapper: NoiseWrapper, state) -> np.ndarray:
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


@dataclass
class EpisodeRecord:
    """Per-step arrays for one episode; states are those the actions were taken
    at (pre-step), with their observed counterparts."""

    true_states: np.ndarray      # (T, state_dim)
    observed_states: np.ndarray  # (T, state_dim)
    actions: np.ndarray          # (T, action_dim)
    rewards: np.ndarray          # (T,)
    final_state: np.ndarray
    terminated_early: bool

    @property
    def total_return(self) -> float:
        return float(np.sum(self.rewards))

    def __len__(self) -> int:
        return self.rewards.shape[0]


def run_episode(spec: EnvSpec, act, env_rng: np.random.Generator,
                wrapper: NoiseWrapper | None = None,
                on_step=None) -> tuple[float, np.ndarray, bool]:
    """The one episode loop: reset, then observe, act and step until the task
    ends or the spec's horizon. act sees the observed state only (the true state
    when there is no wrapper). on_step(t, state, obs, action, reward), if
    given, runs after each step with the state the action was taken at.

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


def rollout(spec: EnvSpec, action_fn, env_rng: np.random.Generator,
            wrapper: NoiseWrapper | None = None) -> EpisodeRecord:
    """Run one episode and record every step, actions clamped to bounds."""
    steps = []

    def record(t, state, obs, action, reward):
        a = np.clip(np.asarray(action, dtype=np.float64), spec.action_low, spec.action_high)
        steps.append((state, obs, a, reward))

    _, final_state, terminated = run_episode(spec, action_fn, env_rng, wrapper, record)
    true_states, observed_states, actions, rewards = map(np.array, zip(*steps))
    return EpisodeRecord(
        true_states=true_states,
        observed_states=observed_states,
        actions=actions,
        rewards=rewards,
        final_state=final_state,
        terminated_early=terminated,
    )
