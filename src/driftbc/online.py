"""Online phase: per-step shift scoring, patience-gated update triggering,
bounded experience collection, and triggered discriminator + policy refreshes.

The inference loop is strictly sequential: observe, score, act, maybe update.
One OnlineRun holds a run's state: run_online scores each observed state with
OnlineRun.score and passes it through OnlineRun.gate. A state's shift score
is the mean of the two state-density membership scores, computed on the
observed (possibly noisy) state, since that is all the agent sees at
inference time. Updates train clones and swap them in only on success, so a
failed update leaves the deployed models bit-identical.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from . import envs
from .configio import Stopwatch, format_record, parse_record
from .demos import DemoSet
from .density import GmmModel, membership_score
from .discriminator import (bc_weight, check_scores, train_discriminator,
                            two_class_rows)
from .errors import ConfigError, DataError, NumericError
from .numeric import named_generator
from .offline import OfflineArtifacts
from .policy import run_weighted_bc, sample_action

KAPPA_THRESHOLD = 0.4
PATIENCE = 20
BUFFER_CAPACITY = 2000
UPDATE_DISC_STEPS = 50
UPDATE_POLICY_STEPS = 50
UPDATE_BATCH_SIZE = 64
UPDATE_LEARNING_RATE = 5e-4
ADAPT_MODES = ("on", "off", "always")


class ExperienceRing:
    """The last `capacity` (state, action, score) triples, in preallocated
    arrays written at a cursor. The arrays take their widths from the first
    append."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.count = 0
        self.cursor = 0
        self.states = self.actions = None
        self.scores = np.empty(capacity)

    def __len__(self) -> int:
        return self.count

    def append(self, s, a, score: float) -> None:
        if self.states is None:
            self.states = np.empty((self.capacity, np.size(s)))
            self.actions = np.empty((self.capacity, np.size(a)))
        self.states[self.cursor] = s
        self.actions[self.cursor] = a
        self.scores[self.cursor] = score
        self.cursor = (self.cursor + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the stored triples, oldest first."""
        order = (np.arange(self.count) + self.cursor - self.count) % self.capacity
        return tuple(arr[order] for arr in (self.states, self.actions, self.scores))


def kappa(s, gmm_expert: GmmModel, gmm_supp: GmmModel):
    """Mean of the two calibrated membership scores; scalar for a single
    state, (N,) for a batch."""
    score = 0.5 * (membership_score(gmm_expert, s) + membership_score(gmm_supp, s))
    return float(score) if np.ndim(score) == 0 else score


def check_gate(kappa_threshold: float, patience: int) -> None:
    """Refuse a patience gate that could not run: a threshold outside [0, 1]
    or a patience below 1."""
    if not 0.0 <= kappa_threshold <= 1.0:
        raise ConfigError(f"kappa_threshold {kappa_threshold!r} outside [0, 1]")
    if patience < 1:
        raise ConfigError(f"patience must be at least 1, got {patience!r}")


def check_models(artifacts: OfflineArtifacts, expert_demos: DemoSet | None,
                 adapt: str) -> None:
    """Refuse an online run whose models could not run it: every run scores
    its steps with both state-density models, and an adaptive run's updates
    also train the discriminator on the expert demos."""
    if artifacts.gmm_expert is None or artifacts.gmm_supp is None:
        raise ConfigError("online run needs both state-density artifacts")
    if adapt != "off" and (artifacts.discriminator is None or expert_demos is None):
        raise ConfigError("online updates need the discriminator artifact "
                          "and the expert demos")


def observe_step(detector: OnlineRun, s, a, kappa_value: float) -> bool:
    """An online run's patience gate: a score below its kappa_threshold
    extends the run of low scores and stores the experience; any other score
    resets the count. True when the count reaches patience, resetting it."""
    if kappa_value < detector.kappa_threshold:
        detector.consecutive_count += 1
        detector.buffer.append(s, a, kappa_value)
    else:
        detector.consecutive_count = 0
    if detector.consecutive_count >= detector.patience:
        detector.consecutive_count = 0
        return True
    return False


def buffer_snapshot(detector: OnlineRun):
    """Freeze an online run's experience ring into (states, actions, scores)
    arrays, oldest first."""
    if not detector.buffer:
        raise DataError("online experience buffer is empty")
    return detector.buffer.snapshot()


@dataclass(frozen=True)
class OnlineUpdateConfig:
    disc_steps: int = UPDATE_DISC_STEPS
    policy_steps: int = UPDATE_POLICY_STEPS

    def __post_init__(self):
        if self.disc_steps < 1 or self.policy_steps < 1:
            raise ConfigError("per-trigger step counts must be positive")


def online_update(artifacts: OfflineArtifacts, snapshot, expert_demos: DemoSet,
                  config: OnlineUpdateConfig, seed: int, update_index: int) -> bool:
    """One triggered refresh: discriminator steps on expert-vs-online batches
    with the stored shift scores, then policy steps over the union of expert
    demos and online experience, weighted by the refreshed discriminator.

    Trains clones and installs them only if every step stays finite; on a
    non-finite loss the deployed models are left untouched and False is
    returned. The state-density models are never modified. Each trainer
    builds its step buffers once per call, so the buffers live for one
    update.
    """
    states_x, actions_x, scores_x = snapshot
    states_x = np.atleast_2d(states_x)
    actions_x = np.atleast_2d(actions_x)
    if states_x.shape[0] == 0:
        raise DataError("online update needs a non-empty snapshot")
    if artifacts.discriminator is None:
        raise ConfigError("online updates need the discriminator artifact")
    # online_disc_loss's input check, run once over the whole snapshot
    x_e, x_x, scores_x = two_class_rows((expert_demos.states, expert_demos.actions),
                                        (states_x, actions_x), check_scores(scores_x))
    joined = np.concatenate([x_e, x_x])
    ds = np.shape(expert_demos.states)[1]
    s_all, a_all = joined[:, :ds], joined[:, ds:]
    disc = copy.deepcopy(artifacts.discriminator)
    policy = copy.deepcopy(artifacts.policy)
    try:
        train_discriminator(disc, x_e, x_x, scores_x, config.disc_steps,
                            UPDATE_BATCH_SIZE, UPDATE_LEARNING_RATE,
                            named_generator(seed, f"online_update{update_index}_disc"))
        weights = bc_weight(disc, s_all, a_all)
        run_weighted_bc(policy, s_all, a_all, weights, config.policy_steps,
                        UPDATE_BATCH_SIZE, UPDATE_LEARNING_RATE,
                        named_generator(seed, f"online_update{update_index}_policy"))
    except NumericError:
        return False
    artifacts.discriminator = disc
    artifacts.policy = policy
    return True


# --------------------------------------------------------------- run loop


@dataclass(frozen=True)
class StepRecord:
    episode: int
    step: int
    kappa: float
    triggered: bool
    update_wall_ms: int


def play_episodes(policy_of, env_id: str, sigma: float, episodes: int, seed: int,
                  on_step=None) -> np.ndarray:
    """Per-episode returns of policy_of() acting under observation noise sigma.

    Episode ep is envs.episode_noise's episode ep, played by envs.run_episode,
    from its own streams online_ep{ep}_*, so a frozen-policy evaluation and an
    adaptive run with the same seed see the same episodes. policy_of is
    called at every step, so a policy replaced mid-episode acts from the
    next step on, on the same noise rows. on_step(ep, t, state, obs,
    action, reward), if given, runs after every step.
    """
    spec = envs.make_spec(env_id)
    returns = np.zeros(episodes)
    for ep in range(episodes):
        returns[ep], _, _ = envs.run_episode(
            spec, lambda obs, noise: sample_action(policy_of(), obs, noise),
            envs.episode_noise(spec, seed, ep, sigma),
            None if on_step is None else functools.partial(on_step, ep))
    return returns


class OnlineRun:
    """One online run: its patience count, experience ring, step log and
    update counts. score(obs) is an observed state's kappa;
    gate(ep, t, obs, action, k) applies the adapt mode's trigger rule to the
    step, runs the update if it fires and logs the step. adapt="on" uses the
    patience gate, whose count starts afresh each episode; "always" stores
    every step and updates every patience steps of the run; "off" only logs.
    The ring keeps the last BUFFER_CAPACITY (state, action, score) triples
    across triggers. Updates replace artifacts.policy / .discriminator, so an
    adaptive run needs the discriminator and the expert demos.
    """

    def __init__(self, artifacts: OfflineArtifacts, expert_demos: DemoSet,
                 sigma: float, episodes: int, adapt: str = "on", seed: int = 0,
                 kappa_threshold: float = KAPPA_THRESHOLD, patience: int = PATIENCE,
                 update_config: OnlineUpdateConfig | None = None):
        envs.check_sigma(sigma)
        if adapt not in ADAPT_MODES:
            raise ConfigError(f"adapt must be one of {ADAPT_MODES}, got {adapt!r}")
        if episodes < 1:
            raise ConfigError("episodes must be positive")
        check_models(artifacts, expert_demos, adapt)
        check_gate(kappa_threshold, patience)
        self.artifacts, self.expert_demos = artifacts, expert_demos
        self.adapt, self.seed = adapt, seed
        self.kappa_threshold, self.patience = kappa_threshold, patience
        self.update_config = update_config or OnlineUpdateConfig()
        self.consecutive_count = 0
        self.buffer = ExperienceRing(BUFFER_CAPACITY)
        self.episode_returns = np.zeros(episodes)
        self.records: list[StepRecord] = []
        self.update_invocations = self.failed_updates = 0

    @property
    def update_wall_ms_total(self) -> int:
        return sum(r.update_wall_ms for r in self.records)

    def score(self, obs) -> float:
        return kappa(obs, self.artifacts.gmm_expert, self.artifacts.gmm_supp)

    def gate(self, ep: int, t: int, obs, action, k: float) -> None:
        if t == 0:
            self.consecutive_count = 0
        triggered = self.adapt == "on" and observe_step(self, obs, action, k)
        if self.adapt == "always":
            self.buffer.append(obs, action, k)
            # this step is step len(records) + 1 of the run
            triggered = (len(self.records) + 1) % self.patience == 0
        wall = 0
        if triggered:
            watch = Stopwatch()
            ok = online_update(self.artifacts, buffer_snapshot(self), self.expert_demos,
                               self.update_config, self.seed, self.update_invocations)
            wall = watch.ms()
            self.update_invocations += 1
            self.failed_updates += not ok
        self.records.append(StepRecord(ep, t, k, triggered, wall))


def run_online(artifacts: OfflineArtifacts, expert_demos: DemoSet, sigma: float,
               episodes: int, adapt: str = "on", seed: int = 0,
               kappa_threshold: float = KAPPA_THRESHOLD, patience: int = PATIENCE,
               update_config: OnlineUpdateConfig | None = None) -> OnlineRun:
    """Roll episodes under observation noise through one OnlineRun, and
    return it. Updates block the loop; an updated policy acts from the next
    step on."""
    run = OnlineRun(artifacts, expert_demos, sigma, episodes, adapt, seed,
                    kappa_threshold, patience, update_config)
    run.episode_returns = play_episodes(
        lambda: artifacts.policy, artifacts.config.env_id, sigma, episodes, seed,
        lambda ep, t, state, obs, action, reward:
            run.gate(ep, t, obs, action, run.score(obs)))
    return run


# ------------------------------------------------------------- trigger log


def format_trigger_log(records) -> str:
    return "".join(format_record({"episode": r.episode, "step": r.step,
                                  "kappa": float(r.kappa), "triggered": r.triggered,
                                  "wall_ms": r.update_wall_ms})
                   for r in records)


def parse_trigger_log(text: str) -> list[StepRecord]:
    records = []
    for i, line in enumerate(text.splitlines(), start=1):
        try:
            parts = parse_record(line)
            records.append(StepRecord(int(parts["episode"]), int(parts["step"]),
                                      float(parts["kappa"]), bool(int(parts["triggered"])),
                                      int(parts["wall_ms"])))
        except (DataError, KeyError, ValueError):
            raise DataError(f"malformed trigger log line {i}: {line!r}") from None
    return records


def validate_trigger_log(records, kappa_threshold: float = KAPPA_THRESHOLD,
                         patience: int = PATIENCE) -> int:
    """Replay the patience gate over a step log, asserting every trigger flag
    matches the rule; episode boundaries reset the count. Returns the trigger
    count; raises DataError naming the first violating record."""
    count = 0
    triggers = 0
    current_ep = None
    for r in records:
        if r.episode != current_ep:
            current_ep = r.episode
            count = 0
        if r.kappa < kappa_threshold:
            count += 1
        else:
            count = 0
        expected = count >= patience
        if expected:
            count = 0
            triggers += 1
        if r.triggered != expected:
            raise DataError(f"trigger log violates the gating rule at episode "
                            f"{r.episode} step {r.step}: logged "
                            f"{r.triggered}, rule says {expected}")
    return triggers
