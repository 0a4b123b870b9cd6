"""Online phase: per-step shift scoring, patience-gated update triggering,
bounded experience collection, and triggered discriminator + policy refreshes.

The inference loop is strictly sequential: observe, score, act, maybe update.
A state's shift score is the mean of the two state-density membership scores,
computed on the observed (possibly noisy) state, since that is all the agent
sees at inference time. Updates train clones and swap them in only on success,
so a failed update leaves the deployed models bit-identical.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

from . import envs
from .configio import Stopwatch
from .demos import DemoSet
from .density import GmmModel, membership_score
from .discriminator import (bc_weight, check_scores, train_discriminator,
                            two_class_rows)
from .errors import ConfigError, DataError, NumericError, ShapeError
from .numeric import MlpWorkspace, NormalRows, mapped_empty, named_generator
from .offline import OfflineArtifacts
from .policy import bc_workspace, run_weighted_bc, sample_action

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


@dataclass
class ShiftDetector:
    """Counts consecutive low-score steps and collects online experience.

    The buffer holds the last buffer_capacity (state, action, score) triples;
    it is not cleared by a trigger, so later updates see the accumulated
    recent experience.
    """

    kappa_threshold: float = KAPPA_THRESHOLD
    patience: int = PATIENCE
    buffer_capacity: int = BUFFER_CAPACITY
    consecutive_count: int = 0
    buffer: ExperienceRing = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.kappa_threshold <= 1.0:
            raise ConfigError("kappa_threshold must lie in [0, 1]")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.buffer_capacity < 1:
            raise ConfigError("buffer_capacity must be at least 1")
        self.buffer = ExperienceRing(self.buffer_capacity)


def kappa(s, gmm_expert: GmmModel, gmm_supp: GmmModel):
    """Mean of the two calibrated membership scores; scalar for a single
    state, (N,) for a batch."""
    score = 0.5 * (membership_score(gmm_expert, s) + membership_score(gmm_supp, s))
    return float(score) if np.ndim(score) == 0 else score


def observe_step(detector: ShiftDetector, s, a, kappa_value: float) -> bool:
    """Patience-gated trigger rule: a low score extends the current run and
    stores the experience; an in-distribution score resets the run. Returns
    True when the run reaches the patience length, resetting the count."""
    if kappa_value < detector.kappa_threshold:
        detector.consecutive_count += 1
        detector.buffer.append(s, a, kappa_value)
    else:
        detector.consecutive_count = 0
    if detector.consecutive_count >= detector.patience:
        detector.consecutive_count = 0
        return True
    return False


def buffer_snapshot(detector: ShiftDetector):
    """Freeze the buffer into (states, actions, scores) arrays, oldest first."""
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


class UpdateWorkspace:
    """The buffers online_update reuses from one update to the next: the
    joined [s, a] rows of the expert demos followed by the online snapshot,
    the discriminator's workspace for its 2 x UPDATE_BATCH_SIZE training
    rows and for bc_weight's forward over every joined row, and the
    policy's for its UPDATE_BATCH_SIZE BC rows.

    rows bounds the expert plus snapshot rows of an update. Every update
    overwrites every buffer; nothing an update installs aliases them.
    """

    def __init__(self, artifacts: OfflineArtifacts, rows: int):
        dims = artifacts.discriminator.net.layer_dims
        self.rows = int(rows)
        self.joined = mapped_empty(self.rows * dims[0]).reshape(self.rows, dims[0])
        self.disc = MlpWorkspace(dims, max(2 * UPDATE_BATCH_SIZE, self.rows), mapped=True)
        self.policy = bc_workspace(artifacts.policy, UPDATE_BATCH_SIZE)


def online_update(artifacts: OfflineArtifacts, snapshot, expert_demos: DemoSet,
                  config: OnlineUpdateConfig, seed: int, update_index: int,
                  workspace: UpdateWorkspace | None = None) -> bool:
    """One triggered refresh: discriminator steps on expert-vs-online batches
    with the stored shift scores, then policy steps over the union of expert
    demos and online experience, weighted by the refreshed discriminator.

    Trains clones and installs them only if every step stays finite; on a
    non-finite loss the deployed models are left untouched and False is
    returned. The state-density models are never modified.

    workspace holds the update's buffers (see UpdateWorkspace); a new one
    sized to this snapshot is built when None. The update overwrites all of
    it, so a caller that reads a buffer afterwards copies what it keeps.
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
    n_all = x_e.shape[0] + x_x.shape[0]
    if workspace is None:
        workspace = UpdateWorkspace(artifacts, n_all)
    elif n_all > workspace.rows:
        raise ShapeError(f"{n_all} expert and online rows do not fit a "
                         f"workspace of {workspace.rows}")
    joined = np.concatenate([x_e, x_x], out=workspace.joined[:n_all])
    ds = np.shape(expert_demos.states)[1]
    s_all, a_all = joined[:, :ds], joined[:, ds:]
    disc = copy.deepcopy(artifacts.discriminator)
    policy = copy.deepcopy(artifacts.policy)
    try:
        train_discriminator(disc, x_e, x_x, scores_x, config.disc_steps,
                            UPDATE_BATCH_SIZE, UPDATE_LEARNING_RATE,
                            named_generator(seed, f"online_update{update_index}_disc"),
                            workspace.disc)
        weights = bc_weight(disc, s_all, a_all, workspace.disc)
        run_weighted_bc(policy, s_all, a_all, weights, config.policy_steps,
                        UPDATE_BATCH_SIZE, UPDATE_LEARNING_RATE,
                        named_generator(seed, f"online_update{update_index}_policy"),
                        workspace=workspace.policy)
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


@dataclass
class OnlineResult:
    episode_returns: np.ndarray
    records: list[StepRecord]
    update_invocations: int = 0
    failed_updates: int = 0

    @property
    def update_wall_ms_total(self) -> int:
        return sum(r.update_wall_ms for r in self.records)


def play_episodes(policy_of, env_id: str, sigma: float, episodes: int, seed: int,
                  on_step=None) -> np.ndarray:
    """Per-episode returns of policy_of() acting under observation noise sigma.

    Episode ep draws from its own streams online_ep{ep}_{env,obs,act}, so a
    frozen-policy evaluation and an adaptive run with the same seed see the
    same episodes. The observation and action noise of an episode are drawn
    once, as (horizon, d) blocks of standard normals from online_ep{ep}_obs
    and online_ep{ep}_act (see NormalRows): step t observes with row t of
    the first and acts with row t of the second, the values a draw of d per
    step from each stream gives. policy_of is called at every step, so a
    policy replaced mid-episode acts from the next step on, on the same
    rows. on_step(ep, t, state, obs, action, reward), if given, runs after
    every step.
    """
    spec = envs.make_spec(env_id)
    returns = np.zeros(episodes)
    for ep in range(episodes):
        env_rng = named_generator(seed, f"online_ep{ep}_env")
        obs_noise = NormalRows(named_generator(seed, f"online_ep{ep}_obs"),
                               spec.horizon, spec.state_dim)
        act_noise = NormalRows(named_generator(seed, f"online_ep{ep}_act"),
                               spec.horizon, spec.action_dim)
        returns[ep], _, _ = envs.run_episode(
            spec, lambda obs: sample_action(policy_of(), obs, act_noise), env_rng,
            envs.NoiseWrapper(sigma=sigma, rng=obs_noise),
            None if on_step is None else functools.partial(on_step, ep))
    return returns


def run_online(artifacts: OfflineArtifacts, expert_demos: DemoSet, sigma: float,
               episodes: int, adapt: str = "on", seed: int = 0,
               kappa_threshold: float = KAPPA_THRESHOLD, patience: int = PATIENCE,
               update_config: OnlineUpdateConfig | None = None) -> OnlineResult:
    """Roll episodes under observation noise, scoring every observed state.

    adapt="on" uses the patience gate; "always" stores every step and updates
    every patience steps of the run unconditionally; "off" only logs.
    Updates happen mid-episode and block the loop. The consecutive count
    starts fresh each episode since a reset breaks any ongoing shift run.
    Mutates artifacts.policy / artifacts.discriminator under on/always.
    """
    if adapt not in ADAPT_MODES:
        raise ConfigError(f"adapt must be one of {ADAPT_MODES}, got {adapt!r}")
    if episodes < 1:
        raise ConfigError("episodes must be positive")
    if artifacts.gmm_expert is None or artifacts.gmm_supp is None:
        raise ConfigError("online run needs both state-density artifacts")
    if update_config is None:
        update_config = OnlineUpdateConfig()

    detector = ShiftDetector(kappa_threshold=kappa_threshold, patience=patience)
    # one workspace serves every update of the run; without a discriminator
    # the first update raises online_update's ConfigError
    workspace = None
    if adapt != "off" and artifacts.discriminator is not None:
        workspace = UpdateWorkspace(
            artifacts, np.shape(expert_demos.states)[0] + detector.buffer_capacity)
    records: list[StepRecord] = []
    result = OnlineResult(episode_returns=np.zeros(episodes), records=records)

    def score_and_adapt(ep, t, state, obs, action, reward):
        if t == 0:
            detector.consecutive_count = 0
        k = kappa(obs, artifacts.gmm_expert, artifacts.gmm_supp)
        if adapt == "on":
            triggered = observe_step(detector, obs, action, k)
        elif adapt == "always":
            detector.buffer.append(obs, action, k)
            # this step is step len(records) + 1 of the run
            triggered = (len(records) + 1) % detector.patience == 0
        else:
            triggered = False
        wall = 0
        if triggered:
            watch = Stopwatch()
            ok = online_update(artifacts, buffer_snapshot(detector), expert_demos,
                               update_config, seed, result.update_invocations,
                               workspace)
            wall = watch.ms()
            result.update_invocations += 1
            if not ok:
                result.failed_updates += 1
        records.append(StepRecord(ep, t, k, triggered, wall))

    result.episode_returns = play_episodes(
        lambda: artifacts.policy, artifacts.config.env_id, sigma, episodes, seed,
        score_and_adapt)
    return result


# ------------------------------------------------------------- trigger log


def format_trigger_log(records) -> str:
    lines = [f"episode={r.episode} step={r.step} kappa={float(r.kappa)!r} "
             f"triggered={int(r.triggered)} wall_ms={r.update_wall_ms}"
             for r in records]
    return "\n".join(lines) + "\n" if lines else ""


def parse_trigger_log(text: str) -> list[StepRecord]:
    records = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            parts = dict(tok.split("=", 1) for tok in line.split())
            records.append(StepRecord(int(parts["episode"]), int(parts["step"]),
                                      float(parts["kappa"]),
                                      bool(int(parts["triggered"])),
                                      int(parts["wall_ms"])))
        except (KeyError, ValueError):
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
