"""Tiered demonstration sets: generation from scripted controllers, mixing,
and a bit-exact on-disk format.

A set stores flat sample columns plus run-length tier bookkeeping, so a mixed
set remembers which contiguous block came from which tier. Episode ids are
renumbered on mixing to stay unique within a set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .numeric import RecordReader, named_generator, write_record_file
from .policy import sample_action, train_reference_policy
from . import envs

TIERS = ("expert", "medium", "medium_replay_like", "random")
MEDIUM_ACTION_NOISE = 0.3
# medium_replay_like rolls out a BC policy stopped after this many steps, a
# fifth of the default reference-policy budget
MRL_STEPS = 1000
MRL_SOURCE_EPISODES = 10

DEMO_KIND = "demoset"
REFRET_KIND = "refret"


@dataclass(frozen=True)
class TierRun:
    """One contiguous block of samples generated under a single tier."""

    tier: str
    episodes: int
    samples: int


@dataclass(eq=False)
class DemoSet:
    env_id: str
    state_dim: int
    action_dim: int
    seed: int
    states: np.ndarray        # (N, state_dim)
    actions: np.ndarray       # (N, action_dim)
    episode_ids: np.ndarray   # (N,) int32
    step_indices: np.ndarray  # (N,) int32
    tier_runs: tuple[TierRun, ...]
    # generation-time log, not serialized
    episode_returns: np.ndarray | None = dataclasses.field(default=None, repr=False)

    @property
    def n_samples(self) -> int:
        return int(self.states.shape[0])

    @property
    def n_episodes(self) -> int:
        return sum(run.episodes for run in self.tier_runs)

    def provenance_label(self) -> str:
        seen: list[str] = []
        for run in self.tier_runs:
            if run.tier not in seen:
                seen.append(run.tier)
        return "+".join(seen)


def _check_consistent(demos: DemoSet) -> None:
    n = demos.n_samples
    if not (demos.actions.shape[0] == demos.episode_ids.shape[0]
            == demos.step_indices.shape[0] == n):
        raise DataError("demo column lengths disagree")
    if sum(run.samples for run in demos.tier_runs) != n:
        raise DataError("tier runs do not cover the stored samples")


def _mrl_policy(spec: envs.EnvSpec, seed: int):
    """Under-trained BC policy used as the medium_replay_like behavior."""
    source = generate_tier(spec, "expert", MRL_SOURCE_EPISODES, seed)
    return train_reference_policy(source, spec, f"mrl_{spec.env_id}", seed, MRL_STEPS)


def check_tier(tier: str) -> None:
    if tier not in TIERS:
        raise ConfigError(f"unknown tier {tier!r}; valid: {', '.join(TIERS)}")


def generate_tier(spec: envs.EnvSpec, tier: str, episodes: int, seed: int) -> DemoSet:
    """Roll out one tier's behavior policy; true states only, no observation
    noise (the -0.0 observation block). Deterministic given (spec, tier,
    episodes, seed). Episode ep's actions draw on one (horizon, action_dim)
    block from {tier}_ep{ep}_act; row t holds step t's per-step draw."""
    check_tier(tier)
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")

    mrl = _mrl_policy(spec, seed) if tier == "medium_replay_like" else None
    if tier == "expert":
        act = lambda s, _: envs.scripted_expert(spec, s)
    elif tier == "medium":
        act = lambda s, noise: np.clip(
            envs.scripted_expert(spec, s) + noise * MEDIUM_ACTION_NOISE,
            spec.action_low, spec.action_high)
    elif tier == "random":
        act = lambda s, draw: draw
    else:
        act = lambda s, noise: sample_action(mrl, s, noise)
    shape = (spec.horizon, spec.action_dim)

    states, actions, ep_ids, step_ids, returns = [], [], [], [], []
    for ep in range(episodes):
        # env stream is shared across tiers so same-seed tiers start from the
        # same states; that pairing makes tier-separation comparisons tight
        env_rng = named_generator(seed, f"ep{ep}_env")
        act_rng = named_generator(seed, f"{tier}_ep{ep}_act")
        act_block = (act_rng.uniform(spec.action_low, spec.action_high, shape)
                     if tier == "random" else act_rng.standard_normal(shape))

        # every tier's actions are already in bounds, so they are stored as drawn
        steps = []
        envs.run_episode(spec, act, (env_rng, envs.still_block(spec), act_block),
                         on_step=lambda t, state, obs, action, reward:
                         steps.append((state, action, reward)))
        ep_states, ep_actions, rewards = map(np.array, zip(*steps))
        states.append(ep_states)
        actions.append(ep_actions)
        ep_ids.append(np.full(len(rewards), ep, dtype=np.int32))
        step_ids.append(np.arange(len(rewards), dtype=np.int32))
        # np.sum, not run_episode's running +=: gen-refs averages these returns
        returns.append(float(np.sum(rewards)))

    all_states = np.concatenate(states)
    return DemoSet(
        env_id=spec.env_id,
        state_dim=spec.state_dim,
        action_dim=spec.action_dim,
        seed=seed,
        states=all_states,
        actions=np.concatenate(actions),
        episode_ids=np.concatenate(ep_ids),
        step_indices=np.concatenate(step_ids),
        tier_runs=(TierRun(tier, episodes, all_states.shape[0]),),
        episode_returns=np.array(returns),
    )


def mix_supplementary(tiers) -> DemoSet:
    """Concatenate tier sets in the given order, renumbering episode ids so
    they stay unique within the mix."""
    tiers = list(tiers)
    if not tiers:
        raise ConfigError("need at least one demo set to mix")
    head = tiers[0]
    for ds in tiers[1:]:
        if ds.env_id != head.env_id:
            raise DataError(f"cannot mix env {ds.env_id!r} into {head.env_id!r}")
        if ds.state_dim != head.state_dim or ds.action_dim != head.action_dim:
            raise DataError("cannot mix demo sets with different dimensions")

    pieces = []
    ep_offset = 0
    for ds in tiers:
        _check_consistent(ds)
        ids = np.unique(ds.episode_ids, return_inverse=True)[1] + ep_offset
        pieces.append((ds.states, ds.actions, ids.astype(np.int32), ds.step_indices))
        ep_offset += ds.n_episodes
    return _assemble(head, pieces, [run for ds in tiers for run in ds.tier_runs])


def _piece(ds: DemoSet, run_slice: slice, mask, first_ep, ep_offset: int) -> tuple:
    """The masked rows of one tier run as (states, actions, episode_ids,
    step_indices), episode ids renumbered from first_ep to ep_offset."""
    eps = ds.episode_ids[run_slice][mask]
    return (ds.states[run_slice][mask], ds.actions[run_slice][mask],
            (eps - first_ep + ep_offset).astype(np.int32), ds.step_indices[run_slice][mask])


def _assemble(head: DemoSet, pieces, runs) -> DemoSet:
    """A set with head's metadata from the pieces, in order, and their tier runs."""
    states, actions, ep_ids, step_ids = (np.concatenate(col) for col in zip(*pieces))
    return DemoSet(env_id=head.env_id, state_dim=head.state_dim, action_dim=head.action_dim,
                   seed=head.seed, states=states, actions=actions, episode_ids=ep_ids,
                   step_indices=step_ids, tier_runs=tuple(runs))


def split_holdout(demos: DemoSet, fraction: float = 0.1) -> tuple[DemoSet, DemoSet]:
    """Per tier run, the trailing floor(fraction * episodes) episodes become
    the held-out set. A run too small to spare one episode keeps all its
    episodes for training and contributes its last episode to the held-out
    side anyway, so both splits stay usable at extreme imbalance."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"holdout fraction {fraction} outside (0, 1)")
    _check_consistent(demos)

    train_pieces, train_runs, hold_pieces, hold_runs = [], [], [], []
    sample_offset = 0
    train_off = hold_off = 0
    for run in demos.tier_runs:
        run_slice = slice(sample_offset, sample_offset + run.samples)
        run_eps = demos.episode_ids[run_slice]
        base = run_eps.min() if run.samples else 0
        n_hold = int(np.floor(fraction * run.episodes))
        overlap = n_hold == 0
        n_train = run.episodes if overlap else run.episodes - n_hold
        train_mask = run_eps < base + n_train
        hold_mask = run_eps >= base + (run.episodes - max(n_hold, 1))

        train_pieces.append(_piece(demos, run_slice, train_mask, base, train_off))
        train_runs.append(TierRun(run.tier, n_train, int(train_mask.sum())))
        train_off += n_train

        first_hold = base + (run.episodes - max(n_hold, 1))
        hold_pieces.append(_piece(demos, run_slice, hold_mask, first_hold, hold_off))
        hold_runs.append(TierRun(run.tier, max(n_hold, 1), int(hold_mask.sum())))
        hold_off += max(n_hold, 1)
        sample_offset += run.samples

    return (_assemble(demos, train_pieces, train_runs),
            _assemble(demos, hold_pieces, hold_runs))


# ------------------------------------------------------------------ storage


def _row_dtype(state_dim: int, action_dim: int) -> np.dtype:
    return np.dtype([("ep", "<i4"), ("step", "<i4"),
                     ("s", "<f8", (state_dim,)), ("a", "<f8", (action_dim,))])


def save_demoset(path, demos: DemoSet) -> None:
    _check_consistent(demos)
    fields = {
        "env_id": demos.env_id,
        "state_dim": demos.state_dim,
        "action_dim": demos.action_dim,
        "seed": demos.seed,
        "episodes": demos.n_episodes,
        "samples": demos.n_samples,
        "tiers": tuple(f"{r.tier}:{r.episodes}:{r.samples}" for r in demos.tier_runs),
    }
    rows = np.empty(demos.n_samples, dtype=_row_dtype(demos.state_dim, demos.action_dim))
    rows["ep"] = demos.episode_ids
    rows["step"] = demos.step_indices
    rows["s"] = demos.states
    rows["a"] = demos.actions
    write_record_file(path, DEMO_KIND, fields, rows.tobytes())


def load_demoset(path) -> DemoSet:
    rec = RecordReader(path, DEMO_KIND)
    env_id = rec.field("env_id")
    state_dim = rec.count("state_dim")
    action_dim = rec.count("action_dim")
    seed = rec.field("seed", int)
    episodes = rec.field("episodes", int)
    declared = rec.field("samples", int)
    tier_text = rec.field("tiers")
    if env_id in envs.ENV_IDS:
        spec = envs.make_spec(env_id)
        if (spec.state_dim, spec.action_dim) != (state_dim, action_dim):
            raise DataError(
                f"{path}: dimension inconsistency: {env_id} has dims "
                f"{spec.state_dim}/{spec.action_dim}, header says {state_dim}/{action_dim}")

    runs = []
    for part in tier_text.split(","):
        try:
            tier, eps, samps = part.split(":")
            runs.append(TierRun(tier, int(eps), int(samps)))
        except ValueError:
            raise DataError(f"{path}: malformed tier entry {part!r} in demo header") from None
        if runs[-1].tier not in TIERS:
            raise DataError(f"{path}: unknown tier {runs[-1].tier!r} in demo header")
    if sum(r.samples for r in runs) != declared:
        raise DataError(f"{path}: demo header tier samples do not sum to the declared count")
    if sum(r.episodes for r in runs) != episodes:
        raise DataError(f"{path}: demo header tier episodes do not sum to the declared count")

    dtype = _row_dtype(state_dim, action_dim)
    row_size = dtype.itemsize
    n_full, leftover = divmod(len(rec.payload), row_size)
    if leftover and n_full < declared:
        raise DataError(
            f"{path}: demo file ends mid-row: row {n_full} has {leftover} of {row_size} "
            f"bytes (need {row_size - leftover} more); a row that narrow would "
            f"not match the declared dims {state_dim}/{action_dim}")
    if n_full < declared:
        missing = (declared - n_full) * row_size
        raise DataError(f"{path}: demo file truncated: header declares {declared} "
                        f"samples, found {n_full} ({missing} bytes missing)")
    rows = rec.rows(dtype, declared)
    rec.finish()
    if not (np.all(np.isfinite(rows["s"])) and np.all(np.isfinite(rows["a"]))):
        raise DataError(f"{path}: demo states and actions must be finite")
    # each tier run holds the consecutive ids after the runs before it, as
    # generate_tier, mix_supplementary and split_holdout write them
    start = first = 0
    for run in runs:
        found = np.unique(rows["ep"][start:start + run.samples])
        if not np.array_equal(found, np.arange(first, first + run.episodes)):
            raise DataError(f"{path}: tier run {run.tier}:{run.episodes}:{run.samples} "
                            f"holds {found.size} distinct episode ids, not the ids "
                            f"{first}..{first + run.episodes - 1}")
        start += run.samples
        first += run.episodes
    return DemoSet(
        env_id=env_id, state_dim=state_dim, action_dim=action_dim, seed=seed,
        states=rows["s"].copy(), actions=rows["a"].copy(),
        episode_ids=rows["ep"].copy(), step_indices=rows["step"].copy(),
        tier_runs=tuple(runs),
    )


# -------------------------------------------------------- reference returns


@dataclass(frozen=True)
class ReferenceReturns:
    env_id: str
    expert_return: float
    random_return: float
    episodes: int
    seed: int


def measure_reference_returns(spec: envs.EnvSpec, episodes: int = 100,
                              seed: int = 0) -> ReferenceReturns:
    """Mean scripted-expert and uniform-random returns, measured on the same
    episode streams the tier generator uses."""
    expert = generate_tier(spec, "expert", episodes, seed)
    random_tier = generate_tier(spec, "random", episodes, seed)
    return ReferenceReturns(
        env_id=spec.env_id,
        expert_return=float(np.mean(expert.episode_returns)),
        random_return=float(np.mean(random_tier.episode_returns)),
        episodes=episodes,
        seed=seed,
    )


def save_reference_returns(path, ref: ReferenceReturns) -> None:
    write_record_file(path, REFRET_KIND, {
        "env_id": ref.env_id,
        "expert_return": ref.expert_return,
        "random_return": ref.random_return,
        "episodes": ref.episodes,
        "seed": ref.seed,
    })


def load_reference_returns(path) -> ReferenceReturns:
    rec = RecordReader(path, REFRET_KIND)
    ref = ReferenceReturns(
        env_id=rec.field("env_id"),
        expert_return=rec.field("expert_return", float),
        random_return=rec.field("random_return", float),
        episodes=rec.field("episodes", int),
        seed=rec.field("seed", int),
    )
    rec.finish()
    return ref
