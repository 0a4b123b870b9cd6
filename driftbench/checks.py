"""Correctness checks on the program's outputs, run after the timed section.

Each check compares an output with a computation made here, from the file
formats and the documented method, or with a property the method must have.
None of them calls into driftbc: the caller passes in whatever the program
computed. Each returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math
import os
import zlib

import numpy as np

LN2 = math.log(2.0)
ODDS_TOLERANCE = 1e-12

# pendulum1, as documented in driftbc.envs
PENDULUM_HORIZON = 200
PENDULUM_DT = 0.1
PENDULUM_G = 10.0
PENDULUM_L = 1.0
PENDULUM_M = 1.0
PENDULUM_MAX_SPEED = 8.0


# ------------------------------------------------------------------ parsing


def parse_records(text: str) -> list[dict[str, str]]:
    """One dict per non-empty line of space-separated key=value tokens."""
    return [dict(tok.split("=", 1) for tok in line.split())
            for line in text.splitlines() if line.strip()]


def read_checkpoint(path) -> tuple[str, dict[str, str], np.ndarray]:
    """(kind, header fields, little-endian float64 payload) of a checkpoint."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head, _, payload = raw.partition(b"\n")
    kind, *fields = head.decode("ascii").split(" ")
    return kind, dict(f.split("=", 1) for f in fields), np.frombuffer(payload, dtype="<f8")


def _layers(dims, floats, offset=0):
    """[(W, b), ...] for an MLP stored as W0, b0, W1, b1, ... row-major."""
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = floats[offset:offset + fan_out * fan_in].reshape(fan_out, fan_in)
        offset += fan_out * fan_in
        b = floats[offset:offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers, offset


def _mlp(layers, x, hidden):
    h = x
    for i, (w, b) in enumerate(layers):
        z = h @ w.T + b
        h = z if i == len(layers) - 1 else hidden(z)
    return h


def _logistic(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------- offline-train


def disc_odds(disc_path, states, actions) -> tuple[np.ndarray, tuple[float, float]]:
    """Odds d/(1-d) of the saved discriminator (ReLU MLP on [s, a], logistic,
    clipped to [clip_lo, clip_hi]) and the bounds the clip implies."""
    kind, fields, floats = read_checkpoint(disc_path)
    if kind != "disc" or fields["activation"] != "relu":
        raise ValueError(f"{disc_path}: not a ReLU discriminator checkpoint")
    dims = [int(d) for d in fields["layer_dims"].split(",")]
    lo, hi = float(fields["clip_lo"]), float(fields["clip_hi"])
    layers, used = _layers(dims, floats)
    if used != floats.size:
        raise ValueError(f"{disc_path}: payload holds {floats.size} floats, dims need {used}")
    x = np.concatenate([states, actions], axis=1)
    d = np.clip(_logistic(_mlp(layers, x, lambda z: np.maximum(z, 0.0))[:, 0]), lo, hi)
    return d / (1.0 - d), (lo / (1.0 - lo), hi / (1.0 - hi))


def odds_match(own, bounds, program) -> list[str]:
    """BC weights are the discriminator's odds, inside the clip's bounds."""
    program = np.asarray(program, dtype=np.float64)
    problems = []
    lo, hi = bounds
    if not (abs(lo - 1 / 99) < 1e-12 and abs(hi - 99) < 1e-9):
        problems.append(f"odds bounds [{lo!r}, {hi!r}] are not [1/99, 99]")
    if own.shape != program.shape:
        return problems + [f"{program.shape} program weights for {own.shape} rows"]
    outside = np.count_nonzero((program < lo) | (program > hi) | ~np.isfinite(program))
    if outside:
        problems.append(f"{outside} BC weights outside [{lo!r}, {hi!r}]")
    err = float(np.max(np.abs(own - program))) if own.size else 0.0
    if not err <= ODDS_TOLERANCE:
        problems.append(f"bc_weight differs from the discriminator's odds by {err!r}")
    return problems


def em_monotone(metrics_text: str) -> list[str]:
    """EM never lowers the mean log-likelihood (gmm_* stages of metrics.log)."""
    problems = []
    for stage in ("gmm_expert", "gmm_supp"):
        lls = [float(r["loss"]) for r in parse_records(metrics_text)
               if r.get("stage") == stage]
        if not lls:
            problems.append(f"metrics.log has no {stage} lines")
        for i in range(1, len(lls)):
            if lls[i] < lls[i - 1] - 1e-9:
                problems.append(f"{stage} log-likelihood fell at EM step {i + 1}: "
                                f"{lls[i - 1]!r} -> {lls[i]!r}")
    return problems


def disc_eval_below_chance(metrics_text: str) -> list[str]:
    """The last held-out discriminator BCE beats chance (ln 2)."""
    evals = [float(r["loss"]) for r in parse_records(metrics_text)
             if r.get("stage") == "disc_eval"]
    if not evals:
        return ["metrics.log has no disc_eval lines"]
    if not evals[-1] < LN2:
        return [f"last held-out BCE {evals[-1]!r} is not below ln 2"]
    return []


def manifest_complete(manifest_path) -> list[str]:
    """Every artifact the manifest lists exists in its out_dir."""
    with open(manifest_path, encoding="utf-8") as fh:
        fields = dict(line.split("=", 1) for line in fh.read().splitlines() if line)
    base = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), fields["out_dir"])
    names = [n for n in fields.get("artifacts", "").split(",") if n]
    if not names:
        return [f"{manifest_path} lists no artifacts"]
    return [f"manifest lists missing artifact {n!r}" for n in names
            if not os.path.exists(os.path.join(base, n))]


# ----------------------------------------------------------- online-adapt


def trigger_replay(triggers_text: str, kth: float, patience: int,
                   cli_triggers: int) -> list[str]:
    """Replay the patience rule over triggers.log: a score below kth extends
    the run, any other score resets it, and so do an episode start and a
    trigger. Every flag must match, scores lie in [0, 1], and the triggers
    add up to the count the CLI printed."""
    problems = []
    count = 0
    triggers = 0
    episode = None
    for r in parse_records(triggers_text):
        ep, k, flag = int(r["episode"]), float(r["kappa"]), r["triggered"] == "1"
        if not 0.0 <= k <= 1.0:
            problems.append(f"kappa {k!r} outside [0, 1] at episode {ep} step {r['step']}")
        if ep != episode:
            episode, count = ep, 0
        count = count + 1 if k < kth else 0
        expected = count >= patience
        if expected:
            count = 0
        triggers += flag
        if flag != expected:
            problems.append(f"triggered={int(flag)} at episode {ep} step {r['step']}, "
                            f"the patience rule says {int(expected)}")
    if triggers != cli_triggers:
        problems.append(f"triggers.log holds {triggers} triggers, the CLI printed {cli_triggers}")
    return problems


def episode_returns(returns_text: str, episodes: int) -> tuple[list[float], list[str]]:
    """Returns from returns.log: one finite value per episode, in order."""
    records = parse_records(returns_text)
    returns = [float(r["return"]) for r in records]
    problems = []
    if [int(r["episode"]) for r in records] != list(range(episodes)):
        problems.append(f"returns.log does not hold episodes 0..{episodes - 1} in order")
    if not all(math.isfinite(r) for r in returns):
        problems.append("returns.log holds a non-finite return")
    return returns, problems


def adaptation_gain(returns_per_seed, window: int = 10) -> list[str]:
    """The paper's adaptation claim: over the seeds, the last `window`
    episodes beat the first `window` on average."""
    gains = [float(np.mean(r[-window:]) - np.mean(r[:window])) for r in returns_per_seed]
    if not gains or not float(np.mean(gains)) > 0.0:
        return [f"mean return gain of the last {window} over the first {window} "
                f"episodes is not positive: {gains}"]
    return []


# ------------------------------------------------------------- eval-sweep


def named_generator(seed: int, name: str) -> np.random.Generator:
    """The documented named stream: SeedSequence(seed, spawn_key=(crc32(name),))."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(zlib.crc32(name.encode("utf8")),)))


def _wrap_angle(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def pendulum_returns(policy_path, sigma: float, seed: int, episodes: int) -> list[float]:
    """Per-episode returns of the saved Gaussian policy on pendulum1 under
    observation noise, rolled out here from the task's equations."""
    kind, fields, floats = read_checkpoint(policy_path)
    if kind != "policy" or fields["activation"] != "tanh":
        raise ValueError(f"{policy_path}: not a tanh policy checkpoint")
    action_dim = int(fields["action_dim"])
    layers, off = _layers([int(d) for d in fields["layer_dims"].split(",")], floats)
    log_std = floats[off:off + action_dim]
    low = floats[off + action_dim:off + 2 * action_dim]
    high = floats[off + 2 * action_dim:off + 3 * action_dim]

    returns = []
    for ep in range(episodes):
        env_rng = named_generator(seed, f"online_ep{ep}_env")
        obs_rng = named_generator(seed, f"online_ep{ep}_obs")
        act_rng = named_generator(seed, f"online_ep{ep}_act")
        theta = env_rng.uniform(-np.pi, np.pi)
        theta_dot = env_rng.uniform(-1.0, 1.0)
        state = np.array([np.cos(theta), np.sin(theta), theta_dot])
        total = 0.0
        for _ in range(PENDULUM_HORIZON):
            obs = state.copy() if sigma == 0.0 else (
                state + obs_rng.standard_normal(state.shape[0]) * sigma)
            mu = _mlp(layers, obs[None, :], np.tanh)[0]
            action = np.clip(mu + act_rng.standard_normal(action_dim) * np.exp(log_std),
                             low, high)
            torque = float(np.clip(action, low, high)[0])
            theta = float(np.arctan2(state[1], state[0]))
            acc = (-PENDULUM_G / PENDULUM_L) * np.sin(theta) \
                + torque / (PENDULUM_M * PENDULUM_L ** 2)
            theta_dot = float(np.clip(float(state[2]) + acc * PENDULUM_DT,
                                      -PENDULUM_MAX_SPEED, PENDULUM_MAX_SPEED))
            theta = theta + theta_dot * PENDULUM_DT
            from_upright = _wrap_angle(theta - np.pi)
            total += float(-(from_upright ** 2 + 0.1 * theta_dot ** 2 + 0.001 * torque ** 2))
            state = np.array([np.cos(theta), np.sin(theta), theta_dot])
        returns.append(total)
    return returns


def stability(returns, ema_coefficient: float) -> float:
    """Mean |return - EMA|, the EMA starting at the first return."""
    ema = returns[0]
    devs = []
    for i, r in enumerate(returns):
        if i > 0:
            ema = ema + ema_coefficient * (r - ema)
        devs.append(abs(r - ema))
    return float(np.mean(devs))


def sweep_replay(records_text: str, refs_text: str, replay: dict) -> list[str]:
    """Recompute mean_return, score and stability of the records.txt cells
    named in `replay` ({(sigma, seed): per-episode returns}) from returns
    rolled out here, with the score from the reference-returns file. Both
    sides use the same streams and float64 steps, so the cells must match
    bit for bit."""
    records = parse_records(records_text)
    header = records[0]
    cells = {(float(r["sigma"]), int(r["seed"])): r
             for r in records if r.get("kind") == "cell"}
    refs = parse_records(refs_text.split(" ", 1)[1])[0]
    expert, rand = float(refs["expert_return"]), float(refs["random_return"])
    problems = []
    for (sigma, seed), returns in replay.items():
        cell = cells.get((sigma, seed))
        if cell is None:
            problems.append(f"records.txt has no cell sigma={sigma!r} seed={seed}")
            continue
        if len(returns) != int(header["episodes"]):
            problems.append(f"replayed {len(returns)} episodes, records say {header['episodes']}")
        mean = float(np.mean(returns))
        expected = {
            "mean_return": mean,
            "score": float(100.0 * (mean - rand) / (expert - rand)),
            "stability": stability(returns, float(header["ema_coefficient"])),
        }
        for field, value in expected.items():
            if float(cell[field]) != value:
                problems.append(f"cell sigma={sigma!r} seed={seed}: {field}={cell[field]} "
                                f"but the replay gives {value!r}")
    return problems


def sweep_shape(records_text: str, sigmas, runs: int, episodes: int) -> list[str]:
    """records.txt holds one cell per (sigma, seed) with the asked episodes."""
    records = parse_records(records_text)
    cells = [r for r in records if r.get("kind") == "cell"]
    problems = []
    if int(records[0]["episodes"]) != episodes:
        problems.append(f"records.txt says episodes={records[0]['episodes']}, asked {episodes}")
    if len(cells) != len(sigmas) * runs:
        problems.append(f"records.txt holds {len(cells)} cells, expected {len(sigmas) * runs}")
    if sorted({float(c["sigma"]) for c in cells}) != sorted(float(s) for s in sigmas):
        problems.append("records.txt cells do not cover the asked sigmas")
    return problems
