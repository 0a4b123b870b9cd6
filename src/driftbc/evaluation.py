"""Normalized scoring, noise sweeps, threshold grid search, tier ablations.

Evaluation rolls the trained policy under observation noise and reports
normalized scores so results are comparable across environments. Sweep cells
are independent given their seed, so every aggregate is recomputable from the
raw per-cell records.

Every sweep maps one task over its cells: score_policy over chunks of
(sigma, seed) cells, or evaluate_cell over adaptive cells one at a time.

The paper's three result kinds (robustness to noise sigma, adaptation at each
threshold kth, coverage of supplementary tiers) have one shape: the scores
of (value, seed) cells grouped by the swept value. noise_sweep,
grid_search_kth and tier_ablation each return that shape as a Report of
ReportRows, whose files report_files writes.
"""

from __future__ import annotations

import copy
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import envs
from .demos import DemoSet, ReferenceReturns
from .configio import format_record
from .errors import ConfigError
from .offline import OfflineArtifacts, OfflineConfig, load_demo_file, run_offline
from .online import (ADAPT_MODES, KAPPA_THRESHOLD, PATIENCE,
                     OnlineUpdateConfig, check_gate, check_models, run_online)
from .policy import sample_action

# EMA smoothing coefficient for the stability metric; recorded in every
# report so the number can be recomputed from raw returns
EMA_COEFFICIENT = 0.1
DEFAULT_SIGMAS = (0.0, 0.05, 0.1, 0.2)
DEFAULT_RUNS = 10
SCORE_EPISODES = 20
ADAPT_EPISODES = 100
KTH_CANDIDATES = tuple(round(i / 10, 1) for i in range(11))
# Most rows one lock-step loop of an adapt-off sweep steps at once. Its noise
# blocks take horizon * (state_dim + action_dim) * 8 bytes a row, under 5 MB
# at this cap, and the loop's per-row cost had flattened out well before it.
LOCKSTEP_ROWS = 512


# --------------------------------------------------------------- normalizer


@dataclass(frozen=True)
class ScoreNormalizer:
    """Affine score references: random maps to 0, expert to 100."""

    expert_return: float
    random_return: float

    def __post_init__(self):
        if not (np.isfinite(self.expert_return) and np.isfinite(self.random_return)):
            raise ConfigError("reference returns must be finite")
        if not self.expert_return > self.random_return:
            raise ConfigError(
                f"degenerate score references: expert return {self.expert_return!r} "
                f"must exceed random return {self.random_return!r}")


def normalizer_from_reference(ref: ReferenceReturns) -> ScoreNormalizer:
    return ScoreNormalizer(expert_return=ref.expert_return,
                           random_return=ref.random_return)


def normalized_score(return_value: float, normalizer: ScoreNormalizer) -> float:
    """100 * (R - R_random) / (R_expert - R_random); unbounded on both sides."""
    span = normalizer.expert_return - normalizer.random_return
    return float(100.0 * (return_value - normalizer.random_return) / span)


def stability_metric(returns, ema_coefficient: float = EMA_COEFFICIENT) -> float:
    """Mean |return - EMA| over episodes; the EMA starts at the first return
    and already includes the current episode when the deviation is taken."""
    arr = np.asarray(returns, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ConfigError("stability metric needs at least two per-episode returns")
    if not 0.0 < ema_coefficient <= 1.0:
        raise ConfigError(f"ema_coefficient {ema_coefficient!r} outside (0, 1]")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("stability metric needs finite returns")
    ema = arr[0]
    devs = []
    for i in range(arr.size):
        if i > 0:
            # incremental form keeps constant sequences at exactly zero
            ema = ema + ema_coefficient * (arr[i] - ema)
        devs.append(abs(arr[i] - ema))
    return float(np.mean(devs))


# ------------------------------------------------------------ cell rollouts


@dataclass(frozen=True)
class SweepCell:
    """One (sigma, seed) evaluation; raw returns retained for recomputation."""

    sigma: float
    seed: int
    returns: tuple[float, ...]
    mean_return: float
    score: float
    stability: float
    updates: int = 0


def score_policy(artifacts: OfflineArtifacts, normalizer: ScoreNormalizer,
                 episodes: int, cells) -> list[SweepCell]:
    """The SweepCells of the frozen policy's (sigma, seed) cells, with every
    cell's episodes made cell-major by envs.episode_noise and stepped
    together in one lock-step loop (envs.run_lockstep). Each cell has the
    bits of an adapt-off online run of its seed, and needs no density model
    of artifacts."""
    if episodes < 1:
        raise ConfigError("episodes must be positive")
    if not cells:
        raise ConfigError("score_policy needs at least one (sigma, seed) cell")
    spec = envs.make_spec(artifacts.config.env_id)
    returns = envs.run_lockstep(spec, partial(sample_action, artifacts.policy),
                                [envs.episode_noise(spec, seed, ep, sigma)
                                 for sigma, seed in cells for ep in range(episodes)])
    return [_sweep_cell(sigma, seed, r, normalizer)
            for (sigma, seed), r in zip(cells, returns.reshape(-1, episodes))]


def evaluate_cell(artifacts: OfflineArtifacts, normalizer: ScoreNormalizer,
                  expert_demos: DemoSet, episodes: int, adapt: str, patience: int,
                  update_config: OnlineUpdateConfig | None, cell) -> SweepCell:
    """The SweepCell of one adaptive (sigma, seed, kappa_threshold) cell:
    run_online on a deep copy of artifacts, so that the caller's artifacts
    never change from one cell to the next."""
    sigma, seed, kappa_threshold = cell
    result = run_online(copy.deepcopy(artifacts), expert_demos, sigma, episodes,
                        adapt=adapt, seed=seed, kappa_threshold=kappa_threshold,
                        patience=patience, update_config=update_config)
    return _sweep_cell(sigma, seed, result.episode_returns, normalizer,
                       result.update_invocations)


def _sweep_cell(sigma: float, seed: int, returns, normalizer: ScoreNormalizer,
                updates: int = 0) -> SweepCell:
    """The SweepCell of one (sigma, seed) cell's per-episode returns."""
    mean_return = float(np.mean(returns))
    return SweepCell(
        sigma=float(sigma), seed=int(seed),
        returns=tuple(float(r) for r in returns), mean_return=mean_return,
        score=normalized_score(mean_return, normalizer),
        stability=stability_metric(returns), updates=updates)


def _check_sweep(sigmas: tuple[float, ...], runs: int, episodes: int, jobs: int,
                 adapt: str, artifacts: OfflineArtifacts | None = None,
                 expert_demos: DemoSet | None = None,
                 thresholds: tuple[float, ...] = (), patience: int = PATIENCE) -> None:
    """Reject a sweep's arguments before any cell runs, any worker starts,
    or any training; an adaptive sweep's models and expert demos, and its
    patience gate at every one of its kappa thresholds."""
    if not sigmas:
        raise ConfigError("noise sweep needs at least one sigma")
    duplicates = sorted({s for s in sigmas if sigmas.count(s) > 1})
    if duplicates:
        # a repeated sigma would run its cells twice and report them as one row
        raise ConfigError(f"duplicate sigma {duplicates[0]!r} in noise sweep")
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    for sigma in sigmas:
        envs.check_sigma(sigma)
    if episodes < 2:
        raise ConfigError("episodes must be >= 2 so the stability metric is defined")
    if adapt not in ADAPT_MODES:
        raise ConfigError(f"adapt must be one of {ADAPT_MODES}, got {adapt!r}")
    if adapt != "off":
        check_models(artifacts, expert_demos, adapt)
        for threshold in thresholds:
            check_gate(threshold, patience)


def _chunks(cells: list, episodes: int, jobs: int) -> list[list]:
    """cells cut into consecutive chunks of near-equal size: as few as keep
    every chunk within LOCKSTEP_ROWS rows (a cell of more episodes is a
    chunk of its own), and at least one per worker, min(jobs, cells)."""
    per_chunk = max(1, LOCKSTEP_ROWS // episodes)
    count = max(-(-len(cells) // per_chunk), min(jobs, len(cells)))
    size, extra = divmod(len(cells), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [cells[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_sweep(task, tasks: list, jobs: int) -> list:
    """task(t) for every t in tasks, in order: a partial of score_policy on
    chunks of frozen-policy cells, or of evaluate_cell on adaptive cells.
    The task is a pure function of its argument, so running it in
    min(jobs, tasks) worker processes, never more processes than tasks,
    returns the same results in the same order as the serial loop."""
    workers = min(jobs, len(tasks))
    if workers == 1:
        return [task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, tasks))


# ----------------------------------------------------------------- reports


@dataclass(frozen=True)
class ReportRow:
    """The cells of one swept value. key holds the fields that name the row,
    in record order: sigma (noise sweep), threshold (grid) or label and
    sigma (tier ablation); each reads as an attribute, row.sigma say.
    std_score is the sample std of the scores, 0 for one seed."""

    key: dict
    seeds: tuple[int, ...]
    scores: tuple[float, ...]
    updates: tuple[int, ...]
    mean_score: float
    std_score: float
    mean_stability: float

    def __getattr__(self, name):
        key = self.__dict__.get("key", {})
        if name not in key:
            raise AttributeError(f"report row has no field {name!r}")
        return key[name]


def _report_row(key: dict, cells) -> ReportRow:
    scores = tuple(c.score for c in cells)
    return ReportRow(
        key=key, seeds=tuple(c.seed for c in cells), scores=scores,
        updates=tuple(c.updates for c in cells), mean_score=float(np.mean(scores)),
        std_score=float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0,
        mean_stability=float(np.mean([c.stability for c in cells])))


@dataclass(frozen=True)
class Report:
    """One result table of the paper: kind "sweep" (noise robustness),
    "grid" (threshold search) or "ablation" (supplementary tiers); the
    fields of its header record, in record order; its rows in swept order;
    and the cells its records list, a noise sweep's every cell."""

    kind: str
    header: dict
    rows: tuple[ReportRow, ...]
    cells: tuple[SweepCell, ...] = ()


def sweep_rows(report: Report) -> list[ReportRow]:
    return list(report.rows)


# ------------------------------------------------------------- noise sweep


def noise_sweep(artifacts: OfflineArtifacts, normalizer: ScoreNormalizer,
                sigmas=DEFAULT_SIGMAS, runs: int = DEFAULT_RUNS,
                adapt: str = "off", episodes: int | None = None,
                expert_demos: DemoSet | None = None, base_seed: int = 0,
                kappa_threshold: float = KAPPA_THRESHOLD,
                patience: int = PATIENCE, jobs: int = 1) -> Report:
    """Evaluate every (sigma, seed) cell, sigma-major; deterministic given the
    seed list, whatever the worker count. One row per sigma.

    adapt="off" plays whole cells together: consecutive chunks of them go
    through one score_policy call each, chunk after chunk at jobs=1, across
    min(jobs, chunks) workers otherwise. The adaptive modes run each cell as
    its own evaluate_cell. Every argument is checked before any cell runs."""
    sigmas = tuple(float(s) for s in sigmas)
    if episodes is None:
        episodes = SCORE_EPISODES if adapt == "off" else ADAPT_EPISODES
    _check_sweep(sigmas, runs, episodes, jobs, adapt, artifacts, expert_demos,
                 (kappa_threshold,), patience)
    seeds = tuple(range(base_seed, base_seed + runs))
    if adapt == "off":
        chunks = _run_sweep(partial(score_policy, artifacts, normalizer, episodes),
                            _chunks([(s, seed) for s in sigmas for seed in seeds],
                                    episodes, jobs), jobs)
        cells = [cell for chunk in chunks for cell in chunk]
    else:
        cells = _run_sweep(partial(evaluate_cell, artifacts, normalizer, expert_demos,
                                   episodes, adapt, patience, None),
                           [(s, seed, kappa_threshold) for s in sigmas for seed in seeds],
                           jobs)
    rows = [_report_row({"sigma": s}, cells[i * runs:(i + 1) * runs])
            for i, s in enumerate(sigmas)]
    return Report("sweep", {"env": artifacts.config.env_id, "adapt": adapt, "runs": runs,
                            "episodes": episodes, "ema_coefficient": EMA_COEFFICIENT},
                  tuple(rows), tuple(cells))


# --------------------------------------------------- threshold grid search


def grid_search_kth(artifacts: OfflineArtifacts, expert_demos: DemoSet,
                    normalizer: ScoreNormalizer, sigma: float,
                    candidates=KTH_CANDIDATES, runs: int = DEFAULT_RUNS,
                    episodes: int = SCORE_EPISODES, base_seed: int = 0,
                    patience: int = PATIENCE,
                    update_config: OnlineUpdateConfig | None = None,
                    jobs: int = 1) -> Report:
    """Score the adaptive runner at each trigger-threshold candidate, a row each.

    Candidate 0 never triggers (scores never fall below zero), so its row
    doubles as the adapt-off baseline. The argmax is reported as the
    header's best_threshold; ties resolve to the lowest candidate.
    """
    candidates = tuple(float(t) for t in candidates)
    if not candidates:
        raise ConfigError("grid search needs at least one candidate threshold")
    _check_sweep((sigma,), runs, episodes, jobs, "on", artifacts, expert_demos,
                 candidates, patience)
    seeds = tuple(range(base_seed, base_seed + runs))
    cells = _run_sweep(partial(evaluate_cell, artifacts, normalizer, expert_demos,
                               episodes, "on", patience, update_config),
                       [(sigma, seed, t) for t in candidates for seed in seeds], jobs)
    rows = [_report_row({"threshold": t}, cells[i * runs:(i + 1) * runs])
            for i, t in enumerate(candidates)]
    best = rows[int(np.argmax([r.mean_score for r in rows]))].threshold
    return Report("grid", {"env": artifacts.config.env_id, "sigma": float(sigma),
                           "episodes": episodes, "ema_coefficient": EMA_COEFFICIENT,
                           "best_threshold": best}, tuple(rows))


# ------------------------------------------------------------ tier ablation


def tier_ablation(base_config: OfflineConfig, mixes,
                  normalizer: ScoreNormalizer, sigmas=DEFAULT_SIGMAS,
                  runs: int = DEFAULT_RUNS, episodes: int = SCORE_EPISODES,
                  base_seed: int = 0, jobs: int = 1) -> Report:
    """Train one offline run per supplementary mix and sweep each policy;
    the rows of each mix's noise sweep, labelled, in mix order.

    mixes: ordered (label, supp_demos_path) pairs, narrowest coverage first.
    All runs share base_config apart from the supplementary path, so rows
    differ only in data coverage. The sweep arguments and every mix's demo
    file are checked before any training.
    """
    mixes = [(str(label), str(path)) for label, path in mixes]
    if not mixes:
        raise ConfigError("tier ablation needs at least one mix")
    labels = [label for label, _ in mixes]
    if len(set(labels)) != len(labels):
        raise ConfigError("mix labels must be unique")
    for label in labels:
        _check_label(label)
    _check_sweep(tuple(float(s) for s in sigmas), runs, episodes, jobs, "off")
    for _, supp_path in mixes:
        load_demo_file(supp_path, base_config.env_id)
    rows = []
    for label, supp_path in mixes:
        artifacts = run_offline(replace(base_config, supp_demos=supp_path))
        sweep = noise_sweep(artifacts, normalizer, sigmas=sigmas, runs=runs,
                            adapt="off", episodes=episodes, base_seed=base_seed,
                            jobs=jobs)
        rows += [replace(r, key={"label": label, **r.key}) for r in sweep.rows]
    return Report("ablation", {"env": base_config.env_id, "runs": runs,
                               "episodes": episodes, "ema_coefficient": EMA_COEFFICIENT},
                  tuple(rows))


# ------------------------------------------------------------ report files


def _score(row: ReportRow) -> str:
    return f"{row.mean_score:.2f} +/- {row.std_score:.2f}"


def _sweep_summary(report: Report) -> str:
    lines = [f"{'sigma':>8}  {'score':>18}  {'stability':>10}"]
    lines += [f"{r.sigma:>8.2f}  {_score(r):>18}  {r.mean_stability:>10.3f}"
              for r in report.rows]
    return "noise sweep: " + format_record(report.header) + "\n".join(lines) + "\n"


def _grid_summary(report: Report) -> str:
    h = report.header
    lines = [f"{'threshold':>10}  {'score':>18}  {'updates':>8}"]
    lines += [f"{r.threshold:>10.1f}  {_score(r):>18}  {sum(r.updates):>8}"
              + (" <- best" if r.threshold == h["best_threshold"] else "") for r in report.rows]
    title = format_record({"env": h["env"], "sigma": h["sigma"], "best": h["best_threshold"]})
    return "threshold grid: " + title + "\n".join(lines) + "\n"


def _ablation_summary(report: Report) -> str:
    labels = list(dict.fromkeys(r.label for r in report.rows))
    sigmas = [r.sigma for r in report.rows if r.label == labels[0]]
    lines = [f"{'mix':>10}  " + "  ".join(f"{('sigma=' + format(s, 'g')):>18}"
                                         for s in sigmas)]
    lines += [f"{label:>10}  " + "  ".join(f"{_score(r):>18}" for r in report.rows
                                           if r.label == label) for label in labels]
    title = format_record({k: report.header[k] for k in ("env", "runs", "episodes")})
    return "tier ablation: " + title + "\n".join(lines) + "\n"


# report kind -> (record kind of its rows, row fields written before mean and
# std, plot curve name of rows with no label, plain-text summary table)
_REPORT_KINDS = {
    "sweep": ("row", ("seeds",), "{env}_{adapt}", _sweep_summary),
    "grid": ("candidate", ("seeds", "scores", "updates"), "kth_{env}", _grid_summary),
    "ablation": ("mix", ("scores",), None, _ablation_summary),
}


def report_files(report: Report) -> dict[str, str]:
    """A report's records, plain-text summary and plot data, by file name."""
    return {"records.txt": report_records(report),
            "summary.txt": _REPORT_KINDS[report.kind][3](report),
            "plot.txt": report_plot(report)}


def report_records(report: Report) -> str:
    """Machine-readable records: the header, every listed cell (all its
    fields but the raw returns), then one record per row."""
    row_kind, row_fields, _, _ = _REPORT_KINDS[report.kind]
    cells = [{"kind": "cell", **{k: v for k, v in vars(c).items() if k != "returns"}}
             for c in report.cells]
    rows = [{"kind": row_kind, **r.key, **{f: getattr(r, f) for f in row_fields},
             "mean": r.mean_score, "std": r.std_score} for r in report.rows]
    return "".join(map(format_record, [{"kind": report.kind, **report.header},
                                       *cells, *rows]))


def report_plot(report: Report) -> str:
    """Plot data: one point per row, on the curve of its label or, for rows
    with no label, the report's one curve; x is the swept value."""
    curve = _REPORT_KINDS[report.kind][2]
    return plot_data((r.key.get("label") or curve.format(**report.header),
                      [(list(r.key.values())[-1], r.mean_score, r.std_score)])
                     for r in report.rows)


def plot_data(curves) -> str:
    """One record per point: curve label plus x, y, err columns."""
    lines = []
    for label, points in curves:
        _check_label(label)
        lines += [format_record({"curve": label, "x": float(x), "y": float(y),
                                 "err": float(err)}) for x, y, err in points]
    if not lines:
        raise ConfigError("plot data needs at least one point")
    return "".join(lines)


def _check_label(label: str) -> None:
    if not label or any(ch.isspace() or ch == "=" for ch in label):
        raise ConfigError(f"label {label!r} must be a single token without '='")
