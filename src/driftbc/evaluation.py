"""Normalized scoring, noise sweeps, threshold grid search, tier ablations.

Evaluation rolls the trained policy under observation noise and reports
normalized scores so results are comparable across environments. Sweep cells
are independent given their seed, so every aggregate is recomputable from the
raw per-cell records.
"""

from __future__ import annotations

import copy
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .demos import DemoSet, ReferenceReturns
from .errors import ConfigError
from .offline import OfflineArtifacts, OfflineConfig, load_demo_file, run_offline
from .online import (ADAPT_MODES, KAPPA_THRESHOLD, PATIENCE,
                     OnlineUpdateConfig, play_episodes, run_online)

# EMA smoothing coefficient for the stability metric; recorded in every
# report so the number can be recomputed from raw returns
EMA_COEFFICIENT = 0.1
DEFAULT_SIGMAS = (0.0, 0.05, 0.1, 0.2)
DEFAULT_RUNS = 10
SCORE_EPISODES = 20
ADAPT_EPISODES = 100
KTH_CANDIDATES = tuple(round(i / 10, 1) for i in range(11))


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


def score_policy(policy, env_id: str, sigma: float, episodes: int,
                 seed: int) -> np.ndarray:
    """Per-episode raw returns of the frozen policy under observation noise:
    an adapt-off online run, played by the same episode driver."""
    return play_episodes(lambda: policy, env_id, sigma, episodes, seed)


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


def _check_cell(sigma: float, episodes: int, adapt: str) -> None:
    if sigma < 0:
        raise ConfigError("sigma must be >= 0")
    if episodes < 2:
        raise ConfigError("episodes must be >= 2 so the stability metric is defined")
    if adapt not in ADAPT_MODES:
        raise ConfigError(f"adapt must be one of {ADAPT_MODES}, got {adapt!r}")


def evaluate_cell(artifacts: OfflineArtifacts, normalizer: ScoreNormalizer,
                  sigma: float, seed: int, episodes: int, adapt: str = "off",
                  expert_demos: DemoSet | None = None,
                  kappa_threshold: float = KAPPA_THRESHOLD,
                  patience: int = PATIENCE,
                  update_config: OnlineUpdateConfig | None = None) -> SweepCell:
    """Evaluate one seed at one noise level.

    adapt="off" rolls the frozen policy directly (works for artifacts without
    density models); the adaptive modes run on a deep copy so the caller's
    artifacts never mutate across cells.
    """
    _check_cell(sigma, episodes, adapt)
    if adapt == "off":
        returns = score_policy(artifacts.policy, artifacts.config.env_id,
                               sigma, episodes, seed)
        updates = 0
    else:
        if expert_demos is None:
            raise ConfigError("adaptive evaluation needs the expert demos for online updates")
        work = copy.deepcopy(artifacts)
        result = run_online(work, expert_demos, sigma, episodes, adapt=adapt,
                            seed=seed, kappa_threshold=kappa_threshold,
                            patience=patience, update_config=update_config)
        returns = result.episode_returns
        updates = result.update_invocations
    mean_return = float(np.mean(returns))
    return SweepCell(
        sigma=float(sigma), seed=int(seed),
        returns=tuple(float(r) for r in returns), mean_return=mean_return,
        score=normalized_score(mean_return, normalizer),
        stability=stability_metric(returns), updates=updates)


def _check_sweep(sigmas: tuple[float, ...], runs: int, episodes: int, jobs: int,
                 adapt: str) -> None:
    """Reject a sweep's arguments before any cell runs, or any training."""
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
        _check_cell(sigma, episodes, adapt)


def _cell_task(kwargs):
    return evaluate_cell(**kwargs)


def _run_sweep(key: str, values, seeds, jobs: int, **cell_args) -> list[SweepCell]:
    """evaluate_cell(**cell_args, key=value, seed=seed) for every (value, seed),
    value-major. Cells are pure functions of their arguments, so parallel
    execution returns the same values in the same order as the serial loop."""
    tasks = [dict(cell_args, **{key: value}, seed=seed)
             for value in values for seed in seeds]
    if jobs == 1 or len(tasks) < 2:
        return [evaluate_cell(**t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_cell_task, tasks))


def _row_stats(cells) -> dict:
    """The seeds, scores, mean_score and std_score (sample std, 0 for one
    seed) of the cells of one swept value."""
    scores = tuple(c.score for c in cells)
    return dict(seeds=tuple(c.seed for c in cells), scores=scores,
                mean_score=float(np.mean(scores)),
                std_score=float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0)


# ------------------------------------------------------------- noise sweep


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    seeds: tuple[int, ...]
    scores: tuple[float, ...]
    mean_score: float
    std_score: float
    mean_stability: float


@dataclass(frozen=True)
class SweepReport:
    env_id: str
    adapt: str
    sigmas: tuple[float, ...]
    seeds: tuple[int, ...]
    episodes: int
    cells: tuple[SweepCell, ...]


def noise_sweep(artifacts: OfflineArtifacts, normalizer: ScoreNormalizer,
                sigmas=DEFAULT_SIGMAS, runs: int = DEFAULT_RUNS,
                adapt: str = "off", episodes: int | None = None,
                expert_demos: DemoSet | None = None, base_seed: int = 0,
                kappa_threshold: float = KAPPA_THRESHOLD,
                patience: int = PATIENCE, jobs: int = 1) -> SweepReport:
    """Evaluate every (sigma, seed) cell; deterministic given the seed list,
    whatever the worker count."""
    sigmas = tuple(float(s) for s in sigmas)
    if episodes is None:
        episodes = SCORE_EPISODES if adapt == "off" else ADAPT_EPISODES
    _check_sweep(sigmas, runs, episodes, jobs, adapt)
    seeds = tuple(range(base_seed, base_seed + runs))
    cells = _run_sweep("sigma", sigmas, seeds, jobs, artifacts=artifacts,
                       normalizer=normalizer, episodes=episodes,
                       adapt=adapt, expert_demos=expert_demos,
                       kappa_threshold=kappa_threshold, patience=patience)
    return SweepReport(env_id=artifacts.config.env_id, adapt=adapt,
                       sigmas=sigmas, seeds=seeds, episodes=episodes,
                       cells=tuple(cells))


def sweep_rows(report: SweepReport) -> list[SweepRow]:
    rows = []
    for sigma in report.sigmas:
        cells = [c for c in report.cells if c.sigma == sigma]
        rows.append(SweepRow(
            sigma=sigma, mean_stability=float(np.mean([c.stability for c in cells])),
            **_row_stats(cells)))
    return rows


def sweep_records(report: SweepReport) -> str:
    """Newline-delimited machine-readable records: header, cells, rows."""
    lines = [
        f"kind=sweep env={report.env_id} adapt={report.adapt} "
        f"runs={len(report.seeds)} episodes={report.episodes} "
        f"ema_coefficient={EMA_COEFFICIENT!r}"
    ]
    for c in report.cells:
        lines.append(
            f"kind=cell sigma={c.sigma!r} seed={c.seed} "
            f"mean_return={c.mean_return!r} score={c.score!r} "
            f"stability={c.stability!r} updates={c.updates}")
    for r in sweep_rows(report):
        lines.append(
            f"kind=row sigma={r.sigma!r} seeds={','.join(str(s) for s in r.seeds)} "
            f"mean={r.mean_score!r} std={r.std_score!r}")
    return "\n".join(lines) + "\n"


def format_sweep_summary(report: SweepReport) -> str:
    """Plain-text summary table: one line per sigma, mean +/- sample std."""
    lines = [
        f"noise sweep: env={report.env_id} adapt={report.adapt} "
        f"runs={len(report.seeds)} episodes={report.episodes} "
        f"ema_coefficient={EMA_COEFFICIENT}",
        f"{'sigma':>8}  {'score':>18}  {'stability':>10}",
    ]
    for r in sweep_rows(report):
        score = f"{r.mean_score:.2f} +/- {r.std_score:.2f}"
        lines.append(f"{r.sigma:>8.2f}  {score:>18}  {r.mean_stability:>10.3f}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- plot data


def plot_data(curves) -> str:
    """One record per point: curve label plus x, y, err columns."""
    lines = []
    for label, points in curves:
        _check_label(label)
        for x, y, err in points:
            lines.append(f"curve={label} x={float(x)!r} y={float(y)!r} err={float(err)!r}")
    if not lines:
        raise ConfigError("plot data needs at least one point")
    return "\n".join(lines) + "\n"


def _check_label(label: str) -> None:
    if not label or any(ch.isspace() or ch == "=" for ch in label):
        raise ConfigError(f"label {label!r} must be a single token without '='")


def sweep_plot_data(report: SweepReport) -> str:
    points = [(r.sigma, r.mean_score, r.std_score) for r in sweep_rows(report)]
    return plot_data([(f"{report.env_id}_{report.adapt}", points)])


# --------------------------------------------------- threshold grid search


@dataclass(frozen=True)
class GridRow:
    threshold: float
    seeds: tuple[int, ...]
    scores: tuple[float, ...]
    updates: tuple[int, ...]
    mean_score: float
    std_score: float


@dataclass(frozen=True)
class GridReport:
    env_id: str
    sigma: float
    episodes: int
    rows: tuple[GridRow, ...]
    best_threshold: float


def grid_search_kth(artifacts: OfflineArtifacts, expert_demos: DemoSet,
                    normalizer: ScoreNormalizer, sigma: float,
                    candidates=KTH_CANDIDATES, runs: int = DEFAULT_RUNS,
                    episodes: int = SCORE_EPISODES, base_seed: int = 0,
                    patience: int = PATIENCE,
                    update_config: OnlineUpdateConfig | None = None,
                    jobs: int = 1) -> GridReport:
    """Score the adaptive runner at each trigger-threshold candidate.

    Candidate 0 never triggers (scores never fall below zero), so its row
    doubles as the adapt-off baseline. The argmax is reported; ties resolve
    to the lowest candidate.
    """
    candidates = tuple(float(t) for t in candidates)
    if not candidates:
        raise ConfigError("grid search needs at least one candidate threshold")
    for t in candidates:
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"threshold candidate {t!r} outside [0, 1]")
    _check_sweep((sigma,), runs, episodes, jobs, "on")
    seeds = tuple(range(base_seed, base_seed + runs))
    cells = _run_sweep("kappa_threshold", candidates, seeds, jobs,
                       artifacts=artifacts, normalizer=normalizer, sigma=sigma,
                       episodes=episodes, adapt="on", expert_demos=expert_demos,
                       patience=patience, update_config=update_config)
    rows = []
    for i, threshold in enumerate(candidates):
        group = cells[i * runs:(i + 1) * runs]
        rows.append(GridRow(threshold=threshold, updates=tuple(c.updates for c in group),
                            **_row_stats(group)))
    best = rows[int(np.argmax([r.mean_score for r in rows]))].threshold
    return GridReport(env_id=artifacts.config.env_id, sigma=float(sigma),
                      episodes=episodes, rows=tuple(rows), best_threshold=best)


def grid_records(report: GridReport) -> str:
    lines = [
        f"kind=grid env={report.env_id} sigma={report.sigma!r} "
        f"episodes={report.episodes} ema_coefficient={EMA_COEFFICIENT!r} "
        f"best_threshold={report.best_threshold!r}"
    ]
    for r in report.rows:
        lines.append(
            f"kind=candidate threshold={r.threshold!r} "
            f"seeds={','.join(str(s) for s in r.seeds)} "
            f"scores={','.join(repr(s) for s in r.scores)} "
            f"updates={','.join(str(u) for u in r.updates)} "
            f"mean={r.mean_score!r} std={r.std_score!r}")
    return "\n".join(lines) + "\n"


def format_grid_summary(report: GridReport) -> str:
    lines = [
        f"threshold grid: env={report.env_id} sigma={report.sigma} "
        f"best={report.best_threshold}",
        f"{'threshold':>10}  {'score':>18}  {'updates':>8}",
    ]
    for r in report.rows:
        score = f"{r.mean_score:.2f} +/- {r.std_score:.2f}"
        marker = " <- best" if r.threshold == report.best_threshold else ""
        lines.append(
            f"{r.threshold:>10.1f}  {score:>18}  {sum(r.updates):>8}{marker}")
    return "\n".join(lines) + "\n"


def grid_plot_data(report: GridReport) -> str:
    points = [(r.threshold, r.mean_score, r.std_score) for r in report.rows]
    return plot_data([(f"kth_{report.env_id}", points)])


# ------------------------------------------------------------ tier ablation


@dataclass(frozen=True)
class AblationRow:
    label: str
    sweep: SweepReport


@dataclass(frozen=True)
class AblationReport:
    """Rows in mix order; every row's sweep has the same sigmas, seeds and
    episodes."""

    env_id: str
    rows: tuple[AblationRow, ...]


def tier_ablation(base_config: OfflineConfig, mixes,
                  normalizer: ScoreNormalizer, sigmas=DEFAULT_SIGMAS,
                  runs: int = DEFAULT_RUNS, episodes: int = SCORE_EPISODES,
                  base_seed: int = 0, jobs: int = 1) -> AblationReport:
    """Train one offline run per supplementary mix and sweep each policy.

    mixes: ordered (label, supp_demos_path) pairs, narrowest coverage first;
    rows keep that order. All runs share base_config apart from the
    supplementary path, so rows differ only in data coverage. The sweep
    arguments and every mix's demo file are checked before any training.
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
        rows.append(AblationRow(label=label, sweep=sweep))
    return AblationReport(env_id=base_config.env_id, rows=tuple(rows))


def ablation_records(report: AblationReport) -> str:
    first = report.rows[0].sweep
    lines = [
        f"kind=ablation env={report.env_id} runs={len(first.seeds)} "
        f"episodes={first.episodes} ema_coefficient={EMA_COEFFICIENT!r}"
    ]
    for row in report.rows:
        for r in sweep_rows(row.sweep):
            lines.append(
                f"kind=mix label={row.label} sigma={r.sigma!r} "
                f"scores={','.join(repr(s) for s in r.scores)} "
                f"mean={r.mean_score!r} std={r.std_score!r}")
    return "\n".join(lines) + "\n"


def format_ablation_summary(report: AblationReport) -> str:
    first = report.rows[0].sweep
    lines = [
        f"tier ablation: env={report.env_id} runs={len(first.seeds)} "
        f"episodes={first.episodes}",
        f"{'mix':>10}  " + "  ".join(f"{('sigma=' + format(s, 'g')):>18}"
                                     for s in first.sigmas),
    ]
    for row in report.rows:
        cols = [f"{r.mean_score:.2f} +/- {r.std_score:.2f}"
                for r in sweep_rows(row.sweep)]
        lines.append(f"{row.label:>10}  " + "  ".join(f"{c:>18}" for c in cols))
    return "\n".join(lines) + "\n"


def ablation_plot_data(report: AblationReport) -> str:
    curves = []
    for row in report.rows:
        points = [(r.sigma, r.mean_score, r.std_score)
                  for r in sweep_rows(row.sweep)]
        curves.append((row.label, points))
    return plot_data(curves)
