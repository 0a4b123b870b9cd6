"""Tests for scoring, sweeps, grid search, and tier ablations."""

import copy
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbc import envs, evaluation
from driftbc.demos import (generate_tier, measure_reference_returns,
                           mix_supplementary, save_demoset,
                           save_reference_returns)
from driftbc.density import CovarianceFloorWarning
from driftbc.errors import ConfigError, DataError
from driftbc.evaluation import (ADAPT_EPISODES, DEFAULT_RUNS, DEFAULT_SIGMAS,
                                EMA_COEFFICIENT, KTH_CANDIDATES,
                                SCORE_EPISODES, ScoreNormalizer, SweepCell,
                                evaluate_cell, grid_search_kth, noise_sweep,
                                normalized_score, normalizer_from_reference,
                                plot_data, report_files, report_plot,
                                report_records, score_policy, stability_metric,
                                sweep_rows, tier_ablation)
from driftbc.numeric import named_generator
from driftbc.offline import OfflineConfig, run_offline
from driftbc.online import KAPPA_THRESHOLD, OnlineUpdateConfig, run_online
from driftbc.policy import init_policy, sample_action
from oracles import ema_deviation_oracle, play_episodes_oracle

ENV = "pointmass2d"


@pytest.fixture(scope="module")
def demo_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("evaldemos")
    spec = envs.make_spec(ENV)
    expert = generate_tier(spec, "expert", 10, seed=5)
    medium = generate_tier(spec, "medium", 20, seed=5)
    random_tier = generate_tier(spec, "random", 10, seed=5)
    paths = {
        "expert": root / "expert.demos",
        "medium": root / "supp_medium.demos",
        "rich": root / "supp_rich.demos",
    }
    save_demoset(paths["expert"], expert)
    save_demoset(paths["medium"], medium)
    save_demoset(paths["rich"], mix_supplementary([medium, random_tier]))
    return {k: str(v) for k, v in paths.items()}, expert


@pytest.fixture(scope="module")
def normalizer():
    ref = measure_reference_returns(envs.make_spec(ENV), episodes=20, seed=0)
    return normalizer_from_reference(ref)


@pytest.fixture(scope="module")
def trained(demo_paths):
    paths, _ = demo_paths
    config = OfflineConfig(
        env_id=ENV, expert_demos=paths["expert"], supp_demos=paths["medium"],
        seed=3, ref_steps=200, disc_steps=400, bc_steps=400, reg_cutoff=200)
    return run_offline(config)


@pytest.fixture(scope="module")
def plain(demo_paths):
    paths, _ = demo_paths
    config = OfflineConfig(
        env_id=ENV, expert_demos=paths["expert"], seed=3, ref_steps=200,
        disc_steps=400, bc_steps=200, reg_cutoff=200, plain_bc=True)
    return run_offline(config)


def small_update():
    return OnlineUpdateConfig(disc_steps=5, policy_steps=5)


# --------------------------------------------------------------- normalizer


class TestNormalizedScore:
    def test_from_reference_copies_fields(self):
        ref = measure_reference_returns(envs.make_spec(ENV), episodes=3, seed=1)
        norm = normalizer_from_reference(ref)
        assert norm.expert_return == ref.expert_return
        assert norm.random_return == ref.random_return

    def test_degenerate_references_rejected(self):
        with pytest.raises(ConfigError, match="degenerate"):
            ScoreNormalizer(expert_return=5.0, random_return=5.0)
        with pytest.raises(ConfigError, match="degenerate"):
            ScoreNormalizer(expert_return=-2.0, random_return=3.0)

    def test_nonfinite_references_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            ScoreNormalizer(expert_return=np.inf, random_return=0.0)

    def test_endpoints(self):
        norm = ScoreNormalizer(expert_return=10.0, random_return=-10.0)
        assert normalized_score(-10.0, norm) == 0.0
        assert normalized_score(10.0, norm) == 100.0
        assert normalized_score(0.0, norm) == 50.0

    def test_unbounded_both_sides(self):
        norm = ScoreNormalizer(expert_return=1.0, random_return=0.0)
        assert normalized_score(2.0, norm) > 100.0
        assert normalized_score(-1.0, norm) < 0.0

    @given(r=st.floats(-1e6, 1e6), k=st.integers(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_rescaling_is_bit_exact(self, r, k):
        # scaling by a power of two is exact in binary floating point, so
        # the affine-invariance contract can be checked for bit equality
        a = 2.0 ** k
        base = ScoreNormalizer(expert_return=10.0, random_return=-10.0)
        scaled = ScoreNormalizer(expert_return=10.0 * a, random_return=-10.0 * a)
        assert normalized_score(r * a, scaled) == normalized_score(r, base)

    @given(r=st.floats(-100.0, 100.0), a=st.floats(0.01, 100.0),
           b=st.floats(-1e3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_general_affine_invariance(self, r, a, b):
        base = ScoreNormalizer(expert_return=10.0, random_return=-10.0)
        moved = ScoreNormalizer(expert_return=10.0 * a + b,
                                random_return=-10.0 * a + b)
        assert math.isclose(normalized_score(r * a + b, moved),
                            normalized_score(r, base),
                            rel_tol=1e-9, abs_tol=1e-6)


# ---------------------------------------------------------------- stability


class TestStabilityMetric:
    def test_constant_sequence_is_exactly_zero(self):
        assert stability_metric([3.5] * 10) == 0.0

    def test_alternating_matches_brute_force_oracle(self):
        returns = [1.0, -1.0] * 5
        assert stability_metric(returns, ema_coefficient=0.5) == \
            ema_deviation_oracle(returns, 0.5)

    def test_matches_oracle_on_random_sequences(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            returns = rng.standard_normal(rng.integers(2, 30))
            for coef in (0.1, 0.5, 0.9):
                assert stability_metric(returns, coef) == \
                    pytest.approx(ema_deviation_oracle(returns, coef), rel=1e-12)

    def test_noisier_sequence_scores_higher(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal(200)
        low = stability_metric(base * 1.0)
        high = stability_metric(base * 5.0)
        assert high > low
        assert high == pytest.approx(5.0 * low, rel=1e-12)

    def test_short_sequence_rejected(self):
        with pytest.raises(ConfigError, match="at least two"):
            stability_metric([1.0])

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError, match="at least two"):
            stability_metric(np.zeros((3, 2)))

    def test_bad_coefficient_rejected(self):
        with pytest.raises(ConfigError, match="ema_coefficient"):
            stability_metric([1.0, 2.0], ema_coefficient=0.0)
        with pytest.raises(ConfigError, match="ema_coefficient"):
            stability_metric([1.0, 2.0], ema_coefficient=1.5)

    def test_nonfinite_returns_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            stability_metric([1.0, np.nan])

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_zero_iff_constant(self, values):
        value = stability_metric([float(v) for v in values])
        assert value >= 0.0
        if len(set(values)) == 1:
            assert value == 0.0
        else:
            assert value > 0.0


# ------------------------------------------------------------ score_policy


class TestScorePolicy:
    def test_matches_adapt_off_online_run_bit_exactly(self, trained, normalizer,
                                                      demo_paths):
        _, expert = demo_paths
        [cell] = score_policy(trained, normalizer, 3, [(0.1, 7)])
        result = run_online(trained, expert, sigma=0.1, episodes=3,
                            adapt="off", seed=7)
        assert np.array(cell.returns).tobytes() == result.episode_returns.tobytes()

    def test_returns_are_a_step_by_step_sum(self, trained, normalizer):
        # a loop of its own over the online_ep{ep}_* streams, summing with +=
        # as the online runner and the benchmark's replay do
        spec = envs.make_spec(ENV)
        expected = []
        for ep in range(3):
            env_rng = named_generator(7, f"online_ep{ep}_env")
            obs_rng = named_generator(7, f"online_ep{ep}_obs")
            act_rng = named_generator(7, f"online_ep{ep}_act")
            state = envs.reset(spec, env_rng)
            total = 0.0
            for _ in range(spec.horizon):
                obs = envs.observe(state, obs_rng.standard_normal(spec.state_dim) * 0.1)
                action = sample_action(trained.policy, obs,
                                       act_rng.standard_normal(spec.action_dim))
                state, reward, done = envs.step(spec, state, action)
                total += reward
                if done:
                    break
            expected.append(total)
        [cell] = score_policy(trained, normalizer, 3, [(0.1, 7)])
        assert np.array(cell.returns).tobytes() == np.array(expected).tobytes()

    def test_deterministic(self, trained, normalizer):
        a = score_policy(trained, normalizer, 2, [(0.05, 4)])
        b = score_policy(trained, normalizer, 2, [(0.05, 4)])
        assert a == b

    def test_seed_changes_returns(self, trained, normalizer):
        a, b = score_policy(trained, normalizer, 2, [(0.05, 4), (0.05, 5)])
        assert a.returns != b.returns

    @pytest.mark.parametrize("bad", [-0.1, -1e-12, math.nan, math.inf])
    def test_bad_sigma_in_any_cell_is_refused_before_any_reset(self, trained, normalizer,
                                                              monkeypatch, bad):
        """A negative sigma used to flip the observation noise's sign and
        score the cell without a word."""
        def no_reset(*args):
            raise AssertionError("an episode was reset")

        monkeypatch.setattr(envs, "reset", no_reset)
        with pytest.raises(ConfigError, match="sigma must be finite and >= 0"):
            score_policy(trained, normalizer, 2, [(0.1, 0), (bad, 1)])

    @pytest.mark.parametrize("cells", [[], ()])
    def test_no_cells_is_refused_before_any_loop(self, trained, normalizer, monkeypatch,
                                                 cells):
        """An empty cell list used to fail with an untyped ValueError from
        unpacking the empty episode list."""
        def no_loop(*args):
            raise AssertionError("a lock-step loop was started")

        monkeypatch.setattr(envs, "run_lockstep", no_loop)
        with pytest.raises(ConfigError, match="at least one"):
            score_policy(trained, normalizer, 3, cells)

    def test_works_without_density_models(self, plain, normalizer):
        cells = score_policy(plain, normalizer, 2, [(0.0, 0), (0.1, 0)])
        assert [(c.sigma, c.seed, c.updates, len(c.returns)) for c in cells] == \
            [(0.0, 0, 0, 2), (0.1, 0, 0, 2)]


# ------------------------------------------------------------ cell contract


def adaptive(artifacts, normalizer, expert, episodes=2, adapt="always",
             cell=(0.2, 0, KAPPA_THRESHOLD)):
    """evaluate_cell with the arguments these tests do not vary filled in."""
    return evaluate_cell(artifacts, normalizer, expert, episodes, adapt, 50,
                         small_update(), cell)


class TestEvaluateCell:
    def test_score_and_stability_consistent_with_raw_returns(self, trained, normalizer,
                                                             demo_paths):
        _, expert = demo_paths
        cells = score_policy(trained, normalizer, 3, [(0.1, 2)]) + \
            [adaptive(trained, normalizer, expert, 3, cell=(0.1, 2, 0.6))]
        for cell in cells:
            assert cell.mean_return == pytest.approx(np.mean(cell.returns))
            assert cell.score == normalized_score(cell.mean_return, normalizer)
            assert cell.stability == stability_metric(cell.returns)
        assert cells[1].updates > 0

    def test_adaptive_cell_requires_expert_demos(self, trained, normalizer,
                                                 pool_sizes, monkeypatch):
        """The sweep refuses an adaptive run without demos before any cell
        runs or any worker pool starts."""
        def no_cell(*args, **kwargs):
            raise AssertionError("run_online called before the sweep was checked")

        monkeypatch.setattr(evaluation, "run_online", no_cell)
        with pytest.raises(ConfigError, match="expert demos"):
            noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2, episodes=2,
                        adapt="on", jobs=2)
        with pytest.raises(ConfigError, match="expert demos"):
            grid_search_kth(trained, None, normalizer, 0.1, candidates=(0.0, 0.5),
                            runs=2, episodes=2, jobs=2)
        assert pool_sizes == []

    def test_validation(self, trained, normalizer, demo_paths):
        _, expert = demo_paths
        for adapt in ("off", "on"):
            with pytest.raises(ConfigError, match="sigma"):
                noise_sweep(trained, normalizer, sigmas=(-0.1,), runs=1, episodes=2,
                            adapt=adapt, expert_demos=expert)
            with pytest.raises(ConfigError, match="episodes"):
                noise_sweep(trained, normalizer, sigmas=(0.1,), runs=1, episodes=1,
                            adapt=adapt, expert_demos=expert)
        with pytest.raises(ConfigError, match="adapt"):
            noise_sweep(trained, normalizer, sigmas=(0.1,), runs=1, episodes=2,
                        adapt="sometimes", expert_demos=expert)
        # a cell called on its own still refuses what run_online refuses
        with pytest.raises(ConfigError, match="sigma"):
            adaptive(trained, normalizer, expert, cell=(-0.1, 0, 0.6))
        with pytest.raises(ConfigError, match="adapt"):
            adaptive(trained, normalizer, expert, adapt="sometimes")

    def test_bad_gate_is_refused_before_any_cell(self, trained, normalizer,
                                                 demo_paths, monkeypatch):
        """Each of these used to start one evaluate_cell before failing."""
        _, expert = demo_paths

        def no_cell(*args):
            raise AssertionError("evaluate_cell ran before the sweep was checked")

        monkeypatch.setattr(evaluation, "evaluate_cell", no_cell)
        for adapt in ("on", "always"):
            with pytest.raises(ConfigError, match="patience"):
                noise_sweep(trained, normalizer, sigmas=(0.1,), runs=1, episodes=2,
                            adapt=adapt, expert_demos=expert, patience=0)
            with pytest.raises(ConfigError, match="kappa_threshold"):
                noise_sweep(trained, normalizer, sigmas=(0.1,), runs=1, episodes=2,
                            adapt=adapt, expert_demos=expert, kappa_threshold=1.5)
        with pytest.raises(ConfigError, match="patience"):
            grid_search_kth(trained, expert, normalizer, 0.1, candidates=(0.0, 0.5),
                            runs=1, episodes=2, patience=0)

    @pytest.mark.parametrize("missing", ["discriminator", "gmm_expert", "gmm_supp"])
    def test_models_that_cannot_adapt_are_refused_before_any_cell(
            self, trained, normalizer, demo_paths, pool_sizes, monkeypatch, missing):
        """An adaptive sweep or grid without the discriminator or a GMM used
        to run one evaluate_cell before its ConfigError, with the worker pool
        already started at jobs > 1."""
        _, expert = demo_paths

        def no_cell(*args):
            raise AssertionError("evaluate_cell ran before the sweep was checked")

        monkeypatch.setattr(evaluation, "evaluate_cell", no_cell)
        artifacts = replace(trained, **{missing: None})
        match = "discriminator" if missing == "discriminator" else "state-density"
        for jobs in (1, 2):
            with pytest.raises(ConfigError, match=match):
                noise_sweep(artifacts, normalizer, sigmas=(0.0, 0.1), runs=2, episodes=2,
                            adapt="on", expert_demos=expert, jobs=jobs)
            with pytest.raises(ConfigError, match=match):
                grid_search_kth(artifacts, expert, normalizer, 0.1, candidates=(0.0, 0.5),
                                runs=2, episodes=2, jobs=jobs)
        assert pool_sizes == []

    def test_adaptive_cell_never_mutates_caller_artifacts(self, trained,
                                                          normalizer, demo_paths):
        _, expert = demo_paths
        before = (trained.policy.mean_net.weights[0].tobytes(),
                  trained.discriminator.net.weights[0].tobytes())
        cell = adaptive(trained, normalizer, expert)
        after = (trained.policy.mean_net.weights[0].tobytes(),
                 trained.discriminator.net.weights[0].tobytes())
        assert cell.updates > 0
        assert before == after


# ------------------------------------------------------------- noise sweep


class TestNoiseSweep:
    def test_defaults_match_reporting_contract(self):
        assert DEFAULT_SIGMAS == (0.0, 0.05, 0.1, 0.2)
        assert DEFAULT_RUNS == 10
        assert SCORE_EPISODES == 20
        assert ADAPT_EPISODES == 100
        assert EMA_COEFFICIENT == 0.1
        assert KTH_CANDIDATES == tuple(round(i / 10, 1) for i in range(11))

    def test_report_shape_and_aggregates(self, trained, normalizer):
        report = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                             episodes=2)
        assert report.kind == "sweep"
        assert report.header["env"] == ENV
        assert report.header["adapt"] == "off"
        assert report.header["runs"] == 2
        assert [c.seed for c in report.cells] == [0, 1, 0, 1]
        assert report_records(report).splitlines()[0].endswith(
            f" ema_coefficient={EMA_COEFFICIENT!r}")
        assert len(report.cells) == 4
        rows = sweep_rows(report)
        assert [r.sigma for r in rows] == [0.0, 0.1]
        for row in rows:
            assert row.seeds == (0, 1)
            assert row.mean_score == pytest.approx(np.mean(row.scores))
            assert row.std_score == pytest.approx(np.std(row.scores, ddof=1))

    def test_sweep_is_bit_deterministic(self, trained, normalizer):
        a = noise_sweep(trained, normalizer, sigmas=(0.05,), runs=2, episodes=2)
        b = noise_sweep(trained, normalizer, sigmas=(0.05,), runs=2, episodes=2)
        assert report_records(a) == report_records(b)
        assert all(x.returns == y.returns for x, y in zip(a.cells, b.cells))

    def test_parallel_workers_match_serial_bitwise(self, trained, normalizer):
        serial = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                             episodes=2, jobs=1)
        parallel = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                               episodes=2, jobs=2)
        assert report_records(serial) == report_records(parallel)
        assert all(a.returns == b.returns
                   for a, b in zip(serial.cells, parallel.cells))

    def test_duplicate_sigmas_rejected(self, trained, normalizer):
        with pytest.raises(ConfigError, match="duplicate sigma 0.1"):
            noise_sweep(trained, normalizer, sigmas=(0.1, 0.0, 0.1), runs=2,
                        episodes=2)

    def test_bad_jobs_rejected(self, trained, normalizer):
        with pytest.raises(ConfigError, match="jobs"):
            noise_sweep(trained, normalizer, sigmas=(0.0,), runs=2, episodes=2,
                        jobs=0)

    def test_base_seed_shifts_seed_list(self, trained, normalizer):
        report = noise_sweep(trained, normalizer, sigmas=(0.0,), runs=3,
                             episodes=2, base_seed=10)
        assert [c.seed for c in report.cells] == [10, 11, 12]
        assert sweep_rows(report)[0].seeds == (10, 11, 12)

    def test_validation(self, trained, normalizer):
        with pytest.raises(ConfigError, match="sigma"):
            noise_sweep(trained, normalizer, sigmas=(), runs=2, episodes=2)
        with pytest.raises(ConfigError, match="runs"):
            noise_sweep(trained, normalizer, sigmas=(0.0,), runs=0, episodes=2)

    def test_records_are_parseable_lines(self, trained, normalizer):
        report = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                             episodes=2)
        lines = report_records(report).splitlines()
        assert lines[0].startswith("kind=sweep ")
        assert "ema_coefficient=0.1" in lines[0]
        assert sum(1 for l in lines if l.startswith("kind=cell ")) == 4
        assert sum(1 for l in lines if l.startswith("kind=row ")) == 2
        for line in lines:
            for token in line.split():
                assert "=" in token

    def test_cell_records_recompute_to_row_aggregates(self, trained, normalizer):
        report = noise_sweep(trained, normalizer, sigmas=(0.1,), runs=3,
                             episodes=2)
        lines = report_records(report).splitlines()
        scores = [float(l.split("score=")[1].split()[0])
                  for l in lines if l.startswith("kind=cell ")]
        row_line = next(l for l in lines if l.startswith("kind=row "))
        assert float(row_line.split("mean=")[1].split()[0]) == \
            pytest.approx(np.mean(scores))

    def test_summary_table_format(self, trained, normalizer):
        report = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                             episodes=2)
        text = report_files(report)["summary.txt"]
        assert "ema_coefficient=0.1" in text
        assert "+/-" in text
        assert len(text.splitlines()) == 4

    def test_plot_data_format(self, trained, normalizer):
        report = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                             episodes=2)
        lines = report_plot(report).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"curve={ENV}_off x=0.0 y=")
        assert " err=" in lines[0]

    def test_plot_data_rejects_bad_labels(self):
        with pytest.raises(ConfigError, match="label"):
            plot_data([("two words", [(0.0, 1.0, 0.1)])])
        with pytest.raises(ConfigError, match="at least one point"):
            plot_data([])


# ------------------------------------------------ the sweep-wide lock-step loop


def oracle_cell(sigma, seed, returns, normalizer, updates=0):
    """A SweepCell assembled from one cell's per-episode returns."""
    mean_return = float(np.mean(returns))
    return SweepCell(sigma=sigma, seed=seed, returns=tuple(float(r) for r in returns),
                     mean_return=mean_return,
                     score=normalized_score(mean_return, normalizer),
                     stability=stability_metric(returns), updates=updates)


def cell_by_cell(artifacts, normalizer, sigmas, runs, episodes):
    """The oracle of a frozen-policy sweep: each (sigma, seed) cell in turn
    through play_episodes_oracle, a per-step loop that shares no code with
    the lock-step loop."""
    env_id = artifacts.config.env_id
    return tuple(oracle_cell(s, seed, play_episodes_oracle(
        lambda: artifacts.policy, env_id, s, episodes, seed), normalizer)
        for s in sigmas for seed in range(runs))


def online_cell_by_cell(artifacts, expert, normalizer, cells, episodes, adapt,
                        patience, update_config=None):
    """The oracle of an adaptive sweep: run_online on a deep copy of the
    artifacts for each (sigma, seed, kappa_threshold) cell in turn."""
    out = []
    for sigma, seed, kth in cells:
        result = run_online(copy.deepcopy(artifacts), expert, sigma, episodes,
                            adapt=adapt, seed=seed, kappa_threshold=kth,
                            patience=patience, update_config=update_config)
        out.append(oracle_cell(sigma, seed, result.episode_returns, normalizer,
                               result.update_invocations))
    return tuple(out)


def pendulum_artifacts():
    """What an adapt-off sweep reads of artifacts, for a pendulum policy."""
    spec = envs.make_spec("pendulum1")
    policy = init_policy(3, 1, spec.action_low, spec.action_high,
                         rng=np.random.default_rng(11), init_log_std=-1.0)
    return SimpleNamespace(policy=policy, config=SimpleNamespace(env_id="pendulum1"))


@pytest.fixture
def pool_sizes(monkeypatch):
    """ProcessPoolExecutor replaced by a pool that runs the tasks in this
    process; returns the worker count each pool was asked for."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InProcessPool)
    return sizes


class TestSweepLoop:
    @pytest.mark.parametrize("env_id", ["pointmass2d", "pendulum1"])
    def test_adapt_off_sweep_matches_cell_by_cell(self, trained, normalizer, env_id):
        artifacts = trained if env_id == ENV else pendulum_artifacts()
        sigmas = (0.1, 0.0, 0.2, 0.05)
        report = noise_sweep(artifacts, normalizer, sigmas=sigmas, runs=3, episodes=6)
        assert report.cells == cell_by_cell(artifacts, normalizer, sigmas, 3, 6)

    def test_chunks_stay_within_the_row_cap(self, trained, normalizer, monkeypatch):
        """With a cap of 10 rows, six 4-episode cells run as three loops of
        two cells, one boundary falling inside sigma 0's seeds; no step_rows
        call sees more than 10 rows, and every cell keeps its bits."""
        want = cell_by_cell(trained, normalizer, (0.0, 0.1), 3, 4)
        loops, rows = [], []
        run_lockstep, step_rows = envs.run_lockstep, envs.step_rows

        def blocks(episodes):
            return [(obs.tobytes(), act.tobytes()) for _, obs, act in episodes]

        def counted_loop(spec, act_rows, episodes):
            loops.append(blocks(episodes))
            return run_lockstep(spec, act_rows, episodes)

        def counted_step(spec, states, actions):
            rows.append(len(states))
            return step_rows(spec, states, actions)

        monkeypatch.setattr(evaluation, "LOCKSTEP_ROWS", 10)
        monkeypatch.setattr(envs, "run_lockstep", counted_loop)
        monkeypatch.setattr(envs, "step_rows", counted_step)
        report = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=3, episodes=4)
        assert report.cells == want
        spec = envs.make_spec(ENV)
        assert loops == [blocks(envs.episode_noise(spec, seed, ep, sigma)
                                for sigma, seed in chunk for ep in range(4))
                         for chunk in ([(0.0, 0), (0.0, 1)], [(0.0, 2), (0.1, 0)],
                                       [(0.1, 1), (0.1, 2)])]
        assert max(rows) == 8

    @pytest.mark.parametrize("jobs,chunks", [(1, 1), (2, 2), (3, 3), (64, 20)])
    def test_jobs_spread_whole_cells_over_at_most_one_worker_each(
            self, trained, normalizer, pool_sizes, jobs, chunks):
        """20 cells of 2 episodes fit one loop; jobs > 1 cuts them into at
        least min(jobs, cells) chunks, one per worker."""
        loops = []
        run_lockstep = envs.run_lockstep

        def counted_loop(spec, act_rows, episodes):
            loops.append(len(episodes) // 2)
            return run_lockstep(spec, act_rows, episodes)

        serial = noise_sweep(trained, normalizer, runs=5, episodes=2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(envs, "run_lockstep", counted_loop)
            report = noise_sweep(trained, normalizer, runs=5, episodes=2, jobs=jobs)
        assert report_records(report) == report_records(serial)
        assert len(loops) == chunks and sum(loops) == 20
        assert max(loops) - min(loops) <= 1
        assert pool_sizes == ([] if jobs == 1 else [chunks])

    @pytest.mark.parametrize("adapt", ["on", "always"])
    def test_adaptive_sweep_matches_online_runs_cell_by_cell(self, trained, normalizer,
                                                             demo_paths, adapt):
        _, expert = demo_paths
        report = noise_sweep(trained, normalizer, sigmas=(0.2, 0.0), runs=2, episodes=2,
                             adapt=adapt, expert_demos=expert, base_seed=3,
                             kappa_threshold=0.6, patience=40)
        want = online_cell_by_cell(trained, expert, normalizer,
                                   [(s, seed, 0.6) for s in (0.2, 0.0) for seed in (3, 4)],
                                   2, adapt, 40)
        assert report.cells == want
        assert sum(c.updates for c in report.cells) > 0

    def test_grid_matches_online_runs_cell_by_cell(self, trained, normalizer, demo_paths):
        _, expert = demo_paths
        candidates = (0.0, 0.6, 1.0)
        report = grid_search_kth(trained, expert, normalizer, sigma=0.2,
                                 candidates=candidates, runs=2, episodes=2, patience=3,
                                 update_config=small_update())
        want = online_cell_by_cell(trained, expert, normalizer,
                                   [(0.2, seed, t) for t in candidates for seed in (0, 1)],
                                   2, "on", 3, small_update())
        for i, row in enumerate(report.rows):
            group = want[2 * i:2 * i + 2]
            assert row.scores == tuple(c.score for c in group)
            assert row.updates == tuple(c.updates for c in group)
        assert sum(report.rows[-1].updates) > 0

    def test_worker_pool_is_no_larger_than_the_tasks(self, trained, normalizer,
                                                     demo_paths, pool_sizes):
        """--jobs 64 on two cells asks for two workers, adaptive or not, and
        a one-cell sweep runs in this process."""
        _, expert = demo_paths
        noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=1, episodes=2, jobs=64)
        noise_sweep(trained, normalizer, sigmas=(0.1,), runs=2, episodes=2, adapt="on",
                    expert_demos=expert, jobs=64)
        grid_search_kth(trained, expert, normalizer, sigma=0.1, candidates=(0.0,),
                        runs=2, episodes=2, jobs=64)
        noise_sweep(trained, normalizer, sigmas=(0.1,), runs=1, episodes=2, jobs=64)
        assert pool_sizes == [2, 2, 2]

    def test_each_task_runs_through_its_module_attribute(self, trained, normalizer,
                                                         demo_paths, pool_sizes,
                                                         monkeypatch):
        """A tracer that swaps evaluation.score_policy and evaluate_cell for
        wrappers sees one score_policy call per chunk of an adapt-off sweep
        and one evaluate_cell call per adaptive or grid cell."""
        _, expert = demo_paths
        calls = {"score_policy": 0, "evaluate_cell": 0}

        def counted(name):
            fn = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(evaluation, name, wrapper)

        counted("score_policy")
        counted("evaluate_cell")
        monkeypatch.setattr(evaluation, "LOCKSTEP_ROWS", 10)
        noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=3, episodes=4)
        assert calls == {"score_policy": 3, "evaluate_cell": 0}
        noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=3, episodes=2, jobs=2)
        assert calls == {"score_policy": 5, "evaluate_cell": 0}
        for adapt in ("on", "always"):
            noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2, episodes=2,
                        adapt=adapt, expert_demos=expert, patience=201)
        grid_search_kth(trained, expert, normalizer, sigma=0.1, candidates=(0.0, 0.5),
                        runs=3, episodes=2, patience=201, update_config=small_update(),
                        jobs=2)
        assert calls == {"score_policy": 5, "evaluate_cell": 4 + 4 + 6}
        assert pool_sizes == [2, 2]


# ------------------------------------------------------------- grid search


class TestGridSearch:
    def test_zero_threshold_equals_adapt_off_bit_exactly(self, trained,
                                                         normalizer, demo_paths):
        _, expert = demo_paths
        report = grid_search_kth(trained, expert, normalizer, sigma=0.1,
                                 candidates=(0.0,), runs=2, episodes=2,
                                 update_config=small_update())
        row = report.rows[0]
        assert row.updates == (0, 0)
        off = noise_sweep(trained, normalizer, sigmas=(0.1,), runs=2, episodes=2)
        assert row.scores == tuple(c.score for c in off.cells)

    def test_full_candidate_list_emits_eleven_rows(self, trained, normalizer,
                                                   demo_paths):
        _, expert = demo_paths
        # patience > horizon so no candidate triggers; keeps the grid cheap
        report = grid_search_kth(trained, expert, normalizer, sigma=0.0,
                                 candidates=KTH_CANDIDATES, runs=1, episodes=2,
                                 patience=201, update_config=small_update())
        assert len(report.rows) == 11
        assert [r.threshold for r in report.rows] == list(KTH_CANDIDATES)
        means = [r.mean_score for r in report.rows]
        assert report.header["best_threshold"] == \
            report.rows[int(np.argmax(means))].threshold

    def test_high_threshold_triggers_more_than_low(self, trained, normalizer,
                                                   demo_paths):
        _, expert = demo_paths
        report = grid_search_kth(trained, expert, normalizer, sigma=0.2,
                                 candidates=(0.0, 1.0), runs=1, episodes=2,
                                 patience=3, update_config=small_update())
        low, high = report.rows
        assert sum(low.updates) == 0
        assert sum(high.updates) > 0

    def test_validation(self, trained, normalizer, demo_paths):
        _, expert = demo_paths
        with pytest.raises(ConfigError, match="candidate"):
            grid_search_kth(trained, expert, normalizer, 0.1, candidates=(),
                            runs=1, episodes=2)
        with pytest.raises(ConfigError, match="outside"):
            grid_search_kth(trained, expert, normalizer, 0.1,
                            candidates=(1.5,), runs=1, episodes=2)

    def test_records_and_summary_and_plot(self, trained, normalizer, demo_paths):
        _, expert = demo_paths
        report = grid_search_kth(trained, expert, normalizer, sigma=0.0,
                                 candidates=(0.0, 0.5), runs=2, episodes=2,
                                 patience=201, update_config=small_update())
        rec = report_records(report).splitlines()
        assert rec[0].startswith("kind=grid ")
        assert "best_threshold=" in rec[0]
        assert sum(1 for l in rec if l.startswith("kind=candidate ")) == 2
        assert "seeds=0,1" in rec[1]
        summary = report_files(report)["summary.txt"]
        assert "<- best" in summary
        plot = report_plot(report).splitlines()
        assert len(plot) == 2
        assert plot[0].startswith(f"curve=kth_{ENV} x=0.0 ")


# ------------------------------------------------------------ tier ablation


@pytest.fixture(scope="module")
def ablation_report(demo_paths, normalizer):
    paths, _ = demo_paths
    base = OfflineConfig(
        env_id=ENV, expert_demos=paths["expert"], supp_demos=paths["medium"],
        seed=3, ref_steps=60, disc_steps=80, bc_steps=80, reg_cutoff=40)
    mixes = [("me", paths["medium"]), ("memr", paths["rich"])]
    # tiny-budget GMM fits legitimately hit the variance floor on the
    # random-heavy mix; the warning is the intended signal, not a failure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CovarianceFloorWarning)
        return tier_ablation(base, mixes, normalizer, sigmas=(0.0, 0.1),
                             runs=2, episodes=2)


class TestTierAblation:
    @pytest.fixture
    def report(self, ablation_report):
        return ablation_report

    def test_two_mixes_match_cell_by_cell_at_any_worker_count(self, demo_paths,
                                                              normalizer, monkeypatch):
        """Each mix's noise sweep matches its cells one by one at jobs 1 and
        3, and the report's rows of that mix are the sweep's rows, labelled."""
        sweeps = []

        def recorded_sweep(*args, **kwargs):
            sweeps.append(noise_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(evaluation, "noise_sweep", recorded_sweep)
        paths, _ = demo_paths
        base = OfflineConfig(
            env_id=ENV, expert_demos=paths["expert"], supp_demos=paths["medium"],
            seed=3, ref_steps=60, disc_steps=80, bc_steps=80, reg_cutoff=40)
        mixes = [("me", paths["medium"]), ("memr", paths["rich"])]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CovarianceFloorWarning)
            reports = [tier_ablation(base, mixes, normalizer, sigmas=(0.1, 0.0), runs=3,
                                     episodes=3, jobs=jobs) for jobs in (1, 3)]
            trained_mixes = [run_offline(replace(base, supp_demos=path)) for _, path in mixes]
        assert report_records(reports[0]) == report_records(reports[1])
        assert len(sweeps) == 4
        for i, ((label, _), artifacts) in enumerate(zip(mixes, trained_mixes)):
            want = cell_by_cell(artifacts, normalizer, (0.1, 0.0), 3, 3)
            for j, report in enumerate(reports):
                assert sweeps[2 * j + i].cells == tuple(want)
                assert [(r.label, r.sigma, r.seeds, r.scores)
                        for r in report.rows[2 * i:2 * i + 2]] == \
                    [(label, s, (0, 1, 2), tuple(c.score for c in want if c.sigma == s))
                     for s in (0.1, 0.0)]

    def test_rows_keep_mix_order_and_shape(self, report):
        assert report.kind == "ablation" and report.cells == ()
        assert [(r.label, r.sigma) for r in report.rows] == \
            [("me", 0.0), ("me", 0.1), ("memr", 0.0), ("memr", 0.1)]
        for row in report.rows:
            assert row.seeds == (0, 1)
            assert len(row.scores) == 2
        assert f"runs=2 episodes=2 ema_coefficient={EMA_COEFFICIENT!r}" in \
            report_records(report)

    def test_records_and_summary_and_plot(self, report):
        rec = report_records(report).splitlines()
        assert rec[0].startswith("kind=ablation ")
        assert sum(1 for l in rec if l.startswith("kind=mix label=me ")) == 2
        assert sum(1 for l in rec if l.startswith("kind=mix label=memr ")) == 2
        summary = report_files(report)["summary.txt"]
        assert "me" in summary and "memr" in summary
        plot = report_plot(report).splitlines()
        assert len(plot) == 4
        assert plot[0].startswith("curve=me x=0.0 ")
        assert plot[2].startswith("curve=memr x=0.0 ")

    @pytest.mark.parametrize("sweep, match", [
        (dict(sigmas=(0.1, 0.0, 0.1)), "duplicate sigma"),
        (dict(runs=0), "runs"), (dict(jobs=0), "jobs"),
        (dict(episodes=1), "episodes"), (dict(sigmas=(-0.1,)), "sigma"),
    ])
    def test_sweep_is_checked_before_training(self, demo_paths, normalizer,
                                              monkeypatch, sweep, match):
        def no_training(config):
            raise AssertionError("run_offline called before the sweep was checked")

        monkeypatch.setattr(evaluation, "run_offline", no_training)
        paths, _ = demo_paths
        base = OfflineConfig(env_id=ENV, expert_demos=paths["expert"],
                             supp_demos=paths["medium"])
        args = {**dict(sigmas=(0.0, 0.1), runs=2, episodes=2, jobs=1), **sweep}
        with pytest.raises(ConfigError, match=match):
            tier_ablation(base, [("me", paths["medium"])], normalizer, **args)

    @pytest.mark.parametrize("case, match", [
        ("missing", "missing demo file"), ("wrong_kind", "expected a 'demoset'"),
        ("wrong_env", "pendulum1"),
    ])
    def test_every_mix_file_is_checked_before_training(
            self, demo_paths, normalizer, monkeypatch, tmp_path, case, match):
        def no_training(config):
            raise AssertionError("run_offline called before every mix was checked")

        bad = tmp_path / f"{case}.demos"
        if case == "wrong_kind":
            save_reference_returns(bad, measure_reference_returns(
                envs.make_spec(ENV), episodes=2, seed=0))
        elif case == "wrong_env":
            save_demoset(bad, generate_tier(envs.make_spec("pendulum1"), "expert",
                                            2, seed=5))
        monkeypatch.setattr(evaluation, "run_offline", no_training)
        paths, _ = demo_paths
        base = OfflineConfig(env_id=ENV, expert_demos=paths["expert"],
                             supp_demos=paths["medium"])
        with pytest.raises(DataError, match=match):
            tier_ablation(base, [("me", paths["medium"]), ("bad", str(bad))],
                          normalizer, sigmas=(0.0,), runs=2, episodes=2)

    def test_validation(self, demo_paths, normalizer):
        paths, _ = demo_paths
        base = OfflineConfig(
            env_id=ENV, expert_demos=paths["expert"],
            supp_demos=paths["medium"], seed=3, ref_steps=60, disc_steps=80,
            bc_steps=80, reg_cutoff=40)
        with pytest.raises(ConfigError, match="at least one mix"):
            tier_ablation(base, [], normalizer)
        with pytest.raises(ConfigError, match="unique"):
            tier_ablation(base, [("me", paths["medium"]),
                                 ("me", paths["rich"])], normalizer)
        with pytest.raises(ConfigError, match="label"):
            tier_ablation(base, [("two words", paths["medium"])], normalizer)
