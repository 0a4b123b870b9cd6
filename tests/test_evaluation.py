"""Tests for scoring, sweeps, grid search, and tier ablations."""

import math
import warnings

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
                                SCORE_EPISODES, ScoreNormalizer,
                                ablation_plot_data, ablation_records,
                                evaluate_cell, format_ablation_summary,
                                format_grid_summary, format_sweep_summary,
                                grid_plot_data, grid_records, grid_search_kth,
                                noise_sweep, normalized_score,
                                normalizer_from_reference, plot_data,
                                score_policy, stability_metric, sweep_plot_data,
                                sweep_records, sweep_rows, tier_ablation)
from driftbc.numeric import named_generator
from driftbc.offline import OfflineConfig, run_offline
from driftbc.online import OnlineUpdateConfig, run_online
from driftbc.policy import sample_action
from oracles import ema_deviation_oracle

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
    def test_matches_adapt_off_online_run_bit_exactly(self, trained, demo_paths):
        _, expert = demo_paths
        returns = score_policy(trained.policy, ENV, sigma=0.1, episodes=3, seed=7)
        result = run_online(trained, expert, sigma=0.1, episodes=3,
                            adapt="off", seed=7)
        assert np.array_equal(returns, result.episode_returns)

    def test_returns_are_a_step_by_step_sum(self, trained):
        # a loop of its own over the online_ep{ep}_* streams, summing with +=
        # as the online runner and the benchmark's replay do
        spec = envs.make_spec(ENV)
        expected = []
        for ep in range(3):
            env_rng = named_generator(7, f"online_ep{ep}_env")
            wrapper = envs.NoiseWrapper(0.1, named_generator(7, f"online_ep{ep}_obs"))
            act_rng = named_generator(7, f"online_ep{ep}_act")
            state = envs.reset(spec, env_rng)
            total = 0.0
            for _ in range(spec.horizon):
                action = sample_action(trained.policy, envs.observe(wrapper, state),
                                       rng=act_rng)
                state, reward, done = envs.step(spec, state, action)
                total += reward
                if done:
                    break
            expected.append(total)
        returns = score_policy(trained.policy, ENV, sigma=0.1, episodes=3, seed=7)
        assert returns.tobytes() == np.array(expected).tobytes()

    def test_deterministic(self, trained):
        a = score_policy(trained.policy, ENV, 0.05, 2, seed=4)
        b = score_policy(trained.policy, ENV, 0.05, 2, seed=4)
        assert np.array_equal(a, b)

    def test_seed_changes_returns(self, trained):
        a = score_policy(trained.policy, ENV, 0.05, 2, seed=4)
        b = score_policy(trained.policy, ENV, 0.05, 2, seed=5)
        assert not np.array_equal(a, b)


# ------------------------------------------------------------ cell contract


class TestEvaluateCell:
    def test_off_cell_works_without_density_models(self, plain, normalizer):
        cell = evaluate_cell(plain, normalizer, sigma=0.0, seed=0, episodes=2)
        assert cell.updates == 0
        assert len(cell.returns) == 2

    def test_score_and_stability_consistent_with_raw_returns(self, trained, normalizer):
        cell = evaluate_cell(trained, normalizer, sigma=0.1, seed=2, episodes=3)
        assert cell.mean_return == pytest.approx(np.mean(cell.returns))
        assert cell.score == normalized_score(cell.mean_return, normalizer)
        assert cell.stability == stability_metric(cell.returns)

    def test_adaptive_cell_requires_expert_demos(self, trained, normalizer):
        with pytest.raises(ConfigError, match="expert demos"):
            evaluate_cell(trained, normalizer, 0.1, 0, 2, adapt="on")

    def test_validation(self, trained, normalizer):
        with pytest.raises(ConfigError, match="sigma"):
            evaluate_cell(trained, normalizer, -0.1, 0, 2)
        with pytest.raises(ConfigError, match="episodes"):
            evaluate_cell(trained, normalizer, 0.1, 0, 1)
        with pytest.raises(ConfigError, match="adapt"):
            evaluate_cell(trained, normalizer, 0.1, 0, 2, adapt="sometimes")

    def test_adaptive_cell_never_mutates_caller_artifacts(self, trained,
                                                          normalizer, demo_paths):
        _, expert = demo_paths
        before = (trained.policy.mean_net.weights[0].tobytes(),
                  trained.discriminator.net.weights[0].tobytes())
        cell = evaluate_cell(trained, normalizer, 0.2, 0, 2, adapt="always",
                             expert_demos=expert, patience=50,
                             update_config=small_update())
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
        assert report.env_id == ENV
        assert report.adapt == "off"
        assert report.seeds == (0, 1)
        assert sweep_records(report).splitlines()[0].endswith(
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
        assert sweep_records(a) == sweep_records(b)
        assert all(x.returns == y.returns for x, y in zip(a.cells, b.cells))

    def test_parallel_workers_match_serial_bitwise(self, trained, normalizer):
        serial = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                             episodes=2, jobs=1)
        parallel = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                               episodes=2, jobs=2)
        assert sweep_records(serial) == sweep_records(parallel)
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
        assert report.seeds == (10, 11, 12)

    def test_validation(self, trained, normalizer):
        with pytest.raises(ConfigError, match="sigma"):
            noise_sweep(trained, normalizer, sigmas=(), runs=2, episodes=2)
        with pytest.raises(ConfigError, match="runs"):
            noise_sweep(trained, normalizer, sigmas=(0.0,), runs=0, episodes=2)

    def test_records_are_parseable_lines(self, trained, normalizer):
        report = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                             episodes=2)
        lines = sweep_records(report).splitlines()
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
        lines = sweep_records(report).splitlines()
        scores = [float(l.split("score=")[1].split()[0])
                  for l in lines if l.startswith("kind=cell ")]
        row_line = next(l for l in lines if l.startswith("kind=row "))
        assert float(row_line.split("mean=")[1].split()[0]) == \
            pytest.approx(np.mean(scores))

    def test_summary_table_format(self, trained, normalizer):
        report = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                             episodes=2)
        text = format_sweep_summary(report)
        assert "ema_coefficient=0.1" in text
        assert "+/-" in text
        assert len(text.splitlines()) == 4

    def test_plot_data_format(self, trained, normalizer):
        report = noise_sweep(trained, normalizer, sigmas=(0.0, 0.1), runs=2,
                             episodes=2)
        lines = sweep_plot_data(report).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"curve={ENV}_off x=0.0 y=")
        assert " err=" in lines[0]

    def test_plot_data_rejects_bad_labels(self):
        with pytest.raises(ConfigError, match="label"):
            plot_data([("two words", [(0.0, 1.0, 0.1)])])
        with pytest.raises(ConfigError, match="at least one point"):
            plot_data([])


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
        assert report.best_threshold == \
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
        rec = grid_records(report).splitlines()
        assert rec[0].startswith("kind=grid ")
        assert "best_threshold=" in rec[0]
        assert sum(1 for l in rec if l.startswith("kind=candidate ")) == 2
        assert "seeds=0,1" in rec[1]
        summary = format_grid_summary(report)
        assert "<- best" in summary
        plot = grid_plot_data(report).splitlines()
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

    def test_rows_keep_mix_order_and_shape(self, report):
        assert [r.label for r in report.rows] == ["me", "memr"]
        for row in report.rows:
            assert row.sweep.sigmas == (0.0, 0.1)
            assert row.sweep.seeds == (0, 1)
            assert len(row.sweep.cells) == 4
        assert f"runs=2 episodes=2 ema_coefficient={EMA_COEFFICIENT!r}" in \
            ablation_records(report)

    def test_records_and_summary_and_plot(self, report):
        rec = ablation_records(report).splitlines()
        assert rec[0].startswith("kind=ablation ")
        assert sum(1 for l in rec if l.startswith("kind=mix label=me ")) == 2
        assert sum(1 for l in rec if l.startswith("kind=mix label=memr ")) == 2
        summary = format_ablation_summary(report)
        assert "me" in summary and "memr" in summary
        plot = ablation_plot_data(report).splitlines()
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
