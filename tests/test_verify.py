"""Tests for the self-contained math-check suite."""

import time

import numpy as np
import pytest

from driftbc.discriminator import pointwise_optimum, reg_weight_at
from driftbc.errors import ConfigError
from driftbc.verify import (ALL_CHECKS, CheckResult, all_passed,
                            format_results, run_checks)

CHECK_NAMES = [name for name, _ in ALL_CHECKS]


class TestSuite:
    def test_fresh_run_passes_everything_quickly(self):
        start = time.monotonic()
        results = run_checks()
        elapsed = time.monotonic() - start
        assert all_passed(results)
        assert len(results) == len(ALL_CHECKS)
        # the suite gates fresh checkouts, so it must stay far under 5 minutes
        assert elapsed < 60.0

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_each_check_passes_individually(self, name):
        (result,) = run_checks(names=[name])
        assert result.name == name
        assert result.passed, result.detail

    def test_check_names_unique_and_ordered(self):
        assert len(set(CHECK_NAMES)) == len(CHECK_NAMES)
        results = run_checks()
        assert [r.name for r in results] == CHECK_NAMES

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown checks"):
            run_checks(names=["lambda_schedule", "nonsense"])

    def test_empty_check_list_rejected(self):
        """An empty list used to report 0/0 checks passed, a pass with
        nothing checked."""
        for names in ([], ()):
            with pytest.raises(ConfigError, match="no checks named"):
                run_checks(names=names)

    def test_subset_runs_only_requested(self):
        results = run_checks(names=["weight_bounds", "em_monotonicity"])
        assert [r.name for r in results] == ["weight_bounds", "em_monotonicity"]


class TestHeadlineValues:
    def test_schedule_value_past_cutoff(self):
        assert reg_weight_at(10001, 10000) == \
            pytest.approx(1.0 / (1.0 + np.log(2.0)), abs=1e-12)
        assert abs(reg_weight_at(10001, 10000) - 0.5907) < 1e-4

    def test_closed_form_optimum_value(self):
        assert pointwise_optimum(1.0, 1.0, supp_coef=9.0) == \
            pytest.approx(0.1, abs=1e-9)

    def test_details_carry_the_headline_numbers(self):
        by_name = {r.name: r for r in run_checks()}
        assert "10001" in by_name["lambda_schedule"].detail
        assert "0.5906" in by_name["lambda_schedule"].detail
        assert "0.1" in by_name["closed_form_optimum"].detail
        assert "1/11" in by_name["boundary_bias"].detail


class TestReporting:
    def test_format_lines_one_per_check_plus_tally(self):
        results = run_checks(names=["lambda_schedule", "weight_bounds"])
        lines = format_results(results).splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("PASS lambda_schedule: ")
        assert lines[1].startswith("PASS weight_bounds: ")
        assert lines[2] == "2/2 checks passed"

    def test_failures_render_and_flip_the_verdict(self):
        results = [CheckResult("good", True, "fine"),
                   CheckResult("bad", False, "expected 1, got 2")]
        assert not all_passed(results)
        text = format_results(results)
        assert "FAIL bad: expected 1, got 2" in text
        assert "1/2 checks passed" in text

    def test_crashing_check_reports_failure_under_its_name(self, monkeypatch):
        import driftbc.verify as verify_mod

        def boom():
            raise ValueError("synthetic crash")

        patched = tuple((name, boom) if name == "boundary_bias" else (name, fn)
                        for name, fn in verify_mod.ALL_CHECKS)
        monkeypatch.setattr(verify_mod, "ALL_CHECKS", patched)
        results = verify_mod.run_checks(names=["boundary_bias"])
        assert not results[0].passed
        assert "synthetic crash" in results[0].detail

    def test_deterministic_output(self):
        assert format_results(run_checks()) == format_results(run_checks())
