"""End-to-end tests for the command-line interface and its exit codes."""

import argparse
import inspect
import os
import shutil
import sys
import time
from pathlib import Path

import pytest

from driftbc.cli import (EXIT_CHECK_FAILED, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                         build_parser, main)
from driftbc.configio import load_config, mask_wall_times, read_manifest
from driftbc.demos import load_demoset, load_reference_returns, save_demoset
from driftbc.errors import NumericError
from driftbc.online import parse_trigger_log, validate_trigger_log
from driftbc.verify import CheckResult

# tiny desk-scale training sets trip the GMM variance floor by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::driftbc.density.CovarianceFloorWarning")

ENV = "pointmass2d"


def run_ok(argv):
    code = main(argv)
    assert code == EXIT_OK, f"expected success, got exit {code} for {argv}"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with demos, reference returns, and trained artifacts,
    all produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cliws")
    paths = {
        "root": root,
        "expert": root / "expert.demos",
        "medium": root / "medium.demos",
        "rich": root / "rich.demos",
        "refs": root / "refs.txt",
        "config": root / "train.cfg",
        "art": root / "art",
    }
    run_ok(["gen-data", "--env", ENV, "--tier", "expert", "--episodes", "5",
            "--seed", "5", "--out", str(paths["expert"])])
    run_ok(["gen-data", "--env", ENV, "--tier", "medium", "--episodes", "15",
            "--seed", "5", "--out", str(paths["medium"])])
    run_ok(["gen-data", "--env", ENV, "--tier", "medium,random",
            "--episodes", "8", "--seed", "5", "--out", str(paths["rich"])])
    run_ok(["gen-refs", "--env", ENV, "--episodes", "30", "--seed", "0",
            "--out", str(paths["refs"])])
    paths["config"].write_text(
        f"env_id={ENV}\n"
        f"expert_demos={paths['expert']}\n"
        f"supp_demos={paths['medium']}\n"
        "seed=3\nref_steps=150\ndisc_steps=300\nbc_steps=300\nreg_cutoff=150\n")
    run_ok(["train-offline", "--config", str(paths["config"]),
            "--out", str(paths["art"])])
    return paths


def artifact_bytes(art_dir):
    return {p.name: p.read_bytes()
            for p in sorted(Path(art_dir).iterdir())
            if p.suffix == ".ckpt"}


class TestGenData:
    def test_file_and_manifest(self, ws):
        header = ws["expert"].read_bytes().split(b"\n", 1)[0].decode("ascii")
        assert "tiers=expert:5:" in header
        manifest = read_manifest(f"{ws['expert']}.manifest")
        assert manifest.subcommand == "gen-data"
        assert manifest.seed == 5
        assert manifest.artifacts == ["expert.demos"]
        assert (Path(manifest.out_dir) / "expert.demos").exists()

    def test_same_seed_reruns_byte_identical(self, ws, tmp_path):
        out = tmp_path / "again.demos"
        run_ok(["gen-data", "--env", ENV, "--tier", "expert", "--episodes",
                "5", "--seed", "5", "--out", str(out)])
        assert out.read_bytes() == ws["expert"].read_bytes()

    def test_existing_file_needs_force(self, ws, capsys):
        argv = ["gen-data", "--env", ENV, "--tier", "expert", "--episodes",
                "5", "--seed", "5", "--out", str(ws["expert"])]
        assert main(argv) == EXIT_USAGE
        assert "--force" in capsys.readouterr().err
        run_ok(argv + ["--force"])

    def test_unknown_env_exits_2_listing_valid(self, capsys, tmp_path):
        code = main(["gen-data", "--env", "gridworld9", "--tier", "expert",
                     "--out", str(tmp_path / "x.demos")])
        assert code == EXIT_USAGE
        assert "pointmass2d" in capsys.readouterr().err

    def test_unknown_tier_exits_2(self, capsys, tmp_path):
        code = main(["gen-data", "--env", ENV, "--tier", "legendary",
                     "--out", str(tmp_path / "x.demos")])
        assert code == EXIT_USAGE
        assert "expert" in capsys.readouterr().err

    def test_every_tier_is_checked_before_any_is_generated(self, capsys, tmp_path,
                                                            monkeypatch):
        import driftbc.cli as cli_mod

        def refuse(*args, **kw):
            raise AssertionError("generate_tier called")

        monkeypatch.setattr(cli_mod, "generate_tier", refuse)
        out = tmp_path / "x.demos"
        code = main(["gen-data", "--env", ENV, "--tier", "expert,medium,bogus",
                     "--episodes", "200", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "unknown tier 'bogus'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_comma_list_mixes_tiers(self, ws):
        demos = load_demoset(ws["rich"])
        assert [r.tier for r in demos.tier_runs] == ["medium", "random"]


class TestGenRefs:
    def test_reference_file_roundtrips(self, ws):
        ref = load_reference_returns(ws["refs"])
        assert ref.env_id == ENV
        assert ref.expert_return > ref.random_return

    def test_directory_out_exits_2_even_with_force(self, tmp_path, capsys):
        assert main(["gen-refs", "--env", ENV, "--episodes", "2",
                     "--out", str(tmp_path), "--force"]) == EXIT_USAGE
        assert "is a directory" in capsys.readouterr().err

    def test_out_under_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "refs.txt").write_text("x")
        assert main(["gen-refs", "--env", ENV, "--episodes", "2",
                     "--out", str(tmp_path / "refs.txt" / "x.txt")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "is not a directory" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["refs.txt"]
        assert (tmp_path / "refs.txt").read_text() == "x"


class TestTrainOffline:
    def test_out_dir_under_a_file_exits_2(self, ws, tmp_path, capsys):
        (tmp_path / "blocker").write_text("x")
        assert main(["train-offline", "--config", str(ws["config"]), "--out",
                     str(tmp_path / "blocker" / "sub" / "art")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "is not a directory" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
        assert (tmp_path / "blocker").read_text() == "x"

    def test_artifacts_and_manifest(self, ws):
        manifest = read_manifest(ws["art"] / "manifest.txt")
        assert manifest.subcommand == "train-offline"
        assert manifest.seed == 3
        assert len(manifest.artifacts) == 8
        for name in manifest.artifacts:
            assert (ws["art"] / name).exists()
        cfg = load_config(ws["art"] / "config.txt")
        assert cfg["seed"] == "3"

    def test_rerun_without_force_exits_2(self, ws, capsys):
        code = main(["train-offline", "--config", str(ws["config"]),
                     "--out", str(ws["art"])])
        assert code == EXIT_USAGE
        assert "--force" in capsys.readouterr().err

    def test_rerun_reproduces_checkpoints_byte_identically(self, ws, tmp_path):
        out = tmp_path / "art2"
        run_ok(["train-offline", "--config", str(ws["config"]),
                "--out", str(out)])
        assert artifact_bytes(out) == artifact_bytes(ws["art"])

    def test_set_overrides_config_key(self, ws, tmp_path):
        out = tmp_path / "art3"
        run_ok(["train-offline", "--config", str(ws["config"]),
                "--set", "bc_steps=50", "--out", str(out)])
        assert load_config(out / "config.txt")["bc_steps"] == "50"

    def test_missing_demo_file_exits_2(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(ws["config"].read_text().replace(
            str(ws["expert"]), str(tmp_path / "nope.demos")))
        code = main(["train-offline", "--config", str(cfg),
                     "--out", str(tmp_path / "art4")])
        assert code == EXIT_USAGE
        assert "missing demo file" in capsys.readouterr().err

    def test_non_finite_expert_state_exits_2_before_training(self, ws, tmp_path,
                                                            capsys, monkeypatch):
        """An inf demo state used to train on to a numeric abort (exit 3)."""
        import driftbc.offline as offline_mod

        def refuse(*args, **kw):
            raise AssertionError("a reference policy was trained")

        expert = load_demoset(ws["expert"])
        expert.states[0, 0] = float("inf")
        bad = tmp_path / "inf.demos"
        save_demoset(bad, expert)
        monkeypatch.setattr(offline_mod, "train_reference_policy", refuse)
        code = main(["train-offline", "--config", str(ws["config"]),
                     "--set", f"expert_demos={bad}", "--out", str(tmp_path / "bad")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(bad) in err and "must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_numeric_abort_exits_3(self, ws, tmp_path, capsys, monkeypatch):
        import driftbc.cli as cli_mod

        def boom(config):
            raise NumericError("discriminator training aborted at step 7: bad")

        monkeypatch.setattr(cli_mod, "run_offline", boom)
        code = main(["train-offline", "--config", str(ws["config"]),
                     "--out", str(tmp_path / "art5")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric abort" in err and "step 7" in err

    @pytest.mark.parametrize("override", ["gmm_k=0", "gmm_alpha=1.5",
                                          "gmm_cov_floor=-1", "ratio_min=-1",
                                          "ratio_min=20", "learning_rate=-1",
                                          "reg_cutoff=-5", "seed=-1"])
    def test_bad_config_value_exits_2_before_training(self, ws, tmp_path, capsys,
                                                      monkeypatch, override):
        import driftbc.offline as offline_mod

        def refuse(*args, **kw):
            raise AssertionError("a reference policy was trained")

        monkeypatch.setattr(offline_mod, "train_reference_policy", refuse)
        code = main(["train-offline", "--config", str(ws["config"]),
                     "--set", override, "--out", str(tmp_path / "bad")])
        assert code == EXIT_USAGE
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_env_var_sets_default_output_root(self, ws, tmp_path, monkeypatch):
        monkeypatch.setenv("DRIFTBC_OUT_ROOT", str(tmp_path / "space"))
        run_ok(["train-offline", "--config", str(ws["config"])])
        assert (tmp_path / "space" / "train-offline" / "policy.ckpt").exists()


class TestRunOnline:
    def test_off_mode_logs_and_leaves_checkpoints_alone(self, ws, tmp_path, capsys):
        before = artifact_bytes(ws["art"])
        out = tmp_path / "online"
        run_ok(["run-online", "--artifacts", str(ws["art"]), "--sigma", "0.1",
                "--episodes", "3", "--adapt", "off", "--out", str(out)])
        assert artifact_bytes(ws["art"]) == before
        assert "mean_return=" in capsys.readouterr().out
        returns = (out / "returns.log").read_text().splitlines()
        assert len(returns) == 3
        assert returns[0].startswith("episode=0 return=")
        manifest = read_manifest(out / "manifest.txt")
        assert sorted(manifest.artifacts) == ["returns.log", "triggers.log"]

    def test_trigger_log_replays_cleanly(self, ws, tmp_path):
        out = tmp_path / "online2"
        run_ok(["run-online", "--artifacts", str(ws["art"]), "--sigma", "0.2",
                "--episodes", "2", "--adapt", "on", "--kth", "0.6",
                "--out", str(out)])
        records = parse_trigger_log((out / "triggers.log").read_text())
        validate_trigger_log(records, kappa_threshold=0.6, patience=20)

    def test_incomplete_artifacts_exit_2_listing_missing(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["run-online", "--artifacts", str(empty), "--sigma", "0.1",
                     "--episodes", "2", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "config.txt" in capsys.readouterr().err


class TestEvaluate:
    def test_missing_checkpoint_exits_2_without_adaptation(self, ws, tmp_path, capsys):
        """A directory trained with the discriminator must hold every
        checkpoint, even for an adapt-off sweep that reads only the policy;
        this used to exit 0."""
        art, out = tmp_path / "art", tmp_path / "ev"
        shutil.copytree(ws["art"], art)
        os.remove(art / "gmm_supp.ckpt")
        code = main(["evaluate", "--artifacts", str(art), "--refs", str(ws["refs"]),
                     "--sigmas", "0", "--runs", "1", "--episodes", "2", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "missing gmm_supp.ckpt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-online", "evaluate", "grid-kth"])
    def test_adaptive_command_on_plain_bc_exits_2_before_output(self, ws, tmp_path,
                                                                capsys, command):
        """A plain_bc directory holds only the policy, so it cannot adapt."""
        art, out = tmp_path / "pbc", tmp_path / "out"
        run_ok(["train-offline", "--config", str(ws["config"]), "--set", "plain_bc=true",
                "--out", str(art)])
        capsys.readouterr()
        argv = {
            "run-online": ["--sigma", "0.1", "--episodes", "2", "--adapt", "on"],
            "evaluate": ["--refs", str(ws["refs"]), "--sigmas", "0.1", "--runs", "1",
                         "--episodes", "2", "--adapt", "on"],
            "grid-kth": ["--refs", str(ws["refs"]), "--sigma", "0.1", "--runs", "1",
                         "--episodes", "2"],
        }[command]
        code = main([command, "--artifacts", str(art), *argv, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "state-density" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_files_and_summary(self, ws, tmp_path, capsys):
        out = tmp_path / "ev"
        run_ok(["evaluate", "--artifacts", str(ws["art"]), "--refs",
                str(ws["refs"]), "--sigmas", "0,0.1", "--runs", "2",
                "--episodes", "2", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert "ema_coefficient=0.1" in stdout
        for name in ("records.txt", "summary.txt", "plot.txt", "manifest.txt"):
            assert (out / name).exists()
        records = (out / "records.txt").read_text().splitlines()
        assert sum(1 for l in records if l.startswith("kind=row ")) == 2

    def test_reruns_are_byte_identical(self, ws, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["evaluate", "--artifacts", str(ws["art"]), "--refs",
                str(ws["refs"]), "--sigmas", "0.05", "--runs", "2",
                "--episodes", "2"]
        run_ok(argv + ["--out", str(a)])
        run_ok(argv + ["--out", str(b)])
        assert (a / "records.txt").read_bytes() == (b / "records.txt").read_bytes()

    def test_worker_count_leaves_records_byte_identical(self, ws, tmp_path):
        """Four sigmas, zero among them, by three seeds: one lock-step loop
        at --jobs 1, and two or three chunks of whole cells otherwise."""
        argv = ["evaluate", "--artifacts", str(ws["art"]), "--refs",
                str(ws["refs"]), "--sigmas", "0.1,0,0.2,0.05", "--runs", "3",
                "--episodes", "3", "--adapt", "off"]
        for jobs in (1, 2, 3):
            run_ok(argv + ["--jobs", str(jobs), "--out", str(tmp_path / f"j{jobs}")])
        records = [(tmp_path / f"j{jobs}" / "records.txt").read_bytes() for jobs in (1, 2, 3)]
        assert records[0] == records[1] == records[2]
        assert records[0].count(b"kind=cell ") == 12

    def test_wrong_env_refs_exit_2(self, ws, tmp_path, capsys):
        refs = tmp_path / "refs_pendulum.txt"
        run_ok(["gen-refs", "--env", "pendulum1", "--episodes", "5",
                "--seed", "0", "--out", str(refs)])
        code = main(["evaluate", "--artifacts", str(ws["art"]), "--refs",
                     str(refs), "--out", str(tmp_path / "ev2")])
        assert code == EXIT_USAGE
        assert "pendulum1" in capsys.readouterr().err

    def test_bad_sigma_list_exits_2(self, ws, tmp_path, capsys):
        code = main(["evaluate", "--artifacts", str(ws["art"]), "--refs",
                     str(ws["refs"]), "--sigmas", "0,spam",
                     "--out", str(tmp_path / "ev3")])
        assert code == EXIT_USAGE
        assert "sigma" in capsys.readouterr().err

    def test_duplicate_sigmas_exit_2(self, ws, tmp_path, capsys):
        code = main(["evaluate", "--artifacts", str(ws["art"]), "--refs",
                     str(ws["refs"]), "--sigmas", "0.1,0.10", "--runs", "2",
                     "--episodes", "2", "--out", str(tmp_path / "ev4")])
        assert code == EXIT_USAGE
        assert "duplicate sigma 0.1" in capsys.readouterr().err
        assert not (tmp_path / "ev4" / "records.txt").exists()


class TestGridKth:
    def test_emits_eleven_rows(self, ws, tmp_path, capsys):
        out = tmp_path / "grid"
        run_ok(["grid-kth", "--artifacts", str(ws["art"]), "--refs",
                str(ws["refs"]), "--sigma", "0.1", "--runs", "1",
                "--episodes", "2", "--patience", "201", "--out", str(out)])
        assert "best=" in capsys.readouterr().out
        records = (out / "records.txt").read_text().splitlines()
        assert sum(1 for l in records if l.startswith("kind=candidate ")) == 11
        assert "best_threshold=" in records[0]


class TestTierAblation:
    def test_one_row_per_mix(self, ws, tmp_path, capsys):
        out = tmp_path / "abl"
        run_ok(["tier-ablation", "--config", str(ws["config"]),
                "--set", "ref_steps=60", "--set", "disc_steps=80",
                "--set", "bc_steps=80", "--set", "reg_cutoff=40",
                "--mix", f"me={ws['medium']}", "--mix", f"memr={ws['rich']}",
                "--refs", str(ws["refs"]), "--sigmas", "0,0.1", "--runs", "2",
                "--episodes", "2", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert "me" in stdout and "memr" in stdout
        records = (out / "records.txt").read_text().splitlines()
        assert sum(1 for l in records if l.startswith("kind=mix label=me ")) == 2
        assert sum(1 for l in records if l.startswith("kind=mix label=memr ")) == 2

    def test_malformed_mix_exits_2(self, ws, tmp_path, capsys):
        code = main(["tier-ablation", "--config", str(ws["config"]),
                     "--mix", "no-equals-sign", "--refs", str(ws["refs"]),
                     "--out", str(tmp_path / "abl2")])
        assert code == EXIT_USAGE
        assert "label=path" in capsys.readouterr().err


class TestVerify:
    def test_all_checks_pass_exit_0(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "9/9 checks passed" in out
        assert out.count("PASS ") == 9

    def test_subset_of_checks(self, capsys):
        assert main(["verify", "--checks", "lambda_schedule"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1/1 checks passed" in out
        assert "0.5906" in out

    def test_unknown_check_exits_2(self, capsys):
        assert main(["verify", "--checks", "nonsense"]) == EXIT_USAGE
        assert "unknown checks" in capsys.readouterr().err

    def test_failed_check_exits_1_naming_it(self, monkeypatch, capsys):
        import driftbc.cli as cli_mod

        def fake_checks(names=None, seed=0):
            return [CheckResult("boundary_bias", False, "synthetic failure")]

        monkeypatch.setattr(cli_mod, "run_checks", fake_checks)
        assert main(["verify"]) == EXIT_CHECK_FAILED
        assert "FAIL boundary_bias" in capsys.readouterr().out

    def test_out_writes_results_and_manifest(self, tmp_path):
        out = tmp_path / "ver"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        assert "9/9 checks passed" in (out / "results.txt").read_text()
        manifest = read_manifest(out / "manifest.txt")
        assert manifest.artifacts == ["results.txt"]

    @pytest.mark.parametrize("checks", [",", ""])
    def test_empty_check_list_exits_2_before_any_output(self, tmp_path, capsys, checks):
        """"," used to print 0/0 checks passed and exit 0, and "" ran every
        check."""
        out = tmp_path / "ver"
        assert main(["verify", "--checks", checks, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no checks named" in captured.err
        assert not out.exists()

    def test_out_manifest_times_the_checks(self, tmp_path, monkeypatch):
        """The stopwatch used to start after the checks, so this manifest
        read wall_ms=1."""
        import driftbc.cli as cli_mod

        def slow_checks(names=None, seed=0):
            time.sleep(0.3)
            return [CheckResult("lambda_schedule", True, "slept")]

        monkeypatch.setattr(cli_mod, "run_checks", slow_checks)
        out = tmp_path / "ver"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        assert read_manifest(out / "manifest.txt").wall_ms >= 300

    def test_non_empty_out_exits_2_before_any_check(self, tmp_path, capsys, monkeypatch):
        import driftbc.cli as cli_mod

        def refuse(names=None, seed=0):
            raise AssertionError("run_checks called")

        monkeypatch.setattr(cli_mod, "run_checks", refuse)
        (tmp_path / "kept.txt").write_text("kept\n")
        assert main(["verify", "--out", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not empty" in captured.err

    def test_file_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "results.txt"
        out.write_text("kept\n")
        assert main(["verify", "--checks", "lambda_schedule",
                     "--out", str(out)]) == EXIT_USAGE
        assert "not a directory" in capsys.readouterr().err
        assert out.read_text() == "kept\n"


class TestMissingInputFile:
    """A missing input file exits 2 with an error naming it, before any
    output path is made."""

    @pytest.mark.parametrize("command", ["evaluate", "grid-kth", "tier-ablation"])
    def test_missing_refs_exit_2(self, ws, tmp_path, capsys, command):
        out, ghost = tmp_path / "out", str(tmp_path / "ghost.refs")
        argv = {
            "evaluate": ["--artifacts", str(ws["art"])],
            "grid-kth": ["--artifacts", str(ws["art"]), "--sigma", "0.1"],
            "tier-ablation": ["--config", str(ws["config"]),
                              "--mix", f"me={ws['medium']}"],
        }[command]
        assert main([command, *argv, "--refs", ghost, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert ghost in err and "Traceback" not in err
        assert not out.exists()

    def test_moved_expert_demos_exit_2(self, ws, tmp_path, capsys):
        out, moved = tmp_path / "out", tmp_path / "moved.demos"
        os.replace(ws["expert"], moved)
        try:
            code = main(["run-online", "--artifacts", str(ws["art"]), "--sigma", "0.1",
                         "--episodes", "2", "--out", str(out)])
        finally:
            os.replace(moved, ws["expert"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(ws["expert"]) in err and "Traceback" not in err
        assert not out.exists()


class TestNegativeSeed:
    """A negative seed exits 2 before any named stream is drawn or any
    output path is made."""

    @pytest.fixture
    def no_streams(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a named stream was drawn")

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("driftbc") \
                    and hasattr(module, "named_generator"):
                monkeypatch.setattr(module, "named_generator", refuse)

    @pytest.mark.parametrize("command", ["gen-data", "gen-refs", "train-offline",
                                         "run-online", "evaluate", "grid-kth",
                                         "tier-ablation", "verify"])
    def test_exits_2_before_any_output(self, ws, tmp_path, capsys, no_streams,
                                       command):
        out = tmp_path / "out"
        art, refs, config = str(ws["art"]), str(ws["refs"]), str(ws["config"])
        argv = {
            "gen-data": ["--env", ENV, "--tier", "expert", "--seed", "-1"],
            "gen-refs": ["--env", ENV, "--seed", "-1"],
            "train-offline": ["--config", config, "--set", "seed=-1"],
            "run-online": ["--artifacts", art, "--sigma", "0.1", "--episodes", "2",
                           "--seed", "-1"],
            "evaluate": ["--artifacts", art, "--refs", refs, "--seed", "-1"],
            "grid-kth": ["--artifacts", art, "--refs", refs, "--sigma", "0.1",
                         "--seed", "-1"],
            "tier-ablation": ["--config", config, "--mix", f"me={ws['medium']}",
                              "--refs", refs, "--seed", "-1"],
            "verify": ["--seed", "-1"],
        }[command]
        assert main([command, *argv, "--out", str(out)]) == EXIT_USAGE
        assert "seed" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(f"{out}.manifest").exists()


class TestOutputDirOnFirstWrite:
    """A run that fails on its arguments or config leaves no output
    directory: the directory is made when its first file is written."""

    @pytest.mark.parametrize("command,extra,message", [
        ("evaluate", ["--runs", "0"], "runs"),
        ("evaluate", ["--jobs", "0"], "jobs"),
        ("evaluate", ["--episodes", "1"], "episodes"),
        ("evaluate", ["--sigmas", "-0.5"], "sigma"),
        ("grid-kth", ["--runs", "0"], "runs"),
        ("run-online", ["--episodes", "0"], "episodes"),
        ("tier-ablation", ["--mix", "me=MEDIUM"], "unique"),
        ("train-offline", ["--set", "holdout_fraction=1.5"], "holdout fraction"),
    ], ids=["evaluate-runs", "evaluate-jobs", "evaluate-episodes", "evaluate-sigmas",
            "grid-kth-runs", "run-online-episodes", "tier-ablation-labels",
            "train-offline-holdout"])
    def test_bad_argument_leaves_no_directory(self, ws, tmp_path, capsys, command,
                                              extra, message):
        out = tmp_path / "out"
        art, refs, config = str(ws["art"]), str(ws["refs"]), str(ws["config"])
        argv = {
            "evaluate": ["--artifacts", art, "--refs", refs, "--sigmas", "0.1",
                         "--runs", "2", "--episodes", "2"],
            "grid-kth": ["--artifacts", art, "--refs", refs, "--sigma", "0.1",
                         "--episodes", "2"],
            "run-online": ["--artifacts", art, "--sigma", "0.1", "--episodes", "2"],
            "tier-ablation": ["--config", config, "--mix", f"me={ws['medium']}",
                              "--refs", refs],
            "train-offline": ["--config", config],
        }[command]
        extra = [arg.replace("MEDIUM", str(ws["medium"])) for arg in extra]
        assert main([command, *argv, *extra, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,argv", [
        ("gen-data", ["--env", ENV, "--tier", "expert", "--episodes", "0"]),
        ("gen-refs", ["--env", ENV, "--episodes", "0"]),
    ], ids=["gen-data-episodes", "gen-refs-episodes"])
    def test_bad_argument_leaves_no_parent(self, tmp_path, capsys, command, argv):
        parent = tmp_path / "a" / "b"
        assert main([command, *argv, "--out", str(parent / "x.out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "episodes" in err and "Traceback" not in err
        assert not (tmp_path / "a").exists()

    def test_first_file_makes_parent(self, tmp_path):
        out = tmp_path / "a" / "b" / "x.demos"
        run_ok(["gen-data", "--env", ENV, "--tier", "expert", "--episodes", "1",
                "--out", str(out)])
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "x.demos", "x.demos.manifest"]


@pytest.fixture
def no_episodes(monkeypatch):
    """Both episode loops, patched to fail if an episode is stepped."""
    import driftbc.envs as envs_mod
    import driftbc.online as online_mod

    def refuse(*args, **kw):
        raise AssertionError("an episode was stepped")

    monkeypatch.setattr(online_mod, "play_episodes", refuse)
    monkeypatch.setattr(envs_mod, "run_lockstep", refuse)


class TestBadSigma:
    """A negative or non-finite sigma exits 2 naming it, before any episode
    is stepped or output path made."""

    @pytest.mark.parametrize("command,extra,shown", [
        ("run-online", ["--sigma", "-1", "--episodes", "3", "--adapt", "on"], "-1.0"),
        ("run-online", ["--sigma", "inf", "--episodes", "2", "--adapt", "off"], "inf"),
        ("evaluate", ["--refs", "REFS", "--sigmas", "0.1,nan", "--runs", "2",
                      "--episodes", "2", "--adapt", "off"], "nan"),
        ("grid-kth", ["--refs", "REFS", "--sigma", "nan", "--runs", "1",
                      "--episodes", "2"], "nan"),
    ], ids=["run-online-negative", "run-online-inf", "evaluate-nan", "grid-kth-nan"])
    def test_exits_2_naming_sigma(self, ws, tmp_path, capsys, no_episodes,
                                  command, extra, shown):
        out = tmp_path / "out"
        extra = [arg.replace("REFS", str(ws["refs"])) for arg in extra]
        code = main([command, "--artifacts", str(ws["art"]), *extra, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"sigma must be finite and >= 0, got {shown}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestWrongEnvExpertDemos:
    """The trained expert_demos path holding another env's demo file exits 2
    naming the file, before any episode is stepped or output path made."""

    @pytest.fixture
    def pendulum_expert(self, ws, tmp_path, monkeypatch, no_episodes):
        other, kept = tmp_path / "pendulum.demos", tmp_path / "kept.demos"
        run_ok(["gen-data", "--env", "pendulum1", "--tier", "expert",
                "--episodes", "2", "--seed", "5", "--out", str(other)])
        os.replace(ws["expert"], kept)
        os.replace(other, ws["expert"])
        yield
        os.replace(kept, ws["expert"])

    @pytest.mark.parametrize("command,extra", [
        ("run-online", ["--sigma", "0.1", "--episodes", "2", "--adapt", "off"]),
        ("run-online", ["--sigma", "0.1", "--episodes", "2", "--adapt", "on"]),
        ("evaluate", ["--refs", "REFS", "--sigmas", "0.1", "--runs", "2",
                      "--episodes", "2", "--adapt", "on"]),
        ("evaluate", ["--refs", "REFS", "--sigmas", "0.1", "--runs", "2",
                      "--episodes", "2", "--adapt", "always"]),
        ("grid-kth", ["--refs", "REFS", "--sigma", "0.1", "--runs", "1",
                      "--episodes", "2"]),
    ], ids=["run-online-off", "run-online-on", "evaluate-on", "evaluate-always",
            "grid-kth"])
    def test_exits_2_naming_the_file(self, ws, tmp_path, capsys, pendulum_expert,
                                     command, extra):
        out = tmp_path / "out"
        extra = [arg.replace("REFS", str(ws["refs"])) for arg in extra]
        code = main([command, "--artifacts", str(ws["art"]), *extra, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(ws["expert"]) in err and "pendulum1" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestNonUtf8TextInputs:
    """A text input with a byte that is not UTF-8 exits 2 naming the file,
    before any output path is made. metrics.log is never read, so a damaged
    or missing one changes no output."""

    @pytest.fixture
    def copies(self, ws, tmp_path):
        """Copies of the inputs, for one test to damage."""
        paths = {"art": tmp_path / "art"}
        shutil.copytree(ws["art"], paths["art"])
        for key in ("config", "refs", "expert"):
            paths[key] = tmp_path / ws[key].name
            shutil.copyfile(ws[key], paths[key])
        return paths

    @pytest.mark.parametrize("command,target", [
        ("train-offline", "config"),
        ("tier-ablation", "config"),
        ("run-online", "art/config.txt"),
        ("evaluate", "refs"),
        ("train-offline", "expert"),
        ("run-online", "art/policy.ckpt"),
    ], ids=["train-offline-config", "tier-ablation-config", "artifacts-config",
            "refs-header", "demo-header", "checkpoint-header"])
    def test_exits_2_naming_the_file(self, ws, copies, tmp_path, capsys, command,
                                     target):
        key, _, name = target.partition("/")
        damaged = copies[key] / name if name else copies[key]
        data = damaged.read_bytes()
        damaged.write_bytes(data[:1] + b"\xff" + data[1:])  # in the first line
        out = tmp_path / "out"
        art, refs, config = str(copies["art"]), str(copies["refs"]), str(copies["config"])
        argv = {
            "train-offline": ["--config", config,
                              "--set", f"expert_demos={copies['expert']}"],
            "tier-ablation": ["--config", config, "--mix", f"me={ws['medium']}",
                              "--refs", refs],
            "run-online": ["--artifacts", art, "--sigma", "0.1", "--episodes", "2"],
            "evaluate": ["--artifacts", art, "--refs", refs, "--runs", "2",
                         "--episodes", "2"],
        }[command]
        assert main([command, *argv, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(damaged) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["non-utf8", "missing"])
    @pytest.mark.parametrize("command,argv", [
        ("run-online", ["--sigma", "0.1", "--episodes", "2", "--adapt", "on",
                        "--kth", "0.6"]),
        ("evaluate", ["--refs", "REFS", "--sigmas", "0.1", "--runs", "2",
                      "--episodes", "2"]),
        ("grid-kth", ["--refs", "REFS", "--sigma", "0.1", "--runs", "1",
                      "--episodes", "2", "--patience", "201"]),
    ], ids=["run-online", "evaluate", "grid-kth"])
    def test_metrics_log_changes_no_output(self, ws, copies, tmp_path, capsys,
                                           command, argv, damage):
        metrics = copies["art"] / "metrics.log"
        if damage == "missing":
            metrics.unlink()
        else:
            metrics.write_bytes(b"\xff\xfe" + metrics.read_bytes())
        argv = [arg.replace("REFS", str(ws["refs"])) for arg in argv]
        outputs = []
        for art in (ws["art"], copies["art"]):
            out = tmp_path / f"out{len(outputs)}"
            run_ok([command, "--artifacts", str(art), *argv, "--out", str(out)])
            files = {p.name: mask_wall_times(p.read_text()) for p in out.iterdir()}
            outputs.append((mask_wall_times(capsys.readouterr().out), files))
        assert outputs[0] == outputs[1]


class TestParserContract:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "subcommand" in capsys.readouterr().out or True

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_every_flag_is_read_by_its_command(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for name, p in sub.choices.items():
            source = inspect.getsource(p.get_default("func"))
            for action in p._actions:
                if action.dest != "help":
                    assert f"args.{action.dest}" in source, \
                        f"{name} accepts {action.option_strings} and ignores it"
