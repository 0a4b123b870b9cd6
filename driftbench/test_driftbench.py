"""Self-test of the benchmark: every workload at tiny size prints every named
metric with its unit, traced counts repeat exactly, and every correctness
check fails when fed a corrupted output.

    python3 -m pytest -q driftbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "offline-train": dict(expert=3, supp=(("medium", 6), ("medium_replay_like", 2),
                                          ("random", 2)),
                          ref_steps=100, disc_steps=300, bc_steps=100, reg_cutoff=100),
    "online-adapt": dict(ref_steps=200, disc_steps=400, bc_steps=100, reg_cutoff=200,
                         seeds=1, episodes=30),
    "eval-sweep": dict(expert=2, medium=2, ref_steps=50, disc_steps=100, bc_steps=50,
                       reg_cutoff=50, refs_episodes=2, runs=2, episodes=3),
}
SEED = 1
COUNT_STATS = ("calls", "rows", "em_iters", "failed")


@pytest.fixture(scope="module")
def program():
    return run.load_program(ROOT)


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}


@pytest.fixture(scope="module")
def runs(program, tmp_path_factory):
    """(result, work dir) per (workload, trace); traced workloads run twice."""
    out = {}
    for name, size in TINY.items():
        for trace, repeat in ((0, 0), (1, 0), (1, 1)):
            work = tmp_path_factory.mktemp(f"{name}-{trace}-{repeat}")
            result, _ = run.run_workload(program, name, SEED, 0, bool(trace), work, **size)
            out[name, trace, repeat] = (result, work)
    return out


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_prints_every_metric_with_its_unit(runs, declared, name, trace):
    result, _ = runs[name, trace, 0]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared[trace]
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(runs, name):
    first, second = (runs[name, 1, r][0]["metrics"] for r in (0, 1))
    counts = [k for k in first if k.rsplit(".", 1)[1] in COUNT_STATS]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    with pytest.raises(run.MissingProgram):
        run.load_program(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "eval-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""


# ------------------------------------------------ checks fail on bad outputs


def _replace_line(text, pick, edit):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if pick(line))
    lines[i] = edit(lines[i])
    return "\n".join(lines) + "\n"


def _set_field(line, key, value):
    return " ".join(f"{key}={value}" if tok.startswith(f"{key}=") else tok
                    for tok in line.split())


@pytest.fixture(scope="module")
def offline_out(runs):
    return runs["offline-train", 0, 0][1]


def test_offline_checks(offline_out, tmp_path):
    art = offline_out / "artifacts"
    metrics = (art / "metrics.log").read_text()
    assert checks.em_monotone(metrics) == []
    assert checks.disc_eval_below_chance(metrics) == []
    assert checks.manifest_complete(art / "manifest.txt") == []

    last_gmm = [line for line in metrics.splitlines() if "stage=gmm_supp" in line][-1]
    assert checks.em_monotone(metrics + _set_field(last_gmm, "loss", "-1e9") + "\n")
    lines = metrics.splitlines()
    last_eval = max(i for i, line in enumerate(lines) if "stage=disc_eval" in line)
    lines[last_eval] = _set_field(lines[last_eval], "loss", "0.7")
    assert checks.disc_eval_below_chance("\n".join(lines) + "\n")

    copy = tmp_path / "artifacts"
    shutil.copytree(art, copy)
    (copy / "gmm_supp.ckpt").unlink()
    assert checks.manifest_complete(copy / "manifest.txt")


def test_odds_check(program, offline_out, tmp_path):
    demos = program.demos.load_demoset(offline_out / "expert.demos")
    states, actions = demos.states, demos.actions
    disc_path = offline_out / "artifacts" / "discriminator.ckpt"
    disc, _ = program.discriminator.load_discriminator(disc_path)
    weights = program.discriminator.bc_weight(disc, states, actions)
    own, bounds = checks.disc_odds(disc_path, states, actions)
    assert checks.odds_match(own, bounds, weights) == []

    assert checks.odds_match(own, bounds, weights * 2.0)
    assert checks.odds_match(own, bounds, np.full_like(weights, 100.0))
    raw = bytearray(disc_path.read_bytes())
    raw[-8:] = np.array([5.0], dtype="<f8").tobytes()  # output bias
    bad = tmp_path / "discriminator.ckpt"
    bad.write_bytes(bytes(raw))
    assert checks.odds_match(checks.disc_odds(bad, states, actions)[0], bounds, weights)


def test_online_checks(runs):
    _, work = runs["online-adapt", 0, 0]
    size = TINY["online-adapt"]
    out = next(work.glob("online-*"))
    triggers = (out / "triggers.log").read_text()
    count = triggers.count("triggered=1")
    assert count > 0
    assert checks.trigger_replay(triggers, 0.6, 20, count) == []
    assert checks.trigger_replay(triggers, 0.6, 20, count + 1)

    flipped = _replace_line(triggers, lambda line: "triggered=1" in line,
                            lambda line: line.replace("triggered=1", "triggered=0"))
    assert checks.trigger_replay(flipped, 0.6, 20, count)
    wide = _replace_line(triggers, lambda line: "triggered=0" in line,
                         lambda line: _set_field(line, "kappa", "1.5"))
    assert any("outside [0, 1]" in p for p in checks.trigger_replay(wide, 0.6, 20, count))

    returns_text = (out / "returns.log").read_text()
    returns, problems = checks.episode_returns(returns_text, size["episodes"])
    assert problems == []
    assert checks.episode_returns(returns_text, size["episodes"] + 1)[1]
    nan = _replace_line(returns_text, lambda line: True,
                        lambda line: _set_field(line, "return", "nan"))
    assert checks.episode_returns(nan, size["episodes"])[1]
    assert checks.adaptation_gain([returns]) == []
    assert checks.adaptation_gain([returns[::-1]])


def test_sweep_checks(runs):
    _, work = runs["eval-sweep", 0, 0]
    size = TINY["eval-sweep"]
    records = (work / "sweep" / "records.txt").read_text()
    refs = (work / "pendulum.refs").read_text()
    policy = work / "artifacts" / "policy.ckpt"
    base = SEED * size["runs"]
    replay = {(s, base): checks.pendulum_returns(policy, s, base, size["episodes"])
              for s in (0.0, 0.2)}
    assert checks.sweep_replay(records, refs, replay) == []
    sigmas = run.EvalSweep.SIGMAS
    assert checks.sweep_shape(records, sigmas, size["runs"], size["episodes"]) == []
    assert checks.sweep_shape(records, sigmas, size["runs"] + 1, size["episodes"])

    def cell(line):
        return line.startswith("kind=cell sigma=0.2 ")

    for field in ("mean_return", "score", "stability"):
        edited = _replace_line(records, cell, lambda line: _set_field(
            line, field, repr(float(np.nextafter(
                float(dict(t.split("=", 1) for t in line.split())[field]), np.inf)))))
        assert checks.sweep_replay(edited, refs, replay), field
    rand = float(checks.parse_records(refs.split(" ", 1)[1])[0]["random_return"])
    shifted = refs.replace(f"random_return={rand!r}", f"random_return={rand - 1.0!r}")
    assert shifted != refs
    assert checks.sweep_replay(records, shifted, replay)
    other = {(0.2, base): checks.pendulum_returns(policy, 0.2, base + 1, size["episodes"])}
    assert checks.sweep_replay(records, refs, other)
