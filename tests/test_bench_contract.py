"""What the traced benchmark run needs of the program: every function its
span recorder wraps exists, and the arguments it measures sit where it reads
them. A rename would otherwise fail only under `driftbench/run.py --trace 1`."""

import importlib
import importlib.util
import inspect
import os
from pathlib import Path

import numpy as np
import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "driftbench" / "spans.py"

# MEASURES entry -> (position, name) of the argument it reads
MEASURED_ARGS = {
    "numeric.forward": (1, "x"),
    "numeric.backward": (1, "x"),
    "discriminator.bc_weight": (1, "s"),
    "density.joint_log_density": (1, "s"),
    "online.buffer_snapshot": (0, "detector"),
    "configio.write_text_atomic": (1, "text"),
    "offline.save_offline_artifacts": (0, "out_dir"),
}
# MEASURES entries that read only the result
RESULT_ONLY = {"density.fit_gmm"}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("driftbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(key):
    module, function = key.split(".")
    return getattr(importlib.import_module(f"driftbc.{module}"), function)


def test_every_layer_function_resolves(spans):
    for module, functions in spans.LAYERS.items():
        for function in functions:
            assert callable(resolve(f"{module}.{function}")), f"{module}.{function}"


def test_measured_arguments_keep_their_positions(spans):
    assert set(spans.MEASURES) == set(MEASURED_ARGS) | RESULT_ONLY
    for key, (position, name) in MEASURED_ARGS.items():
        params = list(inspect.signature(resolve(key)).parameters)
        assert params[position] == name, f"{key}: {params}"


@pytest.mark.parametrize("full", [True, False], ids=["full", "policy-only"])
def test_saved_bytes_cover_exactly_the_files_written(spans, tmp_path, full):
    """offline.save_offline_artifacts.bytes sums the sizes of the names
    save_offline_artifacts returns, read under its out_dir argument: those
    names must be every file it wrote there, each once."""
    from driftbc import density, discriminator, envs, offline, policy

    spec = envs.make_spec("pointmass2d")
    rng = np.random.default_rng(0)

    def pol():
        return policy.init_policy(spec.state_dim, spec.action_dim, spec.action_low,
                                  spec.action_high, rng=rng)

    def gmm():
        return density.fit_gmm(rng.normal(size=(40, spec.state_dim)), n_components=2)

    config = offline.OfflineConfig(env_id="pointmass2d", expert_demos="e.demos",
                                   supp_demos="s.demos", plain_bc=not full)
    art = offline.OfflineArtifacts(config=config, policy=pol(), metrics="m\n")
    if full:
        art.discriminator = discriminator.init_discriminator(
            spec.state_dim, spec.action_dim, rng=rng)
        art.ref_expert, art.ref_supp = pol(), pol()
        art.gmm_expert, art.gmm_supp = gmm(), gmm()
    out = tmp_path / "run"
    written = offline.save_offline_artifacts(out, art)
    assert len(written) == len(set(written))
    assert sorted(written) == sorted(os.listdir(out))
    total = sum(p.stat().st_size for p in out.iterdir())
    assert spans._saved_bytes((out, art), {}, written) == total


def test_online_update_returns_exactly_true_or_false(spans):
    """online.online_update.failed counts a call whose result `is False`
    (FAILED_RESULTS): a failed update must return False itself, and a
    successful one True, or the traced failure count reads 0."""
    from driftbc import discriminator, envs, offline, online, policy
    from driftbc.demos import generate_tier

    spec = envs.make_spec("pointmass2d")
    rng = np.random.default_rng(1)
    expert = generate_tier(spec, "expert", 2, seed=5)
    config = offline.OfflineConfig(env_id="pointmass2d", expert_demos="e.demos",
                                   supp_demos="s.demos")
    art = offline.OfflineArtifacts(
        config=config,
        policy=policy.init_policy(spec.state_dim, spec.action_dim, spec.action_low,
                                  spec.action_high, rng=rng),
        discriminator=discriminator.init_discriminator(spec.state_dim, spec.action_dim,
                                                       rng=rng))
    states, actions = expert.states[:30] + 0.3, expert.actions[:30]
    poisoned = states.copy()
    poisoned[:, 0] = np.nan  # every batch draws a non-finite row
    update_config = online.OnlineUpdateConfig(disc_steps=3, policy_steps=3)
    failed = spans.FAILED_RESULTS["online.online_update"]
    for snap_states, want in ((poisoned, False), (states, True)):
        result = online.online_update(art, (snap_states, actions, np.full(30, 0.2)),
                                      expert, update_config, 0, 0)
        assert result is want
        assert failed(result) is not want
