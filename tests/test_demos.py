"""Demonstration tiers: generation statistics, mixing, holdout splitting, and
the bit-exact file format with its distinct failure modes."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftbc import demos, envs
from driftbc.demos import DemoSet, TierRun
from driftbc.errors import ConfigError, DataError
from driftbc.numeric import format_header, named_generator
from driftbc.policy import sample_action


def pm_spec():
    return envs.make_spec("pointmass2d")


def assert_sets_equal(a, b, check_returns=True):
    assert a.env_id == b.env_id
    assert (a.state_dim, a.action_dim, a.seed) == (b.state_dim, b.action_dim, b.seed)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.episode_ids, b.episode_ids)
    assert np.array_equal(a.step_indices, b.step_indices)
    assert a.tier_runs == b.tier_runs
    if check_returns and a.episode_returns is not None and b.episode_returns is not None:
        assert np.array_equal(a.episode_returns, b.episode_returns)


# -------------------------------------------------------------- generation


# sha256 of save_demoset's file for generate_tier(spec, tier, 3, seed=2),
# taken with numpy 2.4.6 on x86-64 from per-step action draws, whose values
# a tier's one block of draws must hold
TIER_DIGESTS = {
    ("pointmass2d", "expert"): "915aca4dc1ba62e6e66b9ccbbae6007a9ee6d1249f581b489aaaac361aac9650",
    ("pointmass2d", "medium"): "696e269de662ce83ea44615581c07c3c875f2c619a7591c8c6f2fc06ecbd5b68",
    ("pointmass2d", "medium_replay_like"):
        "013ec4f74111c2937c1049b36115178790b169c8bf8209b99a07b42a14d77cf5",
    ("pointmass2d", "random"): "6962e12ecf999f2e6eb270147248f12f8a7b91b0b6615031702d8778841d3dac",
    ("pendulum1", "expert"): "341e7d7b7f3a278cb2b4cc0179fb0fc070c5a6b950445d2d6bcd82cb6db936aa",
    ("pendulum1", "medium"): "cb18e5b275e0d28c32d5ff4658da767bb01b8ac1f9ab2d0a927601c92a929fb5",
    ("pendulum1", "medium_replay_like"):
        "2653589c1d060b70a09067c0bb2f53b6ac6ef340be22efe662c51992088fcdd2",
    ("pendulum1", "random"): "3a514dd005de95866f06d798ab45d49f70fac48bb9f52269da6c420b3fb3630c",
}


@pytest.mark.parametrize("env_id,tier", sorted(TIER_DIGESTS))
def test_every_tier_keeps_its_bytes(tmp_path, env_id, tier):
    path = tmp_path / "tier.demos"
    demos.save_demoset(path, demos.generate_tier(envs.make_spec(env_id), tier, 3, 2))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TIER_DIGESTS[env_id, tier]


def test_random_tier_action_stats():
    spec = pm_spec()
    ds = demos.generate_tier(spec, "random", 60, 0)
    assert ds.n_samples >= 10000
    means = ds.actions.mean(axis=0)
    assert np.all(np.abs(means) < 0.05)
    assert np.all(ds.actions >= spec.action_low) and np.all(ds.actions <= spec.action_high)


def test_expert_tier_matches_reference_return():
    spec = pm_spec()
    ref = demos.measure_reference_returns(spec, episodes=100, seed=11)
    tier = demos.generate_tier(spec, "expert", 100, 3)
    mean = tier.episode_returns.mean()
    assert abs(mean - ref.expert_return) <= 0.05 * abs(ref.expert_return)


def test_same_seed_bit_identical():
    spec = pm_spec()
    for tier in demos.TIERS:
        eps = 3 if tier == "medium_replay_like" else 6
        a = demos.generate_tier(spec, tier, eps, 11)
        b = demos.generate_tier(spec, tier, eps, 11)
        assert_sets_equal(a, b)


def test_seeds_change_data():
    spec = pm_spec()
    a = demos.generate_tier(spec, "medium", 4, 0)
    b = demos.generate_tier(spec, "medium", 4, 1)
    assert not np.array_equal(a.states, b.states)


def test_generate_rejects_bad_args():
    spec = pm_spec()
    with pytest.raises(ConfigError):
        demos.generate_tier(spec, "expertish", 5, 0)
    with pytest.raises(ConfigError):
        demos.generate_tier(spec, "expert", 0, 0)


def test_tier_separation_both_envs():
    for env_id in envs.ENV_IDS:
        spec = envs.make_spec(env_id)
        expert = demos.generate_tier(spec, "expert", 100, 0).episode_returns.mean()
        medium = demos.generate_tier(spec, "medium", 100, 0).episode_returns.mean()
        random_ = demos.generate_tier(spec, "random", 100, 0).episode_returns.mean()
        assert expert > medium > random_


def test_mrl_tier_is_on_support_but_weaker():
    spec = pm_spec()
    mrl = demos.generate_tier(spec, "medium_replay_like", 10, 2)
    expert = demos.generate_tier(spec, "expert", 10, 2)
    assert mrl.episode_returns.mean() < expert.episode_returns.mean()
    assert np.all(mrl.actions >= spec.action_low - 1e-12)
    assert np.all(mrl.actions <= spec.action_high + 1e-12)


def test_generation_columns_consistent():
    spec = pm_spec()
    ds = demos.generate_tier(spec, "expert", 5, 4)
    assert ds.states.shape == (ds.n_samples, 4)
    assert ds.actions.shape == (ds.n_samples, 2)
    assert ds.n_episodes == 5
    assert ds.tier_runs == (TierRun("expert", 5, ds.n_samples),)
    # step indices restart at 0 on every episode boundary
    for ep in range(5):
        steps = ds.step_indices[ds.episode_ids == ep]
        assert np.array_equal(steps, np.arange(len(steps)))


# ------------------------------------------------------------------ mixing


def test_mix_single_tier_identity():
    spec = pm_spec()
    ds = demos.generate_tier(spec, "medium", 8, 5)
    mixed = demos.mix_supplementary([ds])
    assert_sets_equal(mixed, ds, check_returns=False)


def test_mix_two_tiers():
    spec = pm_spec()
    med = demos.generate_tier(spec, "medium", 10, 5)
    rnd = demos.generate_tier(spec, "random", 10, 5)
    mixed = demos.mix_supplementary([med, rnd])
    assert mixed.n_samples == med.n_samples + rnd.n_samples
    assert mixed.tier_runs == (TierRun("medium", 10, med.n_samples),
                               TierRun("random", 10, rnd.n_samples))
    assert mixed.n_episodes == 20
    # episode ids renumbered to be unique across the mix
    med_block = mixed.episode_ids[:med.n_samples]
    rnd_block = mixed.episode_ids[med.n_samples:]
    assert set(np.unique(med_block)) == set(range(10))
    assert set(np.unique(rnd_block)) == set(range(10, 20))
    assert mixed.provenance_label() == "medium+random"


def test_mix_env_mismatch():
    pm = demos.generate_tier(pm_spec(), "random", 2, 0)
    pend = demos.generate_tier(envs.make_spec("pendulum1"), "random", 2, 0)
    with pytest.raises(DataError):
        demos.mix_supplementary([pm, pend])


def test_mix_needs_a_set():
    with pytest.raises(ConfigError):
        demos.mix_supplementary([])


def test_mix_deterministic_order():
    spec = pm_spec()
    med = demos.generate_tier(spec, "medium", 4, 5)
    rnd = demos.generate_tier(spec, "random", 4, 5)
    a = demos.mix_supplementary([med, rnd])
    b = demos.mix_supplementary([med, rnd])
    assert_sets_equal(a, b, check_returns=False)


# ----------------------------------------------------------------- holdout


def test_split_holdout_fractions():
    spec = pm_spec()
    ds = demos.generate_tier(spec, "medium", 20, 7)
    train, hold = demos.split_holdout(ds, 0.1)
    assert train.tier_runs[0].episodes == 18
    assert hold.tier_runs[0].episodes == 2
    assert train.n_samples + hold.n_samples == ds.n_samples
    # the held-out episodes are the trailing ones
    tail = ds.episode_ids >= 18
    assert np.array_equal(hold.states, ds.states[tail])
    assert set(np.unique(hold.episode_ids)) == {0, 1}


def test_split_holdout_tiny_run_overlaps():
    """A one-episode run keeps that episode on both sides rather than starving
    either split."""
    spec = pm_spec()
    expert = demos.generate_tier(spec, "expert", 1, 7)
    med = demos.generate_tier(spec, "medium", 100, 7)
    mixed = demos.mix_supplementary([expert, med])
    train, hold = demos.split_holdout(mixed, 0.1)
    assert train.tier_runs[0] == TierRun("expert", 1, expert.n_samples)
    assert hold.tier_runs[0] == TierRun("expert", 1, expert.n_samples)
    assert train.tier_runs[1].episodes == 90
    assert hold.tier_runs[1].episodes == 10


def test_split_holdout_bad_fraction():
    ds = demos.generate_tier(pm_spec(), "random", 2, 0)
    with pytest.raises(ConfigError):
        demos.split_holdout(ds, 0.0)
    with pytest.raises(ConfigError):
        demos.split_holdout(ds, 1.0)


@pytest.mark.parametrize("tier", demos.TIERS)
def test_episode_returns_are_np_sum_of_rewards(tier):
    # the reference returns of gen-refs are means of these, so their sum
    # stays np.sum over each episode's rewards, not a step-by-step +=; the
    # columns equal an independent loop's bit for bit, and every action is
    # stored as its tier drew it, which lies within the bounds
    for env_id in envs.ENV_IDS:
        spec = envs.make_spec(env_id)
        ds = demos.generate_tier(spec, tier, 4, 3)
        mrl = demos._mrl_policy(spec, 3) if tier == "medium_replay_like" else None
        expected, states, actions, ep_ids, step_ids = [], [], [], [], []
        for ep in range(4):
            env_rng = named_generator(3, f"ep{ep}_env")
            act_rng = named_generator(3, f"{tier}_ep{ep}_act")
            state = envs.reset(spec, env_rng)
            rewards = []
            for t in range(spec.horizon):
                if tier == "expert":
                    action = envs.scripted_expert(spec, state)
                elif tier == "medium":
                    action = np.clip(envs.scripted_expert(spec, state)
                                     + act_rng.standard_normal(spec.action_dim)
                                     * demos.MEDIUM_ACTION_NOISE,
                                     spec.action_low, spec.action_high)
                elif tier == "random":
                    action = act_rng.uniform(spec.action_low, spec.action_high)
                else:
                    action = sample_action(mrl, state,
                                           act_rng.standard_normal(spec.action_dim))
                states.append(state)
                actions.append(action)
                ep_ids.append(ep)
                step_ids.append(t)
                state, reward, done = envs.step(spec, state, action)
                rewards.append(reward)
                if done:
                    break
            expected.append(np.sum(rewards))
        assert ds.episode_returns.tobytes() == np.array(expected).tobytes()
        assert ds.states.tobytes() == np.array(states).tobytes()
        assert ds.actions.tobytes() == np.array(actions).tobytes()
        assert ds.episode_ids.tobytes() == np.array(ep_ids, dtype=np.int32).tobytes()
        assert ds.step_indices.tobytes() == np.array(step_ids, dtype=np.int32).tobytes()
        assert np.all(ds.actions >= spec.action_low) and np.all(ds.actions <= spec.action_high)


# ----------------------------------------------------------------- storage


def test_roundtrip_every_field(tmp_path):
    spec = pm_spec()
    med = demos.generate_tier(spec, "medium", 6, 5)
    rnd = demos.generate_tier(spec, "random", 3, 5)
    mixed = demos.mix_supplementary([med, rnd])
    path = tmp_path / "mix.demo"
    demos.save_demoset(path, mixed)
    back = demos.load_demoset(path)
    assert_sets_equal(back, mixed, check_returns=False)
    assert back.episode_returns is None


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 40), seed=st.integers(0, 2**31 - 1))
def test_roundtrip_property(tmp_path, n, seed):
    rng = np.random.default_rng(seed)
    ds = DemoSet(
        env_id="pointmass2d", state_dim=4, action_dim=2, seed=seed,
        states=rng.standard_normal((n, 4)),
        actions=rng.standard_normal((n, 2)),
        episode_ids=np.zeros(n, dtype=np.int32),
        step_indices=np.arange(n, dtype=np.int32),
        tier_runs=(TierRun("random", 1, n),),
    )
    path = tmp_path / f"prop_{seed}.demo"
    demos.save_demoset(path, ds)
    assert_sets_equal(demos.load_demoset(path), ds, check_returns=False)


def test_truncated_file_names_missing_bytes(tmp_path):
    spec = pm_spec()
    ds = demos.generate_tier(spec, "random", 2, 1)
    path = tmp_path / "full.demo"
    demos.save_demoset(path, ds)
    blob = path.read_bytes()

    mid_row = tmp_path / "midrow.demo"
    mid_row.write_bytes(blob[:-10])
    with pytest.raises(DataError, match="10 more"):
        demos.load_demoset(mid_row)

    row_size = 4 + 4 + 4 * 8 + 2 * 8
    on_boundary = tmp_path / "boundary.demo"
    on_boundary.write_bytes(blob[:-row_size])
    with pytest.raises(DataError, match=f"{row_size} bytes missing"):
        demos.load_demoset(on_boundary)


@pytest.mark.parametrize("edits, match", [
    # the tier run claims more episodes than the header's total
    ([(b"random:20:", b"random:40:")], "episodes do not sum"),
    # header and run agree, but the rows hold only 20 episode ids
    ([(b"random:20:", b"random:40:"), (b"episodes=20 ", b"episodes=40 ")],
     "holds 20 distinct episode ids"),
])
def test_episode_counts_must_match_rows(tmp_path, edits, match):
    path = tmp_path / "random.demo"
    demos.save_demoset(path, demos.generate_tier(pm_spec(), "random", 20, 0))
    header, payload = path.read_bytes().split(b"\n", 1)
    for old, new in edits:
        header = header.replace(old, new)
    path.write_bytes(header + b"\n" + payload)
    with pytest.raises(DataError, match=match):
        demos.load_demoset(path)


@pytest.mark.parametrize("ids", [[0, 5, 7], [1, 2, 3], [0, 0, 2]])
def test_episode_ids_must_be_the_runs_consecutive_block(tmp_path, ids):
    """Ids {0, 5, 7} under a 3-episode run used to load without a word;
    split_holdout then trained on 41 of the 72 samples and held out ids 3
    and 5."""
    ds = demos.generate_tier(pm_spec(), "expert", 3, 5)
    assert ds.n_samples == 72
    ds.episode_ids = np.array(ids, dtype=np.int32)[ds.episode_ids]
    path = tmp_path / "expert.demo"
    demos.save_demoset(path, ds)
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: tier run expert:3:72 "
                                        r"holds \d distinct episode ids, not the ids 0\.\.2"):
        demos.load_demoset(path)


def test_a_later_run_continues_the_ids_of_the_runs_before_it(tmp_path):
    mixed = demos.mix_supplementary([demos.generate_tier(pm_spec(), tier, 2, 1)
                                     for tier in ("medium", "random")])
    path = tmp_path / "mixed.demo"
    demos.save_demoset(path, mixed)
    assert_sets_equal(demos.load_demoset(path), mixed, check_returns=False)
    # the random run restarting at id 0 repeats the medium run's ids
    mixed.episode_ids[mixed.tier_runs[0].samples:] -= 2
    demos.save_demoset(path, mixed)
    with pytest.raises(DataError, match=r"tier run random:2:400 holds 2 distinct "
                                        r"episode ids, not the ids 2\.\.3"):
        demos.load_demoset(path)


@pytest.mark.parametrize("edits, cut, match", [
    ([(b"env_id=pointmass2d", b"env_id=pendulum1")], 0, "dimension inconsistency"),
    ([(b"episodes=2 ", b"episodes=3 ")], 0, "tier episodes do not sum"),
    ([(b"tiers=random:2:400", b"tiers=random:2")], 0, "malformed tier entry"),
    ([(b"tiers=random:", b"tiers=bogus:")], 0, "unknown tier 'bogus'"),
    ([(b"samples=400 ", b"samples=401 ")], 0, "tier samples do not sum"),
    ([], 10, "ends mid-row"),
    ([], 56, "demo file truncated"),
    ([(b"episodes=2 ", b"episodes=3 "), (b"random:2:", b"random:3:")], 0,
     "holds 2 distinct episode ids"),
])
def test_every_header_error_names_the_file(tmp_path, edits, cut, match):
    """The header checks used to raise without the path, so a run reading two
    demo files could not say which one was wrong."""
    path = tmp_path / "two.demo"
    demos.save_demoset(path, demos.generate_tier(pm_spec(), "random", 2, 1))
    header, payload = path.read_bytes().split(b"\n", 1)
    for old, new in edits:
        assert old in header
        header = header.replace(old, new)
    path.write_bytes(header + b"\n" + payload[:len(payload) - cut])
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: .*{match}"):
        demos.load_demoset(path)


def test_wrong_width_row_names_row(tmp_path):
    header = format_header(demos.DEMO_KIND, {
        "env_id": "pointmass2d", "state_dim": 4, "action_dim": 2,
        "seed": 0, "episodes": 1, "samples": 2, "tiers": "random:1:2",
    }).encode("ascii")
    good_row = np.zeros(1, dtype=np.dtype(
        [("ep", "<i4"), ("step", "<i4"), ("s", "<f8", (4,)), ("a", "<f8", (2,))]))
    short_row = np.zeros(1, dtype=np.dtype(
        [("ep", "<i4"), ("step", "<i4"), ("s", "<f8", (3,)), ("a", "<f8", (2,))]))
    path = tmp_path / "short.demo"
    path.write_bytes(header + good_row.tobytes() + short_row.tobytes())
    with pytest.raises(DataError, match="row 1"):
        demos.load_demoset(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.demo"
    path.write_bytes(b"not a header at all\n")
    with pytest.raises(DataError):
        demos.load_demoset(path)
    path.write_bytes(b"\xff\xfe binary junk\n")
    with pytest.raises(DataError):
        demos.load_demoset(path)


def test_wrong_kind_rejected(tmp_path):
    path = tmp_path / "other.demo"
    path.write_bytes(format_header("mlp", {"layer_dims": "1,1"}).encode("ascii"))
    with pytest.raises(DataError, match="demoset"):
        demos.load_demoset(path)


def test_header_dim_inconsistency(tmp_path):
    header = format_header(demos.DEMO_KIND, {
        "env_id": "pointmass2d", "state_dim": 3, "action_dim": 2,
        "seed": 0, "episodes": 0, "samples": 0, "tiers": "random:0:0",
    }).encode("ascii")
    path = tmp_path / "dims.demo"
    path.write_bytes(header)
    with pytest.raises(DataError, match="dimension inconsistency"):
        demos.load_demoset(path)


def test_header_missing_field(tmp_path):
    header = format_header(demos.DEMO_KIND, {
        "env_id": "pointmass2d", "state_dim": 4, "action_dim": 2,
        "seed": 0, "episodes": 1, "samples": 1,
    }).encode("ascii")
    path = tmp_path / "missing.demo"
    path.write_bytes(header)
    with pytest.raises(DataError, match="tiers"):
        demos.load_demoset(path)


# ------------------------------------------------------- reference returns


def test_reference_returns_roundtrip(tmp_path):
    spec = pm_spec()
    ref = demos.measure_reference_returns(spec, episodes=20, seed=7)
    assert ref.expert_return > ref.random_return
    path = tmp_path / "refs.txt"
    demos.save_reference_returns(path, ref)
    assert demos.load_reference_returns(path) == ref


def test_reference_returns_wrong_kind(tmp_path):
    path = tmp_path / "refs.txt"
    path.write_text(format_header("demoset", {"env_id": "x"}))
    with pytest.raises(DataError):
        demos.load_reference_returns(path)
