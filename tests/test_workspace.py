"""Preallocated workspaces: reusing one across online updates changes no
result, a second update through it allocates nothing that grows with the
data, and the kernels rewritten to work in place keep their bits."""

import copy
import tracemalloc

import numpy as np
import pytest

from driftbc import discriminator, envs, numeric, offline, online, policy
from driftbc.demos import generate_tier
from driftbc.density import fit_gmm
from driftbc.discriminator import init_discriminator
from driftbc.errors import ShapeError
from oracles import adam_oracle, sigmoid_masked_oracle

ENV = "pointmass2d"
CAPACITY = 2000


@pytest.fixture(scope="module")
def data():
    spec = envs.make_spec(ENV)
    return {"expert": generate_tier(spec, "expert", 3, seed=5),
            "supp": generate_tier(spec, "medium", 6, seed=5)}


def fresh_artifacts():
    spec = envs.make_spec(ENV)
    disc = init_discriminator(spec.state_dim, spec.action_dim,
                              rng=np.random.default_rng(71))
    pol = policy.init_policy(spec.state_dim, spec.action_dim, spec.action_low,
                             spec.action_high, rng=np.random.default_rng(72))
    config = offline.OfflineConfig(env_id=ENV, expert_demos="e", supp_demos="s")
    return offline.OfflineArtifacts(config=config, policy=pol, discriminator=disc)


def snapshot(data, n, seed, poison=False):
    rng = np.random.default_rng(seed)
    supp = data["supp"]
    rows = rng.integers(0, supp.n_samples, n)
    states = supp.states[rows] + rng.normal(0.0, 0.1, (n, supp.state_dim))
    if poison:
        states[n // 2, 0] = np.nan  # a non-finite loss at the first step that draws it
    return states, supp.actions[rows], rng.uniform(0.0, 0.4, n)


def sized_to(art, expert, snap):
    """A new workspace that just fits the expert rows and the snapshot."""
    return online.UpdateWorkspace(art, expert.n_samples + len(snap[0]))


def model_bytes(art):
    return art.discriminator.net.params.tobytes() + art.policy.params.tobytes()


# ------------------------------------------------------------- reuse


def test_reused_workspace_matches_fresh_workspaces(data):
    expert = data["expert"]
    config = online.OnlineUpdateConfig(disc_steps=6, policy_steps=6)
    snaps = [snapshot(data, 1, 1), snapshot(data, 64, 2), snapshot(data, CAPACITY, 3),
             snapshot(data, 64, 4, poison=True), snapshot(data, 1, 5),
             snapshot(data, CAPACITY, 6), snapshot(data, 64, 7)]
    reused = fresh_artifacts()
    fresh = copy.deepcopy(reused)
    workspace = online.UpdateWorkspace(reused, expert.n_samples + CAPACITY)
    outcomes = []
    for index, snap in enumerate(snaps):
        before = model_bytes(reused)
        ok = online.online_update(reused, snap, expert, config, 11, index, workspace)
        assert online.online_update(fresh, snap, expert, config, 11, index,
                                    sized_to(fresh, expert, snap)) == ok
        assert model_bytes(reused) == model_bytes(fresh)
        assert (model_bytes(reused) == before) != ok
        outcomes.append(ok)
    assert outcomes == [True, True, True, False, True, True, True]


def test_run_online_matches_a_fresh_workspace_per_update(data, monkeypatch):
    expert = data["expert"]
    art = fresh_artifacts()
    art.gmm_expert = fit_gmm(expert.states, n_components=3, seed=1, provenance="e")
    art.gmm_supp = fit_gmm(data["supp"].states, n_components=3, seed=2, provenance="s")
    config = online.OnlineUpdateConfig(disc_steps=3, policy_steps=3)
    shared = copy.deepcopy(art)
    result = online.run_online(shared, expert, 0.1, 2, adapt="always", seed=4,
                               patience=10, update_config=config)

    original = online.online_update
    seen = []

    def with_fresh_workspace(*args):
        seen.append(args[-1])
        return original(*args[:-1], sized_to(args[0], args[2], args[1]))

    monkeypatch.setattr(online, "online_update", with_fresh_workspace)
    again = online.run_online(art, expert, 0.1, 2, adapt="always", seed=4,
                              patience=10, update_config=config)
    assert result.update_invocations == again.update_invocations > 5
    assert len({id(w) for w in seen}) == 1
    assert isinstance(seen[0], online.UpdateWorkspace)
    assert model_bytes(shared) == model_bytes(art)
    assert result.episode_returns.tobytes() == again.episode_returns.tobytes()


def test_workspace_too_small_is_refused(data):
    art = fresh_artifacts()
    small = online.UpdateWorkspace(art, data["expert"].n_samples + 10)
    with pytest.raises(ShapeError, match="do not fit"):
        online.online_update(art, snapshot(data, 11, 8), data["expert"],
                             online.OnlineUpdateConfig(), 0, 0, small)
    states, actions, _ = snapshot(data, small.disc.rows + 1, 8)
    with pytest.raises(ShapeError, match="do not fit"):
        discriminator.bc_weight(art.discriminator, states, actions, small.disc)
    with pytest.raises(ShapeError, match="do not fit"):
        numeric.forward_cache(art.policy.mean_net, states, small.policy)


def test_second_update_allocates_less_than_one_full_data_buffer(data):
    expert = data["expert"]
    art = fresh_artifacts()
    workspace = online.UpdateWorkspace(art, expert.n_samples + CAPACITY)
    snap = snapshot(data, CAPACITY, 9)
    config = online.OnlineUpdateConfig(disc_steps=4, policy_steps=4)
    assert online.online_update(art, snap, expert, config, 0, 0, workspace)
    tracemalloc.start()
    try:
        assert online.online_update(art, snap, expert, config, 0, 1, workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    hidden = art.discriminator.net.layer_dims[1]
    assert peak < (expert.n_samples + CAPACITY) * hidden * 8


# ------------------------------------------------------------- kernels


def test_bc_weight_through_the_update_workspace_keeps_its_bits(data):
    art = fresh_artifacts()
    workspace = online.UpdateWorkspace(art, data["expert"].n_samples + CAPACITY)
    for rows in (1, 64, data["expert"].n_samples + 1, workspace.rows):
        states, actions, _ = snapshot(data, rows, 12)
        got = discriminator.bc_weight(art.discriminator, states, actions, workspace.disc)
        want = discriminator.bc_weight(art.discriminator, states, actions)
        assert got.tobytes() == want.tobytes(), rows


def test_width_one_product_matches_matmul_with_signed_zeros():
    rng = np.random.default_rng(73)
    net = numeric.init_mlp((5, 1), "tanh", rng)
    net.weights[0][0, 1] = 0.0
    net.weights[0][0, 2] = -0.0
    net.weights[0][0, 4] = 1e-300
    upstream = rng.standard_normal((40, 1))
    upstream[::3] = -0.0
    upstream[1::5] = 0.0
    upstream[2::7] = -1e-300
    x = rng.standard_normal((40, 5))
    _, _, got = numeric.backward(net, x, upstream)
    want = np.matmul(upstream, net.weights[0])
    assert np.signbit(upstream * net.weights[0]).sum() > np.signbit(want).sum()
    assert got.tobytes() == want.tobytes()


def test_mask_free_sigmoid_matches_masked_formula():
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
                        2.2250738585072014e-308, -2.2250738585072014e-308,
                        36.7, -36.7, 709.0, -709.0, 745.2, -745.2, 800.0, -800.0])
    z = np.concatenate([special, np.random.default_rng(74).uniform(-800.0, 800.0, 5000),
                        np.random.default_rng(75).standard_normal(5000) * 5.0])
    with np.errstate(over="ignore", under="ignore"):
        got = discriminator.sigmoid(z)
        want = sigmoid_masked_oracle(z)
    assert got.tobytes() == want.tobytes()
    nan = discriminator.sigmoid(np.array([np.nan, -np.nan, 1.0]))
    assert np.isnan(nan[:2]).all() and nan[2] == sigmoid_masked_oracle(np.array([1.0]))[0]


def test_adam_step_with_scratch_matches_whole_array_expressions():
    rng = np.random.default_rng(76)
    net = numeric.init_mlp((4, 7, 3), "tanh", rng)
    params = numeric.mlp_params(net)
    ref = [p.copy() for p in params]
    first = [np.zeros_like(p) for p in ref]
    second = [np.zeros_like(p) for p in ref]
    state = numeric.init_adam(params, learning_rate=3e-3)
    for t in range(1, 101):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2) for p in params]
        numeric.adam_step(params, grads, state)
        adam_oracle(ref, grads, first, second, t, 3e-3)
        for p, r in zip(params, ref):
            assert p.tobytes() == r.tobytes(), t
