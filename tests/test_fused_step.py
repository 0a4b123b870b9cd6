"""Flat parameter vectors and the fused loss steps.

Each loss runs one forward over its stacked row blocks and backpropagates
that cache once per term. The references here take the two-pass route the
public numeric.backward offers: a fresh forward and backward per term over
the same row blocks. Both routes must give the same bits, so that a trained
checkpoint does not depend on which route computed its gradients.
"""

import copy
import pickle

import numpy as np
import pytest

from driftbc import discriminator as disc
from driftbc import numeric, policy

# the batch size every trainer uses; the stacked blocks have this many rows
ROWS = 64


def make_policy(seed, state_dim=4, action_dim=2, hidden=(64, 64)):
    bound = np.ones(action_dim)
    return policy.init_policy(state_dim, action_dim, -bound, bound, hidden_dims=hidden,
                              init_log_std=-0.4, rng=np.random.default_rng(seed))


def make_disc(seed, state_dim=4, action_dim=2):
    return disc.init_discriminator(state_dim, action_dim, hidden_dims=(64, 64),
                                   rng=np.random.default_rng(seed))


def batch(rng, ds=4, da=2):
    return rng.standard_normal((ROWS, ds)), rng.standard_normal((ROWS, da))


def clipped(model, x):
    """Clipped outputs, and where the clip lets the gradient through."""
    d = disc.disc_forward(model, x[:, :-2], x[:, -2:])
    return d, (d > model.clip_lo) & (d < model.clip_hi)


def two_class_reference(model, xe, xo, w):
    """Gradient arrays of the expert-vs-other loss from numeric.backward."""
    x = np.vstack([xe, xo])
    d, active = clipped(model, x)
    ne, no = len(xe), len(xo)
    dz = np.concatenate([-(1.0 - d[:ne]) * active[:ne] / ne,
                         w * d[ne:] * active[ne:] / no])
    wg, bg, _ = numeric.backward(model.net, x, dz[:, None])
    return numeric.interleave_grads(wg, bg)


def reg_reference(model, xm, t):
    d, active = clipped(model, xm)
    dz = 2.0 * (d - t) * d * (1.0 - d) * active / len(xm)
    wg, bg, _ = numeric.backward(model.net, xm, dz[:, None])
    return numeric.interleave_grads(wg, bg)


def sa(batch_pair):
    return np.concatenate(batch_pair, axis=1)


@pytest.mark.parametrize("seed", range(5))
def test_stacked_forward_matches_separate_blocks(seed):
    # the fused losses rest on this: row blocks give the same outputs whether
    # they are forwarded alone or stacked
    model = make_disc(seed)
    rng = np.random.default_rng(100 + seed)
    blocks = [sa(batch(rng)) for _ in range(3)]
    stacked = numeric.forward(model.net, np.vstack(blocks))
    separate = np.vstack([numeric.forward(model.net, b) for b in blocks])
    assert stacked.tobytes() == separate.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_weighted_bc_flat_gradient_matches_backward(seed):
    pol = make_policy(seed)
    rng = np.random.default_rng(200 + seed)
    s, a = batch(rng)
    w = rng.uniform(1 / 99, 99, ROWS)
    _, grads = policy.weighted_bc_loss(pol, s, a, w)

    mu = numeric.forward(pol.mean_net, s)
    inv_var = np.exp(-2.0 * pol.log_std)
    diff = mu - a
    scaled = (w / ROWS)[:, None]
    wg, bg, _ = numeric.backward(pol.mean_net, s, scaled * diff * inv_var)
    log_std_grad = np.sum(scaled * (1.0 - diff * diff * inv_var), axis=0)
    expected = numeric.pack_floats(numeric.interleave_grads(wg, bg) + [log_std_grad])
    assert numeric.pack_floats(grads) == expected


@pytest.mark.parametrize("seed", range(5))
def test_online_disc_flat_gradient_matches_backward(seed):
    model = make_disc(seed)
    rng = np.random.default_rng(300 + seed)
    eb, ob = batch(rng), batch(rng)
    scores = rng.uniform(0.0, 1.0, ROWS)
    _, grads = disc.online_disc_loss(model, eb, (*ob, scores))
    expected = two_class_reference(model, sa(eb), sa(ob), scores)
    assert numeric.pack_floats(grads) == numeric.pack_floats(expected)


@pytest.mark.parametrize("reg_weight", [0.0, 0.5])
@pytest.mark.parametrize("seed", range(5))
def test_combined_offline_flat_gradient_matches_backward(seed, reg_weight):
    model = make_disc(seed)
    rng = np.random.default_rng(400 + seed)
    eb, sb, mb = batch(rng), batch(rng), batch(rng)
    ratios = rng.uniform(0.1, 10.0, ROWS)
    targets = rng.uniform(0.0, 1.0, ROWS)
    loss, grads = disc.combined_offline_loss(model, eb, sb, mb, ratios, targets,
                                             reg_weight)
    base = two_class_reference(model, sa(eb), sa(sb), ratios)
    if reg_weight:
        reg = reg_reference(model, sa(mb), targets)
        base = [g + reg_weight * h for g, h in zip(base, reg)]
    assert numeric.pack_floats(grads) == numeric.pack_floats(base)
    l_base, _ = disc.offline_disc_loss(model, eb, sb, ratios)
    l_reg, _ = disc.reg_loss(model, mb, targets)
    assert loss == (l_base + reg_weight * l_reg if reg_weight else l_base)


def test_flat_vectors_are_the_checkpoint_payload(tmp_path):
    pol = make_policy(7, hidden=(12, 7))
    model = make_disc(8)
    net = numeric.init_mlp((3, 9, 2), "tanh", np.random.default_rng(9))
    assert numeric.pack_floats(numeric.mlp_params(net)) == net.params.tobytes()
    assert numeric.pack_floats(policy.policy_params(pol)) == pol.params.tobytes()
    assert numeric.pack_floats(disc.disc_params(model)) == model.net.params.tobytes()

    policy.save_policy(tmp_path / "p.ckpt", pol)
    disc.save_discriminator(tmp_path / "d.ckpt", model)
    loaded_pol = policy.load_policy(tmp_path / "p.ckpt")[0]
    assert loaded_pol.params.tobytes() == pol.params.tobytes()
    assert np.shares_memory(loaded_pol.mean_net.params, loaded_pol.params)
    loaded_disc = disc.load_discriminator(tmp_path / "d.ckpt")[0]
    assert loaded_disc.net.params.tobytes() == model.net.params.tobytes()


def test_param_lists_alias_the_flat_vector():
    net = numeric.init_mlp((3, 5, 2), "tanh", np.random.default_rng(10))
    x = np.array([0.3, -0.2, 0.9])
    before = numeric.forward(net, x)
    numeric.mlp_params(net)[3][1] += 0.25  # b1[1], the second output's bias
    after = numeric.forward(net, x)
    assert after[0] == before[0] and after[1] == pytest.approx(before[1] + 0.25, abs=1e-12)
    assert net.params[-1] == net.biases[1][1]

    pol = make_policy(11, hidden=(6,))
    s = np.zeros(4)
    a = np.zeros(2)
    params = policy.policy_params(pol)
    assert all(np.shares_memory(p, pol.params) for p in params)
    lp = policy.log_prob(pol, s, a)
    params[-1][:] -= 1.0  # log_std is the tail of pol.params
    assert pol.params[-1] == pol.log_std[-1]
    assert policy.log_prob(pol, s, a) != lp
    pol.params[:] = 0.0
    assert np.all(policy.action_mean(pol, s) == 0.0)


@pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                       lambda p: pickle.loads(pickle.dumps(p))])
def test_copies_keep_their_own_shared_vector(duplicate):
    pol = make_policy(12, hidden=(6,))
    twin = duplicate(pol)
    assert (twin.state_dim, twin.action_dim) == (twin.mean_net.in_dim,
                                                 twin.mean_net.out_dim) == (4, 2)
    assert twin.params.tobytes() == pol.params.tobytes()
    assert not np.shares_memory(twin.params, pol.params)
    twin.params[:] = 0.0  # training writes here; the views must follow
    assert np.all(twin.log_std == 0.0)
    assert np.all(policy.action_mean(twin, np.ones(4)) == 0.0)
    assert not np.all(pol.params == 0.0)

    model = make_disc(13)
    twin_disc = duplicate(model)
    twin_disc.net.params[:] = 0.0
    assert all(np.all(w == 0.0) for w in twin_disc.net.weights)
    assert not np.all(model.net.params == 0.0)


def test_mismatched_parameter_shapes_rejected():
    with pytest.raises(numeric.ShapeError):
        numeric.MlpNetwork((2, 3), [np.zeros((2, 3))], [np.zeros(3)], "tanh")
    with pytest.raises(numeric.ShapeError):
        numeric.MlpNetwork((2, 3, 1), [np.zeros((3, 2))], [np.zeros(3)], "tanh")
