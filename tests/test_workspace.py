"""In-place kernels of the training step: the width-one product, the
mask-free sigmoid and Adam's scratch arrays keep the bits of their
whole-array formulas."""

import numpy as np

from driftbc import discriminator, numeric
from oracles import adam_oracle, sigmoid_masked_oracle


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
