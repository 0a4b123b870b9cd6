"""Independent reference implementations used as test oracles.

Deliberately straight-line and redundant with nothing in the package: these are
what the package's analytic math is checked against.
"""

import numpy as np


def fd_grads(f, arrays, step=1e-5):
    """Central finite-difference gradients of the scalar f() w.r.t. each array.

    f takes no arguments and reads the arrays in place.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = a[idx]
            a[idx] = orig + step
            fp = f()
            a[idx] = orig - step
            fm = f()
            a[idx] = orig
            g[idx] = (fp - fm) / (2.0 * step)
            it.iternext()
        grads.append(g)
    return grads


def rel_err(a, b):
    """Norm-based relative error, safe near zero."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-8)
    return np.linalg.norm(a - b) / denom


def grads_close(analytic, numeric, tol=1e-4):
    return all(rel_err(a, n) < tol for a, n in zip(analytic, numeric))


def mlp_forward_oracle(weights, biases, activation, x):
    """Hand-rolled matrix-vector forward pass."""
    h = np.asarray(x, dtype=np.float64)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = w @ h + b
        if i == last:
            h = z
        elif activation == "tanh":
            h = np.tanh(z)
        elif activation == "relu":
            h = np.maximum(z, 0.0)
        else:
            h = z
    return h


def adam_scalar_sim(grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Scalar Adam trajectory, one position per step (x0 excluded)."""
    m = 0.0
    v = 0.0
    x = float(x0)
    xs = []
    for t, g in enumerate(grad_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
        xs.append(x)
    return xs


def trapezoid_integral_1d(f, lo, hi, n=2001):
    xs = np.linspace(lo, hi, n)
    ys = np.array([f(x) for x in xs])
    return np.trapezoid(ys, xs)


def trapezoid_integral_2d(f, lo1, hi1, lo2, hi2, n=201):
    xs = np.linspace(lo1, hi1, n)
    ys = np.linspace(lo2, hi2, n)
    vals = np.array([[f(x, y) for y in ys] for x in xs])
    inner = np.trapezoid(vals, ys, axis=1)
    return np.trapezoid(inner, xs)


def ema_deviation_oracle(returns, coef):
    """Brute-force mean |return - EMA| where the EMA includes the current return."""
    ema = returns[0]
    devs = []
    for i, r in enumerate(returns):
        if i == 0:
            ema = r
        else:
            ema = coef * r + (1 - coef) * ema
        devs.append(abs(r - ema))
    return float(np.mean(devs))


def gmm_log_density_oracle(weights, means, variances, s):
    """log sum_k w_k N(s; mu_k, diag var_k) for one state, one component at a
    time, shifted by the largest term. Each sum is np.sum over a 1-D array,
    which adds in the same order as numpy's sum along a row, so the result
    can be compared with the package bit for bit."""
    s = np.asarray(s, dtype=np.float64)
    terms = []
    for w, mu, var in zip(weights, means, variances):
        diff = s - mu
        quad = np.sum(diff * diff / var)
        norm = np.sum(np.log(2.0 * np.pi * var))
        terms.append(-0.5 * (norm + quad) + np.log(w))
    terms = np.array(terms)
    top = np.max(terms)
    return top + np.log(np.sum(np.exp(terms - top)))


def membership_oracle(weights, means, variances, log_quantile, s):
    """min(1, density / exp(log_quantile)) in log space."""
    return min(1.0, np.exp(gmm_log_density_oracle(weights, means, variances, s)
                           - log_quantile))


def env_step_oracle(spec, state, action):
    """envs.step as first written: np.clip for every clamp, np.linalg.norm
    for the distance to the goal, np.all(np.isfinite(...)) for the state
    check. Returns (next_state, reward, done), or raises NumericError."""
    from driftbc import envs
    from driftbc.errors import NumericError

    state = np.asarray(state, dtype=np.float64)
    if not np.all(np.isfinite(state)):
        raise NumericError(f"non-finite state passed to step: {state}")
    a = np.clip(np.asarray(action, dtype=np.float64), spec.action_low, spec.action_high)
    if spec.env_id == "pointmass2d":
        pos, vel = state[:2], state[2:]
        vel = envs.POINTMASS_DAMPING * vel + a * spec.dt
        pos = np.clip(pos + vel * spec.dt, -1.0, 1.0)
        dist = float(np.linalg.norm(pos - envs.POINTMASS_GOAL))
        next_state = np.concatenate([pos, vel])
        return next_state, -dist, dist < envs.POINTMASS_DONE_DIST
    theta = float(np.arctan2(state[1], state[0]))
    theta_dot = float(state[2])
    torque = float(a[0])
    theta_acc = ((-envs.PENDULUM_G / envs.PENDULUM_L) * np.sin(theta)
                 + torque / (envs.PENDULUM_M * envs.PENDULUM_L ** 2))
    theta_dot = float(np.clip(theta_dot + theta_acc * spec.dt,
                              -envs.PENDULUM_MAX_SPEED, envs.PENDULUM_MAX_SPEED))
    theta = theta + theta_dot * spec.dt
    from_upright = (theta - np.pi + np.pi) % (2.0 * np.pi) - np.pi
    reward = -(from_upright ** 2 + 0.1 * theta_dot ** 2 + 0.001 * torque ** 2)
    next_state = np.array([np.cos(theta), np.sin(theta), theta_dot])
    return next_state, float(reward), False


def sigmoid_masked_oracle(z):
    """The logistic function split by boolean masks on the sign of z."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def adam_oracle(params, grads, first, second, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam step as whole-array expressions, in place on
    params and the moment arrays; t counts from 1."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, first, second):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def fit_gmm_oracle(states, k, seed, alpha, cov_floor, max_iters=200, tol=1e-6):
    """EM for a diagonal-covariance mixture as first written: fresh (N, K, d)
    arrays every iteration, numpy's own .sum(axis=-1) for every reduction,
    and the calibration quantile from a second full E-step. Returns
    (weights, means, variances, ll_history, calibration quantile, floored)."""
    states = np.asarray(states, dtype=np.float64)
    n = states.shape[0]

    def weighted_log_densities(weights, variances, means, s):
        with np.errstate(divide="ignore"):
            log_weights = np.log(weights)
        log_norm = np.sum(np.log(2.0 * np.pi * variances), axis=1)
        diff = s[..., None, :] - means
        quad = (diff * diff / variances).sum(axis=-1)
        return -0.5 * (log_norm + quad) + log_weights

    def logsumexp(a):
        m = a.max(axis=-1)
        return m + np.log(np.exp(a - m[..., None]).sum(axis=-1))

    rng = np.random.default_rng(seed)
    seeds = [int(rng.integers(0, n))]
    min_d2 = np.sum((states - states[seeds[0]]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(min_d2))
        seeds.append(nxt)
        min_d2 = np.minimum(min_d2, np.sum((states - states[nxt]) ** 2, axis=1))
    means = states[seeds].copy()
    global_var = np.var(states, axis=0)
    floored = bool(np.any(global_var < cov_floor))
    variances = np.tile(np.maximum(global_var, cov_floor), (k, 1))
    weights = np.full(k, 1.0 / k)

    ll_history = []
    prev_ll = -np.inf
    for _ in range(max_iters):
        joint = weighted_log_densities(weights, variances, means, states)
        total = logsumexp(joint)
        ll = float(np.mean(total))
        ll_history.append(ll)
        resp = np.exp(joint - total[:, None])

        nk = resp.sum(axis=0)
        weights = nk / n
        safe_nk = np.maximum(nk, 1e-300)
        means = (resp.T @ states) / safe_nk[:, None]
        diff = states[:, None, :] - means[None, :, :]
        var_raw = np.einsum("nk,nkd->kd", resp, diff * diff) / safe_nk[:, None]
        if np.any(var_raw < cov_floor):
            floored = True
        variances = np.maximum(var_raw, cov_floor)

        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll

    train_ld = logsumexp(weighted_log_densities(weights, variances, means, states))
    return (weights, means, variances, ll_history,
            float(np.quantile(train_ld, alpha)), floored)
