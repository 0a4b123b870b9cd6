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
