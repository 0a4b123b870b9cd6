"""Self-contained desk checks of the training math against closed forms.

Each check builds its own synthetic inputs, compares an implementation value
against an independently derived one, and reports a named pass/fail line.
The whole suite runs in seconds on one core so it can gate a fresh checkout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import fit_gmm, JointDensityModel, joint_log_density
from .discriminator import (bc_weight, combined_offline_loss,
                            init_discriminator, pointwise_optimum,
                            posterior_target, reg_weight_at)
from .errors import ConfigError
from .numeric import mlp_params, named_generator
from .policy import init_policy, policy_params, weighted_bc_loss

FD_EPS = 1e-6
FD_TOL = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ------------------------------------------------------------ closed forms


def check_lambda_schedule() -> CheckResult:
    """Regularizer weight: 1 through the cutoff, then inverse-log decay."""
    flat = [reg_weight_at(s, 10000) for s in (1, 500, 10000)]
    value = reg_weight_at(10001, 10000)
    expected = 1.0 / (1.0 + np.log(2.0))
    ok = all(v == 1.0 for v in flat) and abs(value - expected) <= 1e-4
    detail = (f"weight(10001, cutoff=10000) = {value:.6f}, closed form "
              f"1/(1+ln 2) = {expected:.6f} (tol 1e-4); weight = 1.0 on steps "
              f"1..10000: {all(v == 1.0 for v in flat)}")
    return CheckResult("lambda_schedule", ok, detail)


def check_weight_bounds(seed: int = 0) -> CheckResult:
    """Clipped discriminator output keeps BC weights inside [1/99, 99]."""
    rng = named_generator(seed, "verify_weight_bounds")
    disc = init_discriminator(3, 2, hidden_dims=(8,), rng=rng)
    states = rng.standard_normal((256, 3)) * 5.0
    actions = rng.standard_normal((256, 2)) * 5.0
    mild = bc_weight(disc, states, actions)

    # saturate the clip on both sides with a hand-built single-layer scorer
    hot = init_discriminator(1, 1, hidden_dims=(), activation="identity", rng=rng)
    hot.net.weights[0][:] = 1000.0
    hot.net.biases[0][:] = 0.0
    ones = np.ones((1, 1))
    high = float(bc_weight(hot, ones, ones)[0])
    low = float(bc_weight(hot, -ones, -ones)[0])

    lo_bound, hi_bound = 0.01 / 0.99, 0.99 / 0.01
    values = np.concatenate([np.atleast_1d(mild), [high, low]])
    ok = (values.min() >= lo_bound - 1e-12 and values.max() <= hi_bound + 1e-12
          and abs(high - hi_bound) <= 1e-9 and abs(low - lo_bound) <= 1e-9)
    detail = (f"weights in [{values.min():.6f}, {values.max():.6f}], bounds "
              f"[1/99, 99] = [{lo_bound:.6f}, {hi_bound:.6f}], clip attained "
              f"on saturated scorer")
    return CheckResult("weight_bounds", ok, detail)


def check_closed_form_optimum() -> CheckResult:
    """Unregularized pointwise optimum with a 9x supplementary coefficient."""
    value = pointwise_optimum(1.0, 1.0, supp_coef=9.0, reg_weight=0.0)
    expected = 0.1
    ok = abs(value - expected) <= 1e-9
    detail = (f"optimum at supp coefficient 9, reg weight 0 = {value:.12f}, "
              f"closed form 1/(1+9) = {expected} (tol 1e-9)")
    return CheckResult("closed_form_optimum", ok, detail)


def check_optimum_limits() -> CheckResult:
    """The optimum interpolates from the weighted closed form to the target."""
    cases = [(1.0, 2.0, 3.0), (2.0, 1.0, 0.5), (0.5, 0.5, 1.0)]
    worst_zero = 0.0
    worst_inf = 0.0
    for p_e, p_s, coef in cases:
        at_zero = pointwise_optimum(p_e, p_s, supp_coef=coef, reg_weight=0.0)
        closed = p_e / (p_e + coef * p_s)
        worst_zero = max(worst_zero, abs(at_zero - closed))
        at_inf = pointwise_optimum(p_e, p_s, supp_coef=coef, reg_weight=1e8,
                                   mix_density=p_e + p_s)
        worst_inf = max(worst_inf, abs(at_inf - posterior_target(p_e, p_s)))
    ok = worst_zero <= 1e-9 and worst_inf <= 1e-3
    detail = (f"reg weight 0 vs closed form: max |diff| = {worst_zero:.2e} "
              f"(tol 1e-9); reg weight 1e8 vs posterior target: max |diff| = "
              f"{worst_inf:.2e} (tol 1e-3)")
    return CheckResult("optimum_limits", ok, detail)


def check_boundary_bias() -> CheckResult:
    """A 10x supplementary oversample drags the unregularized optimum far off
    the posterior; the quadratic penalty pulls it back."""
    # equal densities at the crossover point, so the unbiased answer is 0.5
    biased = pointwise_optimum(1.0, 1.0, supp_coef=10.0, reg_weight=0.0)
    pulled = pointwise_optimum(1.0, 1.0, supp_coef=10.0, reg_weight=50.0,
                               mix_density=2.0)
    target = posterior_target(1.0, 1.0)
    ok = (abs(biased - 1.0 / 11.0) <= 1e-9
          and abs(pulled - target) < abs(biased - target)
          and abs(pulled - target) <= 0.15)
    detail = (f"crossover optimum without penalty = {biased:.6f} (= 1/11, far "
              f"from target 0.5); with penalty weight 50 = {pulled:.6f} "
              f"(within 0.15 of 0.5)")
    return CheckResult("boundary_bias", ok, detail)


# ------------------------------------------------------- gradient checking


def _max_fd_error(loss_fn, params) -> float:
    """Largest symmetric relative error between analytic and central-difference
    gradients, checking every coordinate of every parameter array."""
    _, grads = loss_fn()
    worst = 0.0
    for p, g in zip(params, grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + FD_EPS
            hi = loss_fn()[0]
            p[idx] = orig - FD_EPS
            lo = loss_fn()[0]
            p[idx] = orig
            fd = (hi - lo) / (2.0 * FD_EPS)
            scale = max(1e-8, abs(fd) + abs(g[idx]))
            worst = max(worst, abs(fd - g[idx]) / scale)
    return worst


def check_disc_gradients(seed: int = 0) -> CheckResult:
    """Combined discriminator loss backprop vs central finite differences."""
    rng = named_generator(seed, "verify_disc_grad")
    disc = init_discriminator(2, 1, hidden_dims=(4,), rng=rng)
    expert = (rng.standard_normal((8, 2)), rng.standard_normal((8, 1)))
    supp = (rng.standard_normal((8, 2)), rng.standard_normal((8, 1)))
    mixed = (rng.standard_normal((8, 2)), rng.standard_normal((8, 1)))
    ratios = rng.uniform(0.5, 2.0, 8)
    targets = rng.uniform(0.1, 0.9, 8)

    def loss_fn():
        return combined_offline_loss(disc, expert, supp, mixed, ratios,
                                     targets, reg_weight=0.6)

    err = _max_fd_error(loss_fn, mlp_params(disc.net))
    ok = err <= FD_TOL
    detail = (f"max symmetric relative error over all coordinates = {err:.2e} "
              f"(tol {FD_TOL:.0e})")
    return CheckResult("disc_gradients", ok, detail)


def check_policy_gradients(seed: int = 0) -> CheckResult:
    """Weighted BC loss backprop vs central finite differences."""
    rng = named_generator(seed, "verify_policy_grad")
    bound = np.ones(2)
    policy = init_policy(3, 2, -bound, bound, hidden_dims=(4,), rng=rng)
    states = rng.standard_normal((8, 3))
    actions = rng.uniform(-1.0, 1.0, (8, 2))
    weights = rng.uniform(0.2, 5.0, 8)

    def loss_fn():
        return weighted_bc_loss(policy, states, actions, weights)

    err = _max_fd_error(loss_fn, policy_params(policy))
    ok = err <= FD_TOL
    detail = (f"max symmetric relative error over all coordinates = {err:.2e} "
              f"(tol {FD_TOL:.0e})")
    return CheckResult("policy_gradients", ok, detail)


# -------------------------------------------------------- density checking


def check_em_monotonic(seed: int = 0) -> CheckResult:
    """EM never decreases the data log-likelihood it maximizes."""
    rng = named_generator(seed, "verify_em")
    states = np.concatenate([
        rng.standard_normal((200, 2)) + 3.0,
        rng.standard_normal((200, 2)) - 3.0,
    ])
    model = fit_gmm(states, n_components=2, seed=seed, provenance="verify")
    history = np.asarray(model.ll_history)
    diffs = np.diff(history)
    worst = float(diffs.min()) if diffs.size else 0.0
    ok = history.size >= 2 and worst >= -1e-9
    detail = (f"{history.size} EM iterations, smallest log-likelihood "
              f"increment = {worst:.2e} (tol -1e-9)")
    return CheckResult("em_monotonicity", ok, detail)


def check_joint_normalization(seed: int = 0) -> CheckResult:
    """The state-density times action-conditional factorization integrates
    to one over a box that captures essentially all mass (1-D toy)."""
    rng = named_generator(seed, "verify_joint")
    states = np.concatenate([
        rng.standard_normal((150, 1)) * 0.7 + 1.5,
        rng.standard_normal((150, 1)) * 0.7 - 1.5,
    ])
    gmm = fit_gmm(states, n_components=2, seed=seed, provenance="verify")
    bound = np.array([1e9])
    policy = init_policy(1, 1, -bound, bound, hidden_dims=(4,),
                         init_log_std=-0.3, rng=rng, provenance="verify")
    joint = JointDensityModel(policy_ref=policy, gmm=gmm)

    s_grid = np.linspace(-9.0, 9.0, 601)
    a_grid = np.linspace(-8.0, 8.0, 401)
    ss, aa = np.meshgrid(s_grid, a_grid, indexing="ij")
    log_p = joint_log_density(joint, ss.reshape(-1, 1), aa.reshape(-1, 1))
    density = np.exp(log_p).reshape(ss.shape)
    integral = float(np.trapezoid(np.trapezoid(density, a_grid, axis=1), s_grid))
    ok = abs(integral - 1.0) <= 1e-2
    detail = (f"quadrature of exp(joint log density) over the support box = "
              f"{integral:.6f} (tol 1e-2 around 1)")
    return CheckResult("joint_normalization", ok, detail)


# -------------------------------------------------------------- suite entry


ALL_CHECKS = (
    ("lambda_schedule", check_lambda_schedule),
    ("weight_bounds", check_weight_bounds),
    ("closed_form_optimum", check_closed_form_optimum),
    ("optimum_limits", check_optimum_limits),
    ("boundary_bias", check_boundary_bias),
    ("disc_gradients", check_disc_gradients),
    ("policy_gradients", check_policy_gradients),
    ("em_monotonicity", check_em_monotonic),
    ("joint_normalization", check_joint_normalization),
)

_SEEDED = {"weight_bounds", "disc_gradients", "policy_gradients",
           "em_monotonicity", "joint_normalization"}


def run_checks(names=None, seed: int = 0) -> list[CheckResult]:
    """Run the named checks (all by default) in declaration order. An empty
    list of names is refused: a run that checks nothing passes nothing.

    A check that raises is reported as a failure under its own name rather
    than aborting the suite.
    """
    table = dict(ALL_CHECKS)
    if names is None:
        names = [name for name, _ in ALL_CHECKS]
    if not names:
        raise ConfigError("no checks named; valid: " + ", ".join(table))
    unknown = [n for n in names if n not in table]
    if unknown:
        raise ConfigError(
            f"unknown checks {unknown}; valid: {', '.join(table)}")
    results = []
    for name in names:
        fn = table[name]
        try:
            results.append(fn(seed) if name in _SEEDED else fn())
        except Exception as exc:  # a crash is a failed check, not an abort
            results.append(CheckResult(name, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def format_results(results) -> str:
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
             for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
