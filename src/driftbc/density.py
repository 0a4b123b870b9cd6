"""State-marginal density estimation with diagonal-covariance Gaussian mixtures,
quantile-calibrated membership scores, joint densities p(s,a) = policy(a|s) * gmm(s),
and the clamped supplementary-over-expert density ratio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .numeric import RecordReader, pack_floats, write_record_file
from .policy import GaussianPolicy, log_prob

DEFAULT_K = 8
DEFAULT_ALPHA = 0.05
DEFAULT_COV_FLOOR = 1e-4
DEFAULT_RATIO_MIN = 0.1
DEFAULT_RATIO_MAX = 10.0
# EM stops after EM_MAX_ITERS, or once an iteration gains under EM_TOL
EM_MAX_ITERS = 200
EM_TOL = 1e-6


class CovarianceFloorWarning(UserWarning):
    """A mixture component collapsed and its variance was floored."""


@dataclass
class GmmModel:
    """Diagonal-covariance Gaussian mixture over states.

    calibration_log_quantile is the alpha-quantile of the training states' own
    log-densities; membership_score clamps against it. log_weights and
    log_norm (log w_k and sum_d log(2 pi var_kd)) are computed once at
    construction for the density evaluations; the mixture arrays are not
    meant to change after that.
    """

    mixture_weights: np.ndarray  # (K,)
    means: np.ndarray            # (K, d)
    variances: np.ndarray        # (K, d), every entry >= cov_floor
    calibration_log_quantile: float
    alpha: float
    cov_floor: float = DEFAULT_COV_FLOOR
    provenance: str = ""
    ll_history: list = field(default_factory=list, repr=False)
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    log_norm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.log_weights, self.log_norm = _log_constants(self.mixture_weights,
                                                         self.variances)

    @property
    def n_components(self) -> int:
        return self.mixture_weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_constants(weights, variances) -> tuple[np.ndarray, np.ndarray]:
    """log(weight_k), where a zero weight gives -inf, and each component's
    sum_d log(2 pi var_kd)."""
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    return log_weights, np.sum(np.log(2.0 * np.pi * variances), axis=1)


def _weighted_log_densities(log_weights, log_norm, model_means, model_vars,
                            states) -> np.ndarray:
    """log(weight_k) plus each component's diagonal-Gaussian log density,
    from the _log_constants of the mixture: (K,) for one state (d,), (N, K)
    for states (N, d)."""
    diff = states[..., None, :] - model_means                  # (..., K, d)
    quad = (diff * diff / model_vars).sum(axis=-1)
    return -0.5 * (log_norm + quad) + log_weights


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, shifted by its largest entry."""
    m = a.max(axis=-1)
    return m + np.log(np.exp(a - m[..., None]).sum(axis=-1))


def _farthest_point_seeds(states: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy max-min-distance seeding; first seed drawn at random."""
    n = states.shape[0]
    seeds = [int(rng.integers(0, n))]
    min_d2 = np.sum((states - states[seeds[0]]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(min_d2))
        seeds.append(nxt)
        d2 = np.sum((states - states[nxt]) ** 2, axis=1)
        min_d2 = np.minimum(min_d2, d2)
    return states[seeds].copy()


def _sum_last_axis(a: np.ndarray, out: np.ndarray) -> None:
    """out = a.sum(axis=-1), bit for bit, as one whole-column add per term.

    numpy reduces a contiguous last axis with its pairwise sum: fewer than 8
    terms are added left to right; from 8 to 128 terms, 8 accumulators take
    every 8th term and combine as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before
    the tail is added left to right; longer axes split in two halves of a
    multiple of 8 terms. The same adds run here column by column, which is
    faster than numpy's short inner loop when the last axis is short and the
    leading ones long. numpy starts from 0.0, which only turns a -0.0 sum
    into +0.0; the callers here sum terms that are never negative. a must be
    a scratch array: its columns hold the partial sums afterwards.
    """
    n = a.shape[-1]
    col = [a[..., j] for j in range(n)]
    if n < 8:
        np.copyto(out, col[0])
        for j in range(1, n):
            np.add(out, col[j], out=out)
    elif n <= 128:
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                np.add(col[j], col[i + j], out=col[j])
        for j in (0, 2, 4, 6):
            np.add(col[j], col[j + 1], out=col[j])
        np.add(col[0], col[2], out=col[0])
        np.add(col[4], col[6], out=col[4])
        np.add(col[0], col[4], out=out)
        for j in range(tail, n):
            np.add(out, col[j], out=out)
    else:
        half = n // 2 - (n // 2) % 8
        _sum_last_axis(a[..., :half], out)
        _sum_last_axis(a[..., half:], col[half])
        np.add(out, col[half], out=out)


def fit_gmm(states, n_components: int = DEFAULT_K, seed: int = 0,
            alpha: float = DEFAULT_ALPHA, cov_floor: float = DEFAULT_COV_FLOOR,
            provenance: str = "") -> GmmModel:
    """EM fit with farthest-point seeding and per-dimension variance flooring.

    Raises DataError for non-finite states, and ConfigError for a bad
    component count, alpha or cov_floor, all before EM starts. Emits
    CovarianceFloorWarning once if any component needed floor repair.

    The loop runs on buffers allocated once per fit and gives the same bits
    as the plain formulas of gmm_log_density and the M-step. Each row of
    `rows` is a state repeated K times, (N, K*d), so s - mu runs over one
    long contiguous row per state; `sq` holds (s - mu)^2 for the current
    means, computed once per iteration and used by the M-step's variances,
    then divided by the new variances in place by the next E-step (or the
    calibration pass after the last one). Its (N, K, d) view is the operand
    of the variance einsum, which sums over n in order.

    The sums over d and over K are written out as whole-column adds
    (_sum_last_axis): numpy's .sum(axis=-1) runs one inner loop of d or K
    terms per row, which costs more than the adds. To keep the bits, the
    adds repeat numpy's own order: left to right below 8 terms, its
    8-accumulator pairwise order from 8 terms on. A numpy that changes that
    order fails tests/test_density.py::TestSumLastAxis by name, which pins
    the helper against .sum(axis=-1). The responsibilities stay (N, K) in C
    order, the operand layout of resp.sum(axis=0) and resp.T @ states.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[0] == 0:
        raise ConfigError("fit_gmm needs a non-empty (N, d) state array")
    if not np.all(np.isfinite(states)):
        raise DataError("fit_gmm got non-finite states")
    k = int(n_components)
    if k < 1:
        raise ConfigError(f"n_components must be >= 1, got {k}")
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    if not (np.isfinite(cov_floor) and cov_floor > 0.0):
        raise ConfigError(f"cov_floor must be positive and finite, got {cov_floor}")
    n_distinct = np.unique(states, axis=0).shape[0]
    if k > n_distinct:
        raise ConfigError(
            f"n_components={k} exceeds the {n_distinct} distinct states available"
        )

    rng = np.random.default_rng(seed)
    means = _farthest_point_seeds(states, k, rng)
    global_var = np.var(states, axis=0)
    floored_any = bool(np.any(global_var < cov_floor))
    variances = np.tile(np.maximum(global_var, cov_floor), (k, 1))
    weights = np.full(k, 1.0 / k)

    n, d = states.shape
    rows = np.tile(states, (1, k))
    sq = np.empty_like(rows)
    sq3 = sq.reshape(n, k, d)
    joint, resp = np.empty((n, k)), np.empty((n, k))
    top, total = np.empty(n), np.empty(n)

    def set_means(mu):
        np.subtract(rows, mu.ravel(), out=sq)
        np.multiply(sq, sq, out=sq)

    def e_step(log_weights, log_norm, var):
        """total = gmm_log_density at the current means. Uses up sq, which
        the next set_means refills; resp holds exp(joint - max) afterwards."""
        np.divide(sq, var.ravel(), out=sq)
        _sum_last_axis(sq3, joint)
        np.add(log_norm, joint, out=joint)
        np.multiply(-0.5, joint, out=joint)
        np.add(joint, log_weights, out=joint)
        # the row max, column by column: max ignores order
        np.copyto(top, joint[:, 0])
        for j in range(1, k):
            np.maximum(top, joint[:, j], out=top)
        np.subtract(joint, top[:, None], out=resp)
        np.exp(resp, out=resp)
        _sum_last_axis(resp, total)
        np.log(total, out=total)
        np.add(top, total, out=total)

    set_means(means)
    ll_history: list[float] = []
    prev_ll = -np.inf
    for _ in range(EM_MAX_ITERS):
        e_step(*_log_constants(weights, variances), variances)
        ll = float(np.mean(total))
        ll_history.append(ll)
        np.subtract(joint, total[:, None], out=resp)
        np.exp(resp, out=resp)

        nk = resp.sum(axis=0)                                          # (K,)
        weights = nk / n
        safe_nk = np.maximum(nk, 1e-300)
        means = (resp.T @ states) / safe_nk[:, None]
        set_means(means)
        var_raw = np.einsum("nk,nkd->kd", resp, sq3) / safe_nk[:, None]
        if np.any(var_raw < cov_floor):
            floored_any = True
        variances = np.maximum(var_raw, cov_floor)

        if ll - prev_ll < EM_TOL and np.isfinite(prev_ll):
            break
        prev_ll = ll

    if floored_any:
        warnings.warn(
            "variance floor repair applied during GMM fit", CovarianceFloorWarning,
            stacklevel=2,
        )

    model = GmmModel(
        mixture_weights=weights, means=means, variances=variances,
        calibration_log_quantile=0.0, alpha=float(alpha), cov_floor=float(cov_floor),
        provenance=provenance, ll_history=ll_history,
    )
    e_step(model.log_weights, model.log_norm, model.variances)
    model.calibration_log_quantile = float(np.quantile(total, alpha))
    return model


def gmm_log_density(model: GmmModel, s):
    """Log mixture density via log-sum-exp; a float for one state (d,), an
    (N,) array for states (N, d)."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim not in (1, 2) or s.shape[-1] != model.dim:
        raise ShapeError(f"state dim {s.shape[-1] if s.ndim else 0} != model dim {model.dim}")
    return _logsumexp(_weighted_log_densities(model.log_weights, model.log_norm,
                                              model.means, model.variances, s))


def membership_score(model: GmmModel, s):
    """min(1, exp(log density - calibration quantile)); in [0,1] by construction."""
    ld = gmm_log_density(model, s)
    return np.minimum(1.0, np.exp(ld - model.calibration_log_quantile))


@dataclass
class JointDensityModel:
    """p(s,a) = policy_ref(a|s) * gmm(s); both fitted on the same demo set."""

    policy_ref: GaussianPolicy
    gmm: GmmModel

    def __post_init__(self):
        if self.policy_ref.provenance != self.gmm.provenance:
            raise ConfigError(
                "joint density components disagree on provenance: "
                f"{self.policy_ref.provenance!r} vs {self.gmm.provenance!r}"
            )
        if self.policy_ref.state_dim != self.gmm.dim:
            raise ShapeError(
                f"policy state dim {self.policy_ref.state_dim} != gmm dim {self.gmm.dim}"
            )


def joint_log_density(model: JointDensityModel, s, a):
    """Conditional action log-likelihood plus state log-density; batched when
    s and a carry a leading axis."""
    return log_prob(model.policy_ref, s, a) + gmm_log_density(model.gmm, s)


def clamped_ratio(log_ratio, r_min: float = DEFAULT_RATIO_MIN,
                  r_max: float = DEFAULT_RATIO_MAX):
    """exp(log_ratio), clamped to [r_min, r_max] in log space."""
    return np.exp(np.clip(log_ratio, np.log(r_min), np.log(r_max)))


def save_gmm(path, model: GmmModel, extra: dict | None = None) -> None:
    fields = {**(extra or {}), "n_components": model.n_components, "dim": model.dim,
              "provenance": model.provenance or "-"}
    # one row per component: weight, mean, variances
    table = np.column_stack([model.mixture_weights, model.means, model.variances])
    scalars = [model.alpha, model.calibration_log_quantile, model.cov_floor]
    write_record_file(path, "gmm", fields, pack_floats([scalars, table]))


def load_gmm(path) -> tuple[GmmModel, dict]:
    rec = RecordReader(path, "gmm")
    k, dim = rec.count("n_components"), rec.count("dim")
    provenance = rec.field("provenance")
    alpha, quantile, cov_floor = rec.floats((3,))
    table = rec.floats((k, 1 + 2 * dim))
    extras = rec.finish()
    model = GmmModel(
        mixture_weights=table[:, 0].copy(), means=table[:, 1:1 + dim].copy(),
        variances=table[:, 1 + dim:].copy(), calibration_log_quantile=float(quantile),
        alpha=float(alpha), cov_floor=float(cov_floor),
        provenance="" if provenance == "-" else provenance,
    )
    return model, extras
