"""State-marginal density estimation with diagonal-covariance Gaussian mixtures,
quantile-calibrated membership scores, joint densities p(s,a) = policy(a|s) * gmm(s),
and the clamped supplementary-over-expert density ratio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
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
    log-densities; membership_score clamps against it.
    """

    mixture_weights: np.ndarray  # (K,)
    means: np.ndarray            # (K, d)
    variances: np.ndarray        # (K, d), every entry >= cov_floor
    calibration_log_quantile: float
    alpha: float
    cov_floor: float = DEFAULT_COV_FLOOR
    provenance: str = ""
    ll_history: list = field(default_factory=list, repr=False)

    @property
    def n_components(self) -> int:
        return self.mixture_weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _weighted_log_densities(weights, model_means, model_vars, states) -> np.ndarray:
    """(N, K) matrix of log(weight_k) plus each component's diagonal-Gaussian
    log density; a zero weight gives -inf."""
    diff = states[:, None, :] - model_means[None, :, :]       # (N, K, d)
    quad = np.sum(diff * diff / model_vars[None, :, :], axis=2)
    norm = np.sum(np.log(2.0 * np.pi * model_vars), axis=1)   # (K,)
    with np.errstate(divide="ignore"):
        return -0.5 * (norm[None, :] + quad) + np.log(weights)[None, :]


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


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


def fit_gmm(states, n_components: int = DEFAULT_K, seed: int = 0,
            alpha: float = DEFAULT_ALPHA, cov_floor: float = DEFAULT_COV_FLOOR,
            provenance: str = "") -> GmmModel:
    """EM fit with farthest-point seeding and per-dimension variance flooring.

    Raises ConfigError when n_components exceeds the number of distinct states.
    Emits CovarianceFloorWarning once if any component needed floor repair.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[0] == 0:
        raise ConfigError("fit_gmm needs a non-empty (N, d) state array")
    k = int(n_components)
    if k < 1:
        raise ConfigError(f"n_components must be >= 1, got {k}")
    n_distinct = np.unique(states, axis=0).shape[0]
    if k > n_distinct:
        raise ConfigError(
            f"n_components={k} exceeds the {n_distinct} distinct states available"
        )
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")

    rng = np.random.default_rng(seed)
    means = _farthest_point_seeds(states, k, rng)
    global_var = np.var(states, axis=0)
    floored_any = bool(np.any(global_var < cov_floor))
    variances = np.tile(np.maximum(global_var, cov_floor), (k, 1))
    weights = np.full(k, 1.0 / k)

    ll_history: list[float] = []
    prev_ll = -np.inf
    for _ in range(EM_MAX_ITERS):
        joint = _weighted_log_densities(weights, means, variances, states)  # (N,K)
        total = _logsumexp(joint, axis=1)                              # (N,)
        ll = float(np.mean(total))
        ll_history.append(ll)
        resp = np.exp(joint - total[:, None])                          # (N,K)

        nk = resp.sum(axis=0)                                          # (K,)
        weights = nk / states.shape[0]
        safe_nk = np.maximum(nk, 1e-300)
        means = (resp.T @ states) / safe_nk[:, None]
        diff = states[:, None, :] - means[None, :, :]
        var_raw = np.einsum("nk,nkd->kd", resp, diff * diff) / safe_nk[:, None]
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
    train_ld = gmm_log_density(model, states)
    model.calibration_log_quantile = float(np.quantile(train_ld, alpha))
    return model


def gmm_log_density(model: GmmModel, s):
    """Log mixture density via log-sum-exp; accepts (d,) or (N, d)."""
    s = np.asarray(s, dtype=np.float64)
    single = s.ndim == 1
    sb = s[None, :] if single else s
    if sb.ndim != 2 or sb.shape[1] != model.dim:
        raise ShapeError(f"state dim {sb.shape[-1]} != model dim {model.dim}")
    out = _logsumexp(_weighted_log_densities(model.mixture_weights, model.means,
                                             model.variances, sb), axis=1)
    return float(out[0]) if single else out


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


def density_ratio(p_expert: JointDensityModel, p_supp: JointDensityModel, s, a,
                  r_min: float = DEFAULT_RATIO_MIN, r_max: float = DEFAULT_RATIO_MAX):
    """Supplementary-over-expert joint density ratio, clamped in log space."""
    log_diff = joint_log_density(p_supp, s, a) - joint_log_density(p_expert, s, a)
    return np.exp(np.clip(log_diff, np.log(r_min), np.log(r_max)))


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
