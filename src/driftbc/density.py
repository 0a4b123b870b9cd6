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
        joint = _weighted_log_densities(*_log_constants(weights, variances),
                                        means, variances, states)  # (N,K)
        total = _logsumexp(joint)                                      # (N,)
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
