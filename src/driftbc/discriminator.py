"""Discriminator over (state, action) pairs: clipped logistic output, the
offline importance-weighted loss, the squared-error posterior regularizer with
its decaying weight schedule, the online variant weighted by shift scores, the
one minibatch trainer both phases run, BC weight extraction, and the
pointwise-optimum solver used by the theory checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .numeric import (
    MlpNetwork,
    MlpWorkspace,
    RecordReader,
    adam_step,
    backprop,
    check_finite,
    forward,
    forward_cache,
    init_adam,
    init_mlp,
    mlp_params,
    net_fields,
    pack_floats,
    write_record_file,
)

CLIP_LO = 0.01
CLIP_HI = 0.99


@dataclass
class DiscriminatorModel:
    """Single-output MLP on concatenated (s, a); logistic squash then a hard
    clip to [clip_lo, clip_hi]. The clip is a true clamp: gradients vanish on
    the clipped region."""

    net: MlpNetwork
    clip_lo: float = CLIP_LO
    clip_hi: float = CLIP_HI


def init_discriminator(state_dim: int, action_dim: int, hidden_dims=(64, 64),
                       activation: str = "relu",
                       rng: np.random.Generator | None = None) -> DiscriminatorModel:
    if rng is None:
        rng = np.random.default_rng(0)
    net = init_mlp((state_dim + action_dim, *hidden_dims, 1), activation, rng)
    return DiscriminatorModel(net=net)


def _concat_sa(states, actions, out=None) -> tuple[np.ndarray, bool]:
    """The rows [s, a] and whether s, a were one pair; a batch is written
    into the leading rows of out when given."""
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    single = states.ndim == 1
    if single != (actions.ndim == 1):
        raise ShapeError("states and actions must both be single or both batched")
    if single:
        return np.concatenate([states, actions])[None, :], True
    if states.shape[0] != actions.shape[0]:
        raise ShapeError(
            f"batch mismatch: {states.shape[0]} states vs {actions.shape[0]} actions"
        )
    if out is not None:
        if states.shape[0] > out.shape[0]:
            raise ShapeError(f"{states.shape[0]} rows do not fit a workspace of {out.shape[0]}")
        out = out[:states.shape[0]]
    return np.concatenate([states, actions], axis=1, out=out), False


def join_rows(states, actions, what: str = "loss batch") -> np.ndarray:
    """The (N, ds + da) rows [s, a] of a non-empty 2-D batch."""
    x, single = _concat_sa(states, actions)
    if single:
        raise ShapeError(f"{what} must be 2-D")
    if x.shape[0] == 0:
        raise DataError(f"empty {what}")
    return x


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, 1/(1 + e) for z >= 0 and e/(1 + e) below, with
    e = exp(-|z|), so neither branch overflows."""
    e = np.exp(-np.abs(z))
    one_plus = 1.0 + e
    return np.where(z >= 0, 1.0 / one_plus, e / one_plus)


def _clip_logits(model: DiscriminatorModel, z: np.ndarray):
    """Returns (d, active): clipped outputs and the mask where the clip is not
    binding (gradient flows only there)."""
    sig = sigmoid(z)
    d = np.clip(sig, model.clip_lo, model.clip_hi)
    active = (sig > model.clip_lo) & (sig < model.clip_hi)
    return d, active


def _forward_clipped(model: DiscriminatorModel, x: np.ndarray,
                     workspace: MlpWorkspace | None = None):
    return _clip_logits(model, forward(model.net, x, workspace)[:, 0])


def _stacked_forward(model: DiscriminatorModel, x: np.ndarray,
                     workspace: MlpWorkspace):
    """One forward over the stacked rows x; returns the layer cache with the
    clipped outputs and active mask of every row."""
    hs = forward_cache(model.net, x, workspace)
    d, active = _clip_logits(model, hs[-1][:, 0])
    return hs, d, active


def _backprop_logits(model: DiscriminatorModel, hs, dz: np.ndarray,
                     workspace: MlpWorkspace) -> None:
    """Parameter gradients for logit gradients dz over every row of the
    cache, into workspace.grad; a non-finite one raises NumericError."""
    backprop(model.net, hs, dz[:, None], workspace)
    check_finite(model.net, hs, workspace.grad)


def disc_forward(model: DiscriminatorModel, s, a, workspace: MlpWorkspace | None = None):
    """Clipped discriminator output in [clip_lo, clip_hi]; scalar for single
    inputs, (N,) for batches. A workspace takes the joined rows and the
    layer outputs of a batch in place of new arrays."""
    x, single = _concat_sa(s, a, None if workspace is None else workspace.inputs)
    d, _ = _forward_clipped(model, x, workspace)
    return float(d[0]) if single else d


def bc_weight(model: DiscriminatorModel, s, a, workspace: MlpWorkspace | None = None):
    """Odds d/(1-d) of the clipped output; bounded in [lo/(1-lo), hi/(1-hi)].
    workspace is passed to disc_forward."""
    d = disc_forward(model, s, a, workspace)
    return d / (1.0 - d)


def check_weights(values, rows: int, what: str) -> np.ndarray:
    """values as a float vector of one finite, non-negative entry per row."""
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if values.shape[0] != rows:
        raise ShapeError(f"{what} count {values.shape[0]} != batch size")
    if not np.all(np.isfinite(values)):
        raise DataError(f"non-finite {what}")
    if np.any(values < 0):
        raise DataError(f"negative {what}")
    return values


def two_class_rows(expert_batch, other_batch, weights):
    """The two-class losses' input check: the joined rows of the expert and
    other (states, actions) batches, which must be equally wide, and the
    checked weights of the other rows. The trainers run it once over their
    whole data."""
    xe = join_rows(*expert_batch)
    xo = join_rows(*other_batch)
    if xo.shape[1] != xe.shape[1]:
        raise ShapeError(f"other rows are {xo.shape[1]} wide, expert rows {xe.shape[1]}")
    return xe, xo, check_weights(weights, xo.shape[0], "per-sample weight")


def check_scores(scores) -> np.ndarray:
    """Shift scores as a float vector; each must lie in [0, 1]."""
    scores = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    if np.any(scores < 0) or np.any(scores > 1):
        raise DataError("shift scores must lie in [0, 1]")
    return scores


def check_targets(targets, rows: int) -> np.ndarray:
    """Regularizer targets as a float vector of one entry in [0, 1] per row."""
    t = check_weights(targets, rows, "regularizer target")
    if np.any(t > 1):
        raise DataError("regularizer target above 1")
    return t


def _two_class_terms(ne: int, w: np.ndarray, d: np.ndarray, active: np.ndarray):
    """Expert-vs-other loss over the rows [expert; other] of d:
    mean_E[-log d] + mean_other[-w * log(1-d)], and its logit gradient,
    which flows through d only."""
    de, do = d[:ne], d[ne:]
    # sum / count is np.mean's arithmetic without its call overhead
    loss = float((-np.log(de)).sum() / ne + (-w * np.log(1.0 - do)).sum() / do.shape[0])
    dz_e = -(1.0 - de) * active[:ne] / ne
    dz_o = w * do * active[ne:] / do.shape[0]
    return loss, np.concatenate([dz_e, dz_o])


def _reg_terms(t: np.ndarray, d: np.ndarray, active: np.ndarray):
    """Mean squared gap between d and the targets, and its logit gradient."""
    diff = d - t
    loss = float(np.mean(diff * diff))
    dz = 2.0 * diff * d * (1.0 - d) * active / d.shape[0]
    return loss, dz


def two_class_core(model: DiscriminatorModel, x: np.ndarray, ne: int,
                   w: np.ndarray, workspace: MlpWorkspace) -> float:
    """The math of offline_disc_loss, without its input checks: x stacks the
    joined expert rows over the other rows, which carry the checked weights
    w. Writes the parameter gradient into workspace.grad (flat, params
    layout) and returns the loss; a non-finite output or gradient raises
    NumericError."""
    hs, d, active = _stacked_forward(model, x, workspace)
    loss, dz = _two_class_terms(ne, w, d, active)
    _backprop_logits(model, hs, dz, workspace)
    return loss


def combined_core(model: DiscriminatorModel, x: np.ndarray, ne: int, nb: int,
                  w: np.ndarray, t: np.ndarray, reg_weight: float,
                  workspace: MlpWorkspace, scratch: np.ndarray) -> float:
    """The math of combined_offline_loss for reg_weight > 0, without its input
    checks: x stacks [expert; supp; mixed] rows, the first nb of them the two
    class batches. The two terms are backpropagated over their own row slices
    of one forward cache and summed as g + reg_weight * h: folding reg_weight
    into one backward over all rows rounds differently. The gradient goes
    into workspace.grad; scratch, a vector like it, holds reg_weight * h."""
    hs, d, active = _stacked_forward(model, x, workspace)
    base_loss, dz = _two_class_terms(ne, w, d[:nb], active[:nb])
    r_loss, dr = _reg_terms(t, d[nb:], active[nb:])
    backprop(model.net, [h[nb:] for h in hs], dr[:, None], workspace)
    np.multiply(workspace.grad, reg_weight, out=scratch)
    backprop(model.net, [h[:nb] for h in hs], dz[:, None], workspace)
    workspace.grad += scratch
    check_finite(model.net, hs, workspace.grad)
    return base_loss + reg_weight * r_loss


def offline_disc_loss(model: DiscriminatorModel, expert_batch, supp_batch, ratios,
                      out=None):
    """Expert term plus density-ratio-weighted supplementary term.

    expert_batch and supp_batch are (states, actions) pairs; ratios holds one
    precomputed ratio per supplementary row. Ratios are stop-gradient
    constants.
    Returns (loss, grads) with grads aligned to mlp_params(model.net): views
    into one flat vector in the model.net.params layout, out when given.
    """
    xe, xs, w = two_class_rows(expert_batch, supp_batch, ratios)
    ws = MlpWorkspace(model.net.layer_dims, xe.shape[0] + xs.shape[0], out)
    loss = two_class_core(model, np.vstack([xe, xs]), xe.shape[0], w, ws)
    return loss, ws.grad_views


def online_disc_loss(model: DiscriminatorModel, expert_batch, online_batch, out=None):
    """Expert term plus shift-score-weighted term over online experience.

    online_batch is (states, actions, shift_scores) with scores in [0, 1].
    """
    if len(online_batch) != 3:
        raise ShapeError("online_batch must be (states, actions, shift_scores)")
    states, actions, scores = online_batch
    return offline_disc_loss(model, expert_batch, (states, actions),
                             check_scores(scores), out=out)


def reg_loss(model: DiscriminatorModel, mixed_batch, targets):
    """Mean squared deviation between the clipped output and the posterior
    target p_E/(p_E + p_S). Targets are stop-gradient constants."""
    x = join_rows(*mixed_batch, what="regularizer batch")
    t = check_targets(targets, x.shape[0])
    ws = MlpWorkspace(model.net.layer_dims, x.shape[0])
    hs, d, active = _stacked_forward(model, x, ws)
    loss, dz = _reg_terms(t, d, active)
    _backprop_logits(model, hs, dz, ws)
    return loss, ws.grad_views


def combined_offline_loss(model: DiscriminatorModel, expert_batch, supp_batch,
                          mixed_batch, ratios, targets, reg_weight: float,
                          out=None):
    """Offline loss plus reg_weight times the regularizer.

    reg_weight = 0 short-circuits to offline_disc_loss exactly (the ablation
    path); otherwise reg_weight must lie in (0, 1]. One forward runs over the
    stacked [expert; supp; mixed] rows (see combined_core).
    """
    if reg_weight == 0.0:
        return offline_disc_loss(model, expert_batch, supp_batch, ratios, out=out)
    if not (0.0 < reg_weight <= 1.0):
        raise ConfigError(f"reg_weight must lie in (0, 1], got {reg_weight}")
    xe, xs, w = two_class_rows(expert_batch, supp_batch, ratios)
    xm = join_rows(*mixed_batch, what="regularizer batch")
    t = check_targets(targets, xm.shape[0])
    nb = xe.shape[0] + xs.shape[0]
    ws = MlpWorkspace(model.net.layer_dims, nb + xm.shape[0], out)
    loss = combined_core(model, np.vstack([xe, xs, xm]), xe.shape[0], nb, w, t,
                         reg_weight, ws, np.empty_like(ws.grad))
    return loss, ws.grad_views


def train_discriminator(model: DiscriminatorModel, x_e: np.ndarray, x_s: np.ndarray,
                        w: np.ndarray, steps: int, batch_size: int,
                        learning_rate: float, rng: np.random.Generator,
                        workspace: MlpWorkspace, targets=None, reg_cutoff: int = 0,
                        on_step=None) -> None:
    """Adam steps on the expert-vs-other loss, in place on model: the one
    trainer of the offline stage and of every online update. x_e, x_s and w
    are the checked rows and weights that two_class_rows returns.

    Step t draws batch_size indices into x_e, then batch_size into x_s, from
    rng, and gathers the rows [expert; other] into workspace.inputs. With
    targets=None it runs two_class_core on them, at reg_weight 0. With
    targets=(t_e, t_s), checked regularizer targets of the x_e and x_s rows,
    the first batch_size // 2 rows of each class batch follow as the mixed
    rows, and it runs combined_core at reg_weight_at(t, reg_cutoff); the
    workspace then needs 2 * batch_size + 2 * (batch_size // 2) rows.
    A NumericError of the core or a non-finite loss raises NumericError
    naming the step; on_step(t, loss, reg_weight) runs after each Adam step.
    """
    b, half = batch_size, batch_size // 2
    params = [model.net.params]
    opt = init_adam(params, learning_rate=learning_rate)
    rows = workspace.inputs[:2 * (b + half)]
    rows_e, rows_s, class_rows = rows[:b], rows[b:2 * b], rows[:2 * b]
    mixed_e, mixed_s = rows[2 * b:2 * b + half], rows[2 * b + half:]
    w_batch, t = np.empty(b), np.empty(2 * half)
    scratch = None if targets is None else np.empty_like(workspace.grad)
    for step in range(1, steps + 1):
        idx_e = rng.integers(0, x_e.shape[0], size=b)
        idx_s = rng.integers(0, x_s.shape[0], size=b)
        # the drawn indices are in range, so mode="clip" changes nothing
        x_e.take(idx_e, axis=0, out=rows_e, mode="clip")
        x_s.take(idx_s, axis=0, out=rows_s, mode="clip")
        w.take(idx_s, out=w_batch, mode="clip")
        lam = 0.0 if targets is None else reg_weight_at(step, reg_cutoff)
        try:
            if targets is None:
                loss = two_class_core(model, class_rows, b, w_batch, workspace)
            else:
                mixed_e[...] = rows_e[:half]
                mixed_s[...] = rows_s[:half]
                targets[0].take(idx_e[:half], out=t[:half], mode="clip")
                targets[1].take(idx_s[:half], out=t[half:], mode="clip")
                loss = combined_core(model, rows, b, 2 * b, w_batch, t, lam,
                                     workspace, scratch)
        except NumericError as exc:
            raise NumericError(
                f"discriminator training aborted at step {step}: {exc}") from exc
        if not np.isfinite(loss):
            raise NumericError(f"non-finite discriminator loss at step {step}")
        adam_step(params, [workspace.grad], opt)
        if on_step is not None:
            on_step(step, loss, lam)


def _pooled_inputs(states, actions, labels) -> tuple[np.ndarray, np.ndarray]:
    x, single = _concat_sa(states, actions)
    if single:
        raise ShapeError("pooled batch must be 2-D")
    y = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    if y.shape[0] != x.shape[0]:
        raise ShapeError("label count does not match batch size")
    if np.any((y != 0.0) & (y != 1.0)):
        raise DataError("labels must be 0 or 1")
    return x, y


def _bce(y: np.ndarray, d: np.ndarray) -> float:
    return float(np.mean(-y * np.log(d) - (1.0 - y) * np.log(1.0 - d)))


def pooled_bce_loss(model: DiscriminatorModel, states, actions, labels):
    """Per-sample binary cross-entropy averaged over one pooled batch
    (label 1 = expert). Used for the boundary-bias demonstration, where
    class imbalance must flow through the sampling."""
    x, y = _pooled_inputs(states, actions, labels)
    ws = MlpWorkspace(model.net.layer_dims, x.shape[0])
    hs, d, mask = _stacked_forward(model, x, ws)
    dz = (-y * (1.0 - d) + (1.0 - y) * d) * mask / x.shape[0]
    _backprop_logits(model, hs, dz, ws)
    return _bce(y, d), ws.grad_views


def eval_bce(model: DiscriminatorModel, states, actions, labels) -> float:
    """pooled_bce_loss without the backward pass, for held-out evaluation."""
    x, y = _pooled_inputs(states, actions, labels)
    return _bce(y, _forward_clipped(model, x)[0])


def disc_params(model: DiscriminatorModel) -> list[np.ndarray]:
    return mlp_params(model.net)


# ---------------------------------------------------------------------------
# Regularizer weight schedule


def reg_weight_at(step: int, cutoff_step: int = 10000) -> float:
    """1 up to the cutoff step, then 1/(1 + ln(t - cutoff + 1)). Natural log.
    Non-increasing and always in (0, 1]."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if step <= cutoff_step:
        return 1.0
    return 1.0 / (1.0 + math.log(step - cutoff_step + 1))


# ---------------------------------------------------------------------------
# Pointwise optimum of the regularized population objective


def posterior_target(p_expert: float, p_supp: float) -> float:
    """p_E/(p_E + p_S), the unbiased posterior the regularizer pulls toward."""
    return p_expert / (p_expert + p_supp)


def pointwise_optimum(p_expert: float, p_supp: float, supp_coef: float = 1.0,
                      reg_weight: float = 0.0, mix_density: float = 1.0,
                      tol: float = 1e-10) -> float:
    """Root in (0,1) of the stationarity condition of the pointwise objective:

        -p_expert/d + supp_coef*p_supp/(1-d)
            + 2*reg_weight*mix_density*(d - posterior_target) = 0

    The left side is strictly increasing in d, so bisection finds the unique
    optimum to absolute tolerance tol. With reg_weight = 0 this is the closed
    form p_expert/(p_expert + supp_coef*p_supp); as reg_weight grows it moves
    monotonically to the posterior target.
    """
    for name, v in (("p_expert", p_expert), ("p_supp", p_supp),
                    ("supp_coef", supp_coef)):
        if not (v > 0 and np.isfinite(v)):
            raise ConfigError(f"{name} must be positive and finite, got {v}")
    if reg_weight < 0 or mix_density < 0:
        raise ConfigError("reg_weight and mix_density must be non-negative")

    target = posterior_target(p_expert, p_supp)

    def f(d: float) -> float:
        return (-p_expert / d + supp_coef * p_supp / (1.0 - d)
                + 2.0 * reg_weight * mix_density * (d - target))

    lo, hi = 1e-15, 1.0 - 1e-15
    if f(lo) > 0 or f(hi) < 0:
        raise NumericError("stationarity condition has no sign change on (0,1)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Checkpoints


def save_discriminator(path, model: DiscriminatorModel, extra: dict | None = None) -> None:
    fields = {**(extra or {}), **net_fields(model.net),
              "clip_lo": repr(model.clip_lo), "clip_hi": repr(model.clip_hi)}
    write_record_file(path, "disc", fields, pack_floats([model.net.params]))


def load_discriminator(path) -> tuple[DiscriminatorModel, dict]:
    rec = RecordReader(path, "disc")
    clip_lo = rec.field("clip_lo", float)
    clip_hi = rec.field("clip_hi", float)
    model = DiscriminatorModel(net=rec.net(), clip_lo=clip_lo, clip_hi=clip_hi)
    return model, rec.finish()
