"""Diagonal-Gaussian stochastic policy: sampling, likelihood, and the weighted
behavior-cloning objective, plus the shared training loop used for the main
policy and for the reference policies that back the density models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .numeric import (
    MlpNetwork,
    MlpWorkspace,
    NormalRows,
    RecordReader,
    adam_step,
    backprop,
    check_finite,
    forward,
    forward_cache,
    gaussian_log_prob,
    init_adam,
    init_mlp,
    mlp_params,
    named_generator,
    net_fields,
    pack_floats,
    write_record_file,
)

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0


@dataclass
class GaussianPolicy:
    """Action mean from an MLP; one learned log-std per action dimension.

    log_std stays inside [LOG_STD_MIN, LOG_STD_MAX]; the training loop projects
    it back after every optimizer step. Sampled actions are clamped to the
    action bounds, the likelihood is the unclamped Gaussian.

    The trainable parameters are one flat float64 vector, params, laid out as
    [mean-net W0, b0, ..., log_std] (the checkpoint payload order);
    mean_net.params and log_std are views into it. Construction copies the
    given log_std and moves the given net's parameters into that vector.
    """

    mean_net: MlpNetwork
    log_std: np.ndarray
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    provenance: str = ""
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mean_net.out_dim != self.action_dim:
            raise ShapeError(
                f"mean_net output dim {self.mean_net.out_dim} != action_dim {self.action_dim}"
            )
        if self.mean_net.in_dim != self.state_dim:
            raise ShapeError(
                f"mean_net input dim {self.mean_net.in_dim} != state_dim {self.state_dim}"
            )
        log_std = np.asarray(self.log_std, dtype=np.float64)
        if log_std.shape != (self.action_dim,):
            raise ShapeError(f"log_std shape {log_std.shape} != ({self.action_dim},)")
        n = self.mean_net.params.size
        flat = np.empty(n + self.action_dim)
        flat[n:] = log_std
        self.mean_net.bind(flat[:n])
        self.log_std = flat[n:]
        self.params = flat

    def __reduce__(self):
        # copies and pickles rebuild the shared vector instead of splitting
        # the views into independent arrays
        return (GaussianPolicy, (self.mean_net, self.log_std, self.state_dim,
                                 self.action_dim, self.action_low, self.action_high,
                                 self.provenance))


@dataclass
class PolicyTrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 64
    steps: int = 5000
    action_low: np.ndarray | None = None
    action_high: np.ndarray | None = None
    label: str = "ref"


def init_policy(state_dim: int, action_dim: int, action_low, action_high,
                hidden_dims=(64, 64), init_log_std: float = 0.0,
                rng: np.random.Generator | None = None,
                provenance: str = "") -> GaussianPolicy:
    if rng is None:
        rng = np.random.default_rng(0)
    dims = (state_dim, *hidden_dims, action_dim)
    net = init_mlp(dims, "tanh", rng)
    log_std = np.full(action_dim, float(np.clip(init_log_std, LOG_STD_MIN, LOG_STD_MAX)))
    return GaussianPolicy(
        mean_net=net,
        log_std=log_std,
        state_dim=state_dim,
        action_dim=action_dim,
        action_low=np.asarray(action_low, dtype=np.float64),
        action_high=np.asarray(action_high, dtype=np.float64),
        provenance=provenance,
    )


def action_mean(policy: GaussianPolicy, s) -> np.ndarray:
    return forward(policy.mean_net, s)


def sample_action(policy: GaussianPolicy, s, rng: np.random.Generator | NormalRows) -> np.ndarray:
    """Draw a ~ N(mu(s), diag sigma^2), clamped to bounds, as mu(s) plus
    sigma times rng.standard_normal(action_dim). play_episodes passes a
    NormalRows block of the episode's online_ep{ep}_act stream, so the
    action of step t takes row t, the values a Generator would draw at that
    step."""
    mu = forward(policy.mean_net, s)
    mu = mu + rng.standard_normal(policy.action_dim) * np.exp(policy.log_std)
    # np.clip's bits at a third of its call cost, on every control step
    return np.minimum(np.maximum(mu, policy.action_low), policy.action_high)


def log_prob(policy: GaussianPolicy, s, a):
    """Unclamped Gaussian log-likelihood of a at state s. Batched when s, a
    carry a leading axis."""
    mu = forward(policy.mean_net, s)
    return gaussian_log_prob(mu, policy.log_std, a)


def policy_params(policy: GaussianPolicy) -> list[np.ndarray]:
    """Trainable arrays in a fixed order: mean-net params, then log_std."""
    return mlp_params(policy.mean_net) + [policy.log_std]


def check_bc_inputs(states, actions, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The input check of weighted_bc_loss: states (B, ds), actions (B, da)
    and weights (B,) as float arrays, B >= 1, every weight finite and
    non-negative."""
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if states.ndim != 2 or actions.ndim != 2 or weights.ndim != 1:
        raise ShapeError("expected states (B,ds), actions (B,da), weights (B,)")
    n = states.shape[0]
    if n == 0:
        raise DataError("weighted BC batch is empty")
    if not (actions.shape[0] == n and weights.shape[0] == n):
        raise ShapeError("batch size mismatch between states, actions, weights")
    if not np.all(np.isfinite(weights)):
        raise DataError("non-finite BC weight in batch")
    if np.any(weights < 0):
        raise DataError("negative BC weight in batch")
    return states, actions, weights


def bc_workspace(policy: GaussianPolicy, rows: int, grad: np.ndarray | None = None) -> MlpWorkspace:
    """A workspace of the mean net for weighted_bc_core over at most rows
    rows; its grad is the whole policy gradient (flat, policy.params
    layout), grad when given, so the log_std gradient follows the net's."""
    return MlpWorkspace(policy.mean_net.layer_dims, rows,
                        np.empty_like(policy.params) if grad is None else grad)


def weighted_bc_core(policy: GaussianPolicy, states: np.ndarray, actions: np.ndarray,
                     weights: np.ndarray, workspace: MlpWorkspace) -> float:
    """The math of weighted_bc_loss over checked inputs: writes the gradient
    into workspace.grad (a bc_workspace) and returns the loss. A non-finite
    mean-net output or gradient raises NumericError; the log_std part is left
    to the callers' loss check, which names the step."""
    hs = forward_cache(policy.mean_net, states, workspace)
    mu = hs[-1]
    inv_var = np.exp(-2.0 * policy.log_std)
    diff = mu - actions
    z2 = diff * diff * inv_var  # (a - mu)^2 / sigma^2
    nll = 0.5 * np.sum(np.log(2.0 * np.pi) + 2.0 * policy.log_std + z2, axis=1)
    # sum / count is np.mean's arithmetic without its call overhead
    loss = float((weights * nll).sum() / states.shape[0])

    scaled = (weights / states.shape[0])[:, None]
    upstream_mu = scaled * diff * inv_var
    n_net = policy.mean_net.params.size
    grad = workspace.grad
    backprop(policy.mean_net, hs, upstream_mu, workspace)
    grad[n_net:] = np.sum(scaled * (1.0 - z2), axis=0)
    check_finite(policy.mean_net, hs, grad[:n_net])
    return loss


def weighted_bc_loss(policy: GaussianPolicy, states, actions, weights, out=None):
    """Mean over the batch of -weight * log_prob(s, a), with exact gradients.

    Returns (loss, grads) where grads aligns with policy_params(policy). The
    grads are views into one flat vector in the policy.params layout: out
    when given (it is overwritten), else a new one. run_weighted_bc runs this
    function's input check once over its whole data and weighted_bc_core at
    every step.
    """
    states, actions, weights = check_bc_inputs(states, actions, weights)
    ws = bc_workspace(policy, states.shape[0], out)
    loss = weighted_bc_core(policy, states, actions, weights, ws)
    n_net = policy.mean_net.params.size
    return loss, ws.grad_views + [ws.grad[n_net:]]


def run_weighted_bc(policy: GaussianPolicy, states, actions, weights, steps: int,
                    batch_size: int, learning_rate: float, rng: np.random.Generator,
                    on_step=None, workspace: MlpWorkspace | None = None) -> None:
    """Adam training loop over uniformly resampled batches.

    Shared by plain BC, reference-policy training, and the weighted main run, so
    the unweighted paths are the weighted path with weights fixed at 1.
    on_step(step, loss), if given, runs after each optimizer step with the
    batch loss taken before it. The whole data set is checked once, before
    the first step; each step gathers its rows into the input block of
    workspace, a bc_workspace of at least batch_size rows (new when None).
    """
    if np.shape(states)[0] == 0:
        raise ConfigError("cannot train on an empty dataset")
    states, actions, weights = check_bc_inputs(states, actions, weights)
    n = states.shape[0]
    params = [policy.params]
    opt = init_adam(params, learning_rate=learning_rate)
    ws = bc_workspace(policy, batch_size) if workspace is None else workspace
    ws.check_rows(batch_size)
    s_batch = ws.inputs[:batch_size]
    a_batch = np.empty((batch_size, actions.shape[1]))
    w_batch = np.empty(batch_size)
    for step in range(1, steps + 1):
        idx = rng.integers(0, n, size=batch_size)
        # idx is in range, so mode="clip" changes nothing
        states.take(idx, axis=0, out=s_batch, mode="clip")
        actions.take(idx, axis=0, out=a_batch, mode="clip")
        weights.take(idx, out=w_batch, mode="clip")
        loss = weighted_bc_core(policy, s_batch, a_batch, w_batch, ws)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite BC loss at step {step}")
        adam_step(params, [ws.grad], opt)
        # np.clip's bits for these non-zero bounds, at less call cost
        np.maximum(policy.log_std, LOG_STD_MIN, out=policy.log_std)
        np.minimum(policy.log_std, LOG_STD_MAX, out=policy.log_std)
        if on_step is not None:
            on_step(step, loss)


def train_reference_policy(demos, config: PolicyTrainConfig, seed: int,
                           on_step=None) -> GaussianPolicy:
    """BC with unit weights on one demonstration set; the result is only used
    as a conditional-density surrogate, so the budget is modest.

    demos must expose .states (N,ds) and .actions (N,da) arrays plus a
    provenance_label() string. on_step is passed to run_weighted_bc.
    """
    states = np.asarray(demos.states, dtype=np.float64)
    actions = np.asarray(demos.actions, dtype=np.float64)
    if states.size == 0:
        raise ConfigError("reference policy needs a non-empty demonstration set")
    if config.action_low is None or config.action_high is None:
        raise ConfigError("config must carry action bounds")
    provenance = demos.provenance_label() if hasattr(demos, "provenance_label") else ""
    init_rng = named_generator(seed, f"ref_policy_init_{config.label}")
    pol = init_policy(
        states.shape[1], actions.shape[1], config.action_low, config.action_high,
        rng=init_rng, provenance=provenance,
    )
    train_rng = named_generator(seed, f"ref_policy_train_{config.label}")
    run_weighted_bc(pol, states, actions, np.ones(len(states)), config.steps,
                    config.batch_size, config.learning_rate, train_rng, on_step)
    return pol


def save_policy(path, policy: GaussianPolicy, extra: dict | None = None) -> None:
    fields = {**(extra or {}), **net_fields(policy.mean_net),
              "state_dim": policy.state_dim, "action_dim": policy.action_dim,
              "provenance": policy.provenance or "-"}
    arrays = [policy.params, policy.action_low, policy.action_high]
    write_record_file(path, "policy", fields, pack_floats(arrays))


def load_policy(path) -> tuple[GaussianPolicy, dict]:
    rec = RecordReader(path, "policy")
    state_dim = rec.field("state_dim", int)
    action_dim = rec.field("action_dim", int)
    provenance = rec.field("provenance")
    net = rec.net()
    if (net.in_dim, net.out_dim) != (state_dim, action_dim):
        raise DataError(f"{path}: header dims {state_dim}/{action_dim} disagree "
                        f"with layer_dims {net.layer_dims}")
    log_std, low, high = (rec.floats((action_dim,)) for _ in range(3))
    extras = rec.finish()
    pol = GaussianPolicy(
        mean_net=net, log_std=log_std, state_dim=state_dim, action_dim=action_dim,
        action_low=low, action_high=high,
        provenance="" if provenance == "-" else provenance,
    )
    return pol, extras
