"""Offline phase: reference policies on each demo pool, state-density models,
discriminator training with the decaying posterior regularizer, then
discriminator-weighted behavior cloning.

Stages run strictly in that order. Density ratios and regression targets are
precomputed over the training samples and treated as constants during
discriminator training; the main policy's weights come from the finished
discriminator. Every stage appends to one metrics log and all randomness
derives from the single config seed through named streams.
"""

from __future__ import annotations

import functools
import os
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import configio, envs
from .demos import DemoSet, load_demoset, split_holdout
from .density import (DEFAULT_ALPHA, DEFAULT_COV_FLOOR, DEFAULT_K,
                      DEFAULT_RATIO_MAX, DEFAULT_RATIO_MIN, GmmModel,
                      JointDensityModel, clamped_ratio, fit_gmm,
                      joint_log_density, load_gmm, save_gmm)
from .discriminator import (DiscriminatorModel, bc_weight, check_targets,
                            eval_bce, init_discriminator, load_discriminator,
                            save_discriminator, sigmoid, train_discriminator,
                            two_class_rows)
from .errors import ConfigError, DataError
from .numeric import MlpWorkspace, named_generator
from .policy import (GaussianPolicy, PolicyTrainConfig, init_policy, load_policy,
                     run_weighted_bc, save_policy, train_reference_policy)

DEFAULT_REF_STEPS = 5000
DEFAULT_DISC_STEPS = 20000
DEFAULT_BC_STEPS = 30000
DEFAULT_REG_CUTOFF = 10000
DISC_EVAL_POINTS = 20

POLICY_FILE = "policy.ckpt"
DISC_FILE = "discriminator.ckpt"
REF_EXPERT_FILE = "ref_policy_expert.ckpt"
REF_SUPP_FILE = "ref_policy_supp.ckpt"
GMM_EXPERT_FILE = "gmm_expert.ckpt"
GMM_SUPP_FILE = "gmm_supp.ckpt"
METRICS_FILE = "metrics.log"
CONFIG_FILE = "config.txt"
CHECKPOINT_FILES = (POLICY_FILE, DISC_FILE, REF_EXPERT_FILE, REF_SUPP_FILE,
                    GMM_EXPERT_FILE, GMM_SUPP_FILE)


@dataclass(frozen=True)
class OfflineConfig:
    env_id: str
    expert_demos: str
    supp_demos: str = ""
    seed: int = 0
    ref_steps: int = DEFAULT_REF_STEPS
    disc_steps: int = DEFAULT_DISC_STEPS
    bc_steps: int = DEFAULT_BC_STEPS
    reg_cutoff: int = DEFAULT_REG_CUTOFF
    gmm_k: int = DEFAULT_K
    gmm_alpha: float = DEFAULT_ALPHA
    gmm_cov_floor: float = DEFAULT_COV_FLOOR
    ratio_min: float = DEFAULT_RATIO_MIN
    ratio_max: float = DEFAULT_RATIO_MAX
    learning_rate: float = 5e-4
    batch_size: int = 64
    holdout_fraction: float = 0.1
    disable_reg: bool = False
    plain_bc: bool = False

    def __post_init__(self):
        if self.env_id not in envs.ENV_IDS:
            raise ConfigError(f"unknown env_id {self.env_id!r}")
        for name in ("ref_steps", "disc_steps", "bc_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name in ("seed", "reg_cutoff"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2")
        if not self.expert_demos:
            raise ConfigError("expert_demos path is required")
        if not self.supp_demos and not self.plain_bc:
            raise ConfigError("supp_demos path is required unless plain_bc is set")
        if self.gmm_k < 1:
            raise ConfigError(f"gmm_k must be >= 1, got {self.gmm_k}")
        if not 0.0 < self.gmm_alpha < 1.0:
            raise ConfigError(f"gmm_alpha must lie in (0, 1), got {self.gmm_alpha}")
        if not (np.isfinite(self.gmm_cov_floor) and self.gmm_cov_floor > 0.0):
            raise ConfigError(f"gmm_cov_floor must be positive and finite, "
                              f"got {self.gmm_cov_floor}")
        if not 0.0 < self.ratio_min <= self.ratio_max:
            raise ConfigError(f"need 0 < ratio_min <= ratio_max, got "
                              f"{self.ratio_min} and {self.ratio_max}")
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "OfflineConfig":
        unknown = set(cfg) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        coerce = {"str": configio.as_str, "int": configio.as_int,
                  "float": configio.as_float, "bool": configio.as_bool}
        return cls(**{
            f.name: coerce[f.type](cfg, f.name,
                                   None if f.default is MISSING else f.default)
            for f in fields(cls)})

    def to_dict(self) -> dict[str, str]:
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = str(value).lower() if isinstance(value, bool) else str(value)
        return out

    def hash(self) -> str:
        return configio.config_hash(self.to_dict())


@dataclass
class OfflineArtifacts:
    config: OfflineConfig
    policy: GaussianPolicy
    discriminator: DiscriminatorModel | None = None
    ref_expert: GaussianPolicy | None = None
    ref_supp: GaussianPolicy | None = None
    gmm_expert: GmmModel | None = None
    gmm_supp: GmmModel | None = None
    metrics: str = ""


def load_demo_file(path: str, env_id: str) -> DemoSet:
    """The demo set at path, which must exist and be for env_id."""
    if not os.path.exists(path):
        raise DataError(f"missing demo file {path!r}")
    ds = load_demoset(path)
    if ds.env_id != env_id:
        raise DataError(f"demo file {path!r} is for env {ds.env_id!r}, "
                        f"config says {env_id!r}")
    return ds


def eval_discriminator(disc: DiscriminatorModel, held_out_expert, held_out_supp) -> float:
    """Unweighted binary cross-entropy on held-out splits; expert labeled 1."""
    se, ae = held_out_expert
    ss, as_ = held_out_supp
    se, ae = np.atleast_2d(se), np.atleast_2d(ae)
    ss, as_ = np.atleast_2d(ss), np.atleast_2d(as_)
    if se.shape[0] == 0 or ss.shape[0] == 0:
        raise DataError("held-out evaluation needs samples on both sides")
    states = np.concatenate([se, ss])
    actions = np.concatenate([ae, as_])
    labels = np.concatenate([np.ones(se.shape[0]), np.zeros(ss.shape[0])])
    return eval_bce(disc, states, actions, labels)


class _MetricsLog:
    def __init__(self):
        self.lines: list[str] = []
        self.watch = configio.Stopwatch()

    def add(self, stage: str, step: int, loss: float, lam: float = 0.0) -> None:
        self.lines.append(f"stage={stage} step={step} loss={float(loss)!r} "
                          f"lambda={float(lam)!r} wall_ms={self.watch.ms()}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


def _train_discriminator(config: OfflineConfig, disc: DiscriminatorModel,
                         expert_train: DemoSet, supp_train: DemoSet,
                         ratios: np.ndarray, targets_e: np.ndarray,
                         targets_s: np.ndarray, holdout: tuple, log: _MetricsLog) -> None:
    """train_discriminator on the expert and supplementary training rows,
    with the regularizer unless disable_reg; logs every step's loss and the
    held-out loss at DISC_EVAL_POINTS steps."""
    x_e, x_s, ratios = two_class_rows((expert_train.states, expert_train.actions),
                                      (supp_train.states, supp_train.actions), ratios)
    targets = None if config.disable_reg else (check_targets(targets_e, x_e.shape[0]),
                                               check_targets(targets_s, x_s.shape[0]))
    b = config.batch_size
    eval_every = max(1, config.disc_steps // DISC_EVAL_POINTS)

    def record(step, loss, lam):
        log.add("disc", step, loss, lam)
        if step % eval_every == 0 or step == config.disc_steps:
            log.add("disc_eval", step, eval_discriminator(disc, *holdout), lam)

    train_discriminator(disc, x_e, x_s, ratios, config.disc_steps, b,
                        config.learning_rate, named_generator(config.seed, "disc_batch"),
                        MlpWorkspace(disc.net.layer_dims, 2 * b + 2 * (b // 2)),
                        targets, config.reg_cutoff, record)


def run_offline(config: OfflineConfig) -> OfflineArtifacts:
    log = _MetricsLog()
    spec = envs.make_spec(config.env_id)

    expert_all = load_demo_file(config.expert_demos, config.env_id)
    supp_all = (load_demo_file(config.supp_demos, config.env_id)
                if config.supp_demos else None)
    expert_train, expert_hold = split_holdout(expert_all, config.holdout_fraction)
    supp_train = supp_hold = None
    if supp_all is not None:
        supp_train, supp_hold = split_holdout(supp_all, config.holdout_fraction)

    ref_expert = ref_supp = gmm_expert = gmm_supp = disc = None
    if config.plain_bc:
        if supp_train is not None:
            bc_states = np.concatenate([expert_train.states, supp_train.states])
            bc_actions = np.concatenate([expert_train.actions, supp_train.actions])
        else:
            bc_states, bc_actions = expert_train.states, expert_train.actions
        weights = np.ones(bc_states.shape[0])
    else:
        ref_cfg = PolicyTrainConfig(steps=config.ref_steps,
                                    learning_rate=config.learning_rate,
                                    batch_size=config.batch_size,
                                    action_low=spec.action_low,
                                    action_high=spec.action_high, label="expert")
        ref_expert = train_reference_policy(expert_train, ref_cfg, config.seed,
                                            functools.partial(log.add, "ref_expert"))
        ref_supp = train_reference_policy(supp_train, replace(ref_cfg, label="supp"),
                                          config.seed, functools.partial(log.add, "ref_supp"))

        gmm_expert = fit_gmm(
            expert_train.states, n_components=config.gmm_k,
            seed=int(named_generator(config.seed, "gmm_expert").integers(2 ** 31)),
            alpha=config.gmm_alpha, cov_floor=config.gmm_cov_floor,
            provenance=expert_train.provenance_label())
        gmm_supp = fit_gmm(
            supp_train.states, n_components=config.gmm_k,
            seed=int(named_generator(config.seed, "gmm_supp").integers(2 ** 31)),
            alpha=config.gmm_alpha, cov_floor=config.gmm_cov_floor,
            provenance=supp_train.provenance_label())
        for stage, gmm in (("gmm_expert", gmm_expert), ("gmm_supp", gmm_supp)):
            for step, ll in enumerate(gmm.ll_history, start=1):
                log.add(stage, step, ll)

        joint_e = JointDensityModel(ref_expert, gmm_expert)
        joint_s = JointDensityModel(ref_supp, gmm_supp)
        # frozen per-sample quantities: posterior targets sigma(log pE - log pS)
        # and supplementary-over-expert ratios exp(log pS - log pE), where
        # -(a - b) and b - a are the same float
        diff_e = (joint_log_density(joint_e, expert_train.states, expert_train.actions)
                  - joint_log_density(joint_s, expert_train.states, expert_train.actions))
        diff_s = (joint_log_density(joint_e, supp_train.states, supp_train.actions)
                  - joint_log_density(joint_s, supp_train.states, supp_train.actions))
        ratios = clamped_ratio(-diff_s, config.ratio_min, config.ratio_max)
        targets_e = sigmoid(np.atleast_1d(diff_e))
        targets_s = sigmoid(np.atleast_1d(diff_s))

        disc = init_discriminator(spec.state_dim, spec.action_dim,
                                  rng=named_generator(config.seed, "disc_init"))
        holdout = ((expert_hold.states, expert_hold.actions),
                   (supp_hold.states, supp_hold.actions))
        _train_discriminator(config, disc, expert_train, supp_train, ratios,
                             targets_e, targets_s, holdout, log)

        bc_states = np.concatenate([expert_train.states, supp_train.states])
        bc_actions = np.concatenate([expert_train.actions, supp_train.actions])
        weights = bc_weight(disc, bc_states, bc_actions)

    policy = init_policy(spec.state_dim, spec.action_dim, spec.action_low,
                         spec.action_high,
                         rng=named_generator(config.seed, "policy_init"),
                         provenance="main")
    run_weighted_bc(policy, bc_states, bc_actions, weights, config.bc_steps,
                    config.batch_size, config.learning_rate,
                    named_generator(config.seed, "policy_train"),
                    functools.partial(log.add, "bc"))

    return OfflineArtifacts(config=config, policy=policy, discriminator=disc,
                            ref_expert=ref_expert, ref_supp=ref_supp,
                            gmm_expert=gmm_expert, gmm_supp=gmm_supp,
                            metrics=log.text())


# ----------------------------------------------------------------- storage


def save_offline_artifacts(out_dir, artifacts: OfflineArtifacts) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    extra = {"config_hash": artifacts.config.hash(), "seed": artifacts.config.seed}
    written = []

    def emit(name, saver, model):
        if model is not None:
            saver(os.path.join(out_dir, name), model, extra)
            written.append(name)

    emit(POLICY_FILE, save_policy, artifacts.policy)
    emit(DISC_FILE, save_discriminator, artifacts.discriminator)
    emit(REF_EXPERT_FILE, save_policy, artifacts.ref_expert)
    emit(REF_SUPP_FILE, save_policy, artifacts.ref_supp)
    emit(GMM_EXPERT_FILE, save_gmm, artifacts.gmm_expert)
    emit(GMM_SUPP_FILE, save_gmm, artifacts.gmm_supp)

    configio.write_text_atomic(os.path.join(out_dir, METRICS_FILE), artifacts.metrics)
    written.append(METRICS_FILE)
    configio.write_text_atomic(os.path.join(out_dir, CONFIG_FILE),
                               configio.format_config(artifacts.config.to_dict()))
    written.append(CONFIG_FILE)
    return written


def load_offline_artifacts(out_dir, require_full: bool = True) -> OfflineArtifacts:
    cfg_path = os.path.join(out_dir, CONFIG_FILE)
    if not os.path.exists(cfg_path):
        raise DataError(f"missing artifact {CONFIG_FILE!r} in {out_dir}")
    config = OfflineConfig.from_dict(configio.load_config(cfg_path))

    required = CHECKPOINT_FILES if require_full else (POLICY_FILE,)
    missing = [name for name in required
               if not os.path.exists(os.path.join(out_dir, name))]
    if missing:
        raise DataError(f"incomplete artifacts in {out_dir}: missing "
                        f"{', '.join(sorted(missing))}")

    def maybe(name, loader):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            return None
        model, extras = loader(path)
        stamp = extras.get("config_hash")
        if stamp is not None and stamp != config.hash():
            raise DataError(f"artifact {name!r} carries config hash {stamp}, "
                            f"directory config hashes to {config.hash()}")
        return model

    metrics_path = os.path.join(out_dir, METRICS_FILE)
    metrics = ""
    if os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as fh:
            metrics = fh.read()

    return OfflineArtifacts(
        config=config,
        policy=maybe(POLICY_FILE, load_policy),
        discriminator=maybe(DISC_FILE, load_discriminator),
        ref_expert=maybe(REF_EXPERT_FILE, load_policy),
        ref_supp=maybe(REF_SUPP_FILE, load_policy),
        gmm_expert=maybe(GMM_EXPERT_FILE, load_gmm),
        gmm_supp=maybe(GMM_SUPP_FILE, load_gmm),
        metrics=metrics,
    )
