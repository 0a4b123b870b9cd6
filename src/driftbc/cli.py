"""Command-line entry point wiring data generation, training, online runs,
evaluation sweeps, the threshold grid, tier ablations, and the math checks.

Exit codes are stable across subcommands: 0 success, 1 math-check failure,
2 usage or configuration error, 3 numeric abort during training.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import envs
from .configio import (RunManifest, Stopwatch, apply_overrides, config_hash,
                       format_record, load_config, write_manifest,
                       write_text_atomic)
from .demos import (TIERS, check_tier, generate_tier, load_reference_returns,
                    measure_reference_returns, mix_supplementary, save_demoset,
                    save_reference_returns)
from .errors import ConfigError, DataError, NumericError, ShapeError
from .evaluation import (DEFAULT_RUNS, DEFAULT_SIGMAS, SCORE_EPISODES,
                         grid_search_kth, noise_sweep, normalizer_from_reference,
                         report_files, tier_ablation)
from .offline import (OfflineConfig, load_demo_file, load_offline_artifacts,
                      run_offline, save_offline_artifacts)
from .online import (ADAPT_MODES, KAPPA_THRESHOLD, PATIENCE,
                     format_trigger_log, run_online)
from .verify import all_passed, format_results, run_checks

OUT_ROOT_ENV = "DRIFTBC_OUT_ROOT"
DEFAULT_OUT_ROOT = "runs"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# ------------------------------------------------------------ shared pieces


def _check_parents(path: Path) -> None:
    """The nearest existing ancestor of path must be a directory, or mkdir
    would fail on it."""
    for parent in path.parents:
        if parent.exists():
            if not parent.is_dir():
                raise ConfigError(f"output path {path}: {parent} is not a directory")
            return


def _prepare_dir(arg_out, subcommand: str, force: bool) -> Path:
    """The output directory: --out, else <DRIFTBC_OUT_ROOT or runs>/<subcommand>.
    It is checked here and made when its first file is written."""
    path = (Path(arg_out) if arg_out
            else Path(os.environ.get(OUT_ROOT_ENV, DEFAULT_OUT_ROOT)) / subcommand)
    _check_parents(path)
    if path.exists() and not path.is_dir():
        raise ConfigError(f"output directory {path} exists and is not a directory")
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError(
            f"output directory {path} is not empty; pass --force to overwrite")
    return path


def _prepare_file(path: Path, force: bool) -> Path:
    _check_parents(path)
    if path.is_dir():
        raise ConfigError(f"output file {path} is a directory")
    if path.exists() and not force:
        raise ConfigError(f"output file {path} exists; pass --force to overwrite")
    return path


def _write_run(subcommand: str, manifest_path: Path, params: dict, seed: int,
               watch: Stopwatch, texts: dict[str, str], message: str,
               written=(), config_path: str = "-") -> None:
    """Write each of texts (file name -> contents) beside the manifest, then
    the manifest over those files and the already written ones, then print
    message."""
    out = manifest_path.parent
    for name, text in texts.items():
        write_text_atomic(out / name, text)
    write_manifest(manifest_path, RunManifest(
        subcommand=subcommand, config_hash=config_hash(params), seed=seed,
        out_dir=str(out), wall_ms=watch.ms(), config_path=config_path,
        artifacts=sorted([*written, *texts])))
    print(message, end="")


def _parse_sigmas(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"bad sigma list {text!r}") from None
    if not values:
        raise ConfigError("sigma list is empty")
    return values


def _parse_mixes(items) -> list[tuple[str, str]]:
    mixes = []
    for item in items:
        if "=" not in item:
            raise ConfigError(f"mix {item!r} is not label=path")
        label, path = item.split("=", 1)
        mixes.append((label.strip(), path.strip()))
    return mixes


def _load_normalizer(refs_path: str, env_id: str):
    ref = load_reference_returns(refs_path)
    if ref.env_id != env_id:
        raise ConfigError(
            f"reference returns are for {ref.env_id!r}, artifacts for {env_id!r}")
    return normalizer_from_reference(ref)


# -------------------------------------------------------------- subcommands


def cmd_gen_data(args) -> int:
    spec = envs.make_spec(args.env)
    tiers = [t.strip() for t in args.tier.split(",") if t.strip()]
    if not tiers:
        raise ConfigError(f"no tier named in {args.tier!r}; valid: {', '.join(TIERS)}")
    for tier in tiers:
        check_tier(tier)
    out = _prepare_file(Path(args.out), args.force)
    watch = Stopwatch()
    sets = [generate_tier(spec, tier, args.episodes, args.seed) for tier in tiers]
    demos = sets[0] if len(sets) == 1 else mix_supplementary(sets)
    save_demoset(out, demos)
    params = {"env": args.env, "tier": args.tier,
              "episodes": args.episodes, "seed": args.seed}
    _write_run("gen-data", Path(f"{out}.manifest"), params, args.seed, watch, {},
               f"wrote {out}: {demos.n_episodes} episodes, {demos.n_samples} samples\n",
               [out.name])
    return EXIT_OK


def cmd_gen_refs(args) -> int:
    spec = envs.make_spec(args.env)
    out = _prepare_file(Path(args.out), args.force)
    watch = Stopwatch()
    ref = measure_reference_returns(spec, episodes=args.episodes, seed=args.seed)
    save_reference_returns(out, ref)
    params = {"env": args.env, "episodes": args.episodes, "seed": args.seed}
    _write_run("gen-refs", Path(f"{out}.manifest"), params, args.seed, watch, {},
               f"wrote {out}: " + format_record({"expert_return": ref.expert_return,
                                                 "random_return": ref.random_return}),
               [out.name])
    return EXIT_OK


def cmd_train_offline(args) -> int:
    cfg = apply_overrides(load_config(args.config), args.set)
    config = OfflineConfig.from_dict(cfg)
    out = _prepare_dir(args.out, "train-offline", args.force)
    watch = Stopwatch()
    artifacts = run_offline(config)
    files = save_offline_artifacts(out, artifacts)
    _write_run("train-offline", out / "manifest.txt", config.to_dict(), config.seed,
               watch, {}, f"trained {config.env_id} artifacts in {out}\n" + format_record(
                   {"config_hash": config.hash(), "seed": config.seed, "files": len(files)}),
               files, config_path=str(args.config))
    return EXIT_OK


def cmd_run_online(args) -> int:
    artifacts = load_offline_artifacts(args.artifacts)
    expert = load_demo_file(artifacts.config.expert_demos, artifacts.config.env_id)
    out = _prepare_dir(args.out, "run-online", args.force)
    watch = Stopwatch()
    result = run_online(artifacts, expert, sigma=args.sigma,
                        episodes=args.episodes, adapt=args.adapt,
                        seed=args.seed, kappa_threshold=args.kth,
                        patience=args.patience)
    returns_text = "".join(format_record({"episode": i, "return": float(r)})
                           for i, r in enumerate(result.episode_returns))
    params = {"artifacts_config_hash": artifacts.config.hash(),
              "sigma": args.sigma, "episodes": args.episodes,
              "adapt": args.adapt, "seed": args.seed, "kth": args.kth,
              "patience": args.patience}
    _write_run("run-online", out / "manifest.txt", params, args.seed, watch,
               {"returns.log": returns_text,
                "triggers.log": format_trigger_log(result.records)},
               format_record({"episodes": args.episodes,
                              "mean_return": float(result.episode_returns.mean()),
                              "triggers": result.update_invocations,
                              "failed": result.failed_updates}))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    artifacts = load_offline_artifacts(args.artifacts)
    normalizer = _load_normalizer(args.refs, artifacts.config.env_id)
    expert = (load_demo_file(artifacts.config.expert_demos, artifacts.config.env_id)
              if args.adapt != "off" else None)
    out = _prepare_dir(args.out, "evaluate", args.force)
    watch = Stopwatch()
    report = noise_sweep(artifacts, normalizer, sigmas=_parse_sigmas(args.sigmas),
                         runs=args.runs, adapt=args.adapt,
                         episodes=args.episodes, expert_demos=expert,
                         base_seed=args.seed, kappa_threshold=args.kth,
                         patience=args.patience, jobs=args.jobs)
    params = {"artifacts_config_hash": artifacts.config.hash(),
              "sigmas": args.sigmas, "runs": args.runs, "adapt": args.adapt,
              "episodes": report.header["episodes"], "seed": args.seed, "kth": args.kth,
              "patience": args.patience}
    files = report_files(report)
    _write_run("evaluate", out / "manifest.txt", params, args.seed, watch, files,
               files["summary.txt"])
    return EXIT_OK


def cmd_grid_kth(args) -> int:
    artifacts = load_offline_artifacts(args.artifacts)
    normalizer = _load_normalizer(args.refs, artifacts.config.env_id)
    expert = load_demo_file(artifacts.config.expert_demos, artifacts.config.env_id)
    out = _prepare_dir(args.out, "grid-kth", args.force)
    watch = Stopwatch()
    report = grid_search_kth(artifacts, expert, normalizer, sigma=args.sigma,
                             runs=args.runs, episodes=args.episodes,
                             base_seed=args.seed, patience=args.patience,
                             jobs=args.jobs)
    params = {"artifacts_config_hash": artifacts.config.hash(),
              "sigma": args.sigma, "runs": args.runs,
              "episodes": args.episodes, "seed": args.seed,
              "patience": args.patience}
    files = report_files(report)
    _write_run("grid-kth", out / "manifest.txt", params, args.seed, watch, files,
               files["summary.txt"])
    return EXIT_OK


def cmd_tier_ablation(args) -> int:
    cfg = apply_overrides(load_config(args.config), args.set)
    base = OfflineConfig.from_dict(cfg)
    normalizer = _load_normalizer(args.refs, base.env_id)
    mixes = _parse_mixes(args.mix)
    out = _prepare_dir(args.out, "tier-ablation", args.force)
    watch = Stopwatch()
    report = tier_ablation(base, mixes, normalizer,
                           sigmas=_parse_sigmas(args.sigmas), runs=args.runs,
                           episodes=args.episodes, base_seed=args.seed,
                           jobs=args.jobs)
    params = dict(base.to_dict(), sigmas=args.sigmas, runs=args.runs,
                  episodes=args.episodes, eval_seed=args.seed,
                  mixes=",".join(f"{label}:{path}" for label, path in mixes))
    files = report_files(report)
    _write_run("tier-ablation", out / "manifest.txt", params, args.seed, watch, files,
               files["summary.txt"], config_path=str(args.config))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
    out = _prepare_dir(args.out, "verify", args.force) if args.out else None
    watch = Stopwatch()
    results = run_checks(names=names, seed=args.seed)
    text = format_results(results)
    print(text, end="")
    if out is not None:
        params = {"checks": args.checks or "all", "seed": args.seed}
        _write_run("verify", out / "manifest.txt", params, args.seed, watch,
                   {"results.txt": text}, "")
    return EXIT_OK if all_passed(results) else EXIT_CHECK_FAILED


# ------------------------------------------------------------------ parser


def _add_out_flags(p, **out_kwargs) -> None:
    p.add_argument("--out", **out_kwargs)
    p.add_argument("--force", action="store_true")


def _add_sweep_flags(p) -> None:
    p.add_argument("--refs", required=True,
                   help="reference-returns file from gen-refs")
    p.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    p.add_argument("--seed", type=int, default=0,
                   help="first seed; runs use seed..seed+runs-1")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per adaptive cell or "
                        "per chunk of adapt-off cells")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftbc",
        description="imitation-learning lab: weighted cloning, shift "
                    "detection, online adaptation, and evaluation sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    kth_help = "shift-score trigger threshold"
    patience_help = "consecutive low-score steps before an update"

    p = sub.add_parser("gen-data", help="roll out a behavior tier to a demo file")
    p.add_argument("--env", required=True)
    p.add_argument("--tier", required=True,
                   help=f"one of {', '.join(TIERS)}, or a comma list mixed in order")
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_out_flags(p, required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gen-refs", help="measure expert/random reference returns")
    p.add_argument("--env", required=True)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_out_flags(p, required=True)
    p.set_defaults(func=cmd_gen_refs)

    p = sub.add_parser("train-offline", help="run the staged offline trainer")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    _add_out_flags(p)
    p.set_defaults(func=cmd_train_offline)

    p = sub.add_parser("run-online", help="roll episodes with optional adaptation")
    p.add_argument("--artifacts", required=True, help="train-offline output dir")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--adapt", choices=ADAPT_MODES, default="on")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kth", type=float, default=KAPPA_THRESHOLD, help=kth_help)
    p.add_argument("--patience", type=int, default=PATIENCE, help=patience_help)
    _add_out_flags(p)
    p.set_defaults(func=cmd_run_online)

    p = sub.add_parser("evaluate", help="noise sweep with normalized scores")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--sigmas", default=",".join(str(s) for s in DEFAULT_SIGMAS))
    p.add_argument("--episodes", type=int, default=None,
                   help="episodes per cell (default 20, or 100 when adapting)")
    _add_sweep_flags(p)
    p.add_argument("--kth", type=float, default=KAPPA_THRESHOLD, help=kth_help)
    p.add_argument("--patience", type=int, default=PATIENCE, help=patience_help)
    p.add_argument("--adapt", choices=ADAPT_MODES, default="off")
    _add_out_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid-kth", help="score every trigger-threshold candidate")
    p.add_argument("--artifacts", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--episodes", type=int, default=SCORE_EPISODES)
    _add_sweep_flags(p)
    p.add_argument("--patience", type=int, default=PATIENCE, help=patience_help)
    _add_out_flags(p)
    p.set_defaults(func=cmd_grid_kth)

    p = sub.add_parser("tier-ablation",
                       help="train per supplementary mix and sweep each")
    p.add_argument("--config", required=True, help="base offline config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--mix", action="append", required=True, metavar="LABEL=PATH",
                   help="supplementary demo file per mix, narrowest first")
    p.add_argument("--sigmas", default=",".join(str(s) for s in DEFAULT_SIGMAS))
    p.add_argument("--episodes", type=int, default=SCORE_EPISODES)
    _add_sweep_flags(p)
    _add_out_flags(p)
    p.set_defaults(func=cmd_tier_ablation)

    p = sub.add_parser("verify", help="run the self-contained math checks")
    p.add_argument("--checks",
                   help="comma list of check names (default: all)")
    p.add_argument("--seed", type=int, default=0)
    _add_out_flags(p, help="optionally write results + manifest here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code) if exc.code else EXIT_OK
    try:
        # before any subcommand creates an output path; train-offline's
        # seed is checked with the rest of its config
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        code = args.func(args)
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DataError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if code is None else code


if __name__ == "__main__":
    sys.exit(main())
