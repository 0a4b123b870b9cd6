"""driftbc benchmark: offline training, adaptive online control and a
noise-sweep evaluation, each timed end to end through ``driftbc.cli.main``.

Run it from the root of a checkout:

    python3 driftbench/run.py --workload online-adapt --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` of the current directory, sets up the
workload's inputs five times (``setup_s`` is the median), then repeats whole
rounds of the workload's CLI calls until ``--seconds`` have passed and reports
the median round. ``--trace 1`` runs the same thing with every public
function in spans.LAYERS wrapped and reports per-layer metrics instead. The
outputs of the last round are checked (checks.py) after the timed section.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# One process and one BLAS thread: the program's matrices are at most 64 wide,
# and on a shared 2-core box a second BLAS thread made rounds no faster while
# its spin-waiting competed with the rest of the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
PACKAGE = "driftbc"
SETUPS = 5
SETUP_PHASE, ROUND_PHASE = 0, 1


class MissingProgram(Exception):
    """The directory holds no driftbc sources to benchmark."""


def load_program(root: Path) -> types.SimpleNamespace:
    """Import driftbc from root/src, never from anywhere else."""
    src = root / "src"
    if not (src / PACKAGE / "cli.py").is_file():
        raise MissingProgram(f"no {PACKAGE} sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
               for name in ("cli", "demos", "density", "discriminator", "envs")}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src.resolve()):
        raise MissingProgram(f"{PACKAGE} was imported from outside {src}")
    warnings.simplefilter("ignore", modules["density"].CovarianceFloorWarning)
    return types.SimpleNamespace(**modules)


@dataclass
class Round:
    seconds: float  # wall time of the round's CLI calls
    attempted: int
    failed: int
    steps: int


class Workload:
    """Inputs are made in setup(); round() runs the timed CLI calls;
    check() inspects the last round's outputs."""

    def __init__(self, program, work: Path, seed: int):
        self.program = program
        self.work = work
        self.seed = seed

    def path(self, name: str) -> str:
        return str(self.work / name)

    def cli(self, *argv) -> tuple[int, str, float]:
        """(exit code, stdout, seconds) of one in-process CLI call."""
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            # looked up on every call so that a traced run sees the wrapper
            code = self.program.cli.main([str(a) for a in argv])
        return code, out.getvalue(), time.perf_counter() - start

    def setup_cli(self, *argv) -> None:
        code, _, _ = self.cli(*argv)
        if code != 0:
            raise RuntimeError(f"set-up call {' '.join(map(str, argv))} exited {code}")

    def write_config(self, name: str, **fields) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k}={v}\n" for k, v in fields.items()))
        return path


class OfflineTrain(Workload):
    """train-offline on pointmass2d with the gate-07 data and budgets.

    The inputs do not depend on the seed: EM's iteration count swings with
    any change of data or config seed (fit_gmm took 0.4 s to 2.1 s over ten
    config seeds), which would make run_s measure the seed, not the code.
    """

    DATA_SEED = 5
    CONFIG_SEED = 3

    def __init__(self, program, work, seed, expert=10,
                 supp=(("medium", 160), ("medium_replay_like", 30), ("random", 10)),
                 ref_steps=1000, disc_steps=2000, bc_steps=3000, reg_cutoff=1000):
        super().__init__(program, work, seed)
        self.expert, self.supp = expert, supp
        self.budgets = dict(ref_steps=ref_steps, disc_steps=disc_steps,
                            bc_steps=bc_steps, reg_cutoff=reg_cutoff)
        self.out = self.work / "artifacts"

    def setup(self) -> None:
        demos = self.program.demos
        spec = self.program.envs.make_spec("pointmass2d")
        demos.save_demoset(self.path("expert.demos"), demos.generate_tier(
            spec, "expert", self.expert, self.DATA_SEED))
        demos.save_demoset(self.path("supp.demos"), demos.mix_supplementary(
            [demos.generate_tier(spec, tier, n, self.DATA_SEED) for tier, n in self.supp]))
        self.config = self.write_config(
            "offline.cfg", env_id="pointmass2d", expert_demos=self.path("expert.demos"),
            supp_demos=self.path("supp.demos"), seed=self.CONFIG_SEED, **self.budgets)

    def round(self) -> Round:
        code, _, seconds = self.cli("train-offline", "--config", self.config,
                                    "--out", self.out, "--force")
        b = self.budgets
        steps = 2 * b["ref_steps"] + b["disc_steps"] + b["bc_steps"]
        return Round(seconds, 1, int(code != 0), steps)

    def check(self) -> list[str]:
        metrics = (self.out / "metrics.log").read_text(encoding="utf-8")
        problems = (checks.em_monotone(metrics) + checks.disc_eval_below_chance(metrics)
                    + checks.manifest_complete(self.out / "manifest.txt"))
        demos = [self.program.demos.load_demoset(self.path(n))
                 for n in ("expert.demos", "supp.demos")]
        states = np.concatenate([d.states for d in demos])
        actions = np.concatenate([d.actions for d in demos])
        disc_path = self.out / "discriminator.ckpt"
        disc, _ = self.program.discriminator.load_discriminator(disc_path)
        own, bounds = checks.disc_odds(disc_path, states, actions)
        program = self.program.discriminator.bc_weight(disc, states, actions)
        return problems + checks.odds_match(own, bounds, program)


class OnlineAdapt(Workload):
    """run-online --adapt on over a few seeds, on the gate-08 artifacts.

    The artifacts are trained from fixed seeds: the update count per 100
    episodes ranged from 37 to 333 across training seeds, against 53 to 78
    across episode seeds, so only the episode seeds follow --seed.
    """

    DATA_SEED = 5
    CONFIG_SEED = 3
    SIGMA = 0.1
    KTH = 0.6
    PATIENCE = 20
    _COUNTS = re.compile(r"\btriggers=(\d+) failed=(\d+)\b")

    def __init__(self, program, work, seed, expert=5, medium=15, ref_steps=600,
                 disc_steps=1200, bc_steps=300, reg_cutoff=600, seeds=6, episodes=100):
        super().__init__(program, work, seed)
        self.expert, self.medium = expert, medium
        self.budgets = dict(ref_steps=ref_steps, disc_steps=disc_steps,
                            bc_steps=bc_steps, reg_cutoff=reg_cutoff)
        self.run_seeds = [seed * seeds + i for i in range(seeds)]
        self.episodes = episodes
        self.printed: dict[int, tuple[int, int]] = {}

    def setup(self) -> None:
        for tier, n in (("expert", self.expert), ("medium", self.medium)):
            self.setup_cli("gen-data", "--env", "pointmass2d", "--tier", tier,
                           "--episodes", n, "--seed", self.DATA_SEED,
                           "--out", self.path(f"{tier}.demos"), "--force")
        config = self.write_config(
            "offline.cfg", env_id="pointmass2d", expert_demos=self.path("expert.demos"),
            supp_demos=self.path("medium.demos"), seed=self.CONFIG_SEED, **self.budgets)
        self.setup_cli("train-offline", "--config", config,
                       "--out", self.path("artifacts"), "--force")

    def round(self) -> Round:
        total = Round(0.0, 0, 0, 0)
        for s in self.run_seeds:
            code, out, seconds = self.cli(
                "run-online", "--artifacts", self.path("artifacts"), "--sigma", self.SIGMA,
                "--episodes", self.episodes, "--adapt", "on", "--seed", s,
                "--kth", self.KTH, "--patience", self.PATIENCE,
                "--out", self.path(f"online-{s}"), "--force")
            found = self._COUNTS.search(out)
            triggers, failed = (int(found[1]), int(found[2])) if found else (0, 0)
            self.printed[s] = (triggers, failed)
            total.seconds += seconds
            total.attempted += 1 + triggers
            total.failed += int(code != 0 or not found) + failed
            log = self.work / f"online-{s}" / "triggers.log"
            total.steps += log.read_text().count("\n") if log.exists() else 0
        return total

    def check(self) -> list[str]:
        problems = []
        returns = []
        for s in self.run_seeds:
            out = self.work / f"online-{s}"
            problems += checks.trigger_replay((out / "triggers.log").read_text(),
                                              self.KTH, self.PATIENCE, self.printed[s][0])
            r, found = checks.episode_returns((out / "returns.log").read_text(), self.episodes)
            returns.append(r)
            problems += found
        return problems + checks.adaptation_gain(returns)


class EvalSweep(Workload):
    """evaluate --adapt off on pendulum1 artifacts over four noise levels."""

    SIGMAS = (0.0, 0.05, 0.1, 0.2)
    REPLAY_SIGMAS = (0.0, 0.2)

    def __init__(self, program, work, seed, expert=10, medium=20, ref_steps=300,
                 disc_steps=600, bc_steps=600, reg_cutoff=300, refs_episodes=20,
                 runs=5, episodes=20):
        super().__init__(program, work, seed)
        self.expert, self.medium, self.refs_episodes = expert, medium, refs_episodes
        self.budgets = dict(ref_steps=ref_steps, disc_steps=disc_steps,
                            bc_steps=bc_steps, reg_cutoff=reg_cutoff)
        self.runs, self.episodes = runs, episodes
        self.base_seed = seed * runs
        self.out = self.work / "sweep"

    def setup(self) -> None:
        for tier, n in (("expert", self.expert), ("medium", self.medium)):
            self.setup_cli("gen-data", "--env", "pendulum1", "--tier", tier,
                           "--episodes", n, "--seed", self.seed,
                           "--out", self.path(f"{tier}.demos"), "--force")
        config = self.write_config(
            "offline.cfg", env_id="pendulum1", expert_demos=self.path("expert.demos"),
            supp_demos=self.path("medium.demos"), seed=self.seed, **self.budgets)
        self.setup_cli("train-offline", "--config", config,
                       "--out", self.path("artifacts"), "--force")
        self.setup_cli("gen-refs", "--env", "pendulum1", "--episodes", self.refs_episodes,
                       "--seed", self.seed, "--out", self.path("pendulum.refs"), "--force")

    def round(self) -> Round:
        code, _, seconds = self.cli(
            "evaluate", "--artifacts", self.path("artifacts"),
            "--refs", self.path("pendulum.refs"), "--adapt", "off", "--jobs", 1,
            "--sigmas", ",".join(map(str, self.SIGMAS)), "--runs", self.runs,
            "--episodes", self.episodes, "--seed", self.base_seed,
            "--out", self.out, "--force")
        cells = len(self.SIGMAS) * self.runs
        return Round(seconds, 1 + cells, (1 + cells) * int(code != 0),
                     cells * self.episodes * checks.PENDULUM_HORIZON)

    def check(self) -> list[str]:
        records = (self.out / "records.txt").read_text()
        policy = self.work / "artifacts" / "policy.ckpt"
        replay = {(sigma, self.base_seed): checks.pendulum_returns(
                      policy, sigma, self.base_seed, self.episodes)
                  for sigma in self.REPLAY_SIGMAS}
        return (checks.sweep_shape(records, self.SIGMAS, self.runs, self.episodes)
                + checks.sweep_replay(records, Path(self.path("pendulum.refs")).read_text(),
                                      replay))


WORKLOADS = {"offline-train": OfflineTrain, "online-adapt": OnlineAdapt,
             "eval-sweep": EvalSweep}


def run_workload(program, name: str, seed: int, seconds: float, trace: bool,
                 work: Path, **size) -> tuple[dict, list[float]]:
    """Set up, run whole rounds for `seconds`, check. Returns the result
    object and the wall time of every round."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](program, work, seed, **size)
    recorder = spans.SpanRecorder() if trace else None
    if recorder:
        recorder.install(PACKAGE)
    try:
        setup_times = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if recorder:
            recorder.current_phase = ROUND_PHASE
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(workload.round())
    finally:
        if recorder:
            recorder.uninstall()

    problems = workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    run_s = statistics.median(r.seconds for r in rounds)
    if recorder:
        recorder.save(work / "spans.npz")
        metrics = recorder.layer_metrics({SETUP_PHASE: SETUPS, ROUND_PHASE: len(rounds)})
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "steps_per_s": (rounds[0].steps / run_s, "steps/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, [r.seconds for r in rounds]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program = load_program(Path.cwd())
    except MissingProgram as exc:
        print(f"driftbench: {exc}", file=sys.stderr)
        return 2
    work = HERE / "_out" / f"{args.workload}-trace{args.trace}"
    result, round_times = run_workload(program, args.workload, args.seed, args.seconds,
                                       bool(args.trace), work)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={','.join(f'{t:.3f}' for t in round_times)} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
