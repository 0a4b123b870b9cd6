"""Span recorder for the traced benchmark run.

Wraps the public driftbc functions listed in LAYERS from outside the package:
every module attribute that holds one of them (``driftbc.numeric.forward`` and
the ``forward`` that ``driftbc.policy`` imported from it are the same object)
is replaced by a wrapper that records a span, so no file of the program
changes. Spans live in flat in-memory arrays, each with the index of the span
that was open when it started, and are aggregated and saved when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
from array import array

import numpy as np

# module -> function -> stats reported for it, named <module>.<function>.<stat>
LAYERS = {
    "numeric": {
        "forward": ("calls", "rows", "self_s", "us_p50"),
        "backward": ("calls", "rows", "self_s", "us_p50"),
        "adam_step": ("calls", "self_s", "us_p50"),
        "named_generator": ("calls", "self_s"),
    },
    "policy": {
        "sample_action": ("calls", "self_s", "us_p50"),
        "weighted_bc_loss": ("calls", "self_s"),
        "run_weighted_bc": ("calls", "self_s"),
    },
    "discriminator": {
        "combined_offline_loss": ("calls", "self_s", "us_p50"),
        "online_disc_loss": ("calls", "self_s"),
        "bc_weight": ("calls", "rows", "self_s"),
    },
    "density": {
        "fit_gmm": ("calls", "em_iters", "self_s"),
        "joint_log_density": ("calls", "rows", "self_s"),
        "membership_score": ("calls", "self_s"),
    },
    "online": {
        "kappa": ("calls", "self_s", "us_p50"),
        "online_update": ("calls", "failed", "self_s", "us_p50", "us_p90"),
        "buffer_snapshot": ("calls", "rows", "self_s"),
        "run_online": ("self_s",),
    },
    "envs": {
        "step": ("calls", "self_s"),
        "observe": ("calls", "self_s"),
        "reset": ("calls", "self_s"),
    },
    "evaluation": {
        "score_policy": ("calls", "self_s"),
        "evaluate_cell": ("calls", "self_s"),
    },
    "offline": {
        "run_offline": ("self_s",),
        "eval_discriminator": ("calls", "self_s"),
        "save_offline_artifacts": ("calls", "bytes", "self_s"),
        "load_offline_artifacts": ("calls", "self_s"),
    },
    "demos": {
        "generate_tier": ("calls", "self_s"),
        "save_demoset": ("calls", "self_s"),
        "load_demoset": ("calls", "self_s"),
    },
    "configio": {
        "write_text_atomic": ("calls", "bytes", "self_s"),
    },
    "cli": {
        "main": ("calls", "self_s"),
    },
}

UNITS = {"calls": "count", "rows": "rows", "bytes": "bytes", "em_iters": "count",
         "failed": "count", "self_s": "s", "us_p50": "us", "us_p90": "us"}
# stats held in a span's extra counter, set by MEASURES
EXTRA_STATS = ("rows", "bytes", "em_iters")
# totals that may differ between repeats of the same work: times, and bytes,
# since the files written hold wall_ms stamps of varying width
INEXACT_STATS = ("self_s", "bytes")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(index, name):
    def measure(args, kwargs, result):
        x = _arg(args, kwargs, index, name)
        return np.shape(x)[0] if np.ndim(x) == 2 else 1
    return measure


def _saved_bytes(args, kwargs, result):
    out_dir = _arg(args, kwargs, 0, "out_dir")
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in result)


# what the extra counter of a span holds, per function
MEASURES = {
    "numeric.forward": _rows(1, "x"),
    "numeric.backward": _rows(1, "x"),
    "discriminator.bc_weight": _rows(1, "s"),
    "density.joint_log_density": _rows(1, "s"),
    "online.buffer_snapshot":
        lambda args, kwargs, result: len(_arg(args, kwargs, 0, "detector").buffer),
    "density.fit_gmm": lambda args, kwargs, result: len(result.ll_history),
    "offline.save_offline_artifacts": _saved_bytes,
    "configio.write_text_atomic":
        lambda args, kwargs, result: len(_arg(args, kwargs, 1, "text").encode("utf-8")),
}
# a call that returns normally but reports failure; raising always counts
FAILED_RESULTS = {"online.online_update": lambda result: result is False}


def import_package(package: str) -> list:
    """Import every submodule so that every alias of a function is seen."""
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__):
        importlib.import_module(f"{package}.{info.name}")
    return [m for name, m in sys.modules.items()
            if name == package or name.startswith(package + ".")]


class SpanRecorder:
    """Records one span per call of a wrapped function.

    ``phase`` tags each span with the part of the run it belongs to (set-up
    or timed round) so that totals can be given per set-up and per round.
    """

    def __init__(self):
        self.keys: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.extra = array("q")
        self.failed = array("b")
        self.current_phase = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, func):
        key_id = len(self.keys)
        self.keys.append(key)
        measure = MEASURES.get(key)
        failed_result = FAILED_RESULTS.get(key)
        fn, parent, phase = self.fn, self.parent, self.phase
        t0, t1, extra, failed = self.t0, self.t1, self.extra, self.failed
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(t0)
            fn.append(key_id)
            parent.append(stack[-1] if stack else -1)
            phase.append(self.current_phase)
            extra.append(0)
            failed.append(0)
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                t1[idx] = clock()
                stack.pop()
                failed[idx] = 1
                raise
            t1[idx] = clock()
            stack.pop()
            if measure is not None:
                extra[idx] = measure(args, kwargs, result)
            if failed_result is not None and failed_result(result):
                failed[idx] = 1
            return result

        return wrapper

    def install(self, package: str) -> None:
        modules = import_package(package)
        for module, functions in LAYERS.items():
            home = sys.modules[f"{package}.{module}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{module}.{function}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "keys": np.array(self.keys),
            "fn": np.frombuffer(self.fn, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int32),
            "t0": np.frombuffer(self.t0, dtype=np.float64),
            "t1": np.frombuffer(self.t1, dtype=np.float64),
            "extra": np.frombuffer(self.extra, dtype=np.int64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self, phase_counts: dict[int, int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics. Counts and times are totals per set-up plus
        totals per timed round (phase_counts gives how many of each phase
        ran), so counts repeat exactly however many rounds fit in the run;
        percentiles pool every call."""
        a = self.arrays()
        dur = a["t1"] - a["t0"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        per_span = {"calls": np.ones(dur.shape, dtype=np.int64),
                    "failed": a["failed"].astype(np.int64),
                    "self_s": dur - child,
                    **{stat: a["extra"] for stat in EXTRA_STATS}}

        out: dict[str, tuple[float, str]] = {}
        for key_id, key in enumerate(self.keys):
            module, function = key.split(".")
            mine = a["fn"] == key_id
            durations = dur[mine]
            for stat in LAYERS[module][function]:
                if stat.startswith("us_p"):
                    value = (float(np.percentile(durations, int(stat[4:]))) * 1e6
                             if durations.size else 0.0)
                else:
                    value = 0
                    for phase, count in phase_counts.items():
                        total = per_span[stat][mine & (a["phase"] == phase)].sum()
                        if stat in INEXACT_STATS:
                            value += float(total) / count
                        else:
                            whole, rest = divmod(int(total), count)
                            if rest:
                                raise RuntimeError(f"{key}.{stat}: {total} does not "
                                                   f"split evenly over {count} repeats")
                            value += whole
                out[f"{key}.{stat}"] = (value, UNITS[stat])
        return out
