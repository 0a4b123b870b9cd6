"""What the traced benchmark run needs of the program: every function its
span recorder wraps exists, and the arguments it measures sit where it reads
them. A rename would otherwise fail only under `driftbench/run.py --trace 1`."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "driftbench" / "spans.py"

# MEASURES entry -> (position, name) of the argument it reads
MEASURED_ARGS = {
    "numeric.forward": (1, "x"),
    "numeric.backward": (1, "x"),
    "discriminator.bc_weight": (1, "s"),
    "density.joint_log_density": (1, "s"),
    "online.buffer_snapshot": (0, "detector"),
    "configio.write_text_atomic": (1, "text"),
    "offline.save_offline_artifacts": (0, "out_dir"),
}
# MEASURES entries that read only the result
RESULT_ONLY = {"density.fit_gmm"}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("driftbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(key):
    module, function = key.split(".")
    return getattr(importlib.import_module(f"driftbc.{module}"), function)


def test_every_layer_function_resolves(spans):
    for module, functions in spans.LAYERS.items():
        for function in functions:
            assert callable(resolve(f"{module}.{function}")), f"{module}.{function}"


def test_measured_arguments_keep_their_positions(spans):
    assert set(spans.MEASURES) == set(MEASURED_ARGS) | RESULT_ONLY
    for key, (position, name) in MEASURED_ARGS.items():
        params = list(inspect.signature(resolve(key)).parameters)
        assert params[position] == name, f"{key}: {params}"
