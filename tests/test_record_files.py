"""The record-file codec across all five file kinds: corrupt files raise
DataError and nothing else, and writes are atomic."""

import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftbc import demos, envs
from driftbc.density import fit_gmm, load_gmm, save_gmm
from driftbc.discriminator import (DiscriminatorModel, init_discriminator,
                                   load_discriminator, save_discriminator)
from driftbc.errors import ConfigError, DataError
from driftbc.numeric import format_header
from driftbc.policy import LOG_STD_MAX, LOG_STD_MIN, init_policy, load_policy, save_policy

LOADERS = {
    "policy": load_policy,
    "disc": load_discriminator,
    "gmm": load_gmm,
    "demoset": demos.load_demoset,
    "refret": demos.load_reference_returns,
}
# header fields that fix the payload's layout, or must agree with it
DIMS_FIELDS = {
    "policy": ("layer_dims", "state_dim", "action_dim"),
    "disc": ("layer_dims",),
    "gmm": ("n_components", "dim"),
    "demoset": ("state_dim", "action_dim"),
}
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("records")
    rng = np.random.default_rng(0)
    paths = {kind: root / f"{kind}.rec" for kind in LOADERS}
    save_policy(paths["policy"], init_policy(3, 1, [-2.0], [2.0], hidden_dims=(8,), rng=rng),
                extra={"seed": 0})
    save_discriminator(paths["disc"], init_discriminator(3, 1, hidden_dims=(8,), rng=rng))
    save_gmm(paths["gmm"], fit_gmm(rng.standard_normal((60, 3)), n_components=2))
    demos.save_demoset(paths["demoset"],
                       demos.generate_tier(envs.make_spec("pointmass2d"), "random", 2, 0))
    demos.save_reference_returns(paths["refret"], demos.ReferenceReturns(
        "pendulum1", -101.25, -905.5, 20, 0))
    return {kind: path.read_bytes() for kind, path in paths.items()}, root


def load(kind, raw, root):
    path = root / "corrupt.rec"
    path.write_bytes(raw)
    return LOADERS[kind](path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_clean_files_load(files, kind):
    raw, root = files
    load(kind, raw[kind], root)


@FUZZ
@given(kind=st.sampled_from(sorted(LOADERS)), cut=st.integers(1, 63),
       extend=st.booleans(), tail=st.binary(min_size=8, max_size=8))
def test_truncated_or_extended_file_raises(files, kind, cut, extend, tail):
    raw, root = files
    corrupt = raw[kind] + tail if extend else raw[kind][:-cut]
    with pytest.raises(DataError):
        load(kind, corrupt, root)


@FUZZ
@given(data=st.data())
def test_dims_field_disagreeing_with_payload_raises(files, data):
    raw, root = files
    kind = data.draw(st.sampled_from(sorted(DIMS_FIELDS)))
    key = data.draw(st.sampled_from(DIMS_FIELDS[kind]))
    header, payload = raw[kind].split(b"\n", 1)
    value = re.search(rb"\b" + key.encode() + rb"=([0-9,]+)", header)[1]
    dims = [int(d) for d in value.split(b",")]
    i = data.draw(st.integers(0, len(dims) - 1))
    dims[i] = data.draw(st.integers(1, 99).filter(lambda d: d != dims[i]))
    new = ",".join(map(str, dims)).encode()
    header = header.replace(key.encode() + b"=" + value, key.encode() + b"=" + new, 1)
    with pytest.raises(DataError):
        load(kind, header + b"\n" + payload, root)


@FUZZ
@given(data=st.data())
def test_flipped_header_byte_raises_only_data_error(files, data):
    raw, root = files
    kind = data.draw(st.sampled_from(sorted(LOADERS)))
    blob = bytearray(raw[kind])
    i = data.draw(st.integers(0, blob.index(b"\n")))
    blob[i] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[i]))
    try:
        load(kind, bytes(blob), root)
    except DataError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_repeated_header_field_raises_naming_the_file(files, kind):
    """A header that repeats a field, even with the same value, used to load
    with the last one kept."""
    raw, root = files
    header, payload = raw[kind].split(b"\n", 1)
    last = header.rsplit(b" ", 1)[1]
    with pytest.raises(DataError, match="corrupt.rec: .*repeated record field"):
        load(kind, header + b" " + last + b"\n" + payload, root)


def test_header_with_reserved_characters_is_refused():
    with pytest.raises(ConfigError, match="reserved characters"):
        format_header("policy", {"provenance": "two words", "seed": 0})


class TestImpossibleModels:
    """The loaders refuse, naming the file, a model or demo set that training
    could not have made and that would act or score as nan or nonsense."""

    @staticmethod
    def policy():
        return init_policy(3, 1, [-2.0], [2.0], hidden_dims=(8,),
                           rng=np.random.default_rng(2))

    @staticmethod
    def demoset():
        return demos.generate_tier(envs.make_spec("pointmass2d"), "random", 2, 0)

    # params is [W0, b0, W1, b1, log_std]: index -2 is the last bias
    @pytest.mark.parametrize("index, value, message", [
        (0, np.nan, "network parameters must be finite"),
        (5, np.inf, "network parameters must be finite"),
        (-2, -np.inf, "network parameters must be finite"),
        (-1, 50.0, "log_std"),
        (-1, LOG_STD_MAX + 1e-9, "log_std"),
        (-1, LOG_STD_MIN - 1e-9, "log_std"),
        (-1, np.nan, "log_std"),
    ], ids=["nan-weight", "inf-weight", "inf-bias", "log-std-50", "above-max",
            "below-min", "nan-log-std"])
    def test_policy_refused(self, tmp_path, index, value, message):
        pol = self.policy()
        pol.params[index] = value
        save_policy(tmp_path / "bad.ckpt", pol)
        with pytest.raises(DataError, match=f"bad.ckpt: {message}"):
            load_policy(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("log_std", [LOG_STD_MIN, LOG_STD_MAX])
    def test_policy_at_a_log_std_bound_loads(self, tmp_path, log_std):
        pol = self.policy()
        pol.log_std[:] = log_std
        save_policy(tmp_path / "edge.ckpt", pol)
        assert load_policy(tmp_path / "edge.ckpt")[0].log_std.tolist() == [log_std]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_discriminator_with_a_non_finite_weight_refused(self, tmp_path, value):
        model = init_discriminator(3, 1, hidden_dims=(8,), rng=np.random.default_rng(2))
        model.net.params[7] = value
        save_discriminator(tmp_path / "bad.ckpt", model)
        with pytest.raises(DataError, match="bad.ckpt: network parameters must be finite"):
            load_discriminator(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("clip_lo, clip_hi", [
        (0.7, 0.2), (0.5, 0.5), (0.0, 0.99), (0.01, 1.0), (-0.1, 0.99),
        (np.nan, 0.99), (0.01, np.nan)])
    def test_discriminator_clip_outside_the_unit_interval_refused(self, tmp_path,
                                                                  clip_lo, clip_hi):
        model = init_discriminator(3, 1, hidden_dims=(8,), rng=np.random.default_rng(2))
        model = DiscriminatorModel(net=model.net, clip_lo=clip_lo, clip_hi=clip_hi)
        save_discriminator(tmp_path / "bad.ckpt", model)
        with pytest.raises(DataError, match="bad.ckpt: clip bounds need"):
            load_discriminator(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("column, value", [
        ("states", np.inf), ("states", -np.inf), ("states", np.nan),
        ("actions", np.nan), ("actions", np.inf)])
    def test_demoset_with_a_non_finite_entry_refused(self, tmp_path, column, value):
        ds = self.demoset()
        getattr(ds, column)[3, 0] = value
        demos.save_demoset(tmp_path / "bad.demos", ds)
        with pytest.raises(DataError, match="bad.demos: demo states and actions must be finite"):
            demos.load_demoset(tmp_path / "bad.demos")


def test_failed_replace_keeps_the_previous_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    path = tmp_path / "policy.ckpt"
    save_policy(path, init_policy(3, 1, [-2.0], [2.0], hidden_dims=(8,), rng=rng))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="refused"):
        save_policy(path, init_policy(3, 1, [-2.0], [2.0], hidden_dims=(8,), rng=rng))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["policy.ckpt"]
