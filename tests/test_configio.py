"""Config dialect, record codec, hashing stability, overrides, and manifest
round trips."""

import math
import os
import struct
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftbc import configio
from driftbc.configio import RunManifest
from driftbc.errors import ConfigError, DataError


def test_parse_basic():
    cfg = configio.parse_config_text(
        "env_id=pointmass2d\n\n# comment\nseed = 3\nlr=5e-4\n")
    assert cfg == {"env_id": "pointmass2d", "seed": "3", "lr": "5e-4"}


def test_parse_rejects_malformed():
    with pytest.raises(ConfigError, match="line 1"):
        configio.parse_config_text("no equals sign")
    with pytest.raises(ConfigError, match="duplicate"):
        configio.parse_config_text("a=1\na=2")
    with pytest.raises(ConfigError, match="bad key"):
        configio.parse_config_text("a b=1")


def test_format_sorted_and_stable():
    text = configio.format_config({"b": 2, "a": "x"})
    assert text == "a=x\nb=2\n"


def test_hash_ignores_formatting():
    a = configio.parse_config_text("x=1\ny=2\n")
    b = configio.parse_config_text("# header\ny = 2\n\nx=1\n")
    assert configio.config_hash(a) == configio.config_hash(b)
    c = configio.parse_config_text("x=1\ny=3\n")
    assert configio.config_hash(a) != configio.config_hash(c)


def test_overrides():
    cfg = {"a": "1", "b": "2"}
    out = configio.apply_overrides(cfg, ["b=9", "c=new"])
    assert out == {"a": "1", "b": "9", "c": "new"}
    assert cfg == {"a": "1", "b": "2"}  # input untouched
    with pytest.raises(ConfigError):
        configio.apply_overrides(cfg, ["broken"])


@given(st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
                       st.from_regex(r"[A-Za-z0-9_.\-]{0,12}", fullmatch=True),
                       max_size=8))
def test_parse_format_round_trip(cfg):
    text = configio.format_config(cfg)
    assert configio.parse_config_text(text) == {k: str(v) for k, v in cfg.items()}


# ------------------------------------------------------------- record codec

FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
     -sys.float_info.max, math.inf, -math.inf])
SCALARS = FLOATS | st.integers() | st.booleans()
RECORD_VALUES = SCALARS | st.one_of(
    *(st.lists(s, min_size=1, max_size=4).map(tuple)
      for s in (FLOATS, st.integers(), st.booleans())))


def decode(value, text: str):
    """text read back as the type of value, the way record readers do."""
    if isinstance(value, tuple):
        return tuple(decode(v, t) for v, t in zip(value, text.split(","), strict=True))
    if isinstance(value, bool):
        return {"1": True, "0": False}[text]
    return float(text) if isinstance(value, float) else int(text)


def bits(value):
    """value with every float as its 8 bytes, so -0.0 differs from 0.0."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return struct.pack("<d", value)
    return (type(value), value)


@given(st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
                       RECORD_VALUES, min_size=1, max_size=8))
def test_record_round_trip_is_bit_exact(fields):
    line = configio.format_record(fields)
    assert line.endswith("\n") and line.count("\n") == 1
    parsed = configio.parse_record(line[:-1])
    assert list(parsed) == list(fields)
    for key, value in fields.items():
        assert bits(decode(value, parsed[key])) == bits(value)


def test_record_keeps_field_order_and_formats_by_type():
    line = configio.format_record({"z": 1, "a": 0.1, "flag": True, "dims": (3, 64, 1),
                                   "name": "pointmass2d", "off": False})
    assert line == "z=1 a=0.1 flag=1 dims=3,64,1 name=pointmass2d off=0\n"


@pytest.mark.parametrize("value", ["two words", "a=b", "line\nbreak", ("ok", "a b")])
def test_record_str_with_reserved_characters_raises(value):
    with pytest.raises(ConfigError, match="reserved characters"):
        configio.format_record({"ok": 1, "field": value})


@pytest.mark.parametrize("line, match", [
    ("", "malformed"), ("a=1  b=2", "malformed"), (" a=1", "malformed"),
    ("a=1 ", "malformed"), ("a=1 b", "malformed"), ("a=1 =2", "malformed"),
    ("a=1 b=2 a=1", "repeated"),
], ids=["empty", "doubled-space", "leading-space", "trailing-space", "no-equals",
        "empty-key", "repeated-key"])
def test_parse_record_refuses_malformed_lines(line, match):
    with pytest.raises(DataError, match=match):
        configio.parse_record(line)


def test_coercions():
    cfg = {"n": "5", "x": "2.5", "flag": "true", "name": "abc"}
    assert configio.coerce(cfg, "n", "int") == 5
    assert configio.coerce(cfg, "missing", "int", 7) == 7
    assert configio.coerce(cfg, "x", "float") == 2.5
    assert configio.coerce(cfg, "flag", "bool") is True
    assert configio.coerce(cfg, "missing", "bool", False) is False
    assert configio.coerce(cfg, "name", "str") == "abc"
    with pytest.raises(ConfigError):
        configio.coerce(cfg, "x", "int")
    with pytest.raises(ConfigError):
        configio.coerce({"flag": "maybe"}, "flag", "bool")
    with pytest.raises(ConfigError):
        configio.coerce(cfg, "absent", "int")


def test_manifest_round_trip(tmp_path):
    art = tmp_path / "policy.ckpt"
    art.write_bytes(b"x")
    manifest = RunManifest(subcommand="train-offline", config_hash="ab12",
                           seed=3, out_dir=str(tmp_path), wall_ms=17,
                           artifacts=["policy.ckpt"])
    path = tmp_path / "manifest.txt"
    configio.write_manifest(path, manifest)
    # on disk out_dir is relative to the manifest, so the run can be moved
    assert "out_dir=.\n" in path.read_text()
    back = configio.read_manifest(path)
    assert back == manifest
    assert os.path.isabs(back.out_dir)
    assert not any(name.startswith("manifest.txt.tmp") for name in os.listdir(tmp_path))

    # manifests that stored an absolute out_dir still resolve to it
    legacy_dir = tmp_path / "elsewhere"
    legacy = path.read_text().replace("out_dir=.\n", f"out_dir={legacy_dir}\n")
    path.write_text(legacy)
    assert configio.read_manifest(path).out_dir == str(legacy_dir)


def test_manifest_refuses_missing_artifact(tmp_path):
    manifest = RunManifest(subcommand="x", config_hash="h", seed=0,
                           out_dir=str(tmp_path), artifacts=["ghost.ckpt"])
    with pytest.raises(DataError, match="ghost"):
        configio.write_manifest(tmp_path / "manifest.txt", manifest)


def test_mask_wall_times():
    text = "stage=bc step=1 wall_ms=123\nstage=bc step=2 wall_ms=9\n"
    masked = configio.mask_wall_times(text)
    assert masked == "stage=bc step=1 wall_ms=_\nstage=bc step=2 wall_ms=_\n"
    a = configio.mask_wall_times("x wall_ms=5")
    b = configio.mask_wall_times("x wall_ms=500")
    assert a == b
