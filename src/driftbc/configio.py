"""Flat key=value config files, stable hashing, and atomic run manifests.

The whole pipeline shares one config dialect: one `key=value` per line, blank
lines and `#` comments ignored, values kept as strings until a consumer
coerces them. Hashing is over the canonical (sorted, stripped) rendering, so
irrelevant formatting differences do not change identity.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass, field

from .errors import ConfigError, DataError

_KEY_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def parse_config_text(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"config line {lineno}: bad key {key!r}")
        if key in cfg:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def format_config(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        value = str(cfg[key])
        if "\n" in value:
            raise ConfigError(f"config value for {key!r} contains a newline")
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(format_config(cfg).encode("utf-8")).hexdigest()


def apply_overrides(cfg: dict, overrides) -> dict[str, str]:
    out = dict(cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"override has bad key {key!r}")
        out[key] = value.strip()
    return out


# --------------------------------------------------------------- coercions


def _coerce(cfg: dict, key: str, default, convert, what: str):
    """convert(cfg[key]), else default; a missing key without a default, or
    a value convert rejects, raises ConfigError."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return convert(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r}: {cfg[key]!r} is not {what}") from None


def as_int(cfg: dict, key: str, default: int | None = None) -> int:
    return _coerce(cfg, key, default, int, "an integer")


def as_float(cfg: dict, key: str, default: float | None = None) -> float:
    return _coerce(cfg, key, default, float, "a number")


def as_bool(cfg: dict, key: str, default: bool = False) -> bool:
    if key not in cfg:
        return default
    value = cfg[key].strip().lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r}: {cfg[key]!r} is not a boolean")


def as_str(cfg: dict, key: str, default: str | None = None) -> str:
    return _coerce(cfg, key, default, str, "a string")


# --------------------------------------------------------------- manifests


@dataclass
class RunManifest:
    """One run's provenance record.

    In memory `out_dir` is the directory the artifacts live in. On disk it is
    stored relative to the manifest file's own directory (`.` for every
    manifest the CLI writes), so reruns into different directories produce
    identical bytes; `read_manifest` turns it back into an absolute path.
    """

    subcommand: str
    config_hash: str
    seed: int
    out_dir: str
    wall_ms: int = 0
    config_path: str = "-"
    artifacts: list[str] = field(default_factory=list)


def write_bytes_atomic(path, data: bytes) -> None:
    """Write a temp file beside path, fsync it and rename it over path, so
    path holds the old bytes or the new ones, never a mix."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def write_manifest(path, manifest: RunManifest) -> None:
    """Atomic write; refuses to list artifacts that do not exist on disk.

    `out_dir` is written relative to the directory holding `path`, so the
    file never records where the run happened to be placed.
    """
    for name in manifest.artifacts:
        target = os.path.join(manifest.out_dir, name)
        if not os.path.exists(target):
            raise DataError(f"manifest lists missing artifact {name!r}")
    out_dir = os.path.relpath(os.path.abspath(manifest.out_dir),
                              os.path.dirname(os.path.abspath(path)))
    cfg = {
        "subcommand": manifest.subcommand,
        "config_hash": manifest.config_hash,
        "config_path": manifest.config_path,
        "seed": manifest.seed,
        "out_dir": out_dir,
        "wall_ms": manifest.wall_ms,
        "artifacts": ",".join(manifest.artifacts),
    }
    write_text_atomic(path, format_config(cfg))


def read_manifest(path) -> RunManifest:
    """Parse a manifest, resolving its stored `out_dir` against the manifest
    file's directory. An absolute `out_dir` (older manifests) is kept."""
    cfg = load_config(path)
    base = os.path.dirname(os.path.abspath(path))
    try:
        return RunManifest(
            subcommand=cfg["subcommand"],
            config_hash=cfg["config_hash"],
            seed=int(cfg["seed"]),
            out_dir=os.path.normpath(os.path.join(base, cfg["out_dir"])),
            wall_ms=int(cfg["wall_ms"]),
            config_path=cfg.get("config_path", "-"),
            artifacts=[a for a in cfg.get("artifacts", "").split(",") if a],
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"bad manifest {path}: {exc}") from None


class Stopwatch:
    """Wall-clock in integer milliseconds; the only timing source used in
    logs, so reproducibility checks can mask one token."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def ms(self) -> int:
        return int((time.perf_counter() - self.start) * 1000)


_WALL_RE = re.compile(r"\bwall_ms=\d+\b")


def mask_wall_times(text: str) -> str:
    """Replace wall_ms tokens so byte-comparisons ignore timing jitter."""
    return _WALL_RE.sub("wall_ms=_", text)
