"""Flat `key = value` run configuration.

All numeric defaults ship in one packaged file (data/default.cfg) which the
CLI echoes into every output directory so results stay reproducible from
the artifacts alone. data/benchmark.cfg overlays the fixed-seed
benchmark's camera and threshold sweep on them.
"""

from __future__ import annotations

from importlib import resources

from ._textio import open_text
from .errors import FormatError


def parse_config(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def load_config(path) -> dict[str, str]:
    with open_text(path) as fh:
        return parse_config(fh.read())


def _shipped(name: str) -> dict[str, str]:
    return parse_config(resources.files("peduncle").joinpath(f"data/{name}").read_text())


def default_config() -> dict[str, str]:
    return _shipped("default.cfg")


def benchmark_config() -> dict[str, str]:
    """Defaults, overlaid with data/benchmark.cfg: the camera and threshold
    sweep of the fixed-seed benchmark."""
    return {**default_config(), **_shipped("benchmark.cfg")}


def merged_config(path) -> dict[str, str]:
    """Defaults, overlaid with the user file at path when path is not None."""
    cfg = default_config()
    if path is not None:
        cfg.update(load_config(path))
    return cfg


def write_config(path, cfg: dict[str, str]) -> None:
    with open(path, "w", newline="\n") as fh:
        for key in cfg:
            fh.write(f"{key} = {cfg[key]}\n")


def cfg_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"config key {key!r} missing or not a number") from exc


def cfg_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"config key {key!r} missing or not an integer") from exc


def cfg_str(cfg: dict[str, str], key: str) -> str:
    try:
        return cfg[key]
    except KeyError as exc:
        raise FormatError(f"config key {key!r} missing") from exc
