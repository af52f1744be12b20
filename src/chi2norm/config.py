"""Run configuration shared by the command-line tools.

Values come from three layers: defaults (built in, or a command's own),
an optional line-oriented ``key=value`` file, and explicit overrides
(command-line flags).  Later layers win.  The default file path can be
supplied through the ``CHI2NORM_CONFIG`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import DomainError

__all__ = [
    "CONFIG_ENV_VAR",
    "FORMATS",
    "RunConfig",
    "TIERS",
    "read_config_file",
    "load_config",
    "parse_tiers",
]

CONFIG_ENV_VAR = "CHI2NORM_CONFIG"
FORMATS = ("table", "json", "csv")
TIERS = (1, 2, 3)


@dataclass(frozen=True)
class RunConfig:
    """Defaults reproduce every acceptance run without any flags."""

    format: str = "table"
    output: str | None = None
    tiers: tuple[int, ...] = TIERS

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise DomainError(
                f"format must be one of {', '.join(FORMATS)}")
        if self.output is not None and not self.output:
            raise DomainError("output path must be nonempty when given")
        if not self.tiers:
            raise DomainError("tiers must not be empty")
        for t in self.tiers:
            if t not in TIERS:
                raise DomainError(f"unknown tier {t}")
        if tuple(sorted(set(self.tiers))) != self.tiers:
            raise DomainError("tiers must be sorted and distinct")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"not an integer: {raw!r}") from None


def parse_tiers(raw: str) -> tuple[int, ...]:
    """Comma-separated tier numbers, deduplicated and sorted."""
    parts = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not parts:
        raise DomainError("tiers must not be empty")
    return tuple(sorted({_parse_int(tok) for tok in parts}))


_PARSERS = {
    "format": str,
    "output": str,
    "tiers": parse_tiers,
}

assert set(_PARSERS) == {f.name for f in fields(RunConfig)}


def read_config_file(path: str) -> dict[str, str]:
    """Raw key=value pairs from ``path``; later duplicates win.

    Blank lines and ``#`` comments are skipped.  Keys are validated
    here, values when the config object is assembled.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DomainError(
                f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def load_config(path: str | None = None,
                overrides: dict[str, object] | None = None,
                defaults: dict[str, object] | None = None) -> RunConfig:
    """Assemble a config from defaults, an optional file, and overrides.

    ``path`` of ``None`` falls back to the ``CHI2NORM_CONFIG``
    environment variable; when that is unset too, no file is read.
    ``defaults`` replaces built-in defaults (a command's own output
    format), the file wins over them, and ``overrides`` (typed values
    from parsed flags) win over the file.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    from_file = {} if path is None else {
        key: _PARSERS[key](raw) for key, raw in read_config_file(path).items()}
    defaults, overrides = defaults or {}, overrides or {}
    for key in (*defaults, *overrides):
        if key not in _PARSERS:
            raise DomainError(f"unknown config key {key!r}")
    return RunConfig(**{**defaults, **from_file, **overrides})
