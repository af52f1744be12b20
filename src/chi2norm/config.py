"""Run configuration shared by the command-line tools.

Values come from three layers: built-in defaults, an optional
line-oriented ``key=value`` file, and explicit overrides (command-line
flags).  Later layers win.  The default file path can be supplied
through the ``CHI2NORM_CONFIG`` environment variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .errors import DomainError
from .hermite import MAX_ORDER
from .quadrature import QuadratureSpec

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

    quad_abs_tol: float = 1e-10
    quad_rel_tol: float = 1e-10
    series_start_order: int = 40
    series_max_order: int = 256
    series_tail_tol: float = 1e-8
    format: str = "table"
    output: str | None = None
    tiers: tuple[int, ...] = TIERS

    def __post_init__(self) -> None:
        for name in ("quad_abs_tol", "quad_rel_tol", "series_tail_tol"):
            v = getattr(self, name)
            if not (isinstance(v, float) and math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be a positive finite number")
        for name in ("series_start_order", "series_max_order"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 2:
                raise DomainError(f"{name} must be an integer >= 2")
        if self.series_max_order > MAX_ORDER:
            raise DomainError(f"series_max_order must be <= {MAX_ORDER}")
        if self.series_start_order > self.series_max_order:
            raise DomainError("series_start_order exceeds series_max_order")
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

    def quadrature_spec(self) -> QuadratureSpec:
        return QuadratureSpec(abs_tol=self.quad_abs_tol,
                              rel_tol=self.quad_rel_tol)


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DomainError(f"not a number: {raw!r}") from None


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
    "quad_abs_tol": _parse_float,
    "quad_rel_tol": _parse_float,
    "series_start_order": _parse_int,
    "series_max_order": _parse_int,
    "series_tail_tol": _parse_float,
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
                overrides: dict[str, object] | None = None) -> RunConfig:
    """Assemble a config from defaults, an optional file, and overrides.

    ``path`` of ``None`` falls back to the ``CHI2NORM_CONFIG``
    environment variable; when that is unset too, no file is read.
    ``overrides`` carries already-typed values (from parsed flags) and
    wins over the file.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    kwargs: dict[str, object] = {}
    if path is not None:
        for key, raw in read_config_file(path).items():
            kwargs[key] = _PARSERS[key](raw)
    for key, value in (overrides or {}).items():
        if key not in _PARSERS:
            raise DomainError(f"unknown config key {key!r}")
        kwargs[key] = value
    return RunConfig(**kwargs)
