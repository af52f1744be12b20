"""Byte-for-byte stdout of the README commands and of ``chi2`` commands on
both series routes (knot jumps and Gauss-rule fallback), against the
checked-in ``golden/cli_stdout.txt``.

After a deliberate output change, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py`` and list every changed line
in the change log.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from chi2norm.cli import run
from conftest import README_COMMANDS

GOLDEN = Path(__file__).with_name("golden") / "cli_stdout.txt"

COMMANDS = (
    *README_COMMANDS,
    # the jump route, then the Gauss-rule fallback (beta:2 at n = 12 and
    # beta:3 at n = 9), the Jacobi and Hermite rules and the direct route
    "chi2 --dist beta:2 --n 5 --method both",
    "chi2 --dist mixture:1:1,1:2 --n 4 --method series",
    "chi2 --dist beta:3/4 --method both",
    "chi2 --dist uniform --n 12 --format json",
    "chi2 --dist uniform --n 7 --method direct",
    "chi2 --dist normal --method both",
    "chi2 --dist beta:2 --n 12 --method both",
    "chi2 --dist beta:3 --n 9 --method both",
    # a format flag over the table layout, over plotdata's CSV default, and
    # a tiers flag
    "table1 --format csv",
    "plotdata --steps 4 --format table",
    "verify --tiers 1 --format json",
)

_HEADER = re.compile(r"^=== chi2norm (.*) \(exit (\d+)\)\n", re.M)


def block(command: str) -> str:
    """The golden block of ``command``: a header line with the exit code,
    then its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(command.split())
    return f"=== chi2norm {command} (exit {code})\n{out.getvalue()}"


def golden_blocks() -> dict[str, str]:
    parts = _HEADER.split(GOLDEN.read_text())
    return {cmd: f"=== chi2norm {cmd} (exit {code})\n{body}"
            for cmd, code, body in zip(parts[1::3], parts[2::3], parts[3::3])}


def test_golden_file_lists_every_command():
    assert list(golden_blocks()) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden_file(command):
    assert block(command) == golden_blocks()[command]


def test_stdout_ignores_a_config_variable(monkeypatch, tmp_path):
    # the settings come from flags alone: no file that a variable names
    # moves a byte
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\n", encoding="utf-8")
    monkeypatch.setenv("CHI2NORM_CONFIG", str(cfg))
    golden = golden_blocks()
    assert [block(command) for command in COMMANDS] == [
        golden[command] for command in COMMANDS]


if __name__ == "__main__":
    GOLDEN.write_text("".join(block(command) for command in COMMANDS))
