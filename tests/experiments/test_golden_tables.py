"""Golden tables: the whole registry at a tiny scale, clean and under faults.

Every table the CLI prints at ``--scale 0.05 --seed 3`` is compared byte
for byte with a committed copy (timing lines excepted).  The run reaches
every reply consumer — baselines, the exact census, the density trim, the
robust combiners, Spectra, the HT mixture and equi-depth synopses — so a
refactor that moves one float in any of them fails here.

The CLI runs in a subprocess because ``--faults`` exports an environment
variable that worker processes inherit.  CONTRIBUTING.md gives the
command that regenerates the files after a deliberate change to the tables.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ring.faults import FAULT_PROFILE_ENV

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[2] / "src"
ARGS = ("--scale", "0.05", "--seed", "3")
TIMING = re.compile(r"^\[[A-Z0-9]+ finished in [0-9.]+s\]$")


def _tables(*flags: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(FAULT_PROFILE_ENV, None)
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *ARGS, *flags],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    lines = out.splitlines(keepends=True)
    return "".join(line for line in lines if not TIMING.match(line.rstrip("\n")))


@pytest.mark.parametrize(
    ("name", "flags"),
    [("clean", ()), ("light", ("--faults", "light"))],
)
def test_registry_tables_match_golden(name: str, flags: tuple[str, ...]) -> None:
    expected = (GOLDEN / f"scale0.05_seed3_{name}.txt").read_text()
    assert _tables(*flags) == expected
