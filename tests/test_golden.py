"""Golden reports: every subcommand's canonical JSON at seed 7, byte for byte.

The files under ``tests/golden/`` pin the exact bytes the CLI printed for
each command below.  A change to the program that moves any byte of a
report fails here; a deliberate change regenerates the files with

    PYTHONPATH=src python tests/test_golden.py --write

and says in its description which bytes moved and why.  The ``hartogs``
commands read a committed series file through a path relative to the
repository root, so the path inside the report is stable.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from holonorm import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests") / "golden"
SEED = "7"

GEO_SERIES = str(GOLDEN / "geo-series.json")
EXP_SERIES = str(GOLDEN / "exp-series.json")

COMMANDS = {
    "sharp": ["sharp", "--expr", "z1*z2", "--arity", "2"],
    "sharp-at": ["sharp", "--expr", "exp(z1)*z2 - z1/(2+z2)", "--arity", "2",
                 "--at", "0.3+0.1j,-0.2j"],
    "mu": ["mu", "--expr", "sin(z1)"],
    "mu-pole": ["mu", "--expr", "(z1^2 + 1)/z1"],
    "marty": ["marty", "--expr", "z1", "--expr", "2*z1"],
    "yosida": ["yosida", "--expr", "sin(1/(1-z1))"],
    "yosida-pole": ["yosida", "--expr", "1/z1", "--radii", "16", "--angles", "24"],
    "ball-ratio": ["ball-ratio", "--expr", "exp(z1+z2)", "--arity", "2"],
    "kobayashi": ["kobayashi", "--expr", "z1*z2", "--arity", "2",
                  "--directions", "16", "--radii", "8", "--vectors", "8"],
    "disc-probe": ["disc-probe", "--expr", "z1+z2", "--arity", "2", "--count", "30"],
    "disc-probe-poly": ["disc-probe", "--expr", "z1*z2*z3 + sin(z2)", "--arity", "3",
                        "--count", "40", "--degree", "3"],
    "linescan": ["linescan", "--expr", "z1^2", "--arity", "2",
                 "--directions", "16", "--radii", "16", "--angles", "24"],
    "linescan-entire": ["linescan", "--expr", "exp(0.5*z1 - i*z3) + cos(z2)*z1^3",
                        "--arity", "3", "--directions", "12"],
    "linescan-pole": ["linescan", "--expr", "1/(z1 + 0.5*z2)", "--arity", "2",
                      "--directions", "8", "--radii", "16", "--angles", "24"],
    "linescan-family": ["linescan", "--expr", "z1*z2", "--expr", "2*z1*z2",
                        "--expr", "(z1 - z2)^3/(3 - z1)", "--arity", "2",
                        "--directions", "16", "--radii", "16", "--angles", "24"],
    "hartogs": ["hartogs", "--series", GEO_SERIES, "--directions", "16"],
    "hartogs-exp": ["hartogs", "--series", EXP_SERIES, "--directions", "8"],
    "orbit": ["orbit", "--expr", "1/(1 - z1)", "--count", "10"],
    "orbit-ball": ["orbit", "--expr", "z1*z2 + z2", "--arity", "2", "--count", "6"],
}


def render(argv: list) -> str:
    """stdout of one in-process CLI run at the golden seed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--seed", SEED])
    assert code == 0, (argv, err.getvalue())
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert render(COMMANDS[name]) == expected


def test_every_subcommand_has_a_golden_report():
    subcommands = {argv[0] for argv in COMMANDS.values()}
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    assert subcommands == set(choices)


def _write() -> None:
    os.chdir(ROOT)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.json").write_text(render(argv), encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
