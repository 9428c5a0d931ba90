"""Byte-for-byte differential test of `homtwist verify` and `twist` output.

tests/data holds stdout and --report JSON files recorded before the checkers
were compiled into key tables, and the twist tables recorded before the
carriers moved to key-level maps; the verdicts, counterexamples, tables and
their rendering must not change.  The compatibility lines of sl2_22, sl2_33
and finalg were re-recorded when that suite came to sweep the H basis once,
without a separate generator axis that the basis contains.
"""

import os

import pytest

from homtwist import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

NEGCTL = ["verify", "sl2-q", "--bound-h", "2", "--bound-a", "2",
          "--suite", "module-hom-algebra", "--suite", "mu-module-morphism",
          "--negative-control"]


@pytest.mark.parametrize(
    "stem, argv, code, with_report",
    [
        ("negctl_22", NEGCTL, cli.EXIT_AXIOM_FAILURE, True),
        ("sl2_22", ["verify", "sl2-q", "--bound-h", "2", "--bound-a", "2"],
         cli.EXIT_PASS, True),
        ("finalg", ["verify", "finalg"], cli.EXIT_PASS, True),
        ("twist_sl2_2", ["twist", "sl2", "--bound", "2"], cli.EXIT_PASS, False),
        ("twist_finalg", ["twist", "finalg"], cli.EXIT_PASS, False),
        ("sl2_33", ["verify", "sl2-q", "--bound-h", "3", "--bound-a", "3"],
         cli.EXIT_PASS, True),
    ],
)
def test_output_matches_recorded_bytes(capsys, tmp_path, stem, argv, code, with_report):
    report = tmp_path / "report.json"
    assert cli.main(argv + (["--report", str(report)] if with_report else [])) == code
    with open(os.path.join(DATA, f"{stem}.stdout"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
    if with_report:
        with open(os.path.join(DATA, f"{stem}.json"), "rb") as fh:
            assert report.read_bytes() == fh.read()
