"""Byte-for-byte differential test of `homtwist verify` and `twist` output.

tests/data holds stdout and --report JSON files recorded before the checkers
were compiled into key tables, and the twist tables recorded before the
carriers moved to key-level maps; the verdicts, counterexamples, tables and
their rendering must not change.  The compatibility lines of sl2_22, sl2_33
and finalg were re-recorded when that suite came to sweep the H basis once,
without a separate generator axis that the basis contains.

The negative control at (3,3), the benchmark's negctl-q33 command, is pinned
by the sha256 of its stdout and of its --report JSON (about 300 KB).  The
benchmark's finalg-m3 command, `verify finalg --file` on finalg_gen's seed-1
n = 3 file, is pinned byte for byte in finalg_m3, recorded before operators
became their key tables.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

from homtwist import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import finalg_gen  # noqa: E402


@functools.cache
def finalg_text(seed, n):
    """The JSON text of finalg_gen's document for (seed, n), generated once
    per process; a caller that edits the document parses its own copy.
    """
    return json.dumps(finalg_gen.generate(seed, n))


NEGCTL = ["verify", "sl2-q", "--bound-h", "2", "--bound-a", "2",
          "--suite", "module-hom-algebra", "--suite", "mu-module-morphism",
          "--negative-control"]


# (stem of the recorded files, argv, exit code, whether --report is recorded)
GOLDEN = [
    ("negctl_22", NEGCTL, cli.EXIT_AXIOM_FAILURE, True),
    ("sl2_22", ["verify", "sl2-q", "--bound-h", "2", "--bound-a", "2"],
     cli.EXIT_PASS, True),
    ("finalg", ["verify", "finalg"], cli.EXIT_PASS, True),
    ("twist_sl2_2", ["twist", "sl2", "--bound", "2"], cli.EXIT_PASS, False),
    ("twist_finalg", ["twist", "finalg"], cli.EXIT_PASS, False),
    ("sl2_33", ["verify", "sl2-q", "--bound-h", "3", "--bound-a", "3"],
     cli.EXIT_PASS, True),
]


@pytest.mark.parametrize("stem, argv, code, with_report", GOLDEN)
def test_output_matches_recorded_bytes(capsys, tmp_path, stem, argv, code, with_report):
    report = tmp_path / "report.json"
    assert cli.main(argv + (["--report", str(report)] if with_report else [])) == code
    with open(os.path.join(DATA, f"{stem}.stdout"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
    if with_report:
        with open(os.path.join(DATA, f"{stem}.json"), "rb") as fh:
            assert report.read_bytes() == fh.read()


def test_process_entry_point_writes_the_recorded_report(tmp_path):
    # python -m homtwist.cli, the command the benchmark times, goes through run()
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, "-m", "homtwist.cli", *NEGCTL, "--report", str(report)],
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True, timeout=120,
    )
    assert done.returncode == cli.EXIT_AXIOM_FAILURE, done.stderr
    with open(os.path.join(DATA, "negctl_22.stdout"), "rb") as fh:
        assert done.stdout == fh.read()
    with open(os.path.join(DATA, "negctl_22.json"), "rb") as fh:
        assert report.read_bytes() == fh.read()


def test_finalg_m3_matches_recorded_bytes(capsys, tmp_path):
    scenario, report = tmp_path / "scenario.json", tmp_path / "report.json"
    scenario.write_text(finalg_text(1, 3))
    argv = ["verify", "finalg", "--file", str(scenario), "--report", str(report)]
    assert cli.main(argv) == cli.EXIT_PASS
    with open(os.path.join(DATA, "finalg_m3.stdout"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
    with open(os.path.join(DATA, "finalg_m3.json"), "rb") as fh:
        assert report.read_bytes() == fh.read()


def test_negative_control_33_matches_recorded_digests(capsys, tmp_path):
    report = tmp_path / "report.json"
    argv = ["verify", "sl2-q", "--bound-h", "3", "--bound-a", "3",
            "--suite", "module-hom-algebra", "--suite", "mu-module-morphism",
            "--negative-control", "--report", str(report)]
    assert cli.main(argv) == cli.EXIT_AXIOM_FAILURE
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == (
        "bd415a80cb4c881c15b22bb45d1f72d91e259d7d2e68212193018573fb0edc04"
    )
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "616b0fba96e4531d004a24381d6d2d3c335415a0e667ad6499c3eaf16bf9bc8a"
    )
