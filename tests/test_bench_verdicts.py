"""The benchmark's verdict table holds for the program as it is.

perfbench/workloads.py pins, for each benchmark workload, the suites' case
counts, verdicts and exit code, derived from basis sizes.  Each workload that
BENCHMARK.json names runs here in-process, so a wrong suite summary fails the
tests before it fails the benchmark.
"""

import json
import os
import sys

import pytest

from homtwist import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from test_golden import finalg_text  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    NAMES = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_verdicts(capsys, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    scenario_file = tmp_path / "scenario.json"
    report_file = str(tmp_path / "report.json")
    if workload.scenario == "finalg":
        scenario_file.write_text(finalg_text(1, workloads.FINALG_N))
    code = cli.main(workload.verify_argv(str(scenario_file), report_file))
    stdout = capsys.readouterr().out
    report_path = report_file if workload.negative_control else None
    assert workloads.check_verdict(workload, code, stdout, report_path) == []
