"""The benchmark tracer must still find every method that feeds a metric.

perfbench/tracer.py wraps homtwist from outside by looking names up in each
class's or module's own __dict__; a name it cannot find is listed in the
trace's "missing" entry and its per-layer metric silently reads zero.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

METRIC_NAMES = {
    "scalars.QLaurent.__init__",
    "scalars.QLaurent.__add__",
    "scalars.QLaurent.__mul__",
    "report.CheckReport.record",
    "homcore.check_multiplicativity",
    "homcore.check_hom_associativity",
    "homcore.check_hom_coassociativity",
    "homcore.check_comul_morphism",
    "homcore.check_hom_bialgebra",
    "homcore.check_module_axiom",
    "homcore.check_module_hom_algebra",
    "finalg.load_scenario",
    "finalg.build_example31",
    "cli.main",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "sl2-q", "--bound-h", "1", "--bound-a", "1",
         "--suite", "hom-bialgebra", "--suite", "module-hom-algebra"],
        ["verify", "finalg"],
    ],
)
def test_tracer_finds_every_metric_name(tmp_path, argv):
    trace_path = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, TRACER, str(trace_path), "--", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(trace_path.read_text())
    assert not METRIC_NAMES & set(trace["missing"])
    # uea's kernels keep no cache of their own: the tables of actions memoize them
    assert set(trace["caches"]) == set()


PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")

# The built-in 2x2 matrix example (finalg.m2_example) in the scenario file
# format: basis e11, e12, e21, e22, the group {1, conjugation by diag(1, -1)}
# and a = diag(2, 3).
M2_SCENARIO = {
    "labels": ["e11", "e12", "e21", "e22"],
    "constants": [
        [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 2, 0, "1"], [1, 3, 1, "1"],
        [2, 0, 2, "1"], [2, 1, 3, "1"], [3, 2, 2, "1"], [3, 3, 3, "1"],
    ],
    "unit": ["1", "0", "0", "1"],
    "group": [
        [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "-1", "0", "0"],
         ["0", "0", "-1", "0"], ["0", "0", "0", "1"]],
    ],
    "element": ["2", "0", "0", "3"],
}


@pytest.mark.parametrize("scenario, expected", [("sl2", "4 3"), ("finalg", "2 4")])
def test_setup_probe_builds_scenario(tmp_path, scenario, expected):
    # the benchmark times these constructors; a broken one must fail here
    if scenario == "sl2":
        argv = ["sl2", "1", "1"]
    else:
        path = tmp_path / "m2.json"
        path.write_text(json.dumps(M2_SCENARIO))
        argv = ["finalg", str(path)]
    done = subprocess.run(
        [sys.executable, PROBE, *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == expected.split()


@pytest.mark.parametrize("workload, expected", [("sl2", "20 10"), ("finalg", "4 9")])
def test_setup_probe_builds_benchmark_workloads(tmp_path, workload, expected):
    # the scenarios of hopf-h3/negctl-q33 (bounds 3, 3) and of finalg-m3 (a
    # finalg_gen file, seed 1, n = 3), built as the benchmark builds them
    if workload == "sl2":
        argv = ["sl2", "3", "3"]
    else:
        path = tmp_path / "finalg.json"
        generate = "import sys, finalg_gen; finalg_gen.write(sys.argv[1], 1, 3)"
        done = subprocess.run(
            [sys.executable, "-c", generate, str(path)],
            cwd=os.path.join(ROOT, "perfbench"), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        argv = ["finalg", str(path)]
    done = subprocess.run(
        [sys.executable, PROBE, *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == expected.split()
