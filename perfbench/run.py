"""homtwist benchmark: time to verdict of cold-start `homtwist verify` runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; homtwist is imported from its src/.  Every
timed run is a fresh interpreter started by this script, one at a time (a
closed loop with a single client).  With --trace 0 the script measures set-up
time (median of probes before and after), then runs verify until --seconds
are spent (at least once) and reports the end-to-end metrics as averages over
that window.  With --trace 1 it runs verify once
untraced and once under perfbench/tracer.py and reports the per-layer
metrics.  Every verdict is checked against the table in workloads.py; the
last line of stdout is the JSON result.  Details are kept in perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import finalg_gen
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(BENCH, "out")
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 5  # timed set-up probes before the verify runs, and again after
MAX_VERIFY_RUNS = 50  # caps one run's children should verify become very fast
REFERENCE_ROUNDS = 2000  # one reference unit: 0.25-0.5 s on a 2-vCPU Xeon guest
SLICE_ROUNDS = 100  # one reference slice, 12-25 ms
GAUGE_EVERY_S = 0.5  # a timed verify is stopped this often for a slice
TIME_LIMIT_S = 170.0  # the whole invocation must end within 180 s


class Child:
    """Outcome of one child interpreter: wall and CPU time, peak RSS, output."""

    def __init__(self, done, out_path, err_path, slices=(), paused_s=0.0):
        self.exit_code = os.waitstatus_to_exitcode(done["status"])
        self.wall_s = done["wall_s"] - paused_s  # time stopped for reference slices excluded
        self.slices = list(slices)
        self.cpu_s = done["cpu_s"]
        self.peak_rss_mb = done["maxrss_kb"] / 1024.0  # Linux reports KiB
        with open(out_path, "rb") as fh:
            self.stdout = fh.read()
        with open(err_path, "rb") as fh:
            self.stderr = fh.read().decode(errors="replace").strip()
        self.problems = []


class Spawner:
    """Runs children one at a time through perfbench/spawner.py."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", os.path.join(BENCH, "spawner.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.running = None  # pid of the child in progress

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        try:
            if self.running is not None:
                os.kill(self.running, signal.SIGKILL)
                self._reply()  # the spawner reaps the child, then replies
        finally:
            self.proc.stdin.close()
            self.proc.wait()

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the process spawner exited")
        return json.loads(line)

    def run(self, argv, name, deadline, gauge=False):
        """Run argv to completion, killing it at the deadline."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        env.pop("HOMTWIST_BOUND_H", None)
        env.pop("HOMTWIST_BOUND_A", None)
        # Measure with cached bytecode, as an installed package has it: the
        # first, untimed probe writes src/homtwist/__pycache__.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        out_path = os.path.join(OUT, f"{name}.stdout")
        err_path = os.path.join(OUT, f"{name}.stderr")
        request = {"argv": argv, "env": env, "stdout": out_path, "stderr": err_path}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        pid = self.running = self._reply()["pid"]
        timer = threading.Timer(
            max(1.0, deadline - time.perf_counter()), os.kill, (pid, signal.SIGKILL)
        )
        timer.start()
        slices, paused_s = [], 0.0
        try:
            # With gauge, stop the child every GAUGE_EVERY_S and time a reference
            # slice on the CPU it runs on; the spawner replies once it has ended.
            while gauge and not select.select([self.proc.stdout], [], [], GAUGE_EVERY_S)[0]:
                try:
                    os.kill(pid, signal.SIGSTOP)
                except ProcessLookupError:
                    break
                start = time.perf_counter()
                slices.append(reference_s(SLICE_ROUNDS))
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:  # killed at the deadline meanwhile
                    break
                paused_s += time.perf_counter() - start
            done = self._reply()
        finally:
            timer.cancel()
            timer.join()
        self.running = None
        return Child(done, out_path, err_path, slices, paused_s)


def run_verify(spawner, workload, prefix, name, deadline, scenario_file, gauge=False):
    """One verify child (prefix is the interpreter command), checked against the table."""
    report_file = None
    if workload.negative_control:
        report_file = os.path.join(OUT, f"{name}-report.json")
        if os.path.exists(report_file):
            os.remove(report_file)
    argv = prefix + workload.verify_argv(scenario_file, report_file)
    child = spawner.run(argv, name, deadline, gauge)
    child.problems = workloads.check_verdict(
        workload, child.exit_code, child.stdout.decode(errors="replace"), report_file
    )
    if report_file and os.path.exists(report_file):
        os.remove(report_file)
    if child.problems and child.stderr:
        child.problems.append(f"stderr: {child.stderr[-300:]}")
    return child


def measure_setup(spawner, workload, scenario_file, deadline, warm_up, count=SETUP_SAMPLES):
    """Fresh interpreters that import homtwist and build the scenario.

    With warm_up, a first probe writes the bytecode cache; it is checked but
    not timed.
    """
    probe = [sys.executable, os.path.join(BENCH, "setup_probe.py")]
    if workload.scenario == "sl2":
        probe += ["sl2", str(workloads.BOUND_H), str(workloads.BOUND_A)]
        want = [workloads.pbw_count(workloads.BOUND_H), workloads.plane_count(workloads.BOUND_A)]
    else:
        probe += ["finalg", scenario_file]
        want = [workloads.FINALG_GROUP, workloads.FINALG_N ** 2]
    samples, problems = [], []
    for i in range(count + warm_up):
        child = spawner.run(probe, f"{workload.name}-setup", deadline)
        sizes = child.stdout.decode(errors="replace").split()
        if child.exit_code != 0 or sizes != [str(n) for n in want]:
            problems.append(
                f"setup probe: exit {child.exit_code}, basis sizes {sizes}, "
                f"expected {want}; {child.stderr[-300:]}"
            )
        elif i or not warm_up:
            samples.append(child.wall_s)
    return samples, problems


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def reference_s(rounds):
    """Time a fixed pure-Python workload that shares no code with homtwist.

    It does what homtwist's inner loops do, sparse products of dicts of
    Fractions, so it slows down with the machine the same way.
    """
    start = time.perf_counter()
    for _ in range(rounds):
        a = {e: Fraction(e + 1, e + 5) for e in range(-3, 4)}
        b = {e: Fraction(2 * e - 1, 3) for e in range(-2, 3)}
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        out = {e: c for e, c in out.items() if c}
    return time.perf_counter() - start


def timed_run(spawner, workload, scenario_file, seconds, deadline):
    # Set-up is sampled before, between and after the verify runs, so that its
    # median spans the run instead of one moment of the machine's load.
    setup, problems = measure_setup(spawner, workload, scenario_file, deadline, warm_up=True)
    prefix = [sys.executable, "-m", "homtwist.cli"]
    runs = []
    start = time.perf_counter()
    while True:
        child = run_verify(
            spawner, workload, prefix, f"{workload.name}-verify", deadline, scenario_file,
            gauge=True,
        )
        child.slices.append(reference_s(SLICE_ROUNDS))  # at least one per run
        if runs and child.stdout != runs[0].stdout:
            child.problems.append("stdout differs from the first run of this invocation")
        runs.append(child)
        between, between_problems = measure_setup(
            spawner, workload, scenario_file, deadline, warm_up=False, count=1
        )
        setup += between
        problems += between_problems
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in runs)
        if (len(runs) >= MAX_VERIFY_RUNS or elapsed + typical > seconds
                or time.perf_counter() + typical > deadline):
            break
    late_setup, late_problems = measure_setup(spawner, workload, scenario_file, deadline, warm_up=False)
    setup += late_setup
    problems += late_problems
    walls = [r.wall_s for r in runs]
    cases = workload.total_cases()
    # On a shared machine the same verify slows down by up to 1.6x in phases
    # of seconds to minutes.  So times are reported in reference units: the
    # time of REFERENCE_ROUNDS rounds of reference_s, as timed in the slices
    # taken while that verify ran.
    units = [statistics.fmean(r.slices) * REFERENCE_ROUNDS / SLICE_ROUNDS for r in runs]
    verdict_ref = statistics.fmean(r.wall_s / u for r, u in zip(runs, units))
    metrics = {
        "verdict_ref": verdict_ref,
        "cpu_ref": statistics.fmean(r.cpu_s / u for r, u in zip(runs, units)),
        "cases_per_ref": cases / verdict_ref,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    failed_runs = sum(1 for r in runs if r.problems)
    detail = {
        "verify_runs": len(runs),
        "verdict_s": statistics.fmean(walls),
        "verdict_s_samples": walls,
        "verdict_s_quartiles": _quartiles(walls),
        "cpu_s": statistics.fmean(r.cpu_s for r in runs),
        "cpu_s_samples": [r.cpu_s for r in runs],
        "cases_per_s": cases * len(walls) / sum(walls),
        "reference_unit_s": units,
        "peak_rss_mb_samples": [r.peak_rss_mb for r in runs],
        "setup_s_samples": setup,
        "setup_s_quartiles": _quartiles(setup) if setup else None,
        "cases_per_run": cases,
        "wrong_verdict_share": failed_runs / len(runs),
        "stdout_sha256": hashlib.sha256(runs[0].stdout).hexdigest(),
        "problems": problems + [p for r in runs for p in r.problems],
    }
    attempted = 2 * len(runs) + 2 * SETUP_SAMPLES + 1
    failed = failed_runs + len(problems)
    return metrics, detail, attempted, failed


def traced_run(spawner, workload, scenario_file, deadline, trace_path):
    prefix = [sys.executable, "-m", "homtwist.cli"]
    plain = run_verify(
        spawner, workload, prefix, f"{workload.name}-untraced", deadline, scenario_file
    )
    if os.path.exists(trace_path):
        os.remove(trace_path)
    traced_prefix = [sys.executable, os.path.join(BENCH, "tracer.py"), trace_path, "--"]
    traced = run_verify(
        spawner, workload, traced_prefix, f"{workload.name}-traced", deadline, scenario_file
    )
    if traced.stdout != plain.stdout or traced.exit_code != plain.exit_code:
        traced.problems.append("traced verdicts differ from the untraced run")
    metrics = {}
    if os.path.exists(trace_path):
        with open(trace_path) as fh:
            trace = json.load(fh)
        metrics = tracer.layer_metrics(trace)
        metrics["trace.overhead"] = traced.wall_s / plain.wall_s
        missing = trace["missing"]
    else:
        traced.problems.append(f"tracer wrote no trace; {traced.stderr[-300:]}")
        missing = None
    detail = {
        "untraced_verdict_s": plain.wall_s,
        "traced_verdict_s": traced.wall_s,
        "missing_wrappers": missing,
        "trace_file": os.path.relpath(trace_path, ROOT),
        "problems": plain.problems + traced.problems,
    }
    failed = sum(1 for r in (plain, traced) if r.problems)
    return metrics, detail, 2, failed


def environment(nproc, cpu):
    digest = hashlib.sha256()
    package = os.path.join(SRC, "homtwist")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Children inherit this CPU, so the reference timings gauge the CPU that
    # ran the verify.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    if not os.path.isfile(os.path.join(SRC, "homtwist", "cli.py")):
        print(f"error: no homtwist sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    scenario_file = None
    if workload.scenario == "finalg":
        scenario_file = os.path.join(OUT, f"{workload.name}-seed{args.seed}.json")
        finalg_gen.write(scenario_file, args.seed, workloads.FINALG_N)

    with Spawner() as spawner:
        if args.trace:
            trace_path = os.path.join(OUT, f"{tag}.trace.json")
            metrics, detail, attempted, failed = traced_run(
                spawner, workload, scenario_file, deadline, trace_path
            )
        else:
            metrics, detail, attempted, failed = timed_run(
                spawner, workload, scenario_file, args.seconds, deadline
            )
    kind = "per_layer" if args.trace else "end_to_end"
    units = {spec["name"]: spec["unit"] for spec in _spec()[kind]}

    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(len(cpus), max(cpus)), **detail,
              "result": result}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in detail["problems"]:
        print(f"problem: {problem}")
    for name, entry in result["metrics"].items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        q1, q3 = detail["verdict_s_quartiles"]
        print(f"{workload.name} verdict_s = {detail['verdict_s']:.6g} s, quartiles "
              f"{q1:.6g} .. {q3:.6g} s over {detail['verify_runs']} runs")
        print(f"{workload.name} cpu_s = {detail['cpu_s']:.6g} s")
        print(f"{workload.name} cases_per_s = {detail['cases_per_s']:.6g} 1/s")
        print(f"{workload.name} wrong_verdict_share = {detail['wrong_verdict_share']:.6g}")
    print(json.dumps(result))
    return 0


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
