"""Layered benchmark of the littlewood CLI.

    python3 bench/run.py --workload norms --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0

The jobs import the program from the `src/` directory next to `bench/`.
Every job is a real `python -m littlewood ...` in a fresh process, run one
at a time (closed loop, one client).  A pass runs the workload's whole job
list.  The number of passes depends only on the workload and `--seconds`
(see `pass_count`), so that two commits are measured with the same
estimator; only a run that would overrun `--seconds` by more than
`OVERRUN` stops early (see `run_workload`).  Times are summed over the job
list from each job's median over the passes (see `list_metrics`); set-up
time is the median of imports spread between the passes.  Outputs are checked after the timed
passes.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1
alternates untraced passes with passes whose jobs run under
bench/traced_cli.py and reports the per-layer metrics plus trace_overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  bench/README.md describes the workloads and every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer
import workloads
from traced_cli import TRACE_PREFIX

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 120
SETUP_PER_PASS = 2
SETUP_MIN = 9
PROBE_ITERATIONS = 3_000_000
# Seconds one untraced pass (job list plus its set-up samples) took at the
# baseline commit on a 2-vCPU machine.  They fix the pass count, so that a
# run at the baseline lasts about `--seconds`.
PASS_SECONDS = {"norms": 7.0, "exact-limits": 6.5}
# A run starts no pass that it expects to end after OVERRUN * --seconds, once
# it has made MIN_PASSES.  That keeps a slow machine or a much slower commit
# from stretching runs past the harness's time limit; a commit less than
# that much slower gets the full pass count.
OVERRUN = 1.15
MIN_PASSES = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Job:
    """One finished process: exit status, output and resource use."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(cmd: list[str], env: dict) -> Job:
    """Run cmd to completion; resource use comes from wait4 on its pid."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    output: dict = {}

    def drain(key, stream):
        output[key] = stream.read().decode()
        stream.close()

    readers = [threading.Thread(target=drain, args=item)
               for item in (("stdout", proc.stdout), ("stderr", proc.stderr))]
    for t in readers:
        t.start()
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    return Job(proc.returncode, output["stdout"], output["stderr"], wall_s,
               usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the CLI's default thread pool is part of what is measured
    env.pop("LITTLEWOOD_THREADS", None)
    return env


def run_pass(jobs: list[list[str]], env: dict, traced: bool) -> list[Job]:
    prefix = [sys.executable, str(BENCH / "traced_cli.py")] if traced else [
        sys.executable, "-m", "littlewood"]
    return [spawn(prefix + job, env) for job in jobs]


def pass_count(name: str, seconds: float, traced: bool) -> int:
    """Passes of a run: as many as fitted in `seconds` at the baseline.

    A traced run pairs each untraced pass with a traced one and makes half
    as many pairs, since a traced pass costs about as much as an untraced
    one.
    """
    passes = int(seconds // PASS_SECONDS[name])
    return max(1, passes // 2 if traced else passes)


def list_metrics(passes: list[list[Job]]) -> dict[str, float]:
    """Job-list totals of each job's median over the passes.

    On the shared 2-vCPU virtual machine the benchmark was built on, jobs run
    1.4-1.6x slower than their best for most of the time, in stretches of
    seconds to minutes, and reach their best only now and then.  Each job's
    fastest pass therefore depends on whether a run happened to catch such a
    moment; over 10 runs of 7 passes it spread about 0.2, the median about
    0.14.
    """
    per_job = list(zip(*passes))

    def total(attr):
        return sum(statistics.median(getattr(j, attr) for j in runs) for runs in per_job)

    return {"wall_s": total("wall_s"), "cpu_s": total("cpu_s"),
            "peak_rss_mb": max(statistics.median(j.rss_mb for j in runs) for runs in per_job)}


def setup_sample(env: dict) -> float:
    """Wall time of a fresh interpreter importing littlewood.cli."""
    return spawn([sys.executable, "-c", "import littlewood.cli"], env).wall_s


def machine_probe() -> float:
    """A fixed pure-Python loop; context for unsteady runs, never a rescale."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i
    return time.perf_counter() - started


def trace_of(job: Job) -> dict:
    """The totals a traced job printed; empty if it died before printing."""
    for line in reversed(job.stderr.splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return {"spans": {}, "counters": {}, "missing": []}


def check_passes(jobs, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job of every pass, plus the
    self-check: one corrupted copy of each job's record must fail."""
    checker = check.Checker()
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        for job, done in zip(jobs, p):
            attempted += 1
            reason = checker.check(job, done.returncode, done.stdout)
            if reason is not None:
                failed += 1
                problems.append(f"{' '.join(job)}: {reason}")
    for job, done in zip(jobs, passes[0]):
        if checker.check(job, done.returncode, done.stdout) is None and checker.check(
                job, 0, check.corrupt(job, done.stdout)) is None:
            problems.append(f"self-check: a corrupted record of {' '.join(job)} passed")
    return attempted, failed, problems


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, int, int, bool]:
    jobs = workloads.jobs(name, seed)
    for i, job in enumerate(jobs, 1):
        print(f"{name} job {i}: littlewood {' '.join(job)}")
    env = child_env()
    warm = spawn([sys.executable, "-c", "import littlewood.cli; print(littlewood.cli.__file__)"], env)
    if warm.returncode != 0 or not Path(warm.stdout.strip()).is_relative_to(SRC):
        sys.exit(f"cannot import littlewood from {SRC}: {warm.stderr.strip()}")
    print(f"{name} probe_s: {machine_probe():.4f} s "
          f"({PROBE_ITERATIONS} pure-Python loop iterations; context only)")
    # set-up samples are spread between the passes, so that one load burst
    # cannot move all of them
    plain, traced_passes, setups = [], [], []
    started = time.perf_counter()
    for done in range(pass_count(name, seconds, traced)):
        elapsed = time.perf_counter() - started
        if done >= MIN_PASSES and elapsed * (done + 1) / done > OVERRUN * seconds:
            break
        plain.append(run_pass(jobs, env, traced=False))
        if traced:
            traced_passes.append(run_pass(jobs, env, traced=True))
        else:
            setups += [setup_sample(env) for _ in range(SETUP_PER_PASS)]
    while not traced and len(setups) < SETUP_MIN:
        setups.append(setup_sample(env))

    attempted, failed, problems = check_passes(jobs, plain + traced_passes)
    for problem in problems:
        print(f"{name} FAILED {problem}")
    correct = not problems
    print(f"{name} passes: {len(plain)} untraced, {len(traced_passes)} traced")

    if traced:
        per_pass = [tracer.layer_metrics(tracer.combine([trace_of(j) for j in p]))
                    for p in traced_passes]
        values = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        values["trace_overhead"] = (list_metrics(traced_passes)["wall_s"]
                                    / list_metrics(plain)["wall_s"])
        missing = sorted({n for p in traced_passes for j in p
                          for n in trace_of(j)["missing"]})
        if missing:
            print(f"{name} probes not installed (function absent): {', '.join(missing)}")
        units = {key: _layer_unit(key) for key in values}
    else:
        values = list_metrics(plain)
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
        fastest_wall = sum(min(j.wall_s for j in runs) for runs in zip(*plain))
        print(f"{name} context: wall_s from per-job fastest passes {fastest_wall:.6g} s; "
              f"{len(setups)} set-up samples")
    for key, value in values.items():
        print(f"{name} {key}: {value:.6g} {units[key]}")
    print(f"{name} error_rate: {failed / attempted:.6g} ({failed} of {attempted} jobs failed)")
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    return metrics, attempted, failed, correct


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith(("_ratio", "_overhead")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "littlewood" / "cli.py").is_file():
        sys.exit(f"no littlewood sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))  # the checker's second routes come from the program

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    correct = True
    for name in names:
        m, a, f, ok = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in m.items()})
        attempted, failed, correct = attempted + a, failed + f, correct and ok
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
