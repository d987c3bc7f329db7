"""Record a baseline: two sets of runs of every workload, plus one traced run.

    python3 bench/record.py --out bench/BENCH_1.json

Each set runs `bench/run.py --trace 0` once per seed 1..10 for every
workload, with BENCHMARK.json's `run_seconds`; the second set starts after
the first has finished.  For each set the file holds each end-to-end
metric's median, quartiles and spread (interquartile range over median, from
`statistics.quantiles(values, n=4)`) and every run's raw numbers and
machine-speed probe.  `agreement` gives, per metric, the second set's median
against the first's as a signed share (positive is worse) next to the
metric's bound.  One `--trace 1` run with seed 1 gives the per-layer metrics.
The commit is the checkout's `git rev-parse HEAD`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = tuple(range(1, 11))
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe = next(line for line in lines if " probe_s: " in line)
    return {
        "seed": seed,
        "jobs": [" ".join(job) for job in workloads.jobs(workload, seed)],
        "probe_s": float(probe.split(" probe_s: ")[1].split()[0]),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summary(runs: list[dict]) -> dict:
    out = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[key] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    return out


def agreement(first: dict, second: dict, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        key, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        shift = sign * (second[key]["median"] - first[key]["median"]) / first[key]["median"]
        out[key] = {"shift": shift, "bound": metric["bound"], "within": shift <= metric["bound"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=ROOT, check=True).stdout.strip()

    sets = []
    for number in range(1, SETS + 1):
        runs_of = {}
        for name in workloads.WORKLOADS:
            runs_of[name] = []
            for seed in SEEDS:
                runs_of[name].append(run(name, seed, seconds, 0))
                print(f"set {number}", name, json.dumps(runs_of[name][-1]), flush=True)
        sets.append(runs_of)

    record = {
        "commit": commit,
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        summaries = [summary(s[name]) for s in sets]
        traced = run(name, SEEDS[0], seconds, 1)
        record["workloads"][name] = {
            "end_to_end": summaries[0],
            "per_layer": traced["metrics"],
            "agreement": agreement(summaries[0], summaries[1], spec),
            "sets": [{"end_to_end": summ, "runs": s[name]} for summ, s in zip(summaries, sets)],
            "traced_run": {k: v for k, v in traced.items() if k != "metrics"},
        }
        for key, s in summaries[0].items():
            a = record["workloads"][name]["agreement"][key]
            print(f"{name} {key}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"second set {a['shift']:+.4f} (bound {a['bound']})")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
