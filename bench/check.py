"""The benchmark's own check: metric names and units, and traced == untraced.

    python3 bench/check.py --smoke     # every workload on a few scenes, 1 s each
    python3 bench/check.py --seed 7    # full size, BENCHMARK.json's run_seconds, another seed

For each workload, ``bench/run.py`` runs twice on the same seed in fresh
processes, untraced and then traced. The check passes when:

- both runs exit 0 with ``correct`` true and no failed operation;
- the untraced run prints every ``end_to_end`` metric of BENCHMARK.json with
  its unit, each finite and non-zero, and the traced run every ``per_layer``
  metric with its unit;
- the traced run's losses (train) and predictions (predict) equal the
  untraced run's bit for bit, so the span wrappers change no arithmetic.
  For the train workloads this is also the check that the final loss is
  identical across two runs of one seed.

It prints the tracing overhead as traced time per scene over untraced time
per scene.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "_runs"


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    record_path = RUNS / tag / "result.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else None
    return proc, result, record


def check_metrics(result, expected: list[dict], nonzero: bool) -> list[str]:
    problems = []
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        missing = sorted({m["name"] for m in expected} - set(got))
        extra = sorted(set(got) - {m["name"] for m in expected})
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for spec in expected:
        entry = got.get(spec["name"])
        if entry is None:
            continue
        if entry["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {entry['unit']!r}, expected {spec['unit']!r}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{spec['name']}: value {value!r} is not a finite number")
        elif nonzero and value == 0:
            problems.append(f"{spec['name']}: value is 0")
    return problems


def check_workload(workload: str, seed: int, seconds: float, smoke: bool, spec: dict) -> list[str]:
    problems = []
    runs = {}
    for trace in (0, 1):
        proc, result, record = run(workload, seed, seconds, trace, smoke)
        label = f"{workload} trace {trace}"
        if proc.returncode != 0 or result is None or record is None:
            problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            continue
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                            f"attempted={result['attempted']}")
        expected = spec["per_layer"] if trace else spec["end_to_end"]
        problems += [f"{label}: {p}" for p in check_metrics(result, expected, nonzero=not trace)]
        runs[trace] = record
    if len(runs) == 2:
        plain, traced = runs[0], runs[1]
        if plain["outputs"] != traced["outputs"] or not plain["outputs"]:
            problems.append(f"{workload}: traced outputs differ from untraced outputs")
        overhead = plain["end_to_end"]["scenes_per_s"] / traced["end_to_end"]["scenes_per_s"]
        print(f"{workload}: {len(plain['outputs'])} outputs bit-identical traced vs untraced: "
              f"{plain['outputs'] == traced['outputs']}; tracing overhead {overhead:.3f}x "
              f"({traced['end_to_end']['scenes_per_s']:.4g} vs "
              f"{plain['end_to_end']['scenes_per_s']:.4g} scenes/s)")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--smoke", action="store_true", help="a few scenes per workload")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 1 if args.smoke else spec["run_seconds"]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_workload(workload, args.seed, seconds, args.smoke, spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("benchmark check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
