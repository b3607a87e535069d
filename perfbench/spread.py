"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads fleet cabin enum --runs 10 --seconds 15

Runs ``run.py`` once per seed and workload (seeds ``first .. first+runs-1``)
and prints, per metric, the median, the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``), and that spread against the
bound in ``BENCHMARK.json``.  Also prints each run's attempted and failed
counts and wall time.  ``--json PATH`` saves every run's result for later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["fleet", "cabin", "enum"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--json", help="write all results to this file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    saved = {}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            result = run_once(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']} "
                  f"({time.perf_counter() - started:.0f} s)", flush=True)
        saved[workload] = results
        for metric, bound in bounds.items():
            median, share = spread([r["metrics"][metric]["value"] for r in results])
            flag = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(f"  {workload:6s} {metric:12s} median {median:12.4f}  spread {share:6.3f}"
                  f"  bound {bound:.2f}  {flag}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(saved, indent=1))


if __name__ == "__main__":
    main()
