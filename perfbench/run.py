"""policyverif benchmark: seeded workloads, timed commands, oracle-checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 15        # every workload in turn

Each workload runs in its own worker process (``worker.py``) as a closed
loop: one client, one command in flight, the next sent only after the last
reply.  This process generates the inputs from ``--seed``, computes the
oracle's expectations, and checks every reply while the worker waits.

Every round holds the same commands.  A command's time is its fastest
repetition over the run's rounds, and a metric is the median of those over
the round's commands of one kind.  On a shared host, cache and memory
contention from other tenants slows stretches of a run, at times to a third
of its speed; the fastest repetition is the one such a stretch missed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs span
wrappers around each layer's public functions, prints per-layer metrics and
finishes with a separate counting round.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  A
result file with the run's details and the environment goes to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"

KIND_METRICS = {"verify": "verify_ms", "construct": "construct_ms", "diff": "diff_ms", "check": "check_ms"}
LAYER_METRICS = (
    "scenario.parse_ms", "scenario.build_ms", "scenario.admit_ms",
    "engine.verify_ms", "engine.construct_ms", "engine.diff_ms",
    "invariants.eval_ms", "invariants.offending_ms", "invariants.secure_default_ms",
    "invariants.monotonicity_ms", "graph.allow_all_ms", "graph.without_flows_ms",
    "cli.render_ms", "cli.selftest_ms", "dot.export_ms",
)
COUNT_METRICS = ("invariants.evaluate_calls", "templates.predicate_calls")
SETUP_PROBES = 25
MEASURED = ("only this benchmark's own processes: the worker child and the set-up probes; "
            "no machine-wide tracing and no dropping of caches")


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def worker_env(seed):
    env = dict(os.environ)
    # fixed string hashing: set iteration order, and with it every count, repeats exactly
    env["PYTHONHASHSEED"] = "0"
    env["POLICY_VERIF_SEED"] = str(seed)
    env.pop("PYTHONPATH", None)
    return env


class Worker:
    """The child process that runs the program; one request in flight."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        )

    def call(self, request):
        self.proc.stdin.write(json.dumps(request).encode("utf-8") + b"\n")
        self.proc.stdin.flush()
        header = self.proc.stdout.readline()
        if not header:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        reply = json.loads(header)
        reply["out"] = self.proc.stdout.read(reply.pop("out_len")).decode("utf-8")
        reply["err"] = self.proc.stdout.read(reply.pop("err_len")).decode("utf-8")
        return reply

    def close(self):
        try:
            self.proc.stdin.write(b'{"op": "exit"}\n')
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs rounds of one workload against a worker and checks every reply."""

    def __init__(self, worker, dot_dir):
        self.worker = worker
        self.dot_dir = dot_dir
        self.sequence = 0
        self.attempted = 0
        self.failures = []

    def request(self, request):
        reply = self.worker.call(request)
        if "error" in reply:
            raise BenchError(f"{request['op']}: {reply['error']}")
        return reply

    def run_round(self, ops, samples=None, spans=None):
        """Run one round; ``samples[i]`` collects the times of position ``i``."""
        for position, op in enumerate(ops):
            self.sequence += 1
            request, dot_path = op.request, None
            if op.dot:
                # a fresh path every time: overwriting a file on ext4 forces a flush on close
                dot_path = self.dot_dir / f"{self.sequence}.dot"
                request = dict(request, argv=request["argv"] + ["--dot", str(dot_path)])
            reply = self.worker.call(request)
            self.attempted += 1
            if spans is not None:
                spans.append((self.sequence, op.kind, reply.get("spans", [])))
            try:
                if "error" in reply:
                    raise oracle.Mismatch(f"raised {reply['error']}")
                dot_text = None
                if dot_path is not None:
                    oracle.expect(dot_path.exists(), "no DOT file written")
                    dot_text = dot_path.read_text(encoding="utf-8")
                    dot_path.unlink()
                op.check(reply, dot_text)
            except (oracle.Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
                self.failures.append(f"{op.kind} {op.request.get('argv', op.request)}: {exc}")
                continue
            if samples is not None:
                samples[position].append(reply["elapsed"])


class SetupProbe:
    """Time from a fresh interpreter to loaded, admitted scenarios.

    Each probe is a new process.  The probes are spread over the timed loop,
    between rounds, so that set-up time samples the same stretch of machine
    time as the commands; ``setup_s`` is their median.
    """

    def __init__(self, files, env):
        self.command = [sys.executable, str(BENCH / "setup_probe.py"), *files]
        self.env = env
        self.times = []
        self.probe()  # may compile bytecode; not counted

    def probe(self):
        done = subprocess.run(self.command, cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(result["module"]).resolve().parent != (ROOT / "src" / "policyverif"):
            raise BenchError(f"set-up probe imported policyverif from {result['module']}")
        return result["elapsed"]

    def keep_pace(self, fraction):
        while len(self.times) < SETUP_PROBES * min(1.0, fraction):
            self.times.append(self.probe())


def layer_best(spans, round_size):
    """Per traced round, the summed outer spans of each layer; the fastest round."""
    per_round = []
    for first in range(0, len(spans), round_size):
        totals = defaultdict(float)
        for _, _, op_spans in spans[first:first + round_size]:
            for name, layer, start, end, parent, outer in op_spans:
                if outer:
                    totals[layer] += (end - start) * 1000.0
        per_round.append(totals)
    return {m: min(r.get(m, 0.0) for r in per_round) for m in LAYER_METRICS}


def kind_medians(ops, best):
    """Per kind, the median of its positions' best times."""
    by_kind = defaultdict(list)
    for position, t in best.items():
        by_kind[ops[position].kind].append(t)
    return {kind: statistics.median(ts) for kind, ts in by_kind.items()}


def run_workload(name, seed, seconds, trace):
    run_dir = OUT / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    inputs, dot_dir = run_dir / "inputs", run_dir / "dot"
    inputs.mkdir(parents=True)
    dot_dir.mkdir()
    try:
        return _run(name, seed, seconds, trace, inputs, dot_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(name, seed, seconds, trace, inputs, dot_dir):
    workload = workloads.build(name, seed, inputs, ROOT / "scenarios")
    env = worker_env(seed)
    setup = SetupProbe(workload.files, env)

    worker = Worker(env)
    try:
        runner = Runner(worker, dot_dir)
        for request in workload.prepare:
            runner.request(request)
        runner.run_round(workload.round)  # untimed warm-up, outputs still checked

        samples, spans = defaultdict(list), []
        if trace:
            runner.request({"op": "trace", "on": True})
        started = time.perf_counter()
        rounds = 0
        while True:
            rounds += 1
            runner.run_round(workload.round, samples, spans if trace else None)
            elapsed = time.perf_counter() - started
            if elapsed >= seconds:
                break
            setup.keep_pace(elapsed / seconds)
        setup.keep_pace(1.0)
        wall = time.perf_counter() - started
        counts = {}
        if trace:
            runner.request({"op": "trace", "on": False})
            runner.request({"op": "count"})
            for request in workload.prepare:  # reload, so loaded scenarios count too
                runner.request(request)
            runner.request({"op": "counts"})  # drops what preparing counted
            runner.run_round(workload.round)
            counts = runner.request({"op": "counts"})["value"]
        rss = runner.request({"op": "rss"})
    finally:
        worker.close()

    best = {position: min(times) for position, times in samples.items()}
    medians = kind_medians(workload.round, best)
    e2e = {metric: (medians.get(kind, 0.0) * 1000.0, "ms") for kind, metric in KIND_METRICS.items()}
    # commands per second of one round's mix, each at its best time
    e2e["ops_per_s"] = (len(best) / sum(best.values()) if best else 0.0, "1/s")
    e2e["peak_rss_mb"] = (rss["value"] / 1024.0, "MiB")
    e2e["setup_s"] = (statistics.median(setup.times), "s")
    if trace:
        layers = {m: (v, "ms") for m, v in layer_best(spans, len(workload.round)).items()}
        layers.update({m: (float(counts.get(m, 0)), "count") for m in COUNT_METRICS})
        metrics = layers
    else:
        metrics = e2e

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds_timed": rounds, "wall_s": wall,
        "samples_ms": {f"{position}:{workload.round[position].kind}": [t * 1000.0 for t in ts]
                       for position, ts in sorted(samples.items())},
        "best_ms": {f"{position}:{workload.round[position].kind}": t * 1000.0
                    for position, t in sorted(best.items())},
        "end_to_end": {m: v for m, (v, _) in e2e.items()},
        "peak_rss_growth_outside_program_kib": rss["harness_growth_kib"],
        "failures": runner.failures[:20],
        "inputs": workload.layout,
        "environment": environment(),
    }
    write_result(result, details, spans if trace else None)
    return result


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment():
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "measured": MEASURED,
    }


def write_result(result, details, spans):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{details['workload']}-seed{details['seed']}-trace{details['trace']}"
    (results / f"{stem}.json").write_text(json.dumps({**result, **details}, indent=2) + "\n")
    if spans is not None:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for op_id, kind, op_spans in spans:
                for index, (name, layer, start, end, parent, outer) in enumerate(op_spans):
                    handle.write(json.dumps({"op": op_id, "kind": kind, "span": index, "name": name,
                                             "layer": layer, "start": start, "end": end,
                                             "parent": parent, "outer": outer}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/policyverif/__init__.py", "scenarios/cabin.json", "scenarios/cabin_bad.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a policyverif checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (BenchError, OSError, subprocess.SubprocessError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print(f"workload {name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:14.4f} {entry['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
