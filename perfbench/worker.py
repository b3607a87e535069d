"""Benchmark worker: runs one policyverif command per request and times it.

Started by ``run.py`` as a child process.  Requests arrive as JSON lines on
stdin; each reply is one JSON header line followed by the command's raw
stdout and stderr bytes (lengths in the header).  The worker never checks
outputs -- the parent does that with its oracle while the worker waits, so
neither the checks nor the oracle's memory show in this process's timings
or peak RSS.

Every timed command starts after ``gc.collect()``; the collector stays
enabled.  The clock covers exactly the call into the program: ``cli_main``
with argv in and captured output out, or one public library function.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import policyverif as pv  # noqa: E402
from policyverif import cli  # noqa: E402

import tracing  # noqa: E402


def peak_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Worker:
    def __init__(self):
        # peak RSS growth outside program calls (reply encoding, request
        # decoding): zero when the program alone sets the reported peak
        self.harness_growth_kib = 0
        self.peak_after_program = peak_kib()
        self.scenarios = {}
        self.maxima = {}
        self.tracer = None
        self.counts = Counter()

    # -- untimed preparation -------------------------------------------------

    def op_load(self, req):
        """Parse a scenario (and optionally construct its maximum) for library ops."""
        loaded = pv.parse_scenario(Path(req["file"]).read_text(encoding="utf-8"))
        self.scenarios[req["key"]] = loaded
        if req.get("maximum"):
            self.maxima[req["key"]] = pv.construct_max_policy(loaded.policy.hosts, loaded.invariants)
        return {}

    def op_trace(self, req):
        if req["on"]:
            self.tracer = tracing.Tracer()
            self.tracer.install()
        elif self.tracer is not None:
            self.tracer.uninstall()
            self.tracer = None
        return {}

    def op_count(self, req):
        """Swap in counting templates for the rest of the worker's life."""
        tracing.install_counting(self.counts)
        return {}

    def op_counts(self, req):
        """The counts since the last ``counts`` request."""
        counts = dict(self.counts)
        self.counts.clear()
        return {"value": counts}

    def op_rss(self, req):
        return {"value": peak_kib(), "harness_growth_kib": self.harness_growth_kib}

    # -- timed commands ------------------------------------------------------

    def op_cli(self, req):
        out, err = io.StringIO(), io.StringIO()
        argv = req["argv"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            gc.collect()
            start = time.perf_counter()
            code = cli.cli_main(argv)
            elapsed = time.perf_counter() - start
        return {"code": code, "elapsed": elapsed, "out": out.getvalue(), "err": err.getvalue()}

    def op_monotonicity(self, req):
        inst = self.scenarios[req["key"]].invariants[req["invariant"]]
        maximum = self.maxima[req["key"]]
        gc.collect()
        start = time.perf_counter()
        value = pv.check_monotonicity(inst, maximum, req["trials"], req["seed"])
        return {"elapsed": time.perf_counter() - start, "value": value}

    def op_default(self, req):
        entry = pv.TEMPLATE_REGISTRY[req["template"]]
        template = entry.template

        def attr(literal):
            return template.default_attr if literal is None else entry.parse_attr(literal)

        universe = [attr(lit) for lit in req["universe"]]
        hosts, bound, kind = req["hosts"], req["edge_bound"], req["kind"]
        gc.collect()
        start = time.perf_counter()
        if kind == "unique":
            value = pv.check_unique_default(template, hosts, universe, bound)
        elif kind == "secure":
            value = pv.check_secure_default(template, hosts, universe, bound)
        else:
            found = pv.find_secure_default_counterexample(
                template, hosts, universe, bound, attr(req["candidate"]))
        elapsed = time.perf_counter() - start
        if kind == "counterexample":
            value = None
            if found is not None:
                g, mapping, flow_set, host = found
                value = {
                    "flows": [list(f) for f in sorted(g.flows)],
                    "mapping": {h: entry.format_attr(a) for h, a in mapping.entries.items()},
                    "flow_set": [list(f) for f in sorted(flow_set)],
                    "host": host,
                }
        return {"elapsed": elapsed, "value": value}


def main():
    worker = Worker()
    stdout = sys.stdout.buffer
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "exit":
            break
        worker.harness_growth_kib += max(0, peak_kib() - worker.peak_after_program)
        try:
            reply = getattr(worker, "op_" + req["op"])(req)
        except Exception as exc:  # any raised exception is a failed command
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        worker.peak_after_program = peak_kib()
        if worker.tracer is not None:
            reply["spans"] = worker.tracer.take()
        out = reply.pop("out", "").encode("utf-8")
        err = reply.pop("err", "").encode("utf-8")
        reply["out_len"], reply["err_len"] = len(out), len(err)
        stdout.write(json.dumps(reply).encode("utf-8") + b"\n" + out + err)
        stdout.flush()


if __name__ == "__main__":
    main()
