"""Benchmark of the ``braidinv`` CLI: cold-process passes over fixed workloads.

    python3 braidbench/run.py --workload formula-tables [--seed 1] [--seconds 40] [--trace 0]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json, whose metric
lists this script reports.  The benchmark's own checks run with
``python3 -m pytest braidbench``.

Run from anywhere; the checkout is the directory above this one, and the
package is imported from its ``src``.  A pass is one fresh interpreter
(``child.py``) that imports ``braidinv`` and calls ``braidinv.cli.main``
for each request of the workload in turn; this script starts one pass at
a time, and starts another only if one as long as the last would still
end within ``--seconds``.  Every request's exit code and stdout digest are
compared with ``reference.json`` (made by ``make_reference.py``).

The host is shared, and its speed moves twofold within seconds and for
minutes at a time, so raw times of the same code differ by a third
between runs.  Each pass therefore also times ``child.probe``, a fixed
piece of interpreter work that runs no braidinv code, before its first
request and after each one, and the end-to-end times are reported at a
reference speed: scaled by ``PROBE_REFERENCE_S`` over the mean probe
time of their pass.  Values read as seconds on the machine the reference was taken on;
the times as measured are printed above the result.

With ``--trace 0`` it reports the end-to-end metrics, each the median over
the passes of the run (wall and CPU time sum the requests' medians),
except ``ok_frac``, which counts every request of the run:

  wall_s             first request to last, imports excluded
  setup_s            process start until braidinv and braidinv.cli are
                     imported
  cpu_s              CPU time of the pass, pool workers included
  peak_rss_mb        largest RSS of the pass process and its pool workers
                     (not scaled)
  slowest_request_s  the largest of the requests' times
  ok_frac            requests whose exit code and stdout match the reference,
                     over requests attempted, those of a pass that died
                     included (1 - the failed fraction)

With ``--trace 1`` it repeats sets of three passes: the workload as given
with only ``oracle_dimension`` timed (skipped when the workload has no
pooled requests), the same on one worker, and a traced pass on one worker
(spans inside forked pool workers would be lost).  It reports per-layer
figures (see ``tracer.py``), the pool's efficiency against the serial
oracle time, and the tracing overhead: traced minus untraced wall time of
the one-worker passes.

The last line of stdout is the JSON result.  The exit code is 0 whenever a
result is printed; a checkout without ``src/braidinv`` exits 2 and prints
none.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
# child.probe's time on an unloaded 2-vCPU Xeon VM with Python 3.11.7; it
# sets only the scale, so that scaled times read as seconds on that machine
PROBE_REFERENCE_S = 0.0017
DEFAULT_SEED = 1


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    """Metric names and units of one kind ("end_to_end" or "per_layer"),
    as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


class PassFailed(RuntimeError):
    """A pass process died or printed no result."""


def run_pass(argvs, mode, cpu=None):
    """Start one child, feed it the requests, wait for it; return its record.

    With ``cpu`` the child runs on that CPU only.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(ROOT), mode],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )
    out, err = proc.communicate(json.dumps(argvs).encode())
    if proc.returncode != 0:
        raise PassFailed("pass exited %d: %s" % (proc.returncode, err.decode()[-2000:]))
    try:
        doc = json.loads(out)
    except ValueError as exc:
        raise PassFailed("pass printed no result: %s" % exc) from exc
    doc["setup_s"] = doc["imported"] - started
    return doc


def mismatches(requests, doc, reference):
    """Requests whose exit code or stdout differ from the reference."""
    bad = []
    for req, got in zip(requests, doc["requests"]):
        want = reference[req.key]
        if got["exit"] != want["exit"]:
            bad.append("%s: exit %s, reference %s" % (req.key, got["exit"], want["exit"]))
        elif got["sha256"] != want["sha256"]:
            bad.append("%s: stdout differs from the reference" % req.key)
    return bad


class Run:
    """Passes of one workload, and their correctness tally."""

    def __init__(self, workload, seed, reference):
        self.requests = workloads.requests(workload, seed)
        self.workers = workloads.pool_workers()
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def pass_(self, mode, workers, cpu=None):
        argvs = [workloads.argv_for(r, workers) for r in self.requests]
        self.attempted += len(argvs)
        try:
            doc = run_pass(argvs, mode, cpu)
        except PassFailed as exc:
            self.failed += len(argvs)
            self.errors.append(str(exc))
            return None
        bad = mismatches(self.requests, doc, self.reference)
        self.failed += len(bad)
        self.errors.extend(bad)
        doc["slowest_request_s"] = max(r["seconds"] for r in doc["requests"])
        return doc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def fits(start, seconds, last):
    """Whether one more pass as long as the last one ends within the run."""
    return time.monotonic() - start + last <= seconds


def at_reference_speed(passes):
    """The end-to-end figures of a run's passes, times scaled to the
    reference speed.

    Each pass's times are scaled by ``PROBE_REFERENCE_S`` over the mean of
    the pass's probes.  The probes run in the pass process, so for pooled
    requests they sample one of the workers' CPUs.  Each figure is the
    median over the passes of the run; wall and CPU time sum the requests'
    medians.
    """
    scales = [PROBE_REFERENCE_S / statistics.fmean(p["probes"]) for p in passes]
    size = len(passes[0]["requests"])
    per_request = {
        key: [statistics.median(s * p["requests"][i][key] for s, p in zip(scales, passes))
              for i in range(size)]
        for key in ("seconds", "cpu_s")
    }
    return {
        "wall_s": sum(per_request["seconds"]),
        "setup_s": statistics.median(s * p["setup_s"] for s, p in zip(scales, passes)),
        "cpu_s": sum(per_request["cpu_s"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "slowest_request_s": max(per_request["seconds"]),
    }


def measure(run, seconds, names):
    """End-to-end metrics at the reference speed (see ``at_reference_speed``).

    Beside each value the median and quartiles of the passes' figures as
    measured are printed.  Passes of a workload without pooled requests
    alternate between the CPUs, one CPU each, so that a pass and its probes
    run on the same CPU.
    """
    pooled = any(r.pooled for r in run.requests)
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    start = time.monotonic()
    last = 0.0
    while len(passes) < MIN_PASSES or fits(start, seconds, last):
        began = time.monotonic()
        cpu = None if pooled else cpus[len(passes) % len(cpus)]
        doc = run.pass_("plain", run.workers, cpu)
        if doc is None:
            break
        last = time.monotonic() - began
        passes.append(doc)
    figures = at_reference_speed(passes) if passes else {}
    metrics = {}
    for name, unit in names.items():
        if name == "ok_frac":
            value = 1.0 - run.failed / run.attempted
            metrics[name] = {"value": value, "unit": unit}
            print("%-20s %12.6f %-6s  requests %d" % (name, value, unit, run.attempted))
            continue
        values = [p[name] for p in passes] or [0.0]
        q1, q3 = quartiles(values)
        metrics[name] = {"value": figures.get(name, 0.0), "unit": unit}
        print("%-20s %12.6f %-6s  measured: median %.6f  q1 %.6f  q3 %.6f  passes %d"
              % (name, metrics[name]["value"], unit, statistics.median(values),
                 q1, q3, len(passes)))
    return metrics, len(passes)


def set_figures(traced, serial, pooled, workers):
    """Per-layer figures of one traced pass and its untraced partners.

    ``serial`` is the untraced pass on one worker, ``pooled`` the untraced
    pass on ``workers`` (None when the workload runs no oracle pool); in
    both only ``oracle_dimension`` is timed.
    """
    fig = tracer.derive(traced["trace"])
    fig["trace.traced_wall_s"] = traced["wall_s"]
    fig["trace.untraced_wall_s"] = serial["wall_s"]
    oracle = "character_oracle.oracle_dimension_s"
    fig["character_oracle.pool.serial_s"] = tracer.derive(serial["trace"])[oracle]
    if pooled is not None:
        pool = tracer.derive(pooled["trace"])[oracle]
        fig["character_oracle.pool.pooled_s"] = pool
        if pool:
            fig["character_oracle.pool.efficiency"] = (
                fig["character_oracle.pool.serial_s"] / (workers * pool))
    pd = fig.get("product_catalog.formula.product_dimension_s", 0.0)
    if pd:
        fig["product_catalog.formula.necklace_share"] = (
            fig.get("product_catalog.formula.enumerate_Pi_s", 0.0) / pd)
    comps = fig.get("cycle_invariants.enumerate_Pi.compositions", 0)
    if comps:
        fig["cycle_invariants.enumerate_Pi.yield"] = (
            fig["cycle_invariants.enumerate_Pi.words"] / comps)
    return fig


def trace(run, seconds, names):
    """Per-layer metrics: medians over sets of (pooled, serial, traced) passes.

    Counts are taken from the first set and must repeat exactly in the
    others.  The tracing overhead is the median traced wall time minus the
    median untraced one.
    """
    pooled = any(r.pooled for r in run.requests)
    figures = []
    start = time.monotonic()
    last = 0.0
    while not figures or fits(start, seconds, last):
        began = time.monotonic()
        pool = run.pass_("oracle", run.workers) if pooled else None
        serial = run.pass_("oracle", 1)
        traced = run.pass_("traced", 1)
        if serial is None or traced is None or (pooled and pool is None):
            break
        last = time.monotonic() - began
        figures.append(set_figures(traced, serial, pool, run.workers))
    samples = figures or [{}]
    medians = {name: statistics.median(f.get(name, 0.0) for f in samples) for name in names}
    medians["trace.overhead_s"] = (
        medians["trace.traced_wall_s"] - medians["trace.untraced_wall_s"])
    metrics = {}
    for name, unit in names.items():
        value = medians[name]
        if unit == "count":
            values = [f.get(name, 0) for f in samples]
            value = values[0]
            if len(set(values)) > 1:
                run.errors.append("count %s differs between traced passes: %s"
                                  % (name, values))
        metrics[name] = {"value": value, "unit": unit}
        print("%-56s %14.6f %s" % (name, value, unit))
    return metrics, len(figures)


def provenance(workload, seed, run, samples):
    rev = "unavailable"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or rev
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "braidinv").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": rev,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pool_workers": run.workers,
        "requests_per_pass": len(run.requests),
        **samples,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "braidinv" / "cli.py").is_file():
        print("no braidinv sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    run = Run(args.workload, args.seed, reference)
    missing = [r.key for r in run.requests if r.key not in reference]
    if missing:
        print("requests without a reference answer: %s" % missing, file=sys.stderr)
        return 2
    if args.trace:
        metrics, passes = trace(run, args.seconds, declared("per_layer"))
    else:
        metrics, passes = measure(run, args.seconds, declared("end_to_end"))
    samples = {"traced_sets" if args.trace else "passes": passes}
    print(json.dumps({"provenance": provenance(args.workload, args.seed, run, samples)}))
    for line in run.errors[:20]:
        print("FAIL " + line, file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors and passes > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
