"""One benchmark pass in a fresh interpreter.

    python3 braidbench/child.py ROOT MODE < requests.json

Imports ``braidinv`` from ROOT/src, so every pass starts from cold caches
as a CLI user's process does, then calls ``braidinv.cli.main(argv)`` for
each argv list read from stdin, in order, in this one process.  MODE is
``plain`` (no instrumentation), ``oracle`` (only ``oracle_dimension`` is
timed, for the pool figures) or ``traced`` (every layer in
``tracer.LAYERS``).  Prints one JSON object: the monotonic time at which
the imports finished, the pass's wall time, CPU time and peak RSS (times
summed over the requests), per request its exit code, a digest of its
stdout, its duration and its CPU time, and the ``probe`` times taken
before the first request and after each; traced passes add their span
table.
"""

import sys
import time

ROOT, MODE = sys.argv[1], sys.argv[2]
sys.path.insert(0, ROOT + "/src")

import braidinv  # noqa: E402
import braidinv.cli  # noqa: E402

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import tracer  # noqa: E402


def cpu_seconds():
    total = 0.0
    # pool workers count once the pool has joined them
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def probe():
    """Seconds for a fixed piece of interpreter work that runs no braidinv
    code: how fast the machine is at that moment.  On a shared host that
    changes twofold within seconds, and for minutes at a time."""
    t0 = time.perf_counter()
    seen = {}
    for word in _compositions(10):
        key = min(word[i:] + word[:i] for i in range(len(word)))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


def main():
    if not os.path.samefile(os.path.dirname(braidinv.__file__), ROOT + "/src/braidinv"):
        raise SystemExit("braidinv imported from %s, not the checkout" % braidinv.__file__)
    argvs = json.load(sys.stdin)
    recorder = None
    if MODE != "plain":
        recorder = tracer.Tracer()
        recorder.install(tracer.LAYERS if MODE == "traced" else tracer.ORACLE_ONLY)
    outputs = []
    records = []
    probes = [probe()]
    # stderr carries only usage and limit messages; the contract is the
    # exit code and stdout
    with contextlib.redirect_stderr(io.StringIO()):
        for i, argv in enumerate(argvs):
            if recorder is not None:
                recorder.request = i
            buf = io.StringIO()
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = braidinv.cli.main(argv)
            except Exception as exc:  # a crash is a failed request, not a failed pass
                code = "exception %s: %s" % (type(exc).__name__, exc)
            records.append({"exit": code, "seconds": time.perf_counter() - t0,
                            "cpu_s": cpu_seconds() - c0})
            outputs.append(buf.getvalue())
            probes.append(probe())
    for record, text in zip(records, outputs):
        record["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    doc = {
        "imported": IMPORTED,
        "wall_s": sum(r["seconds"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "probes": probes,
        "peak_rss_mb": rss_kb / 1024.0,
        "requests": records,
    }
    if recorder is not None:
        doc["trace"] = recorder.dump()
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
