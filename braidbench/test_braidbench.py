"""Checks of the benchmark itself.

    python3 -m pytest braidbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    "dim --n 8 --q 3 --format json",
    "dim --n 8 --group ext",
    "dim --n 6 --q 2 --method catalog --format csv",
    "necklace pi --lambda 9 --d 4",
    "necklace selfdual --d 6",
    "ep --n 6",
    "verify --n 5 --group prod --q 2 --workers 1",
]


def test_reference_covers_every_request_with_its_documented_exit():
    reference = json.loads((HERE / "reference.json").read_text())
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 7):
            for req in workloads.requests(workload, seed):
                assert reference[req.key]["exit"] == req.expect, req.key


def test_seed_permutes_order_only():
    for workload in workloads.WORKLOADS:
        base = workloads.requests(workload, 0)
        orders = [workloads.requests(workload, seed) for seed in range(1, 6)]
        assert all(sorted(o, key=str) == sorted(base, key=str) for o in orders)
        assert any(o != base for o in orders)
        assert workloads.requests(workload, 3) == workloads.requests(workload, 3)
    ns = [int(r.argv[r.argv.index("--n") + 1]) if "--n" in r.argv
          else 2 * int(r.argv[r.argv.index("--genus") + 1]) + 2
          for r in workloads.requests("formula-tables", 5)]
    assert ns == sorted(ns)


def test_pool_never_exceeds_two_workers_or_the_cpus():
    argvs = [workloads.argv_for(r, workloads.pool_workers())
             for r in workloads.requests("oracle-verify", 1)]
    workers = [int(a[a.index("--workers") + 1]) for a in argvs if "--workers" in a]
    assert workers and max(workers) <= workloads.MAX_WORKERS


def test_self_time_subtracts_child_spans():
    spans = {"parent": [-1, 0, 1, 0], "start": [0.0, 1.0, 2.0, 6.0],
             "end": [10.0, 5.0, 3.0, 8.0]}
    assert tracer.self_times(spans) == [4.0, 3.0, 1.0, 2.0]


def _traced(argvs):
    traced = run.run_pass(argvs, "traced")
    serial = run.run_pass(argvs, "oracle")
    return run.set_figures(traced, serial, None, 1)


def test_traced_counts_repeat_exactly_and_do_not_depend_on_order():
    argvs = [line.split() for line in SMALL]
    counts = run.declared("per_layer")
    counts = [name for name, unit in counts.items() if unit == "count"]
    first, second, reordered = _traced(argvs), _traced(argvs), _traced(argvs[::-1])
    assert first["core_combinatorics.min_rotation.calls"] > 0
    assert first["character_oracle.isotropy.elements_visited"] > 0
    for name in counts:
        assert first.get(name) == second.get(name) == reordered.get(name), name


def test_traced_pass_reports_every_declared_layer_metric():
    argvs = [line.split() for line in SMALL]
    traced = run.run_pass(argvs, "traced")
    serial = run.run_pass(argvs, "oracle")
    figures = run.set_figures(traced, serial, serial, 1)
    # the overhead is taken from the medians of a whole traced run
    missing = set(run.declared("per_layer")) - set(figures) - {"trace.overhead_s"}
    assert not missing


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "braidbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "braidbench/run.py", "--workload", "oracle-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_last_line_is_the_result_with_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle-verify",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.declared("end_to_end"))
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_a_wrong_exit_code_or_output_counts_as_failed():
    req = workloads.Request(("ep", "--n", "6"))
    want = {req.key: {"exit": 0, "sha256": "a" * 64}}
    assert not run.mismatches([req], {"requests": [{"exit": 0, "sha256": "a" * 64}]}, want)
    assert run.mismatches([req], {"requests": [{"exit": 0, "sha256": "b" * 64}]}, want)
    assert run.mismatches([req], {"requests": [{"exit": 3, "sha256": "a" * 64}]}, want)


def test_times_are_scaled_by_their_pass_probes_then_medians_taken():
    ref = run.PROBE_REFERENCE_S

    def pass_(times, setup, rss, probes):
        return {"setup_s": setup, "peak_rss_mb": rss, "probes": [ref * k for k in probes],
                "requests": [{"seconds": t, "cpu_s": t / 2} for t in times]}
    figures = run.at_reference_speed([
        pass_([1.0, 5.0], 0.3, 10.0, [1, 1, 1]),
        pass_([4.0, 8.0], 0.8, 12.0, [2, 2, 2]),
        pass_([3.0, 6.0], 0.2, 11.0, [1, 3, 2]),
    ])
    assert figures == pytest.approx({"wall_s": 5.5, "setup_s": 0.3, "cpu_s": 2.75,
                                     "peak_rss_mb": 11.0, "slowest_request_s": 4.0})
