"""Every benchmark request keeps its exit code and stdout digest.

``braidbench/reference.json`` records, for each request of each workload,
the exit code and the SHA-256 of stdout that ``braidbench/run.py`` expects.
Each request runs here in-process through ``cli.main``, as the benchmark's
child runs it, with stdout captured and stderr discarded.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from braidinv import cli

BENCH = Path(__file__).resolve().parents[1] / "braidbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())
REQUESTS = workloads.all_requests()


def test_reference_lists_exactly_the_requests():
    assert sorted(REFERENCE) == sorted(REQUESTS)


@pytest.mark.parametrize("key", sorted(REQUESTS))
def test_request_matches_reference(key):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(workloads.argv_for(REQUESTS[key], 1))
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (code, digest) == (REFERENCE[key]["exit"], REFERENCE[key]["sha256"])
