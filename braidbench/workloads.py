"""The benchmark's workloads: fixed lists of ``braidinv`` CLI requests.

Each workload drives a different route of the three the package offers, so
that a change to one route shows on its own workload and leaves the others
alone:

* ``formula-tables`` counts: ``dim --format json`` for every product split
  and the extension group, n = 2..16, plus a few ``spin`` tables.  Later
  requests reuse the necklaces earlier ones cached.
* ``catalog-listing`` lists: catalog dimensions, ``ep`` listings and
  ``necklace`` listings, which share little work, plus requests the CLI
  must refuse with its documented exit codes.
* ``oracle-verify`` cross-checks against the brute-force character oracle,
  which does nearly all the work; the verify requests run on a process
  pool of at most ``nproc`` (and never more than 2) workers.

The seed permutes the order of requests inside a pass, never the requests
themselves, and only where the order leaves the end-to-end figures a
property of the program.  ``formula-tables`` keeps n ascending and
shuffles within each n: the product splits of one n first, then that n's
extension and spin tables, which reuse the split q = n/2.  A free shuffle
would make the slowest request depend mostly on which request pays first
for the shared necklaces of the largest n, so ``slowest_request_s`` would
measure the seed.  ``catalog-listing`` shuffles its catalog, ``ep`` and
refused requests, then its necklace listings.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

FORMULA_MAX_N = 16
SPIN_GENERA = {1: "table", 3: "csv", 5: "table", 7: "csv"}
MAX_WORKERS = 2


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the exit code the CLI documents for it."""

    argv: Tuple[str, ...]
    expect: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def pooled(self) -> bool:
        """Whether the request runs the oracle, which takes ``--workers``."""
        return self.argv[0] == "verify" and self.expect == 0


def _req(text: str, expect: int = 0) -> Request:
    return Request(tuple(text.split()), expect)


def _formula_groups() -> List[List[Request]]:
    """Per n: the product splits, then the extension and spin tables."""
    groups = []
    for n in range(2, FORMULA_MAX_N + 1):
        groups.append(
            [_req("dim --n %d --q %d --format json" % (n, q)) for q in range(n // 2 + 1)]
        )
        tail = []
        if n % 2 == 0:
            tail.append(_req("dim --n %d --group ext --format json" % n))
            genus = (n - 2) // 2
            if genus in SPIN_GENERA:
                tail.append(
                    _req("spin --genus %d --format %s" % (genus, SPIN_GENERA[genus]))
                )
        groups.append(tail)
    return groups


# the necklace listings allocate the pass's largest transient, so they run
# last, after the catalog caches have filled: otherwise peak_rss_mb would
# depend on the seed rather than on the program
NECKLACE_LISTING = [
    _req("necklace pi --lambda 21 --d 10"),
    _req("necklace selfdual --d 16"),
]

CATALOG_LISTING = [
    _req("dim --n 16 --q 8 --method catalog"),
    _req("dim --n 16 --group ext --method catalog"),
    _req("dim --n 14 --q 5 --method catalog --format csv"),
    _req("ep --n 14 --format json"),
    _req("ep --n 16"),
    _req("dim --n 7 --group ext", expect=2),
    _req("dim --n 9 --q 5 --method catalog", expect=2),
    _req("ep --n 9", expect=2),
    _req("necklace pi --lambda 5 --d 6", expect=2),
    _req("verify --n 10 --group prod --q 5", expect=4),
]

ORACLE_VERIFY = [
    _req("verify --n 6 --group ext"),
    _req("verify --n 8 --group prod"),
    _req("verify --n 8 --group ext"),
    _req("verify --n 9 --group prod --q 4 --long"),
    _req("verify --n 12 --group ext --long", expect=4),
]

# each workload is a sequence of groups; the seed shuffles inside a group
WORKLOADS = {
    "formula-tables": _formula_groups,
    "catalog-listing": lambda: [list(CATALOG_LISTING), list(NECKLACE_LISTING)],
    "oracle-verify": lambda: [list(ORACLE_VERIFY)],
}


def requests(workload: str, seed: int) -> List[Request]:
    """The requests of one pass, in the order the seed gives."""
    rng = random.Random(seed)
    out = []
    for group in WORKLOADS[workload]():
        rng.shuffle(group)
        out.extend(group)
    return out


def all_requests() -> Dict[str, Request]:
    """Every request of every workload, by key."""
    return {r.key: r for w in WORKLOADS for r in requests(w, 0)}


def pool_workers() -> int:
    return min(MAX_WORKERS, len(os.sched_getaffinity(0)))


def argv_for(request: Request, workers: int) -> List[str]:
    """The argv a pass sends; verify requests get the pool size."""
    argv = list(request.argv)
    if request.pooled:
        argv += ["--workers", str(workers)]
    return argv
