#!/usr/bin/env python3
"""Full cross-validation sweep: formula vs catalog vs brute-force oracle.

For each n up to --max-n, runs verify's check, `cli.verify_tables`, on
every group in `GroupSpec.every(n)` (the product splits, then the
extension at even n), in one process.  Each leg is one call per n,
`cli.every_table`, that gives the tables of every group at n.  The oracle
leg also checks orbit-stabilizer on every block (v, m) of equal parts it
reads.  Verify's tables go to stdout and end with the verdict; each leg's
wall time at each n, the oracle's cache sizes and the run's peak RSS go to
stderr.  An internal consistency failure fails its n and the sweep goes
on.

    python3 scripts/cross_validate.py --max-n 8
    python3 scripts/cross_validate.py --max-n 24   # about 6.5 s, 25 MB
"""

from __future__ import annotations

import argparse
import resource
import sys
from functools import partial

from braidinv import character_oracle
from braidinv.character_oracle import GroupSpec
from braidinv.cli import every_table, verify_tables
from braidinv.errors import InternalConsistencyError

# on a 2-vCPU host the sweep takes 0.7 s and 19 MB to n = 20, and 6.5 s and
# 25 MB to n = 24, 3.4 s of it in the catalog leg and 2.9 s in the oracle's
MAX_N = 24


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args(argv)
    if not 1 <= args.max_n <= MAX_N:
        parser.error("--max-n must be in 1..%d" % MAX_N)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    ok = True
    for n in range(1, args.max_n + 1):
        try:
            ok &= verify_tables("n=%d" % n, GroupSpec.every(n), partial(every_table, n))
        except InternalConsistencyError as exc:
            print("n=%d internal consistency failure: %s" % (n, exc), file=sys.stderr)
            ok = False
    print("all checks %s" % ("passed" if ok else "FAILED"))
    sizes = [
        "%s %d" % (name, getattr(character_oracle, name).cache_info().currsize)
        for name in ("_classes", "_block_polynomials", "_partition_products")
    ]
    print("oracle cache entries: %s" % ", ".join(sizes), file=sys.stderr)
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("peak RSS %.1f MB" % peak, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
