#!/usr/bin/env python3
"""Full cross-validation sweep: formula vs catalog vs brute-force oracle.

Covers every product split and the extension for each n in range, in one
process.  The oracle is the expensive leg; --max-n stops at its ceiling,
`ORACLE_LIMIT`, or `ORACLE_LONG_LIMIT` with --long.

    python3 scripts/cross_validate.py --max-n 8
    python3 scripts/cross_validate.py --max-n 10 --long
"""

from __future__ import annotations

import argparse
import sys
import time

from braidinv import GroupSpec, oracle_dimension
from braidinv.character_oracle import (
    ORACLE_LIMIT,
    ORACLE_LONG_LIMIT,
    total_rank_check,
)
from braidinv.cli import group_table


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--long", action="store_true", dest="long_running")
    args = parser.parse_args(argv)
    limit = ORACLE_LONG_LIMIT if args.long_running else ORACLE_LIMIT
    if not 1 <= args.max_n <= limit:
        parser.error("--max-n must be in 1..%d" % limit)
    return args


def check(group: GroupSpec, args: argparse.Namespace) -> bool:
    """Compare the formula, catalog and oracle tables of one group.

    The verdict goes to stdout, the wall time of each leg to stderr."""
    t0 = time.monotonic()
    formula = group_table(group, "formula")
    t1 = time.monotonic()
    catalog = group_table(group, "catalog")
    t2 = time.monotonic()
    oracle = oracle_dimension(group.n, group, long_running=args.long_running)
    t3 = time.monotonic()
    ok = formula.as_dict() == catalog.as_dict() == oracle.as_dict()
    name = group.describe()
    print("%-18s %s" % (name, "OK" if ok else "MISMATCH"))
    print(
        "%-18s formula %.3fs  catalog %.3fs  oracle %.3fs"
        % (name, t1 - t0, t2 - t1, t3 - t2),
        file=sys.stderr,
    )
    if not ok:
        print("  formula: %s" % formula.as_dict())
        print("  catalog: %s" % catalog.as_dict())
        print("  oracle:  %s" % oracle.as_dict())
    return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    ok = True
    for n in range(2, args.max_n + 1):
        t0 = time.monotonic()
        for q in range(n // 2 + 1):
            ok &= check(GroupSpec.product(n, q), args)
        if n % 2 == 0:
            ok &= check(GroupSpec.extension(n // 2), args)
        t1 = time.monotonic()
        rank_ok = total_rank_check(n, long_running=args.long_running)
        t2 = time.monotonic()
        ok &= rank_ok
        print(
            "n=%d rank-identity %s %.3fs  (n=%d in all %.1fs)"
            % (n, "OK" if rank_ok else "MISMATCH", t2 - t1, n, t2 - t0),
            file=sys.stderr,
        )
    print("all checks %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
