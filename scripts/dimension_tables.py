#!/usr/bin/env python3
"""Tabulate graded invariant dimensions over a range of n.

Each n lists the groups of `GroupSpec.every(n)`, the list the
cross-validation sweep checks: every product split 0 <= q <= n/2, then the
extension at even n, all from one call into the formula route per n,
`cli.every_table`.  Output is a flat CSV on stdout so downstream plotting
stays trivial.

    python3 scripts/dimension_tables.py --max-n 12
    python3 scripts/dimension_tables.py --max-n 20 --ext-only
"""

from __future__ import annotations

import argparse
import sys

from braidinv import GroupSpec
from braidinv.cli import FORMULA_LIMIT, every_table


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--ext-only", action="store_true")
    args = parser.parse_args(argv)
    if not 1 <= args.max_n <= FORMULA_LIMIT:
        parser.error("--max-n must be in 1..%d" % FORMULA_LIMIT)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    print("group,n,q,degree,dim")
    for n in range(1, args.max_n + 1):
        for group, table in zip(GroupSpec.every(n), every_table(n, "formula")):
            if args.ext_only and group.variant == "product":
                continue
            name = "ext" if group.variant == "extension" else "prod"
            for i, d in table.entries:
                print("%s,%d,%d,%d,%d" % (name, n, group.q, i, d))
        print("progress n=%d done" % n, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
