#!/usr/bin/env python3
"""Tabulate graded invariant dimensions over a range of n.

Product tables list every split 0 <= q <= n/2; even n adds the extension
row.  Output is a flat CSV on stdout so downstream plotting stays trivial.

    python3 scripts/dimension_tables.py --max-n 12
    python3 scripts/dimension_tables.py --max-n 20 --ext-only
"""

from __future__ import annotations

import argparse
import sys

from braidinv import ext_dimension, product_dimension
from braidinv.cli import FORMULA_LIMIT


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
        if not args.ext_only:
            for q in range(n // 2 + 1):
                for i, d in product_dimension(n, q).entries:
                    print("prod,%d,%d,%d,%d" % (n, q, i, d))
        if n % 2 == 0:
            for i, d in ext_dimension(n)[1].entries:
                print("ext,%d,%d,%d,%d" % (n, n // 2, i, d))
        print("progress n=%d done" % n, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
