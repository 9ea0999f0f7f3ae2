#!/usr/bin/env python3
"""Full cross-validation sweep: formula vs catalog vs brute-force oracle.

Runs `braidinv verify` on every product split and on the extension for
each n in range, then checks the oracle's rank identity, in one process,
and ends with the oracle's cache sizes and the run's peak RSS on stderr.
The oracle is the expensive leg; --max-n stops at its ceiling,
`cli.ORACLE_LIMIT`, or `cli.ORACLE_LONG_LIMIT` with --long.

    python3 scripts/cross_validate.py --max-n 8
    python3 scripts/cross_validate.py --max-n 10 --long
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from braidinv import character_oracle, cli
from braidinv.character_oracle import total_rank_check
from braidinv.cli import ORACLE_LIMIT, ORACLE_LONG_LIMIT


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--long", action="store_true", dest="long_running")
    args = parser.parse_args(argv)
    limit = ORACLE_LONG_LIMIT if args.long_running else ORACLE_LIMIT
    if not 1 <= args.max_n <= limit:
        parser.error("--max-n must be in 1..%d" % limit)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    ok = True
    for n in range(1, args.max_n + 1):
        for group in ["prod"] if n % 2 else ["prod", "ext"]:
            request = ["verify", "--n", str(n), "--group", group]
            ok &= cli.main(request + ["--long"] * args.long_running) == 0
        t0 = time.monotonic()
        rank_ok = total_rank_check(n)
        ok &= rank_ok
        print(
            "n=%d rank-identity %s %.3fs"
            % (n, "OK" if rank_ok else "MISMATCH", time.monotonic() - t0),
            file=sys.stderr,
        )
    print("all checks %s" % ("passed" if ok else "FAILED"))
    sizes = [
        "%s %d" % (name, getattr(character_oracle, name).cache_info().currsize)
        for name in ("_classes", "_block_picks", "_block_isotropy")
    ]
    print("oracle cache entries: %s" % ", ".join(sizes), file=sys.stderr)
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("peak RSS %.1f MB" % peak, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
