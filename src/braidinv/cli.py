"""Command-line front end: dimension tables, cross-checks, set listings.

Exit codes are a stable contract: 0 success, 1 verification mismatch,
2 usage error, 3 internal consistency failure, 4 beyond supported size,
141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .character_oracle import GroupSpec, oracle_dimension
from .character_oracle import product_tables as oracle_product_tables
from .character_oracle import tables as oracle_tables
from .core_combinatorics import PoincareTable, partition_count
from .cycle_invariants import (
    Pi_letters_exceed,
    admissible_words,
    enumerate_selfdual,
    necklace_count,
    selfdual_count_closed_form,
    selfdual_letters_exceed,
)
from .errors import CapabilityError, InternalConsistencyError
from .extension_catalog import (
    _ep_members,
    count_EP_closed_form,
    count_KP_closed_form,
    epsilon_sign,
    ext_dimension,
    tables,
)
from .product_catalog import product_dimension, product_tables

SPIN_NOTE = "upper container for H*(S(Σ_g;c))"

# the most letters (words times word length) a necklace listing may hold;
# a larger one exits 4 before it starts, counted in closed form
NECKLACE_LISTING_LIMIT = 10**6

# the largest n the formula route of dim and spin takes; a larger one exits
# 4 before any series is built (dim --n 92 --group ext takes about 5 s on a
# 2-vCPU host, n = 80 about 2 s)
FORMULA_LIMIT = 92

# the most work a catalog listing (dim --method catalog, ep) may take:
# partitions walked, necklace words pooled or walked (a bound: of those of
# weight at most q, only the admissible ones are) and labels listed, each
# counted in closed form; a larger one exits 4 before it starts
CATALOG_LISTING_LIMIT = 10**5

# the largest n verify runs the oracle at, and with --long; a larger one
# exits 4 before any leg
ORACLE_LIMIT = 8
ORACLE_LONG_LIMIT = 10


def _resolved_q(n: int, q: Optional[int], group: str) -> int:
    if group == "ext":
        if n % 2:
            raise ValueError("the extension group needs even n")
        if q is not None and q != n // 2:
            raise ValueError("the extension group fixes q = n/2")
        return n // 2
    if q is None:
        raise ValueError("--q is required for the product group")
    if not 0 <= q <= n // 2:
        raise ValueError("need 0 <= q <= n/2")
    return q


def _group_spec(n: int, q: int, group: str) -> GroupSpec:
    """The group of a resolved --group and --q."""
    return GroupSpec.extension(q) if group == "ext" else GroupSpec.product(n, q)


# the three routes, in verify's column order
METHODS = ("formula", "catalog", "oracle")


def group_table(group: GroupSpec, method: str) -> PoincareTable:
    """The formula, catalog or oracle table of a group."""
    if method == "oracle":
        return oracle_dimension(group.n, group)
    if group.variant == "extension":
        return ext_dimension(group.n, method=method)[1]
    return product_dimension(group.n, group.q, method=method)


def every_table(n: int, method: str) -> Tuple[PoincareTable, ...]:
    """The tables of GroupSpec.every(n) by one route, in that order, from
    one call into it."""
    if method == "oracle":
        return oracle_tables(n)
    return tables(n, method)


def split_tables(n: int, method: str) -> Tuple[PoincareTable, ...]:
    """The tables of the product splits q = 0..n/2 alone by one route, from
    one call into it; no extension table is built."""
    if method == "oracle":
        return oracle_product_tables(n)
    return product_tables(n, method)


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %s" % text)
    return int(text)


def _filtered(table: PoincareTable, degree: Optional[int]) -> List[tuple]:
    return [(i, d) for i, d in table.entries if degree is None or i == degree]


def render_table(rows, notes: Sequence[str] = ()) -> str:
    """One fixed-width line per (degree, dim) row, then the total."""
    lines = list(notes)
    width = max([len(str(i)) for i, _ in rows] + [6])
    lines.append("%*s  %s" % (width, "degree", "dim"))
    for i, d in rows:
        lines.append("%*d  %d" % (width, i, d))
    lines.append("total %d" % sum(d for _, d in rows))
    return "\n".join(lines)


def render_json(
    rows, n: int, q: int, group: str, method: str, notes: Sequence[str] = ()
) -> str:
    """The table as json.dumps(doc, indent=2) would give it, byte for byte,
    for doc = {n, q, group, graded: [{degree, dim}], total,
    provenance: {method}} and, with notes, their annotation.

    It is written here: json encodes with indent only in pure Python, about
    50 µs a table.  Each string still goes through json.dumps, for json's
    escaping."""
    graded = ",\n".join(
        '    {\n      "degree": %d,\n      "dim": %d\n    }' % (i, d) for i, d in rows
    )
    text = (
        '{\n  "n": %d,\n  "q": %d,\n  "group": %s,\n  "graded": %s,\n'
        '  "total": %d,\n  "provenance": {\n    "method": %s\n  }'
        % (
            n,
            q,
            json.dumps(group),
            "[\n%s\n  ]" % graded if graded else "[]",
            sum(d for _, d in rows),
            json.dumps(method),
        )
    )
    if notes:
        text += ',\n  "annotation": %s' % json.dumps(" ".join(notes))
    return text + "\n}"


def render_csv_rows(rows) -> str:
    return "\n".join(["degree,dim"] + ["%d,%d" % (i, d) for i, d in rows])


def _refuse_catalog(n: int, top: int, labels, what: str):
    """Exit 4 before a catalog listing of partitions of n, pooling at most
    the necklace words of weight at most top, whose work exceeds
    CATALOG_LISTING_LIMIT; labels() counts the labels it lists.

    The terms are added in turn and the first to pass the limit refuses:
    p(n) comes first and stops once it passes, so a huge n is refused in
    bounded time, before any sum or series grows with it."""
    limit = CATALOG_LISTING_LIMIT
    terms = (
        lambda: partition_count(n, limit),
        lambda: sum(
            necklace_count(v, d) for v in range(1, n + 1) for d in range(min(v, top) + 1)
        ),
        labels,
    )
    work = 0
    for term in terms:
        work += term()
        if work > limit:
            raise CapabilityError(
                "%s walks, pools and lists more than %d items" % (what, limit)
            )


def _show_dim(
    args: argparse.Namespace,
    n: int,
    q: Optional[int],
    group: str,
    method: str = "formula",
    notes: Sequence[str] = (),
) -> int:
    """Compute one table and print it in args.format, keeping args.degree."""
    q = _resolved_q(n, q, group)
    if method == "formula" and n > FORMULA_LIMIT:
        raise CapabilityError(
            "the formula route takes n up to %d, got %d" % (FORMULA_LIMIT, n)
        )
    if method == "catalog":
        # the extension also lists its swap-fixed labels, from words of
        # every weight
        ext = group == "ext"
        _refuse_catalog(
            n,
            n if ext else q,
            lambda: product_dimension(n, q).total + (count_EP_closed_form(n) if ext else 0),
            "the catalog listing at n = %d" % n,
        )
    rows = _filtered(group_table(_group_spec(n, q, group), method), args.degree)
    if args.format == "json":
        print(render_json(rows, n, q, group, method, notes))
    elif args.format == "csv":
        for note in notes:
            print(note, file=sys.stderr)
        print(render_csv_rows(rows))
    else:
        print(render_table(rows, notes))
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    return _show_dim(args, args.n, args.q, args.group, args.method)


def cmd_spin(args: argparse.Namespace) -> int:
    """Dimension table reindexed by genus; an upper bound, not the spin
    mapping class group computation itself."""
    if args.genus < 0:
        raise ValueError("genus must be non-negative")
    n = 2 * args.genus + 2
    note = "# genus %d (n = %d): %s" % (args.genus, n, SPIN_NOTE)
    return _show_dim(args, n, None, "ext", notes=[note])


def _timed(label: str, compute):
    """compute(), with its wall time on stderr; stdout carries the tables."""
    t0 = time.perf_counter()
    out = compute()
    print("%s: %.3f s" % (label, time.perf_counter() - t0), file=sys.stderr)
    return out


def verify_tables(label: str, groups, compute) -> bool:
    """Formula vs catalog vs oracle for these groups: compute(method) gives
    a route's tables of the groups, in their order, in one call, and its
    wall time goes to stderr under label; then a degree-by-degree table per
    group goes to stdout.  True iff the three agree on every group.

    It takes any groups, so callers gate the oracle's size themselves."""
    legs = [
        _timed("%s %s" % (label, method), lambda: compute(method)) for method in METHODS
    ]
    ok = True
    for group, found in zip(groups, zip(*legs)):
        name = group.describe()
        dims = [table.as_dict() for table in found]
        print("%s  %6s %7s %7s %6s" % (name, "degree", "formula", "catalog", "oracle"))
        for i in sorted(set().union(*dims)):
            f, c, o = (dim.get(i, 0) for dim in dims)
            verdict = "OK" if f == c == o else "MISMATCH"
            ok = ok and f == c == o
            print("%s  %6d %7d %7d %6d  %s" % (" " * len(name), i, f, c, o, verdict))
    return ok


def _refuse_oracle(n: int, long_running: bool):
    if n > (ORACLE_LONG_LIMIT if long_running else ORACLE_LIMIT):
        raise CapabilityError(
            "oracle runs stop at n = %d (n = %d with long runs enabled)"
            % (ORACLE_LIMIT, ORACLE_LONG_LIMIT)
        )


def cmd_verify(args: argparse.Namespace) -> int:
    """Formula vs catalog vs oracle, degree by degree; exit 0 iff equal.

    The oracle's size gate comes first, so an oversized request computes
    nothing."""
    n = args.n
    _refuse_oracle(n, args.long_running)
    if args.group == "prod" and args.q is None:
        # the product sweep: one call per route for every split
        splits = GroupSpec.every(n)[: n // 2 + 1]
        ok = verify_tables("n=%d" % n, splits, lambda method: split_tables(n, method))
    else:
        group = _group_spec(n, _resolved_q(n, args.q, args.group), args.group)
        ok = verify_tables(
            group.describe(), (group,), lambda method: (group_table(group, method),)
        )
    print("verification %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def _refuse_listing(exceeds: bool, what: str):
    if exceeds:
        raise CapabilityError(
            "%s holds more than %d letters" % (what, NECKLACE_LISTING_LIMIT)
        )


def cmd_selfdual(args: argparse.Namespace) -> int:
    _refuse_listing(
        selfdual_letters_exceed(args.d, NECKLACE_LISTING_LIMIT),
        "the self-dual listing at d = %d" % args.d,
    )
    members = enumerate_selfdual(args.d)
    print("enum=%d formula=%d" % (len(members), selfdual_count_closed_form(args.d)))
    if args.verbose:
        for chi in members:
            print(" ", chi)
    return 0


def cmd_pi(args: argparse.Namespace) -> int:
    _refuse_listing(
        Pi_letters_exceed(args.lam, args.d, NECKLACE_LISTING_LIMIT),
        "Pi(%d, %d)" % (args.lam, args.d),
    )
    # each line is written as its word is checked, and nothing keeps it
    write = sys.stdout.write
    fmt = None
    count = 0
    for count, gaps in enumerate(admissible_words(args.lam, args.d), 1):
        if fmt is None:
            # InvariantCycle's str, through one format: every word listed
            # has as many entries as the first (none for the empty marking)
            fmt = "(" + ",".join(["%d"] * len(gaps or ())) + ")\n"
        write(fmt % (gaps or ()))
    print("%d cycles" % count)
    return 0


def cmd_ep(args: argparse.Namespace) -> int:
    """Kernel-pairing listing: each label with its block data and sign."""
    if args.n % 2:
        raise ValueError("only even n has the extension catalog")
    _refuse_catalog(
        args.n,
        args.n,
        lambda: count_EP_closed_form(args.n),
        "the ep listing at n = %d" % args.n,
    )
    rows = []
    for label, pair_counts in _ep_members(args.n):
        sign = epsilon_sign(label.partition, pair_counts)
        rows.append(
            {
                "partition": str(label.partition),
                "degree": label.degree,
                "cycles": [str(c) for c in label.cycles],
                "pairing": [
                    {"part": v, "mult": m, "k": k}
                    for (v, m), k in zip(label.partition.blocks, pair_counts)
                ],
                "sign": sign,
                "kernel": sign < 0,
            }
        )
    ep_total = len(rows)
    kp_total = sum(1 for r in rows if r["kernel"])
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "members": rows,
                    "ep": ep_total,
                    "kp": kp_total,
                    "ep_formula": count_EP_closed_form(args.n),
                    "kp_formula": count_KP_closed_form(args.n),
                },
                indent=2,
            )
        )
        return 0
    for r in rows:
        print(
            "%-14s deg=%d sign=%+d kernel=%-5s cycles=%s"
            % (
                r["partition"],
                r["degree"],
                r["sign"],
                r["kernel"],
                " ".join(r["cycles"]),
            )
        )
    print(
        "|EP|=%d |KP|=%d closed-form EP=%d KP=%d"
        % (ep_total, kp_total, count_EP_closed_form(args.n), count_KP_closed_form(args.n))
    )
    return 0


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and the handlers read every module name at call time."""
    parser = argparse.ArgumentParser(
        prog="braidinv",
        description="Graded dimensions of invariant braid cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, func, help):
        p = parent.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--verbose", action="store_true")
        return p

    def group_options(p):
        p.add_argument("--n", type=positive_int, required=True)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--group", default="prod", choices=("prod", "ext"))

    def table_options(p):
        p.add_argument("--format", default="table", choices=("table", "json", "csv"))
        p.add_argument("--degree", type=int, default=None)

    p_dim = command(sub, "dim", cmd_dim, "graded dimension table")
    group_options(p_dim)
    p_dim.add_argument("--method", default="formula", choices=("formula", "catalog"))
    table_options(p_dim)

    p_verify = command(sub, "verify", cmd_verify, "formula vs catalog vs oracle")
    group_options(p_verify)
    # still parsed, so that existing command lines keep working; read nowhere
    p_verify.add_argument(
        "--workers",
        type=positive_int,
        default=1,
        help="no effect; the oracle runs in one process (must be at least 1)",
    )
    p_verify.add_argument("--long", action="store_true", dest="long_running")

    p_neck = sub.add_parser("necklace", help="invariant cycle listings")
    kind = p_neck.add_subparsers(dest="necklace_kind", required=True)
    p_pi = command(kind, "pi", cmd_pi, "the cycles of one part and weight")
    p_pi.add_argument("--lambda", type=int, required=True, dest="lam")
    p_pi.add_argument("--d", type=int, required=True)
    p_sd = command(kind, "selfdual", cmd_selfdual, "self-dual count vs closed form")
    p_sd.add_argument("--d", type=int, required=True)

    p_ep = command(sub, "ep", cmd_ep, "extension catalog listing")
    p_ep.add_argument("--n", type=positive_int, required=True)
    # ep lists labels, which have no CSV form
    p_ep.add_argument("--format", default="table", choices=("table", "json"))

    p_spin = command(sub, "spin", cmd_spin, "table indexed by hyperelliptic genus")
    p_spin.add_argument("--genus", type=int, required=True)
    table_options(p_spin)
    return parser


# built on import, so that its one-time cost (gettext imports locale for
# it) falls on start-up with the other imports, not on the first command
_build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # logging is imported only for --verbose, or when it is loaded already
    # (a host application's, or an earlier --verbose call's), whose level
    # this call must reset; without it the oracle makes no records
    if args.verbose or "logging" in sys.modules:
        import logging

        logging.basicConfig(
            stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
        )
        # basicConfig does nothing once the root logger has a handler, so a
        # second call in one process sets its level here
        logging.getLogger("braidinv").setLevel(
            logging.DEBUG if args.verbose else logging.WARNING
        )
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (| head): point it at devnull, so that
        # the flush at exit raises nothing, and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 3
    except CapabilityError as exc:
        print("capability limit: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
