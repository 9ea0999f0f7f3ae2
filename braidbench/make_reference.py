"""Write ``reference.json``: the expected exit code and stdout digest of
every request of every workload.

    python3 braidbench/make_reference.py

Before an entry is written the request's answer is checked another way:
formula tables against the catalog where listing is feasible (n <= 16) and
against the character oracle for n <= 8; catalog tables against the
formula; ``necklace pi`` counts against the aperiodic-necklace closed form;
``necklace selfdual`` and ``ep`` against the closed forms they print; and
every exit code against the one the CLI documents.  Any disagreement stops
the script with exit code 1 and writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from braidinv import GroupSpec, cli, ext_dimension, oracle_dimension, product_dimension  # noqa: E402

import workloads  # noqa: E402

CATALOG_MAX_N = 16
ORACLE_MAX_N = 8


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def mobius(k):
    out, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


def necklace_count(lam, d):
    """|Pi(lam, d)| by Moreau's aperiodic count, independent of the listing.

    Rotation multiplicity 2 is admissible on parts 2 mod 4, which adds the
    aperiodic words of half the length and weight."""
    if lam <= 2:
        return 1
    if d in (0, lam):
        return 0
    g = math.gcd(lam, d)
    count = sum(mobius(e) * math.comb(lam // e, d // e)
                for e in range(1, g + 1) if g % e == 0) // lam
    if lam % 4 == 2 and d % 2 == 0:
        count += necklace_count(lam // 2, d // 2)
    return count


def table_of(argv):
    """(n, group spec, formula table, catalog table or None) of a dim/spin request."""
    if argv[0] == "spin":
        n, group = 2 * int(opt(argv, "--genus")) + 2, "ext"
    else:
        n, group = int(opt(argv, "--n")), opt(argv, "--group", "prod")
    if group == "ext":
        spec = GroupSpec.extension(n // 2)
        def dims(method): return ext_dimension(n, method=method)[1]
    else:
        q = int(opt(argv, "--q"))
        spec = GroupSpec.product(n, q)
        def dims(method): return product_dimension(n, q, method=method)
    catalog = dims("catalog") if n <= CATALOG_MAX_N else None
    return n, spec, dims("formula"), catalog


class Mismatch(Exception):
    """A request's answer disagrees with another route."""


def expect(ok, what):
    if not ok:
        raise Mismatch(what)


def cross_check(req, code, out):
    """Raise Mismatch unless the answer agrees with another route."""
    argv = req.argv
    expect(code == req.expect, "exit %s, the CLI documents %s" % (code, req.expect))
    if code:
        return
    lines = out.strip().splitlines()
    if argv[0] in ("dim", "spin"):
        n, spec, formula, catalog = table_of(argv)
        expect(catalog is None or catalog == formula, "formula differs from catalog")
        if n <= ORACLE_MAX_N:
            expect(oracle_dimension(n, spec) == formula, "formula differs from oracle")
        if opt(argv, "--format") == "json":
            doc = json.loads(out)
            printed = {r["degree"]: r["dim"] for r in doc["graded"]}
        elif opt(argv, "--format") == "csv":
            printed = dict(map(int, line.split(",")) for line in lines[1:])
        else:
            header = lines.index(next(l for l in lines if l.split() == ["degree", "dim"]))
            printed = dict(map(int, line.split()) for line in lines[header + 1:-1])
        expect(printed == formula.as_dict(), "printed table differs from the formula")
    elif argv[0] == "necklace" and argv[1] == "pi":
        want = necklace_count(int(opt(argv, "--lambda")), int(opt(argv, "--d")))
        expect(lines == lines[:-1] + ["%d cycles" % want] and len(lines) == want + 1,
               "necklace listing differs from the closed-form count %d" % want)
    elif argv[0] == "necklace":
        enum, formula = (field.split("=")[1] for field in out.split())
        expect(enum == formula, "self-dual listing differs from its closed form")
    elif argv[0] == "ep":
        if opt(argv, "--format") == "json":
            doc = json.loads(out)
            listed = (doc["ep"], doc["kp"], len(doc["members"]))
            closed = (doc["ep_formula"], doc["kp_formula"], doc["ep"])
        else:
            fields = dict(f.split("=") for f in lines[-1].split() if "=" in f)
            listed = (fields["|EP|"], fields["|KP|"], len(lines) - 1)
            closed = (fields["EP"], fields["KP"], int(fields["|EP|"]))
        expect(listed == closed, "ep listing differs from its closed forms")
    elif argv[0] == "verify":
        expect(lines[-1] == "verification OK", "verify found a mismatch")


def main():
    reference = {}
    for key, req in sorted(workloads.all_requests().items()):
        code, out = run_cli(req.argv)
        try:
            cross_check(req, code, out)
        except Mismatch as exc:
            print("%s: %s" % (key, exc), file=sys.stderr)
            return 1
        reference[key] = {
            "exit": code,
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
            "bytes": len(out.encode()),
        }
        print("%-50s exit %d  %8d bytes" % (key, code, reference[key]["bytes"]))
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
