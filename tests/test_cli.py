import contextlib
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidinv import character_oracle, cli, cycle_invariants, extension_catalog, product_catalog
from braidinv.cli import main, render_table
from braidinv.core_combinatorics import all_partitions, min_rotation
from braidinv.cycle_invariants import InvariantCycle, admissible_words, enumerate_Pi
from braidinv.errors import InternalConsistencyError
from braidinv.extension_catalog import enumerate_EP
from braidinv.product_catalog import GeneratorLabel, enumerate_generators

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def fresh_python(*args):
    """A new interpreter that imports braidinv from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_ext_n2(capsys):
    code, out, _ = run(capsys, "dim", "--n", "2", "--group", "ext")
    assert code == 0
    assert "total 2" in out
    lines = [l.split() for l in out.strip().splitlines()[1:-1]]
    assert [(int(a), int(b)) for a, b in lines] == [(0, 1), (1, 1)]


def test_dim_classical_anchor(capsys):
    code, out, _ = run(capsys, "dim", "--n", "4", "--group", "prod", "--q", "0")
    assert code == 0
    assert "total 2" in out


def test_dim_bad_q_exits_2(capsys):
    code, _, err = run(capsys, "dim", "--n", "3", "--group", "prod", "--q", "5")
    assert code == 2
    assert "usage error" in err


def test_dim_requires_q_for_product(capsys):
    code, _, err = run(capsys, "dim", "--n", "4", "--group", "prod")
    assert code == 2


def test_dim_ext_rejects_mismatched_q(capsys):
    code, _, _ = run(capsys, "dim", "--n", "6", "--group", "ext", "--q", "2")
    assert code == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_rejects_non_positive_workers(capsys, monkeypatch, workers):
    def start(*args, **kwargs):
        raise AssertionError("a rejected request reached the oracle")

    monkeypatch.setattr(cli, "oracle_dimension", start)
    code, _, err = run(
        capsys, "verify", "--n", "4", "--group", "ext", "--workers", workers
    )
    assert code == 2
    assert "--workers" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "-5"],
        ["verify", "--n", "-1", "--group", "prod"],
        ["dim", "--n", "0", "--group", "ext"],
        ["ep", "--n", "-2"],
    ],
    ids=" ".join,
)
def test_non_positive_n_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "argument --n" in err
    assert "verification OK" not in out


def test_unknown_flag_exits_2(capsys):
    assert main(["dim", "--n", "4", "--bogus"]) == 2
    capsys.readouterr()


# options each command used to accept and ignore; the rest of each argv
# is a valid request on its own
VALID = {
    "dim": ["dim", "--n", "4", "--q", "1"],
    "verify": ["verify", "--n", "4", "--group", "ext", "--workers", "1"],
    "ep": ["ep", "--n", "4"],
    "spin": ["spin", "--genus", "1"],
}
IGNORED_OPTIONS = [
    ("dim", ["--workers", "1"]),
    ("dim", ["--long"]),
    ("verify", ["--format", "json"]),
    ("verify", ["--degree", "1"]),
    ("ep", ["--q", "2"]),
    ("ep", ["--group", "ext"]),
    ("ep", ["--degree", "1"]),
    ("ep", ["--workers", "1"]),
    ("ep", ["--long"]),
    ("ep", ["--format", "csv"]),
    ("spin", ["--workers", "1"]),
    ("spin", ["--long"]),
]


@pytest.mark.parametrize(
    "command,option", IGNORED_OPTIONS, ids=["%s %s" % (c, o[0]) for c, o in IGNORED_OPTIONS]
)
def test_option_a_command_does_not_read_exits_2(capsys, command, option):
    assert run(capsys, *VALID[command])[0] == 0
    assert run(capsys, *VALID[command], *option)[0] == 2


def _readme_command_lines():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_lines_run(capsys, argv):
    assert run(capsys, *argv)[0] == 0


def test_readme_library_block_runs_and_matches_all():
    import braidinv

    section = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(block, names)
    imported = {k for k, v in names.items() if k != "__builtins__"}
    assert imported == set(braidinv.__all__)


def test_json_output_and_round_trip(capsys):
    code, out, _ = run(capsys, "dim", "--n", "6", "--group", "ext", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6 and doc["q"] == 3 and doc["group"] == "ext"
    assert doc["total"] == sum(row["dim"] for row in doc["graded"])
    assert doc["provenance"]["method"] == "formula"

    # re-render the parsed rows and compare with the direct table output
    rendered = render_table([(r["degree"], r["dim"]) for r in doc["graded"]])
    code2, out2, _ = run(capsys, "dim", "--n", "6", "--group", "ext")
    assert rendered == out2.strip("\n")


def _json_doc(rows, n, q, group, method, notes):
    """The document render_json writes, for json.dumps as the reference."""
    doc = {
        "n": n,
        "q": q,
        "group": group,
        "graded": [{"degree": i, "dim": d} for i, d in rows],
        "total": sum(d for _, d in rows),
        "provenance": {"method": method},
    }
    if notes:
        doc["annotation"] = " ".join(notes)
    return doc


@pytest.mark.parametrize(
    "n, q, rows",
    [
        (6, 3, []),
        (1, 0, [(0, 1)]),
        (12, 5, [(i, 3**i + i) for i in range(12)]),
        (2**40, 2**33, [(0, 2**31), (7, 2**63 + 1), (2**32, 10**30)]),
    ],
    ids=["empty", "one-row", "many-rows", "beyond-2^31"],
)
@pytest.mark.parametrize("group", ["prod", "ext"])
@pytest.mark.parametrize("method", ["formula", "catalog"])
@pytest.mark.parametrize(
    "notes",
    [(), ("# genus 2 (n = 6): %s" % cli.SPIN_NOTE,), ("a \"quoted\"", "tab\there")],
    ids=["no-note", "spin-note", "two-notes"],
)
def test_render_json_is_json_dumps_indent_2(n, q, rows, group, method, notes):
    doc = _json_doc(rows, n, q, group, method, notes)
    out = cli.render_json(rows, n, q, group, method, notes)
    assert out == json.dumps(doc, indent=2)
    assert json.loads(out) == doc


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--n", "6", "--group", "ext", "--degree", "99"],
        ["dim", "--n", "8", "--q", "3", "--method", "catalog"],
        ["spin", "--genus", "2"],
    ],
)
def test_json_answers_are_json_dumps_indent_2(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_a_closed_pipe_exits_141_without_a_traceback():
    # the listing is far longer than a pipe holds, so the CLI is still
    # writing when the reader goes away
    with subprocess.Popen(
        [sys.executable, "-m", "braidinv", "necklace", "pi", "--lambda", "21", "--d", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ) as proc:
        assert proc.stdout.readline() == "(0,0,0,0,0,0,0,0,0,11)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err


def test_csv_output(capsys):
    code, out, _ = run(capsys, "dim", "--n", "4", "--group", "ext", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "degree,dim"
    assert out.splitlines()[1:] == ["0,1", "1,2", "2,1"]


def test_degree_filter(capsys):
    code, out, _ = run(capsys, "dim", "--n", "6", "--group", "ext", "--degree", "3")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[-2].split() == ["3", "3"]


def test_dim_catalog_method_matches(capsys):
    _, out_f, _ = run(capsys, "dim", "--n", "6", "--group", "ext")
    _, out_c, _ = run(capsys, "dim", "--n", "6", "--group", "ext", "--method", "catalog")
    assert out_f == out_c


def test_verify_ext_n4(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--group", "ext", "--workers", "1")
    assert code == 0
    assert "verification OK" in out
    assert "MISMATCH" not in out


def test_verify_product_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--group", "prod", "--workers", "1")
    assert code == 0
    for q in range(3):
        assert "product(%d,%d)" % (4 - q, q) in out


def test_verify_capability_gate(capsys):
    code, _, err = run(capsys, "verify", "--n", "12", "--group", "ext")
    assert code == 4
    assert "capability" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "12", "--group", "ext", "--long"],
        ["verify", "--n", "9", "--group", "prod", "--q", "4"],
    ],
    ids=" ".join,
)
def test_verify_size_gate_comes_before_any_leg(capsys, monkeypatch, argv):
    def leg(*args, **kwargs):
        raise AssertionError("an oversized request computed a table")

    for name in (
        "product_dimension", "ext_dimension", "oracle_dimension",
        "product_tables", "tables", "oracle_product_tables", "oracle_tables",
    ):
        monkeypatch.setattr(cli, name, leg)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "capability" in err


def test_verify_runs_the_oracle_once_per_n(capsys, monkeypatch):
    calls = []

    def record(n):
        calls.append(n)
        return character_oracle.product_tables(n)

    def refuse(*args, **kwargs):
        raise AssertionError("the product sweep built a table one group at a time")

    def no_extension(*args, **kwargs):
        raise AssertionError("the product sweep built an extension table")

    monkeypatch.setattr(cli, "oracle_product_tables", record)
    for name in ("oracle_dimension", "product_dimension", "ext_dimension", "oracle_tables"):
        monkeypatch.setattr(cli, name, refuse)
    for name in ("_fixed_series", "_ep_members"):
        monkeypatch.setattr(extension_catalog, name, no_extension)
    code, out, _ = run(capsys, "verify", "--n", "6", "--group", "prod", "--workers", "1")
    assert code == 0
    assert "verification OK" in out
    assert calls == [6]
    names = re.findall(r"^(\S+)  degree formula catalog oracle$", out, re.M)
    assert names == ["product(6,0)", "product(5,1)", "product(4,2)", "product(3,3)"]


def test_verify_forks_nothing(capsys, monkeypatch):
    def fork():
        raise AssertionError("verify forked a process")

    monkeypatch.setattr(os, "fork", fork)
    code, out, _ = run(capsys, "verify", "--n", "8", "--group", "ext", "--workers", "2")
    assert code == 0
    assert "verification OK" in out


def test_verify_times_each_leg_once_per_n_on_stderr(capsys):
    # the product sweep times each route's one call for every split
    code, out, err = run(capsys, "verify", "--n", "4", "--group", "prod", "--workers", "1")
    assert code == 0
    assert re.findall(r"^(.*): \d+\.\d{3} s$", err, re.M) == [
        "n=4 formula", "n=4 catalog", "n=4 oracle",
    ]
    assert " s\n" not in out
    # a single group is timed under its own name
    code, out, err = run(capsys, "verify", "--n", "4", "--group", "prod", "--q", "1")
    assert code == 0
    assert re.findall(r"^(.*): \d+\.\d{3} s$", err, re.M) == [
        "product(3,1) formula", "product(3,1) catalog", "product(3,1) oracle",
    ]


@pytest.mark.parametrize("first_verbose", (True, False))
def test_verbose_is_set_on_every_call(capsys, caplog, first_verbose):
    # a second main in one process takes its own --verbose, either way round
    argv = ["verify", "--n", "4", "--group", "prod", "--q", "1"]
    try:
        for verbose in (first_verbose, not first_verbose):
            caplog.clear()
            code, _, _ = run(capsys, *argv, *["--verbose"] * verbose)
            assert code == 0
            done = [
                r for r in caplog.records
                if r.levelno == logging.DEBUG and r.getMessage().endswith(" done")
            ]
            # one line per partition of 4 when verbose, none otherwise
            assert len(done) == (5 if verbose else 0)
    finally:
        logging.getLogger("braidinv").setLevel(logging.NOTSET)


def test_verbose_in_a_fresh_process():
    # logging is loaded only for --verbose there, unlike under pytest
    argv = ["-m", "braidinv", "verify", "--n", "4", "--group", "prod", "--q", "1"]
    quiet, verbose = fresh_python(*argv), fresh_python(*argv, "--verbose")
    assert quiet.returncode == verbose.returncode == 0
    assert quiet.stdout == verbose.stdout
    # one record per block as it is first decided, its path, the classes or
    # picks it decided and its seconds, while the partitions' products are
    # built; then one record per partition as the table is read off them
    blocks = [
        ((4,), [(4, 1, 4)]),
        ((3, 1), [(3, 1, 2), (1, 1, 1)]),
        ((2, 2), [(2, 2, 4)]),
        ((2, 1, 1), [(2, 1, 2), (1, 2, 2)]),
        ((1, 1, 1, 1), [(1, 4, 3)]),
    ]
    expected = []
    for parts, decided in blocks:
        for v, m, count in decided:
            path, what = ("walk", "classes") if m == 1 else ("picks", "picks")
            expected.append(
                r"oracle block \(%d, %d\): %s path, %d %s in \d+\.\d{3} s"
                % (v, m, path, count, what)
            )
    for parts, _ in blocks:
        expected.append(re.escape("oracle product(3,1): partition %s done" % (parts,)))
    records = [l for l in verbose.stderr.splitlines() if l.startswith("DEBUG")]
    assert len(records) == len(expected)
    for line, pattern in zip(records, expected):
        assert re.fullmatch("DEBUG braidinv.character_oracle: " + pattern, line), line
    assert "DEBUG" not in quiet.stderr


def test_start_loads_no_dataclasses_inspect_or_logging():
    # each costs milliseconds on every start of the CLI
    proc = fresh_python(
        "-c",
        "import sys; before = set(sys.modules)\n"
        "import braidinv, braidinv.cli\n"
        "print(*sorted(set(sys.modules) - before))",
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "braidinv.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "logging"})


def test_necklace_pi(capsys):
    code, out, _ = run(capsys, "necklace", "pi", "--lambda", "6", "--d", "3")
    assert code == 0
    assert out.strip().splitlines() == ["(0,0,3)", "(0,1,2)", "(0,2,1)", "3 cycles"]


@pytest.mark.parametrize("lam", range(1, 13))
def test_necklace_pi_lines_are_the_cycles_str(capsys, lam):
    for d in range(lam + 1):
        cycles = enumerate_Pi(lam, d)
        expected = [*map(str, cycles), "%d cycles" % len(cycles)]
        code, out, _ = run(capsys, "necklace", "pi", "--lambda", str(lam), "--d", str(d))
        assert (code, out) == (0, "\n".join(expected) + "\n")


def _joined_listing(lam, d):
    """necklace pi's stdout as it was when the listing was held: the cycles
    of enumerate_Pi through one format sized from the first, joined, then
    their count."""
    cycles = enumerate_Pi(lam, d)
    width = len(cycles[0].gaps or ()) if cycles else 0
    fmt = "(" + ",".join(["%d"] * width) + ")"
    lines = [fmt % (chi.gaps or ()) for chi in cycles]
    return "\n".join([*lines, "%d cycles" % len(cycles)]) + "\n"


@pytest.mark.parametrize(
    "lam,d",
    [(1, 0), (2, 0), (1, 1), (2, 2), (3, 0), (5, 5), (10, 4), (14, 6), (21, 10)],
)
def test_streamed_necklace_pi_is_the_joined_listing(capsys, lam, d):
    # d = 0, d = lam on parts 1 and 2, no cycle at all, square words on
    # lam = 2 mod 4, and the benchmark's (21, 10)
    enumerate_Pi.cache_clear()
    code, out, _ = run(capsys, "necklace", "pi", "--lambda", str(lam), "--d", str(d))
    # the listing kept no cycle
    assert enumerate_Pi.cache_info().currsize == 0
    assert (code, out) == (0, _joined_listing(lam, d))
    if lam % 4 == 2 and d % 2 == 0 and 0 < d < lam:
        assert 2 in {chi.multiplicity for chi in enumerate_Pi(lam, d)}


def test_necklace_pi_writes_each_line_as_its_word_is_checked(monkeypatch):
    listed = []

    def counted(lam, d):
        for gaps in admissible_words(lam, d):
            listed.append(gaps)
            yield gaps

    written = []

    class Recording(io.StringIO):
        def write(self, text):
            written.append(len(listed))
            return super().write(text)

    monkeypatch.setattr(cli, "admissible_words", counted)
    with contextlib.redirect_stdout(Recording()) as out:
        assert main(["necklace", "pi", "--lambda", "14", "--d", "6"]) == 0
    assert len(listed) == 217
    # line i goes out once word i is listed and before word i + 1 is
    assert written[: len(listed)] == list(range(1, len(listed) + 1))
    assert out.getvalue() == _joined_listing(14, 6)


def _refuse_to_build(monkeypatch, cls):
    def refuse(self, *args):
        raise AssertionError("built a %s" % cls.__name__)

    monkeypatch.setattr(cls, "__init__", refuse)


def test_necklace_pi_builds_no_cycle_and_checks_each_word_once(capsys, monkeypatch):
    walk, check = cycle_invariants.gap_necklaces, cycle_invariants.check_gap_word
    walked, checked = [], []

    def counted_walk(d, total):
        for gaps, p in walk(d, total):
            walked.append(gaps)
            yield gaps, p

    def counted_check(length, gaps):
        checked.append(gaps)
        return check(length, gaps)

    monkeypatch.setattr(cycle_invariants, "gap_necklaces", counted_walk)
    monkeypatch.setattr(cycle_invariants, "check_gap_word", counted_check)
    expected = _joined_listing(21, 10)
    _refuse_to_build(monkeypatch, InvariantCycle)
    code, out, _ = run(capsys, "necklace", "pi", "--lambda", "21", "--d", "10")
    assert (code, out) == (0, expected)
    assert len(walked) == 16796
    assert checked == walked


def test_catalog_count_builds_no_label_and_checks_each_block_tuple_once(
    capsys, monkeypatch
):
    check = product_catalog.check_label
    checked = []

    def counted(partition, cycles):
        checked.append(cycles)
        return check(partition, cycles)

    counts = product_catalog._block_counts

    def one_part_builds_no_cycle(v, m, top):
        if m > 1:
            return counts(v, m, top)
        with monkeypatch.context() as inner:
            _refuse_to_build(inner, InvariantCycle)
            return counts(v, m, top)

    monkeypatch.setattr(product_catalog, "check_label", counted)
    monkeypatch.setattr(product_catalog, "_block_counts", one_part_builds_no_cycle)
    _refuse_to_build(monkeypatch, GeneratorLabel)
    caches = (
        enumerate_Pi,
        product_catalog._word_count,
        counts,
        product_catalog._catalog_products,
    )
    for cache in caches:
        cache.cache_clear()
    try:
        code, out, _ = run(capsys, "dim", "--n", "16", "--q", "8", "--method", "catalog")
        calls = len(checked)
        # every block (v, m) of m >= 2 parts in a partition of 16, read to
        # weight 8 or its top weight vm; warm, so no further check runs
        blocks = {b for lam in all_partitions(16) for b in lam.blocks if b[1] > 1}
        many = [counts(v, m, min(8, v * m)) for v, m in blocks]
    finally:
        for cache in caches:
            cache.cache_clear()
    assert code == 0 and out.endswith("total 18876\n")
    # the 18,876 labels are products of 638 checked tuples and one-part words
    assert calls == len(checked) == sum(map(sum, many)) == 638


def test_necklace_pi_memory_does_not_grow_with_the_listing():
    # Pi(21, 10) holds 16,796 cycles, about 5 MB when they were kept
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(["necklace", "pi", "--lambda", "6", "--d", "3"])
        tracemalloc.start()
        try:
            assert main(["necklace", "pi", "--lambda", "21", "--d", "10"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2**20


def test_necklace_pi_lines_of_no_gap_and_of_one_gap(capsys):
    # two gaps and more: test_necklace_pi, and (0,0) on a 2-cycle below
    assert run(capsys, "necklace", "pi", "--lambda", "2", "--d", "0")[:2] == (
        0,
        "()\n1 cycles\n",
    )
    assert run(capsys, "necklace", "pi", "--lambda", "7", "--d", "1")[:2] == (
        0,
        "(6)\n1 cycles\n",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["necklace", "pi", "--lambda", "40", "--d", "20"],
        ["necklace", "selfdual", "--d", "40"],
        ["necklace", "pi", "--lambda", str(10**12), "--d", str(5 * 10**11)],
        ["necklace", "pi", "--lambda", str(10**12), "--d", str(10**12 - 1)],
        ["necklace", "selfdual", "--d", str(10**12)],
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_oversized_necklace_listing_exits_4_before_listing(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("an oversized request reached the listing")

    monkeypatch.setattr(cli, "admissible_words", refuse)
    monkeypatch.setattr(cli, "enumerate_selfdual", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert (code, out) == (4, "")
    assert "more than %d letters" % cli.NECKLACE_LISTING_LIMIT in err


def test_necklace_of_zero_gaps_lists_without_walking(capsys):
    # weight lam leaves only the all-zero gap word, of period 1: admissible
    # on parts 1 and 2, and found without lam steps or lists of lam entries
    start = time.perf_counter()
    huge = str(10**12)
    assert run(capsys, "necklace", "pi", "--lambda", huge, "--d", huge)[:2] == (
        0,
        "0 cycles\n",
    )
    assert time.perf_counter() - start < 5
    assert run(capsys, "necklace", "pi", "--lambda", "2", "--d", "2")[:2] == (
        0,
        "(0,0)\n1 cycles\n",
    )


def test_necklace_limit_counts_letters(capsys, monkeypatch):
    # Pi(6, 3) holds 3 words of 3 letters, the self-dual listing at d = 6
    # 5 words of 6 letters
    for limit, codes in ((9, (0, 4)), (8, (4, 4)), (30, (0, 0))):
        monkeypatch.setattr(cli, "NECKLACE_LISTING_LIMIT", limit)
        assert run(capsys, "necklace", "pi", "--lambda", "6", "--d", "3")[0] == codes[0]
        assert run(capsys, "necklace", "selfdual", "--d", "6")[0] == codes[1]


def test_necklace_selfdual(capsys):
    code, out, _ = run(capsys, "necklace", "selfdual", "--d", "6")
    assert (code, out.strip()) == (0, "enum=5 formula=5")
    code, out, _ = run(capsys, "necklace", "selfdual", "--d", "1")
    assert (code, out.strip()) == (0, "enum=1 formula=1")


def test_ep_listing(capsys):
    code, out, _ = run(capsys, "ep", "--n", "2")
    assert code == 0
    body = out.strip().splitlines()
    assert len(body) == 3  # two members plus the summary
    assert all("sign=+1" in line for line in body[:2])
    assert body[-1] == "|EP|=2 |KP|=0 closed-form EP=2 KP=0"


def test_ep_n6_has_signed_row(capsys):
    code, out, _ = run(capsys, "ep", "--n", "6")
    assert code == 0
    row = next(l for l in out.splitlines() if l.startswith("(4,2)"))
    assert "sign=-1" in row and "kernel=True" in row
    assert "|EP|=8 |KP|=4" in out


def test_ep_json(capsys):
    code, out, _ = run(capsys, "ep", "--n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ep"] == doc["ep_formula"] == 8
    assert doc["kp"] == doc["kp_formula"] == 4
    kernel_rows = [r for r in doc["members"] if r["kernel"]]
    assert len(kernel_rows) == 4
    assert all(r["sign"] == -1 for r in kernel_rows)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["ep", "--n", "12", "--format", "json"],
            "db87119088a8d871a6481e5074f33a2429330fe3ef5d6116d08dfb1f15fcaa5b",
        ),
        (
            ["ep", "--n", "10"],
            "559eaf10a2bdc5c954f4b867741614f605f17028cc01d9ac1a9fb26e1bc55f76",
        ),
    ],
    ids=["ep --n 12 --format json", "ep --n 10"],
)
def test_ep_output_is_pinned_byte_for_byte(capsys, argv, digest):
    # every row, its order, its per-block pairing and its sign
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ep_odd_n_exits_2(capsys):
    assert run(capsys, "ep", "--n", "5")[0] == 2


def test_spin_genus_0(capsys):
    code, out, _ = run(capsys, "spin", "--genus", "0")
    assert code == 0
    assert "upper container for H*(S(Σ_g;c))" in out
    assert "total 2" in out
    _, dim_out, _ = run(capsys, "dim", "--n", "2", "--group", "ext")
    assert out.splitlines()[1:] == dim_out.splitlines()


def test_spin_genus_2_is_n6(capsys):
    code, out, _ = run(capsys, "spin", "--genus", "2")
    assert code == 0
    assert "n = 6" in out and "total 14" in out


def test_spin_negative_genus(capsys):
    assert run(capsys, "spin", "--genus", "-1")[0] == 2


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "braidinv", "dim", "--n", "2", "--group", "ext"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total 2" in proc.stdout


def test_long_necklace_lists_without_recursion(capsys):
    # one word of 1,199 letters, under the listing limit
    code, out, _ = run(capsys, "necklace", "pi", "--lambda", "1200", "--d", "1199")
    assert code == 0
    assert out.splitlines()[-1] == "1 cycles"


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--n", str(cli.FORMULA_LIMIT + 1), "--q", "0"],
        ["dim", "--n", str(cli.FORMULA_LIMIT + 2), "--group", "ext"],
        ["dim", "--n", str(10**12), "--q", "1", "--format", "json"],
        ["spin", "--genus", str(cli.FORMULA_LIMIT // 2)],
        ["spin", "--genus", str(10**12)],
    ],
    ids=" ".join,
)
def test_oversized_formula_request_exits_4_before_any_series(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("an oversized request built a series")

    monkeypatch.setattr(product_catalog, "_label_series", refuse)
    monkeypatch.setattr(extension_catalog, "_fixed_series", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert (code, out) == (4, "")
    assert "the formula route takes n up to %d" % cli.FORMULA_LIMIT in err


def _turn_first_word(monkeypatch):
    """Make the necklace walk yield its first word, for each call, turned
    by one place, which is then not its least rotation."""
    walk = cycle_invariants.gap_necklaces

    def turned(d, total):
        for i, (gaps, p) in enumerate(walk(d, total)):
            yield (gaps[1:] + gaps[:1] if i == 0 else gaps), p

    monkeypatch.setattr(cycle_invariants, "gap_necklaces", turned)


def test_a_corrupted_walk_fails_necklace_pi_with_exit_3(capsys, monkeypatch):
    _turn_first_word(monkeypatch)
    code, out, err = run(capsys, "necklace", "pi", "--lambda", "7", "--d", "3")
    assert (code, out) == (3, "")
    assert "internal consistency failure: Pi(7, 3) listed (0, 4, 0)" in err
    assert "minimal rotation form" in err
    # a direct call with such a word is still the caller's error
    with pytest.raises(ValueError, match="minimal rotation form"):
        InvariantCycle(7, (0, 4, 0))


def test_a_corrupted_walk_fails_the_catalog_with_exit_3(capsys, monkeypatch):
    _turn_first_word(monkeypatch)
    caches = (
        enumerate_Pi,
        product_catalog._word_count,
        product_catalog._block_counts,
        product_catalog._catalog_products,
    )
    for cache in caches:
        cache.cache_clear()
    try:
        code, out, err = run(capsys, "dim", "--n", "7", "--q", "3", "--method", "catalog")
    finally:
        for cache in caches:
            cache.cache_clear()
    assert (code, out) == (3, "")
    assert re.search(r"internal consistency failure: Pi\(\d+, \d+\) listed", err)


def test_out_of_order_pool_tuples_fail_the_catalog_with_exit_3(capsys, monkeypatch):
    real = product_catalog._block_tuples

    def reversed_tuples(v, m, cap):
        return (combo[::-1] for combo in real(v, m, cap))

    monkeypatch.setattr(product_catalog, "_block_tuples", reversed_tuples)
    caches = (
        product_catalog._block_assignments,
        product_catalog._block_counts,
        product_catalog._catalog_products,
    )
    for cache in caches:
        cache.cache_clear()
    try:
        code, out, err = run(capsys, "dim", "--n", "6", "--q", "3", "--method", "catalog")
        with pytest.raises(InternalConsistencyError, match="out of canonical order"):
            enumerate_generators(6, 3)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert (code, out) == (3, "")
    assert "internal consistency failure: the catalog's block (" in err
    assert "cycles out of canonical order inside a block" in err


def test_out_of_order_fixed_tuples_fail_ep_with_exit_3(capsys, monkeypatch):
    real = extension_catalog._fixed_blocks

    def reversed_tuples(v, m):
        return tuple((cycles[::-1], k) for cycles, k in real(v, m))

    monkeypatch.setattr(extension_catalog, "_fixed_blocks", reversed_tuples)
    extension_catalog._ep_members.cache_clear()
    try:
        code, out, err = run(capsys, "ep", "--n", "8")
    finally:
        extension_catalog._ep_members.cache_clear()
    assert (code, out) == (3, "")
    assert "internal consistency failure: EP(8) listed (" in err
    assert "cycles out of canonical order inside a block" in err


def test_a_turned_selfdual_word_fails_necklace_selfdual_with_exit_3(
    capsys, monkeypatch
):
    # each self-dual word is kept turned by one place off its least rotation
    def turned(word):
        least, count = min_rotation(word)
        return least[1:] + least[:1], count

    monkeypatch.setattr(cycle_invariants, "min_rotation", turned)
    cycle_invariants.enumerate_selfdual.cache_clear()
    try:
        code, out, err = run(capsys, "necklace", "selfdual", "--d", "6")
    finally:
        cycle_invariants.enumerate_selfdual.cache_clear()
    assert (code, out) == (3, "")
    assert "internal consistency failure: selfdual(6) listed (" in err
    assert "minimal rotation form" in err


def test_dim_ext_exits_3_on_an_odd_trace(capsys, monkeypatch):
    real = extension_catalog._fixed_series

    def odd_trace(n, signed):
        series = Counter(real(n, signed))
        series[n - 1] += signed  # one more label of sign +1, in the trace only
        return series

    monkeypatch.setattr(extension_catalog, "_fixed_series", odd_trace)
    code, out, err = run(capsys, "dim", "--n", "4", "--group", "ext")
    assert (code, out) == (3, "")
    assert "internal consistency failure: odd orbit count" in err


def test_formula_limit_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "FORMULA_LIMIT", 6)
    assert run(capsys, "dim", "--n", "6", "--group", "ext")[0] == 0
    assert run(capsys, "spin", "--genus", "2")[0] == 0
    assert run(capsys, "dim", "--n", "7", "--q", "3")[0] == 4
    assert run(capsys, "spin", "--genus", "3")[0] == 4
    # the catalog route lists, and is not gated by the formula limit
    assert run(capsys, "dim", "--n", "7", "--q", "3", "--method", "catalog")[0] == 0


def _refuse_listing(monkeypatch):
    def refuse(*args):
        raise AssertionError("an oversized request listed labels or tuples")

    monkeypatch.setattr(product_catalog, "_block_counts", refuse)
    monkeypatch.setattr(extension_catalog, "_ep_members", refuse)
    monkeypatch.setattr(cli, "_ep_members", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["ep", "--n", "40"],
        ["ep", "--n", str(10**12)],
        ["dim", "--n", "20", "--q", "10", "--method", "catalog"],
        ["dim", "--n", "46", "--q", "0", "--method", "catalog"],
        ["dim", "--n", str(10**12), "--q", "1", "--method", "catalog"],
        ["dim", "--n", "18", "--group", "ext", "--method", "catalog"],
    ],
    ids=" ".join,
)
def test_oversized_catalog_request_exits_4_before_listing(capsys, monkeypatch, argv):
    _refuse_listing(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert (code, out) == (4, "")
    assert "more than %d items" % cli.CATALOG_LISTING_LIMIT in err


def test_catalog_at_small_weight_answers_past_the_old_timeout(capsys):
    # it pooled words of every weight, and ran past 20 s
    code, out, _ = run(capsys, "dim", "--n", "24", "--q", "3", "--method", "catalog")
    assert code == 0
    assert out.splitlines()[-1] == "total 3586"


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--n", "8", "--q", "3", "--method", "catalog"],
        ["dim", "--n", "8", "--group", "ext", "--method", "catalog"],
        ["ep", "--n", "8"],
    ],
    ids=" ".join,
)
def test_catalog_limit_counts_partitions_words_and_labels(capsys, monkeypatch, argv):
    # the work, counted here by listing: every partition of 8, every word of
    # the pools the listing reads and every label it lists
    q = 3 if "--q" in argv else 4
    top = 3 if "--q" in argv else 8
    words = sum(len(enumerate_Pi(v, d)) for v in range(1, 9) for d in range(min(v, top) + 1))
    labels = len(enumerate_EP(8))
    if argv[0] == "dim":
        labels = len(enumerate_generators(8, q)) + (labels if "ext" in argv else 0)
    work = len(all_partitions(8)) + words + labels
    monkeypatch.setattr(cli, "CATALOG_LISTING_LIMIT", work)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "CATALOG_LISTING_LIMIT", work - 1)
    assert run(capsys, *argv)[0] == 4


@pytest.mark.parametrize(
    "first, second",
    [
        (["dim", "--n", "6", "--q", "2", "--degree", "3"], ["dim", "--n", "6", "--q", "2"]),
        (["dim", "--n", "6", "--q", "2", "--format", "json"], ["spin", "--genus", "2"]),
        (
            ["verify", "--n", "4", "--group", "ext", "--workers", "1"],
            ["verify", "--n", "4", "--group", "ext"],
        ),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_parser_built_once_keeps_no_state_between_calls(capsys, first, second):
    # the parser is cached for the process; each of two calls in a row must
    # print what the same call prints in a fresh process
    in_process = [run(capsys, *first)[:2], run(capsys, *second)[:2]]
    fresh = []
    for argv in (first, second):
        proc = subprocess.run(
            [sys.executable, "-m", "braidinv", *argv], capture_output=True, text=True
        )
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert cli._build_parser() is cli._build_parser()


HUGE = 10**15


def _ints(answered, refused=None):
    """Integers from -3 to answered, which the command answers in well
    under a second, negative ones down to -HUGE and, when refused is
    given, ones from there to HUGE, which it must refuse."""
    parts = [st.integers(-3, answered), st.integers(-HUGE, -1)]
    if refused is not None:
        parts.append(st.integers(refused, HUGE))
    return st.one_of(*parts)


# every integer, the small ones drawn often
ANY_INT = st.one_of(st.integers(-3, 24), st.integers(-HUGE, HUGE))


@st.composite
def cli_argv(draw):
    """A command with drawn integer options, and a drawn --format, last,
    where the command takes one.

    Accepted formula sizes stop at n = 40, to keep tier-1 short: they are
    bounded by cli.FORMULA_LIMIT but take seconds near the bound.
    Self-dual listings draw every d the listing limit accepts, up to
    d = 20, the largest, which answers in about a second.  The catalog
    route draws n up to 30, where every size it accepts answers in about
    1 s, and from 46 on, where p(n) alone passes
    cli.CATALOG_LISTING_LIMIT; between the two it accepts sizes at small q
    that take 2-3 s.  ep accepts nothing past n = 18.  necklace pi draws --lambda up to 40 and from the listing limit
    on, where any listing it accepts holds at most one letter: between the
    two, a --d just under --lambda makes the listing walk and its rotation
    check grow much faster than the letter count that limit bounds.
    """

    def opt(name, values):
        return [name, str(draw(values))]

    def maybe(name, values):
        return opt(name, values) if draw(st.booleans()) else []

    def format_option(*formats):
        return maybe("--format", st.sampled_from(formats))

    group = ["--group", draw(st.sampled_from(["prod", "ext"]))]
    command = draw(
        st.sampled_from(["dim", "catalog", "verify", "ep", "spin", "pi", "selfdual"])
    )
    if command == "dim":
        n = _ints(40, cli.FORMULA_LIMIT + 1)
        return ["dim", *opt("--n", n), *maybe("--q", ANY_INT), *group,
                *maybe("--degree", ANY_INT), *format_option("table", "json", "csv")]
    if command == "catalog":
        return ["dim", *opt("--n", _ints(30, 46)), *maybe("--q", ANY_INT), *group,
                "--method", "catalog", *maybe("--degree", ANY_INT),
                *format_option("table", "json", "csv")]
    if command == "verify":
        long_running = ["--long"] if draw(st.booleans()) else []
        return ["verify", *opt("--n", ANY_INT), *maybe("--q", ANY_INT), *group,
                *maybe("--workers", st.integers(-3, 3)), *long_running]
    if command == "ep":
        return ["ep", *opt("--n", _ints(18, 19)),
                *format_option("table", "json")]
    if command == "spin":
        genus = _ints(19, cli.FORMULA_LIMIT // 2)
        return ["spin", *opt("--genus", genus), *maybe("--degree", ANY_INT),
                *format_option("table", "json", "csv")]
    if command == "pi":
        lam = _ints(40, cli.NECKLACE_LISTING_LIMIT + 2)
        return ["necklace", "pi", *opt("--lambda", lam), *opt("--d", ANY_INT)]
    return ["necklace", "selfdual", *opt("--d", _ints(20, 21))]


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(cli_argv())
def test_fuzzed_integer_options_exit_0_2_or_4(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 4), (argv, err.getvalue()[-2000:])
    if code == 0 and argv[-2:] == ["--format", "json"]:
        # every JSON answer is what json's own indented encoder gives
        assert json.dumps(json.loads(out.getvalue()), indent=2) + "\n" == out.getvalue()
