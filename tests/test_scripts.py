import importlib.util
import itertools
import re
from pathlib import Path

import pytest

from braidinv import character_oracle, cli
from braidinv.character_oracle import GroupSpec
from braidinv.core_combinatorics import PoincareTable

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def exit_code(script, argv):
    """Load a script by path and run its main, as its command line would."""
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / (script + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        return module.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "script,argv,code",
    [
        ("dimension_tables", ["--max-n", "6"], 0),
        ("cross_validate", ["--max-n", "4"], 0),
        ("cross_validate", ["--workers", "0"], 2),
        ("cross_validate", ["--max-n", "25"], 2),
        ("dimension_tables", ["--max-n", "93"], 2),
        ("cross_validate", ["--max-n", "12"], 0),
        ("cross_validate", ["--long"], 2),
    ],
)
def test_script_exit_codes(capsys, script, argv, code):
    assert exit_code(script, argv) == code
    capsys.readouterr()


def test_cross_validate_sweeps_from_n1(capsys):
    assert exit_code("cross_validate", ["--max-n", "1"]) == 0
    out, err = capsys.readouterr()
    assert re.search(r"^product\(1,0\)  degree formula catalog oracle$", out, re.M)
    assert out.endswith("all checks passed\n")
    # the run's peak RSS ends stderr; stdout still ends with the verdict
    assert re.search(r"\npeak RSS \d+\.\d MB\n$", err)
    # beside it, the oracle's cache sizes, its products per (n, top) too
    assert re.search(
        r"^oracle cache entries: _classes \d+, _block_polynomials \d+, "
        r"_partition_products \d+$",
        err,
        re.M,
    )
    # each leg is timed once per n
    assert re.findall(r"^(.*): \d+\.\d{3} s$", err, re.M) == [
        "n=1 formula", "n=1 catalog", "n=1 oracle",
    ]


_walked = character_oracle._walked_orbits


@pytest.fixture
def cold_oracle():
    """Empty the oracle's block and product caches before and after, so
    that a patched helper is read and what it builds is not kept."""
    caches = (character_oracle._block_polynomials, character_oracle._partition_products)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize(
    "module,name,wrong,stream,message",
    [
        (
            cli,
            "oracle_tables",
            lambda n: tuple(PoincareTable(()) for _ in GroupSpec.every(n)),
            "out",
            "MISMATCH",
        ),
        (
            character_oracle,
            "_walked_orbits",
            lambda v: itertools.islice(_walked(v), 1, None),
            "err",
            "\nn=1 internal consistency failure: the orbits of the block (1, 1)"
            " cover 0 of the 1 words of weight 0",
        ),
    ],
    ids=["verify", "dropped-coset"],
)
def test_cross_validate_fails_on_a_mismatch(
    capsys, monkeypatch, cold_oracle, module, name, wrong, stream, message
):
    monkeypatch.setattr(module, name, wrong)
    assert exit_code("cross_validate", ["--max-n", "2"]) == 1
    captured = capsys.readouterr()
    assert message in getattr(captured, stream)
    assert captured.out.endswith("all checks FAILED\n")


def test_cross_validate_fails_cleanly_on_an_internal_error(
    capsys, monkeypatch, cold_oracle
):
    # a prime isotropy order on the classes of the block (2, 1), which its
    # order 2 does not divide
    class_isotropy = character_oracle._class_isotropy

    def prime(v, gaps, p):
        trivial, order, sign = class_isotropy(v, gaps, p)
        return trivial, 10**9 + 7 if v == 2 else order, sign

    monkeypatch.setattr(character_oracle, "_class_isotropy", prime)
    assert exit_code("cross_validate", ["--max-n", "2"]) == 1
    out, err = capsys.readouterr()
    assert re.search(
        r"^n=2 internal consistency failure: isotropy order \d+ does not divide "
        r"the block order \d+$",
        err,
        re.M,
    )
    assert out.endswith("all checks FAILED\n")
