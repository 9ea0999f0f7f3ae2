import importlib.util
from pathlib import Path

import pytest

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
        ("cross_validate", ["--max-n", "9"], 2),
        ("dimension_tables", ["--max-n", "93"], 2),
        ("cross_validate", ["--max-n", "10", "--long"], 0),
    ],
)
def test_script_exit_codes(capsys, script, argv, code):
    assert exit_code(script, argv) == code
    capsys.readouterr()
