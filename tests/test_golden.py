"""Byte-stability of the command line against recorded outputs.

`golden_cli.json` lists small invocations, the input files they read and
the exit code, stdout and stderr the program produced for each when they
were recorded.  The recorded outputs are the program's own: this test
catches any change in what the command line prints, not a wrong answer.
Only the wall time of the human rendering, `(N.NN s)`, is masked, and the
scratch directory is written `{tmp}`.

After a deliberate change of output, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from bandgroup.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
_WALL_TIME = re.compile(r"\(\d+\.\d\d s\)")


def _run(case: dict) -> dict:
    """Exit code, stdout, stderr and written files of one case, as recorded."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case["files"].items():
            Path(tmp, name).write_text(text)
        argv = [arg.replace("{tmp}", tmp) for arg in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        # argparse wraps its usage lines to the terminal width
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        written = {
            name: Path(tmp, name).read_text() for name in case.get("written", {})
        }

        def masked(text: str) -> str:
            return _WALL_TIME.sub("(T s)", text.replace(tmp, "{tmp}"))

        return {"exit": code, "stdout": masked(out.getvalue()),
                "stderr": masked(err.getvalue()), "written": written}


def _cases() -> list[dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["name"])
def test_output_is_unchanged(case):
    got = _run(case)
    assert got["exit"] == case["exit"]
    assert got["stdout"] == case["stdout"]
    assert got["stderr"] == case["stderr"]
    assert got["written"] == case.get("written", {})


def test_every_subcommand_and_family_is_covered():
    cases = _cases()
    commands = {next(a for a in c["argv"] if a != "--json") for c in cases}
    assert commands == {"verify", "scan", "eq", "perm", "hurwitz", "factorize",
                        "checkprop", "export"}
    for family in ("thm1", "thm2", "combing", "sec4", "cosets", "block"):
        runs = [c for c in cases
                if "verify" in c["argv"] and family in c["argv"] and c["exit"] == 0]
        assert {"--json" in c["argv"] for c in runs} == {True, False}, family
    for family in ("thm1", "thm2", "sec4"):
        assert any(c["argv"][c["argv"].index("--family") + 1] == family
                   for c in cases if "--family" in c["argv"] and c["exit"] == 0), family


def _record() -> None:
    cases = _cases()
    for case in cases:
        got = _run(case)
        case.update(exit=got["exit"], stdout=got["stdout"], stderr=got["stderr"])
        if got["written"]:
            case["written"] = got["written"]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"recorded {len(cases)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
