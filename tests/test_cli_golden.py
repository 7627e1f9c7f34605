"""CLI output pinned byte for byte on a fixed command set.

Each case runs `dompoly <argv>` in a fresh working directory and compares
stdout, and every file the command exported, with the recordings under
tests/data/cli_golden/.  A refactor that is meant to keep behaviour must
keep these bytes.  When an output change is intended, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/data/cli_golden/ with the change.
"""

import os
import pathlib
import shutil
import sys
import tempfile
from io import StringIO

import pytest

from dompoly.cli import EXIT_OK, main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden"

CASES = {
    "poly_friendship_all": ["poly", "--family", "friendship:2", "--method", "all"],
    "poly_graph6_all": ["poly", "--graph6", "Ch", "--method", "all"],
    "poly_book_json": ["poly", "--family", "book:3", "--method", "all",
                       "--format", "json"],
    "poly_cycle_csv": ["poly", "--family", "cycle:7", "--method", "all",
                       "--format", "csv"],
    "roots_friendship_text": ["roots", "--family", "friendship:3"],
    "roots_book_json": ["roots", "--family", "book:2", "--format", "json",
                        "--precision", "128"],
    "roots_graph6_csv": ["roots", "--graph6", "Cl", "--format", "csv"],
    "roots_real_only": ["roots", "--family", "friendship:6", "--real-only"],
    "roots_real_only_csv": ["roots", "--family", "friendship:6", "--real-only",
                            "--format", "csv"],
    "roots_star15_json": ["roots", "--family", "star:15", "--format", "json"],
    "limits_text": ["limits", "--family", "friendship", "--n-max", "4",
                    "--precision", "128"],
    "limits_trace_csv": ["limits", "--family", "friendship", "--n-max", "2",
                         "--method", "trace", "--grid=-3:1:-2:2",
                         "--resolution", "24", "--precision", "128",
                         "--export", "csv", "--output-dir", "out"],
    "limits_friendship_csv": ["limits", "--family", "friendship", "--n-max", "3",
                              "--samples", "33", "--precision", "128",
                              "--export", "csv", "--output-dir", "out"],
    "limits_book_json": ["limits", "--family", "book", "--n-max", "2",
                         "--samples", "17", "--precision", "128",
                         "--export", "json", "--output-dir", "out"],
    "equiv_order4": ["equiv", "--order", "4"],
    "equiv_order5_json": ["equiv", "--order", "5", "--format", "json"],
    "verify": ["verify"],
}


def _files(root: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run(argv, workdir: pathlib.Path) -> tuple[int, bytes, dict[str, bytes]]:
    """(exit code, stdout, {relative path: content}) of one CLI run."""
    old_cwd, old_stdout = os.getcwd(), sys.stdout
    sys.stdout = buf = StringIO()
    os.chdir(workdir)
    try:
        code = main(list(argv))
    finally:
        os.chdir(old_cwd)
        sys.stdout = old_stdout
    return code, buf.getvalue().encode("utf-8"), _files(workdir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, out, files = _run(CASES[name], tmp_path)
    assert code == EXIT_OK
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    recorded = GOLDEN / name
    assert files == (_files(recorded) if recorded.is_dir() else {})


def record() -> None:
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, out, files = _run(argv, pathlib.Path(tmp))
        if code != EXIT_OK:
            raise SystemExit(f"{name}: exit {code}")
        GOLDEN.mkdir(parents=True, exist_ok=True)
        (GOLDEN / f"{name}.out").write_bytes(out)
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for rel, content in files.items():
            target = GOLDEN / name / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)


if __name__ == "__main__":
    record()
