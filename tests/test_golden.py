"""`verify all` reports compared byte for byte with committed captures.

The files under tests/golden/ were written by

    python -m padicdist verify all --seed 1 --samples 2 -p P            (P = 3, 5, 7)
    python -m padicdist verify all --seed 1 --samples 2 --format tsv    (p = 5)

A refactor that changes any verdict, witness or detail line fails here.
"""

import io
import sys
from pathlib import Path

import pytest

from padicdist.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify_all_p3.txt", ["-p", "3"]),
    ("verify_all_p5.txt", ["-p", "5"]),
    ("verify_all_p7.txt", ["-p", "7"]),
    ("verify_all_p5.tsv", ["--format", "tsv"]),
]


@pytest.mark.parametrize("name,extra", CASES, ids=[c[0] for c in CASES])
def test_verify_all_report_is_unchanged(name, extra):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(["verify", "all", "--seed", "1", "--samples", "2", *extra])
    finally:
        sys.stdout = old
    assert code == 0
    assert out.getvalue() == (GOLDEN / name).read_text()
