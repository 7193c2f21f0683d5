"""`verify all` reports compared byte for byte with committed captures.

The files under tests/golden/ were written by

    python -m padicdist verify all --seed 1 --samples 2 -p P            (P = 3, 5, 7)
    python -m padicdist verify all --seed 1 --samples 2 --format tsv    (p = 5)

and tests/golden/mul_heisenberg_T12.dist by

    python -m padicdist expand --group heisenberg:5 -T 12 --elem 7,11,13 --out a.dist
    python -m padicdist expand --group heisenberg:5 -T 12 --elem 17,3,29 --out b.dist
    python -m padicdist mul a.dist b.dist --out mul_heisenberg_T12.dist

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


def test_heisenberg_T12_file_product_is_unchanged(tmp_path):
    # the heads read back from files carry no Dirac witness, so the product
    # decomposes both heads and expands every pair of their points
    a, b, c = (str(tmp_path / name) for name in ("a.dist", "b.dist", "c.dist"))
    for elem, path in (("7,11,13", a), ("17,3,29", b)):
        assert main(["expand", "--group", "heisenberg:5", "-T", "12",
                     "--elem", elem, "--out", path]) == 0
    assert main(["mul", a, b, "--out", c]) == 0
    with open(c, "rb") as fh:
        assert fh.read() == (GOLDEN / "mul_heisenberg_T12.dist").read_bytes()
