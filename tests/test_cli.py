import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicdist
from padicdist import suites
from padicdist.cli import main
from padicdist.distalg import Distribution
from padicdist.groupmodel import GroupModel


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def b1_file(tmp_path):
    path = tmp_path / "b1.dist"
    code, out, _ = run_cli(
        ["expand", "--group", "heisenberg:5", "--monomial", "1,0,0"]
    )
    assert code == 0
    path.write_text(out)
    return str(path)


class TestExpand:
    def test_dirac(self):
        code, out, _ = run_cli(
            ["expand", "--group", "heisenberg:5", "--elem", "1,1,0", "-T", "6"]
        )
        assert code == 0
        assert out.startswith("group=heisenberg:5 ")
        assert "1,1,0 : 0:1:" in out

    def test_needs_elem_or_monomial(self):
        code, _, err = run_cli(["expand", "--group", "heisenberg:5"])
        assert code == 2 and "elem" in err

    def test_unknown_group(self):
        code, _, _ = run_cli(["expand", "--group", "frobnitz:5", "--elem", "1"])
        assert code == 2

    def test_rational_T_is_floored(self):
        args = ["expand", "--group", "heisenberg:5", "--elem", "1,1,0", "-T"]
        code_a, out_a, _ = run_cli(args + ["13/2"])
        code_b, out_b, _ = run_cli(args + ["6"])
        assert code_a == code_b == 0
        assert out_a == out_b and " T=6/1 " in out_a

    def test_negative_T_is_a_usage_error(self):
        code, out, err = run_cli(["expand", "--group", "abelian:2:5", "--elem", "3,7",
                                  "-T", "-1"])
        assert code == 2 and out == ""
        assert err == "error: truncation weight T must be >= 0, got -1\n"


class TestNorm:
    def test_b1_at_half(self, b1_file):
        code, out, _ = run_cli(["norm", "--in", b1_file, "--r", "1/2"])
        assert code == 0
        assert out.strip() == "p^-1/2 .. p^-1/2"

    def test_invalid_radius(self, b1_file):
        for bad in ("3/2", "0", "-1/2", "0.5"):
            code, _, _ = run_cli(["norm", "--in", b1_file, "--r", bad])
            assert code == 2

    def test_missing_file(self, tmp_path):
        code, _, _ = run_cli(["norm", "--in", str(tmp_path / "no.dist"), "--r", "1/2"])
        assert code == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.dist"
        path.write_text("this is not a distribution\n")
        code, _, err = run_cli(["norm", "--in", str(path), "--r", "1/2"])
        assert code == 3 and "parse" in err

    def test_zero_denominator_is_a_parse_error(self, tmp_path):
        code, out, _ = run_cli(
            ["expand", "--group", "heisenberg:5", "--elem=-1,1,0", "-T", "4"])
        assert code == 0 and " T=4/1 " in out and " tail=p^0 " in out
        for old, new in ((" T=4/1 ", " T=1/0 "), (" tail=p^0 ", " tail=p^1/0 ")):
            path = tmp_path / "bad.dist"
            path.write_text(out.replace(old, new))
            code, _, err = run_cli(["norm", "--in", str(path), "--r", "1/2"])
            assert code == 3 and err.startswith("parse error: "), err

    def test_bad_header_precision_is_a_parse_error(self, tmp_path, b1_file):
        text = Path(b1_file).read_text()
        assert " N=12 " in text
        for new in (" N=0 ", " N=7 N=12 "):
            path = tmp_path / "bad.dist"
            path.write_text(text.replace(" N=12 ", new))
            code, _, err = run_cli(["norm", "--in", str(path), "--r", "1/2"])
            assert code == 3 and err.startswith("parse error: "), err

    def test_negative_dimension_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.dist"
        path.write_text("group=abelian:-1:5 p=5 N=12 T=4/1 tail=0 exact=1\n")
        code, out, err = run_cli(["norm", "--in", str(path), "--r", "1/2"])
        assert code == 3 and out == "" and err.startswith("parse error: "), err

    @pytest.mark.parametrize("header", [
        "group=heisenberg:4 p=4 N=12 T=4/1 tail=0 exact=1",
        "group=abelian:1:9 p=9 N=12 T=4/1 tail=0 exact=1",
    ])
    def test_non_prime_p_is_a_parse_error(self, tmp_path, header):
        path = tmp_path / "bad.dist"
        path.write_text(header + "\n")
        code, out, err = run_cli(["norm", "--in", str(path), "--r", "1/2"])
        assert code == 3 and out == "" and err.startswith("parse error: "), err
        assert "prime" in err

    def test_non_prime_group_argument_stays_a_usage_error(self):
        code, _, err = run_cli(["expand", "--group", "heisenberg:4", "--elem", "1,0,0"])
        assert (code, err) == (2, "error: prime must be odd and >= 3, got 4\n")

    def test_exact_file_with_head_error_is_a_parse_error(self, tmp_path):
        # an exact head has no error: the file's norm at s = 1 would read
        # 0 .. p^0, and its products p^0 .. p^0, with err= dropped
        path = tmp_path / "bad.dist"
        path.write_text("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1 err=p^0\n"
                        "0 : 0:1:12\n")
        code, out, err = run_cli(["norm", "--in", str(path), "--r", "1"])
        assert code == 3 and out == "" and err.startswith("parse error: "), err

class TestMulSymbolThreshold:
    def test_mul(self, b1_file):
        code, out, _ = run_cli(["mul", b1_file, b1_file])
        assert code == 0
        assert "2,0,0 : 0:1:" in out

    def test_symbol(self, b1_file):
        code, out, _ = run_cli(["symbol", "--in", b1_file, "--r", "1/2"])
        assert code == 0
        assert out.splitlines() == ["1*X1", "degree = 1/2"]

    def test_rthresh(self, b1_file):
        code, out, _ = run_cli(["rthresh", "--in", b1_file])
        assert code == 0 and "s = 1" in out


class TestGrade:
    def test_full_ideal(self):
        for gens in (["X1", "X2", "X3"],
                     ["X1^2+e0*X2", "X2^2*X3+e0^2*X1", "X3^2*e0+X1*X2"]):
            code, out, _ = run_cli(
                ["grade", "--group", "heisenberg:5", "--r", "1/2", *gens]
            )
            assert code == 0 and out.strip() == "grade = 3"

    def test_negative_e0_rejected_as_input(self):
        code, _, _ = run_cli(
            ["grade", "--group", "heisenberg:5", "--r", "1/2", "1*e0^-1*X1"]
        )
        assert code == 3

    @pytest.mark.parametrize("group, gens, want", [
        ("abelian:1:5", [f"X1^{2**70}"], "grade = 1"),
        ("heisenberg:5", [f"X1^{2**70}+e0*X2", "X2^2*X3+e0^2*X1"], "grade = 2"),
    ])
    def test_exponents_past_64_bits(self, group, gens, want):
        code, out, _ = run_cli(["grade", "--group", group, "--r", "1/2", *gens])
        assert code == 0 and out.strip() == want


class TestMahlerPair:
    def test_table(self):
        code, out, _ = run_cli(
            ["mahler", "--group", "abelian:1:5", "--fn", "power1p:0", "--cap", "6"]
        )
        assert code == 0 and out.startswith("mahler p=5 d=1 ")

    def test_pair(self, tmp_path):
        code, out, _ = run_cli(["expand", "--group", "abelian:1:5", "--elem", "2"])
        assert code == 0
        path = tmp_path / "g.dist"
        path.write_text(out)
        code, out, _ = run_cli(
            ["pair", "--in", str(path), "--fn", "coordinate:0", "--cap", "6"]
        )
        assert code == 0 and out.splitlines()[0] == "value = 0:2:12"

    @pytest.mark.parametrize("fn", ["coordinate:0:9", "constant:3:4", "power1p:0:junk",
                                    "monomial:1:9", "indicator:1:1:5"])
    def test_trailing_fields_are_a_usage_error(self, tmp_path, fn):
        # not paired with the function the id starts with
        code, out, _ = run_cli(["expand", "--group", "abelian:1:5", "--elem", "2"])
        assert code == 0
        path = tmp_path / "g.dist"
        path.write_text(out)
        code, out, err = run_cli(["pair", "--in", str(path), "--fn", fn, "--cap", "6"])
        assert code == 2 and out == ""
        assert "wrong number of fields" in err
        code, out, err = run_cli(["mahler", "--group", "abelian:1:5", "--fn", fn])
        assert code == 2 and out == "" and "wrong number of fields" in err

    def test_forward_differences_of_a_monomial(self):
        # x1^2 x2 = C(x1, 1) C(x2, 1) + 2 C(x1, 2) C(x2, 1)
        code, out, _ = run_cli(["mahler", "--group", "abelian:2:5", "--fn", "monomial:2,1",
                                "--cap", "4"])
        assert code == 0 and out.splitlines()[1:] == ["1,1 : 0:1:12", "2,1 : 0:2:12"]


class TestProject:
    def test_exact_witness(self, tmp_path):
        # delta_{(3,3,0)} is finite at T = 6: its one point, mod p
        code, out, _ = run_cli(["expand", "--group", "heisenberg:5", "--elem", "3,3,0",
                                "-T", "6"])
        assert code == 0
        path = tmp_path / "g.dist"
        path.write_text(out)
        code, out, err = run_cli(["project", "--in", str(path), "--level", "1"])
        assert (code, out, err) == (0, "3,3,0 : 0:1:15\n", "")

    def test_needs_an_exact_witness(self, tmp_path):
        # delta_{(1,2,7)} does not end at T = 6, so its file is inexact
        code, out, _ = run_cli(["expand", "--group", "heisenberg:5", "--elem", "1,2,7",
                                "-T", "6"])
        assert code == 0
        path = tmp_path / "g.dist"
        path.write_text(out)
        code, out, err = run_cli(["project", "--in", str(path), "--level", "1"])
        assert code == 2 and out == ""
        assert "finite-level projection needs an exact Dirac witness" in err


def expanded(tmp_path, name, group, *how):
    """A distribution file written by `expand` at N = 4."""
    code, out, _ = run_cli(["expand", "--group", group, *how, "-N", "4"])
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return str(path)


class TestBasisConjQnorm:
    def test_basis(self, tmp_path):
        # delta_{h1 h2} is exactly 1 + b'2 in the basis (h1, h1 h2, h3): the
        # point (1, 1, 0) is (0, 1, 0) in that chart, an exact image
        h = expanded(tmp_path, "h.dist", "heisenberg:5", "--elem", "1,1,0", "-T", "2")
        code, out, _ = run_cli(["basis", "--in", h, "--basis", "1,0,0;1,1,0;0,0,1"])
        assert code == 0
        assert out == (
            "group=heisenberg:5 p=5 N=4 T=2/1 tail=0 exact=1\n"
            "0,0,0 : 0:1:6\n0,1,0 : 0:1:6\n")

    def test_conj_elem(self, tmp_path):
        h = expanded(tmp_path, "h.dist", "heisenberg:5", "--elem", "1,1,0", "-T", "3")
        code, out, _ = run_cli(["conj", "--in", h, "--elem", "1,0,1"])
        assert code == 0
        assert out == (
            "group=heisenberg:5 p=5 N=4 T=3/1 tail=p^0 exact=0\n"
            "0,0,0 : 0:1:6\n0,0,1 : 1:1:6\n0,0,2 : 1:2:6\n0,0,3 : 1:2:6\n"
            "0,1,0 : 0:1:6\n0,1,1 : 1:1:6\n0,1,2 : 1:2:6\n1,0,0 : 0:1:6\n"
            "1,0,1 : 1:1:6\n1,0,2 : 1:2:6\n1,1,0 : 0:1:6\n1,1,1 : 1:1:6\n")

    def test_conj_sigma(self, tmp_path):
        # sigma(delta_2) = delta_{-2}: the binomials C(-2, k) = (-1)^k (k + 1)
        s = expanded(tmp_path, "s.dist", "semidirect:5", "--elem", "2", "-T", "3")
        code, out, _ = run_cli(["conj", "--in", s, "--sigma"])
        assert code == 0
        assert out == (
            "group=semidirect:5 p=5 N=4 T=3/1 tail=p^0 exact=0\n"
            "0 : 0:1:6\n1 : 0:15623:6\n2 : 0:3:6\n3 : 0:15621:6\n")

    def test_qnorm(self, tmp_path):
        # max(|b^2|, |b|) at s = 1/2
        b2 = expanded(tmp_path, "b2.dist", "semidirect:5", "--monomial", "2", "-T", "3")
        b1 = expanded(tmp_path, "b1.dist", "semidirect:5", "--monomial", "1", "-T", "3")
        code, out, _ = run_cli(["qnorm", b2, b1, "--r", "1/2"])
        assert code == 0 and out == "p^-1/2 .. p^-1/2\n"

    def test_conj_needs_elem_or_sigma(self, tmp_path):
        s = expanded(tmp_path, "s.dist", "semidirect:5", "--elem", "2", "-T", "3")
        code, out, err = run_cli(["conj", "--in", s])
        assert code == 2 and out == "" and "--elem or --sigma" in err

    def test_basis_needs_d_rows(self, tmp_path):
        h = expanded(tmp_path, "h.dist", "heisenberg:5", "--elem", "1,1,0", "-T", "2")
        code, out, err = run_cli(["basis", "--in", h, "--basis", "1,0,0;0,1,0"])
        assert code == 2 and out == "" and "basis needs 3 elements" in err


class TestVerify:
    def test_single_suite_passes(self):
        code, out, _ = run_cli(["verify", "lemma44"])
        assert code == 0
        assert "suite lemma44: PASS" in out

    def test_deterministic_under_seed(self):
        a = run_cli(["verify", "lemma412", "--seed", "3", "--samples", "5"])
        b = run_cli(["verify", "lemma412", "--seed", "3", "--samples", "5"])
        assert a == b and a[0] == 0

    def test_seed_changes_witnesses(self):
        # same checks, possibly different witness text; still deterministic
        a = run_cli(["verify", "thm45-mult", "--seed", "1", "--samples", "5"])
        b = run_cli(["verify", "thm45-mult", "--seed", "2", "--samples", "5"])
        assert a[0] == b[0] == 0

    def test_tsv_format(self):
        code, out, _ = run_cli(["verify", "lemma44", "--format", "tsv"])
        assert code == 0
        assert all(line.split("\t")[0] == "lemma44" for line in out.strip().splitlines())

    def test_suites_at_p3(self):
        # their expectations derive from p: at p = 3, s = 1/2 is the tie
        # radius and X1^9 leads log(1+b1) at s = 1/8
        for suite in ("lemma44", "thm45-graded", "thm812-smooth"):
            code, out, _ = run_cli(["verify", suite, "-p", "3"])
            assert code == 0, out

    def test_rational_T_is_floored(self):
        argv = ["verify", "all", "--seed", "1", "--samples", "2", "-T"]
        code_a, out_a, _ = run_cli(argv + ["25/2"])
        code_b, out_b, _ = run_cli(argv + ["12"])
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_unknown_suite(self):
        code, _, err = run_cli(["verify", "lemma99"])
        assert code == 2 and "unknown suite" in err

    def test_p_defaults_to_the_prime_of_the_given_group(self, monkeypatch):
        argv = ["verify", "prop42", "--group", "heisenberg:7", "--samples", "2"]
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        assert run_cli(argv + ["-p", "7"]) == (code, out, err)
        primes = []
        run_suite = suites.run_suite

        def recording(name, params):
            primes.append(params.p)
            return run_suite(name, params)

        monkeypatch.setattr(suites, "run_suite", recording)
        run_cli(argv)
        run_cli(["verify", "lemma44"])
        assert primes == [7, 5]

    @pytest.mark.parametrize("suite", ["prop42", "all"])
    def test_p_that_contradicts_the_given_group_is_a_usage_error(self, suite):
        code, out, err = run_cli(["verify", suite, "-p", "7", "--group", "heisenberg:5"])
        assert code == 2 and out == ""
        assert err == "error: -p 7 contradicts --group heisenberg:5, whose prime is 5\n"

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_is_a_usage_error(self, samples):
        # not the suite defaults (0) and not vacuous zero-sample verdicts (-1)
        for suite in ("prop42", "all"):
            code, out, err = run_cli(["verify", suite, "--samples", samples])
            assert code == 2 and out == ""
            assert err == f"error: samples must be >= 1, got {samples}\n"


class TestSuitesOnGivenModels:
    """``verify <suite> --group G`` runs every check of the suite on G alone,
    with its known answers taken from G's law, or refuses G before any check
    runs when the suite's claim is not stated for G."""

    GROUPS = ["abelian:0:5", "abelian:1:5", "abelian:2:5", "abelian:3:5",
              "semidirect:5", "heisenberg:5", "heisenberg:7"]
    # the least dimension of G for each suite that asks for one: lemma41,
    # lemma44 and basis-inv speak of pairs of generators, the others of b_1
    LEAST_D = {"lemma41": 2, "lemma44": 2, "basis-inv": 2, "thm45-graded": 1,
               "lemma412": 1, "mahler-dirac": 1, "dsmooth-proj": 1, "thm812-smooth": 1}

    @classmethod
    def runs_on(cls, suite, group):
        if suite in ("amice", "prop814"):  # they take no group model
            return False
        if suite == "sect5-qnorm":  # the q-norm needs the sigma coset
            return group == "semidirect:5"
        return GroupModel.from_string(group).d >= cls.LEAST_D.get(suite, 0)

    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("suite", list(suites.SUITES))
    def test_pass_or_refuse_with_a_reason(self, suite, group):
        code, out, err = run_cli(["verify", suite, "--group", group, "--samples", "2"])
        assert "Traceback" not in out + err
        if not self.runs_on(suite, group):
            assert code == 2 and out == ""
            assert err.startswith(f"{suite} does not run on {group}: ") and err.count("\n") == 1
            return
        assert code == 0 and err == "", out
        assert f"suite {suite}: PASS" in out
        # a check named for a model kind names G's kind
        kinds = {"abelian", "heisenberg", "semidirect"}
        named = [c.split("-")[-1] for c in
                 (ln.split()[1] for ln in out.splitlines() if ln.startswith("  ["))]
        assert {k for k in named if k in kinds} <= {group.split(":")[0]}

    @pytest.mark.parametrize("suite, group, checks", [
        ("prop42", "abelian:1:5", ["submult-abelian"]),
        ("sect5-conj", "heisenberg:7", ["inner-heisenberg"]),
        ("sect5-conj", "semidirect:5", ["inner-semidirect", "sigma-on-b", "sigma-semidirect"]),
        ("basis-inv", "abelian:3:5", ["b1-reexpansion", "identity-basis", "norm-equal-abelian"]),
        ("dsmooth-proj", "heisenberg:5", ["indicator-crosscheck", "multiplicative-heisenberg"]),
    ])
    def test_checks_on_the_given_model(self, suite, group, checks):
        rep = suites.run_suite(suite, suites.SuiteParams(group=group, samples=2))
        assert sorted(c.check_id for c in rep.checks) == checks and rep.passed

    def test_checks_at_the_dimension_of_the_given_model(self):
        rep = suites.run_suite("basis-inv", suites.SuiteParams(group="heisenberg:5", samples=2))
        assert [c.witness for c in rep.checks if c.check_id == "b1-reexpansion"] == \
            ["b1 in basis (h1h3, h2, h3): leading terms b'1 - b'3 - b'1b'3"]

    def test_verify_all_reports_the_suites_that_run(self):
        code, out, err = run_cli(["verify", "all", "--group", "abelian:2:5", "--samples", "2"])
        assert code == 0
        ran = [name for name in suites.SUITES if self.runs_on(name, "abelian:2:5")]
        assert [ln.split()[1][:-1] for ln in out.splitlines()
                if ln.startswith("suite ") and ln.endswith("checks)")] == ran
        assert err.splitlines() == [
            "sect5-qnorm does not run on abelian:2:5: its law has no sigma coset",
            "amice does not run on abelian:2:5: it takes no group model",
            "prop814 does not run on abelian:2:5: it takes no group model",
        ]

    def test_verify_all_exit_codes(self, monkeypatch):
        # a failed check exits 1 beside the refusals; an error of the library
        # is not a refusal, and exits 2
        orig = suites.structure_constants
        monkeypatch.setattr(suites, "structure_constants",
                            lambda model, beta, gamma, T: orig(model, gamma, beta, T))
        code, out, err = run_cli(["verify", "all", "--group", "heisenberg:5", "--samples", "2"])
        assert code == 1 and "suite lemma41: FAIL" in out and "amice does not run" in err

        def broken(model, i, T=None):
            raise suites.DistError("no logarithm here")

        monkeypatch.setattr(suites, "lie_generator", broken)
        code, out, err = run_cli(["verify", "all", "--group", "heisenberg:5", "--samples", "2"])
        assert code == 2 and out == "" and err.endswith("error: no logarithm here\n")

    def test_suites_are_declared_in_verify_all_order(self):
        # the names and anchors of the golden report, in its order
        golden = (Path(__file__).parent / "golden" / "verify_all_p5.txt").read_text()
        heads = [ln[len("suite "):-1].split(" (anchors: ")
                 for ln in golden.splitlines() if "(anchors: " in ln]
        assert [[name, s.anchor] for name, s in suites.SUITES.items()] == heads
        assert len(heads) == 14

    @pytest.mark.parametrize("suite, check, swapped", [
        ("lemma41", "b2b1-entries", "structure_constants"),
        ("lemma44", "witness-p-at-e3", "__mul__"),
    ])
    def test_known_answers_catch_swapped_factors(self, monkeypatch, suite, check, swapped):
        # b1 b2 in place of b2 b1 differs in the central coefficient, so
        # the answers taken from the law must reject it
        if swapped == "structure_constants":
            orig = suites.structure_constants
            monkeypatch.setattr(suites, "structure_constants",
                                lambda model, beta, gamma, T: orig(model, gamma, beta, T))
        else:
            orig = Distribution.__mul__
            monkeypatch.setattr(Distribution, "__mul__", lambda a, b: orig(b, a))
        rep = suites.run_suite(suite, suites.SuiteParams(group="heisenberg:5"))
        assert [c.passed for c in rep.checks if c.check_id == check] == [False]


class TestPrecisionArguments:
    @pytest.mark.parametrize("argv", [
        ["expand", "--group", "abelian:1:5", "--elem", "2"],
        ["mahler", "--group", "abelian:1:5", "--fn", "coordinate:0"],
        ["grade", "--group", "heisenberg:5", "--r", "1/2", "X1"],
        ["verify", "lemma44"],
    ])
    def test_N_zero_is_a_usage_error(self, argv):
        # -N 0 is refused, not run at the default N = 12
        code, out, err = run_cli(argv + ["-N", "0"])
        assert code == 2 and out == ""
        assert "N must be >= 1" in err and "N=0" in err


class TestEmptyValues:
    # an empty value is given, not absent: it reaches the validators
    def test_empty_T(self):
        code, out, err = run_cli(["expand", "--group", "abelian:1:5", "--elem", "2", "-T", ""])
        assert (code, out, err) == (2, "", "error: not a rational number: ''\n")

    @pytest.mark.parametrize("cmd", [["expand", "--elem", "1,1,0"], ["verify", "lemma44"]])
    def test_empty_group(self, cmd):
        code, out, err = run_cli(cmd + ["--group", ""])
        assert (code, out, err) == (2, "", "error: bad group id ''\n")

    def test_empty_radius_of_mul(self, b1_file):
        code, out, err = run_cli(["mul", b1_file, b1_file, "--r", ""])
        assert (code, out, err) == (2, "", "error: not a rational number: ''\n")


class TestOutputFile:
    @pytest.mark.parametrize("out", ["missing/x.dist", ""])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, out):
        path = str(tmp_path / out) if out else out
        code, text, err = run_cli(["expand", "--group", "abelian:2:5", "--elem", "3,7",
                                   "-T", "4", "--out", path])
        assert code == 2 and text == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_dash_is_stdout(self):
        argv = ["expand", "--group", "abelian:2:5", "--elem", "3,7", "-T", "4"]
        assert run_cli(argv + ["--out", "-"]) == run_cli(argv)


class TestUsage:
    def test_no_command(self):
        code, _, _ = run_cli([])
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2


class TestConsoleScript:
    """The installed `padicdist` script calls main() with no argv."""

    def test_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["padicdist", "verify", "lemma44"])
        assert main() == 0
        assert "suite lemma44: PASS" in capsys.readouterr().out


class TestModuleEntryPoint:
    """`python -m padicdist` runs the CLI and passes its exit code through."""

    def run_module(self, *argv):
        src = str(Path(padicdist.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [x for x in [env.get("PYTHONPATH")] if x])
        return subprocess.run([sys.executable, "-m", "padicdist", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_expand(self):
        res = self.run_module("expand", "--group", "abelian:1:5", "--elem", "2", "-T", "3")
        assert res.returncode == 0
        assert res.stdout.startswith("group=abelian:1:5 ")

    def test_usage_error(self):
        res = self.run_module("frobnicate")
        assert res.returncode == 2
