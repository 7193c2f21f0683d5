"""The CLI's text surface: help, usage and error output, byte for byte.

``cli_surface.json`` holds, for each argv, the exit code, stdout and stderr
of ``padicdist.cli.main`` at a fixed terminal width of 80 columns (argparse
wraps help text to ``COLUMNS``).  It covers ``<cmd> -h`` and a call missing a
required argument for each of the 13 subcommands, ``padicdist -h``, no
arguments, an unknown command, and argparse errors raised inside a subcommand
and at the top level.  argparse's wording differs between Python versions,
so the recorded text is compared only under the version that recorded it.
"""

import argparse
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from padicdist.cli import COMMANDS, _parse_args, build_parser, main

SURFACE = json.loads((Path(__file__).parent / "cli_surface.json").read_text())


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", str(SURFACE["columns"]))


def test_every_subcommand_is_pinned():
    commands = {case["argv"][0] for case in SURFACE["cases"]
                if case["argv"][1:] == ["-h"]}
    assert commands == set(COMMANDS) and len(commands) == 13


@pytest.mark.parametrize("case", SURFACE["cases"], ids=lambda c: " ".join(c["argv"]) or "(none)")
def test_surface_is_unchanged(case, columns):
    if sys.version_info[:2] != tuple(SURFACE["python"]):
        pytest.skip("argparse text recorded under Python %d.%d" % tuple(SURFACE["python"]))
    assert outcome(case["argv"]) == case


NAMESPACES = [
    (["expand", "--group", "abelian:2:5", "-N", "6", "-T", "3/2", "--elem", "1,2",
      "--out", "x.dist"],
     {"command": "expand", "group": "abelian:2:5", "N": 6, "T": "3/2", "out": "x.dist",
      "elem": "1,2", "monomial": None, "func": "cmd_expand"}),
    (["mul", "a.dist", "b.dist", "--r", "1/2"],
     {"command": "mul", "out": None, "files": ["a.dist", "b.dist"], "r": "1/2",
      "func": "cmd_mul"}),
    (["norm", "--in", "a.dist", "--r", "1/3"],
     {"command": "norm", "out": None, "infile": "a.dist", "r": "1/3", "func": "cmd_norm"}),
    (["symbol", "--in", "a.dist", "--r", "1/2", "--out", "-"],
     {"command": "symbol", "out": "-", "infile": "a.dist", "r": "1/2",
      "func": "cmd_symbol"}),
    (["pair", "--in", "a.dist", "--fn", "coordinate:0"],
     {"command": "pair", "out": None, "infile": "a.dist", "fn": "coordinate:0", "cap": 16,
      "func": "cmd_pair"}),
    (["mahler", "--group", "abelian:1:5", "--fn", "power1p:0", "--cap", "6"],
     {"command": "mahler", "group": "abelian:1:5", "N": None, "out": None,
      "fn": "power1p:0", "cap": 6, "func": "cmd_mahler"}),
    (["project", "--in", "a.dist", "--level", "2"],
     {"command": "project", "out": None, "infile": "a.dist", "level": 2,
      "func": "cmd_project"}),
    (["grade", "--group", "heisenberg:5", "--r", "1/2", "X1", "X2+e0*X3"],
     {"command": "grade", "group": "heisenberg:5", "out": None,
      "r": "1/2", "gens": ["X1", "X2+e0*X3"], "func": "cmd_grade"}),
    (["basis", "--in", "a.dist", "--basis", "1,0,0;1,1,0;0,0,1"],
     {"command": "basis", "out": None, "infile": "a.dist", "basis": "1,0,0;1,1,0;0,0,1",
      "func": "cmd_basis"}),
    (["conj", "--in", "a.dist", "--sigma"],
     {"command": "conj", "out": None, "infile": "a.dist", "elem": None, "sigma": True,
      "func": "cmd_conj"}),
    (["qnorm", "a.dist", "b.dist", "--r", "1/2"],
     {"command": "qnorm", "out": None, "files": ["a.dist", "b.dist"], "r": "1/2",
      "func": "cmd_qnorm"}),
    (["rthresh", "--in", "a.dist"],
     {"command": "rthresh", "out": None, "infile": "a.dist", "func": "cmd_rthresh"}),
    (["verify", "all", "-p", "3", "--seed", "2", "--samples", "4", "--format", "tsv"],
     {"command": "verify", "group": None, "N": None, "T": None, "out": None, "suite": "all",
      "p": 3, "seed": 2, "samples": 4, "format": "tsv", "func": "cmd_verify"}),
]


@pytest.mark.parametrize("argv, want", NAMESPACES, ids=[argv[0] for argv, _ in NAMESPACES])
def test_full_tree_namespace(argv, want):
    got = vars(build_parser().parse_args(argv))
    assert {**got, "func": got["func"].__name__} == want


def parse_outcome(parse, argv):
    """(Namespace or exit code, stdout, stderr) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


SUBCOMMAND_ARGVS = [c["argv"] for c in SURFACE["cases"] if c["argv"] and c["argv"][0] in COMMANDS]
SUBCOMMAND_ARGVS += [argv for argv, _ in NAMESPACES]
SUBCOMMAND_ARGVS += [
    # left over after the subcommand: argparse reports it at the top level
    ["norm", "--in", "a", "--r", "1/2", "--bogus"],
    ["mul", "a", "b", "c"],
    # an abbreviated option
    ["mul", "a", "b", "--ou", "x"],
    # "--" ends the options, before and among the positionals
    ["mul", "--", "a", "b"],
    ["mul", "a", "--", "b", "--r", "1/2"],
    ["grade", "--r", "1/2", "--", "-X1"],
    # a negative first coordinate in the = form, and the form argparse refuses
    ["expand", "--elem=-21,5"],
    ["expand", "--elem", "-21,5"],
    # a repeated option: the last one counts
    ["norm", "--in", "a", "--r", "1/2", "--in", "b"],
    ["verify", "lemma44", "--seed", "1", "--seed", "2"],
]


def count_parsers(monkeypatch):
    """The list to which every ArgumentParser built from now on is added."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS, ids=" ".join)
def test_pinned_calls_parse_like_the_full_tree(argv, columns):
    # under any Python version: the text, exit code and Namespace of each
    # pinned call match those of the full tree
    assert parse_outcome(_parse_args, argv) == parse_outcome(build_parser().parse_args, argv)


@pytest.mark.parametrize("argv, parsers", [
    (["norm", "--in", "a", "--r", "1/2"], 0),
    (["mul", "a", "b", "--out", "-"], 0),
    (["verify", "-h"], 14),
    (["norm", "--in", "a", "--r=1/2"], 14),
    (["norm", "--in", "a", "--r", "1/2", "--bogus"], 14),
    ([], 14),
    (["frobnicate"], 14),
])
def test_a_plain_call_builds_no_parser(argv, parsers, monkeypatch):
    # a plain call is read from COMMANDS; any other call builds the full
    # tree (the top level and its 13 subcommands) and nothing else
    built = count_parsers(monkeypatch)
    parse_outcome(_parse_args, argv)
    assert len(built) == parsers


# -- a seeded corpus of calls built from COMMANDS -------------------------------

WORDS = ("a.dist", "1/2", "heisenberg:5", "X1+e0", "-", "", "two words", "7")


def flag_value(rng, kwargs):
    if "choices" in kwargs:
        return rng.choice(kwargs["choices"])
    if kwargs.get("type") is int:
        return str(rng.randrange(30))
    return rng.choice(WORDS)


def plain_units(rng, arguments):
    """A plain call's units in a random order: each flag with its value, a
    random half of the optional flags, and the run of positionals."""
    units = []
    for flags, kwargs in arguments:
        if not flags[0].startswith("-"):
            n = {None: 1, 2: 2, "+": rng.randint(1, 3)}[kwargs.get("nargs")]
            units.append(("run", [rng.choice(WORDS[:5]) for _ in range(n)]))
        elif kwargs.get("required") or rng.random() < 0.5:
            value = [] if kwargs.get("action") else [flag_value(rng, kwargs)]
            units.append((flags[0], [flags[0], *value]))
    rng.shuffle(units)
    return units


def flat(units):
    return [word for _, words in units for word in words]


def variants(rng, name):
    """(label, argv, plain) for calls of subcommand ``name``."""
    arguments = COMMANDS[name][2]
    options = {flags[0]: kwargs for flags, kwargs in arguments if flags[0].startswith("-")}
    positional = next((kw for flags, kw in arguments if not flags[0].startswith("-")), None)
    for _ in range(6):
        yield "plain", [name, *flat(plain_units(rng, arguments))], True
    units = plain_units(rng, arguments)
    valued = [u for u in units if u[0] in options and len(u[1]) == 2]
    flag, (_, value) = rng.choice(valued) if valued else ("--out", ("--out", "x"))
    yield "repeated", [name, *flat(units), flag, value, flag, flag_value(rng, options[flag])], True
    yield "out to stdout", [name, *flat(units), "--out", "-"], True
    yield "= form", [name, *flat(units), f"{flag}={value}"], False
    yield "abbreviated", [name, *flat(units), "--ou", "x"], False
    yield "help", [name, *flat(units), "-h"], False
    yield "dashed value", [name, *flat(units), "--out", "-x"], False
    yield "unknown flag", [name, "--bogus", *flat(units)], False
    ints = [f for f, kw in options.items() if kw.get("type") is int]
    if ints:
        yield "bad int", [name, *flat(units), rng.choice(ints), "x"], False
        # argparse reads a negative number as a value; the matcher does not
        yield "negative int", [name, *flat(units), rng.choice(ints), "-3"], False
    if "--format" in options:
        yield "bad choice", [name, *flat(units), "--format", "xml"], False
    required = [u for u in units if options.get(u[0], {}).get("required")]
    if required:
        missing = rng.choice(required)
        yield "missing required", [name, *flat(u for u in units if u is not missing)], False
    run = next((u for u in units if u[0] == "run"), None)
    if run is None:
        yield "stray positional", [name, *flat(units), "a"], False
        return
    rest = [u for u in units if u is not run]
    need = {None: 1, 2: 2, "+": 1}[positional.get("nargs")]
    yield "too few", [name, *flat(rest), *run[1][:need - 1]], False
    if positional.get("nargs") != "+":
        yield "too many", [name, *flat(rest), *run[1], "b"], False
    yield "--", [name, *flat(rest), "--", *run[1]], False
    words = run[1] + ["b"] * (2 - len(run[1]))
    yield "split", [name, *words[:1], "--out", "x", *words[1:], *flat(rest)], False


def corpus():
    rng = random.Random("cli-corpus")
    return [case for name in COMMANDS for case in variants(rng, name)]


CORPUS = corpus()


@pytest.mark.parametrize("label, argv, plain", CORPUS,
                         ids=[f"{label}: {' '.join(argv)}" for label, argv, _ in CORPUS])
def test_corpus_parses_like_the_full_tree(label, argv, plain, columns, monkeypatch):
    # a plain call builds no parser and any other the full tree, and both
    # paths give the full tree's Namespace or exit code, stdout and stderr
    built = count_parsers(monkeypatch)
    got = parse_outcome(_parse_args, argv)
    assert len(built) == (0 if plain else 14)
    assert got == parse_outcome(build_parser().parse_args, argv)


def test_corpus_covers_every_subcommand_both_ways():
    assert {argv[0] for _, argv, plain in CORPUS if plain} == set(COMMANDS)
    assert {argv[0] for _, argv, plain in CORPUS if not plain} == set(COMMANDS)


# -- every declared flag acts, or is named inert --------------------------------

# Two valid calls for each (subcommand, dest) of COMMANDS that differ in that
# dest, and whose outcomes differ.  Words in braces name the files of
# ``call_files``; {out} is an --out path, read after the call.
ACTS = {
    ("expand", "group"): ("expand --group abelian:1:5 --elem 2",
                          "expand --group abelian:1:7 --elem 2"),
    ("expand", "N"): ("expand --group abelian:1:5 --elem 2 -N 4",
                      "expand --group abelian:1:5 --elem 2 -N 6"),
    ("expand", "T"): ("expand --group abelian:1:5 --elem 2 -T 1",
                      "expand --group abelian:1:5 --elem 2 -T 2"),
    ("expand", "out"): ("expand --group abelian:1:5 --elem 2",
                        "expand --group abelian:1:5 --elem 2 --out {out}"),
    ("expand", "elem"): ("expand --group abelian:1:5 --elem 2",
                         "expand --group abelian:1:5 --elem 3"),
    ("expand", "monomial"): ("expand --group abelian:1:5 --monomial 1",
                             "expand --group abelian:1:5 --monomial 2"),
    ("mul", "out"): ("mul {a} {b}", "mul {a} {b} --out {out}"),
    ("mul", "files"): ("mul {a} {b}", "mul {b} {b}"),
    ("norm", "out"): ("norm --in {s1} --r 1/2", "norm --in {s1} --r 1/2 --out {out}"),
    ("norm", "infile"): ("norm --in {s1} --r 1/2", "norm --in {s2} --r 1/2"),
    ("norm", "r"): ("norm --in {s1} --r 1/2", "norm --in {s1} --r 1/4"),
    ("symbol", "out"): ("symbol --in {s1} --r 1/2", "symbol --in {s1} --r 1/2 --out {out}"),
    ("symbol", "infile"): ("symbol --in {s1} --r 1/2", "symbol --in {s2} --r 1/2"),
    ("symbol", "r"): ("symbol --in {s1} --r 1/2", "symbol --in {s1} --r 1/4"),
    ("pair", "out"): ("pair --in {b} --fn coordinate:0",
                      "pair --in {b} --fn coordinate:0 --out {out}"),
    ("pair", "infile"): ("pair --in {a} --fn coordinate:0", "pair --in {b} --fn coordinate:0"),
    ("pair", "fn"): ("pair --in {a} --fn coordinate:0", "pair --in {a} --fn power1p:0"),
    ("pair", "cap"): ("pair --in {a} --fn power1p:0 --cap 4",
                      "pair --in {a} --fn power1p:0 --cap 16"),
    ("mahler", "group"): ("mahler --group abelian:1:5 --fn coordinate:0 --cap 4",
                          "mahler --group abelian:1:7 --fn coordinate:0 --cap 4"),
    ("mahler", "N"): ("mahler --group abelian:1:5 --fn power1p:0 --cap 4 -N 4",
                      "mahler --group abelian:1:5 --fn power1p:0 --cap 4 -N 6"),
    ("mahler", "out"): ("mahler --group abelian:1:5 --fn coordinate:0 --cap 4",
                        "mahler --group abelian:1:5 --fn coordinate:0 --cap 4 --out {out}"),
    ("mahler", "fn"): ("mahler --group abelian:1:5 --fn coordinate:0 --cap 4",
                       "mahler --group abelian:1:5 --fn power1p:0 --cap 4"),
    ("mahler", "cap"): ("mahler --group abelian:1:5 --fn power1p:0 --cap 4",
                        "mahler --group abelian:1:5 --fn power1p:0 --cap 6"),
    ("project", "out"): ("project --in {b} --level 1", "project --in {b} --level 1 --out {out}"),
    ("project", "infile"): ("project --in {b} --level 1", "project --in {s2} --level 1"),
    ("project", "level"): ("project --in {b} --level 1", "project --in {b} --level 2"),
    ("grade", "group"): ("grade --group abelian:1:5 --r 1/2 5*X1",
                         "grade --group abelian:1:7 --r 1/2 5*X1"),
    ("grade", "out"): ("grade --group abelian:2:5 --r 1/2 X1",
                       "grade --group abelian:2:5 --r 1/2 X1 --out {out}"),
    ("grade", "gens"): ("grade --group abelian:2:5 --r 1/2 X1",
                        "grade --group abelian:2:5 --r 1/2 X1 X2"),
    ("basis", "out"): ("basis --in {b} --basis 1", "basis --in {b} --basis 1 --out {out}"),
    ("basis", "infile"): ("basis --in {a} --basis 1", "basis --in {b} --basis 1"),
    ("basis", "basis"): ("basis --in {b} --basis 1", "basis --in {b} --basis 2"),
    ("conj", "out"): ("conj --in {s1} --sigma", "conj --in {s1} --sigma --out {out}"),
    ("conj", "infile"): ("conj --in {s1} --sigma", "conj --in {s2} --sigma"),
    ("conj", "elem"): ("conj --in {h} --elem 0,0,0", "conj --in {h} --elem 1,0,1"),
    # the alternative: the one call gives --sigma, the other --elem
    ("conj", "sigma"): ("conj --in {s1} --elem 0", "conj --in {s1} --sigma"),
    ("qnorm", "out"): ("qnorm {s2} {s1} --r 1/2", "qnorm {s2} {s1} --r 1/2 --out {out}"),
    ("qnorm", "files"): ("qnorm {s1} {s1} --r 1/2", "qnorm {s2} {s2} --r 1/2"),
    ("qnorm", "r"): ("qnorm {s2} {s1} --r 1/2", "qnorm {s2} {s1} --r 1/4"),
    ("rthresh", "out"): ("rthresh --in {t}", "rthresh --in {t} --out {out}"),
    ("rthresh", "infile"): ("rthresh --in {b}", "rthresh --in {t}"),
    ("verify", "group"): ("verify lemma44 --group abelian:2:5",
                          "verify lemma44 --group heisenberg:5"),
    ("verify", "N"): ("verify lemma41 -N 1", "verify lemma41 -N 12"),
    ("verify", "T"): ("verify thm45-mult --samples 4 -T 3",
                      "verify thm45-mult --samples 4 -T 12"),
    ("verify", "out"): ("verify lemma44", "verify lemma44 --out {out}"),
    ("verify", "suite"): ("verify lemma44", "verify amice"),
    ("verify", "p"): ("verify lemma44 -p 3", "verify lemma44 -p 5"),
    ("verify", "samples"): ("verify prop42 --samples 2", "verify prop42 --samples 4"),
    ("verify", "format"): ("verify lemma44 --format text", "verify lemma44 --format tsv"),
}

# Declared values that do not yet change any outcome, each with the ROADMAP
# item that will make it act.  Their calls give identical outcomes.
INERT = {
    # the cap line of --r stays in memory: the file holds the growth-0 tail
    ("mul", "r"): ("item 7", "mul {a} {b}", "mul {a} {b} --r 1/2"),
    # a grade is read off the leads of gr D_r, which do not depend on s
    ("grade", "r"): ("item 21", "grade --group heisenberg:5 --r 1/2 X1",
                     "grade --group heisenberg:5 --r 1/4 X1"),
    # the sampled suites report counts and verdicts, not their witnesses
    ("verify", "seed"): ("item 5", "verify prop42 --samples 2 --seed 1",
                         "verify prop42 --samples 2 --seed 7"),
}

# flags of which a call gives one: a case may trade the one for the other
ALTERNATIVES = {"conj": {"elem", "sigma"}}

# every (subcommand, dest) that COMMANDS declares
DECLARED = [(name, kwargs.get("dest", flags[0].lstrip("-")))
            for name, (_, _, arguments) in COMMANDS.items() for flags, kwargs in arguments]


@pytest.fixture(scope="module")
def call_files(tmp_path_factory):
    """The files the cases read, and the --out path they write."""
    root = tmp_path_factory.mktemp("flags")
    files = {"out": str(root / "out.txt")}
    for name, argv in [("a", "--group abelian:1:5 --elem=-3"),
                       ("b", "--group abelian:1:5 --elem 7"),
                       ("s1", "--group semidirect:5 --monomial 1"),
                       ("s2", "--group semidirect:5 --monomial 2"),
                       ("h", "--group heisenberg:5 --elem 1,1,0 -N 4 -T 3")]:
        files[name] = str(root / f"{name}.dist")
        assert main(["expand", *argv.split(), "--out", files[name]]) == 0
    # 5 + b^2: its first unit coefficient sits above a non-unit, so s = 1/2
    files["t"] = str(root / "t.dist")
    Path(files["t"]).write_text("group=abelian:1:5 p=5 N=12 T=12/1 tail=0 exact=1\n"
                                "0 : 1:1:15\n2 : 0:1:16\n")
    return files


def effect(call, files):
    """(exit code, stdout, bytes of the --out file or None) of ``call``."""
    argv = [word.format(**files) for word in call.split()]
    out = Path(files["out"])
    out.unlink(missing_ok=True)
    result = outcome(argv)
    written = out.read_bytes() if out.exists() else None
    return result["exit"], result["stdout"], written


def namespace_change(call_a, call_b, files):
    """The dests at which the full tree's Namespaces of two calls differ."""
    a, b = (vars(build_parser().parse_args([w.format(**files) for w in c.split()]))
            for c in (call_a, call_b))
    return {dest for dest in a if a[dest] != b[dest]}


@pytest.mark.parametrize("command, dest", DECLARED, ids=[" ".join(k) for k in DECLARED])
def test_every_declared_flag_acts_or_is_named_inert(command, dest, call_files):
    key = (command, dest)
    covered = key in ACTS or key in INERT
    assert covered, f"{command} declares {dest}: it needs a case in ACTS or an entry in INERT"
    call_a, call_b = ACTS[key] if key in ACTS else INERT[key][1:]
    changed = namespace_change(call_a, call_b, call_files)
    assert dest in changed and changed <= {dest} | ALTERNATIVES.get(command, set())
    a, b = effect(call_a, call_files), effect(call_b, call_files)
    assert a[0] == b[0] == 0, (a, b)
    if key in ACTS:
        assert a != b
    else:
        assert a == b


def test_every_case_names_a_declared_flag():
    assert set(ACTS) | set(INERT) <= set(DECLARED) and not set(ACTS) & set(INERT)
    assert len(DECLARED) == 52
    assert sorted(INERT) == [("grade", "r"), ("mul", "r"), ("verify", "seed")]
