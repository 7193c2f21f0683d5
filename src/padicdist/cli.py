"""Command-line front end.

Exit codes: 0 success, 1 verification-check failure, 2 usage error,
3 parse error in an input file, 4 precision exhausted.

A plain call builds no parser: it is read against ``COMMANDS`` into the
Namespace the full tree (``build_parser``) gives it.  It is a known
subcommand, its exact flags, one value after each flag that takes one (not
starting with '-'; a lone '-' is a value) and one run of positionals of the
declared length, whose values pass their type and choices, with every
required flag.  Every other argv, help and every error included, goes to
the full tree, which prints every text.  ``graded``, ``mahler`` and
``suites`` are imported by the handlers that use them.

``verify <suite> --group G`` runs the suite's checks on G alone, at G's
prime (a ``-p`` that differs is a usage error; without G, ``-p`` defaults to
5).  A suite refuses a G it does not run on with one stderr line; ``verify
all`` prints the reports of the suites that run and exits 2 only when none
does.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .padic import PadicError, PrecisionExhausted
from .groupmodel import GroupModel, truncation
from .distalg import Distribution, RadiusParam, q_norm
from .serialize import (
    ParseError,
    format_scalar,
    parse_distribution,
    serialize_distribution,
    serialize_mahler,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECISION = 4


class UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


def _radius(text: str) -> RadiusParam:
    if "." in text:
        raise UsageError(
            f"radius exponent must be an exact rational like 1/2, got {text!r}"
        )
    return RadiusParam(_fraction(text))


def _precision_args(args):
    """(N, T) from -N and -T, defaulting to 12 each; T is floored here, once."""
    N = args.N
    if N is None:
        N = 12
    if N < 1:
        raise UsageError(f"N must be >= 1, got N={N}")
    return N, truncation(_fraction("12" if args.T is None else args.T))


def _model_from_args(args) -> GroupModel:
    gid = "heisenberg:5" if args.group is None else args.group
    N, T = _precision_args(args)
    return GroupModel.from_string(gid, prec=N, max_weight=T)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_distribution(path: str) -> Distribution:
    return parse_distribution(_read_text(path))


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from None


def _parse_coords(text: str, d: int):
    try:
        coords = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"coordinates must be integers: {text!r}") from None
    if len(coords) != d:
        raise UsageError(f"expected {d} coordinates, got {len(coords)}")
    return coords


# -- subcommand handlers -----------------------------------------------------


def cmd_expand(args) -> int:
    model = _model_from_args(args)
    if args.elem is not None:
        g = model.element(_parse_coords(args.elem, model.d))
        dist = Distribution.dirac(g)
    elif args.monomial is not None:
        alpha = _parse_coords(args.monomial, model.d)
        if any(a < 0 for a in alpha):
            raise UsageError("monomial exponents must be non-negative")
        dist = Distribution.monomial(model, alpha)
    else:
        raise UsageError("expand needs --elem or --monomial")
    _emit(args, serialize_distribution(dist))
    return EXIT_OK


def cmd_mul(args) -> int:
    lam = _load_distribution(args.files[0])
    mu = _load_distribution(args.files[1])
    s_work = None if args.r is None else _radius(args.r).s
    _emit(args, serialize_distribution(lam.mul(mu, s_work=s_work)))
    return EXIT_OK


def cmd_norm(args) -> int:
    dist = _load_distribution(args.infile)
    n = dist.norm(_radius(args.r))
    _emit(args, f"{n}\n")
    return EXIT_OK


def cmd_symbol(args) -> int:
    dist = _load_distribution(args.infile)
    sym, deg = dist.principal_symbol(_radius(args.r))
    _emit(args, f"{sym.to_text()}\ndegree = {deg}\n")
    return EXIT_OK


def cmd_pair(args) -> int:
    from .mahler import FunctionSpec, mahler_coeffs, pair

    dist = _load_distribution(args.infile)
    f = FunctionSpec.parse(dist.model.d, dist.model.p, args.fn)
    table = mahler_coeffs(f, args.cap, prec=dist.model.prec)
    value, err = pair(dist, table)
    _emit(args, f"value = {format_scalar(value)}\nerror <= {err}\n")
    return EXIT_OK


def cmd_mahler(args) -> int:
    from .mahler import FunctionSpec, mahler_coeffs

    model = _model_from_args(args)
    f = FunctionSpec.parse(model.d, model.p, args.fn)
    _emit(args, serialize_mahler(mahler_coeffs(f, args.cap, prec=model.prec)))
    return EXIT_OK


def cmd_project(args) -> int:
    from .mahler import finite_level_project

    dist = _load_distribution(args.infile)
    if args.level < 1:
        raise UsageError("projection level must be >= 1")
    elem = finite_level_project(dist, args.level)
    lines = [
        ",".join(str(x) for x in key) + " : " + format_scalar(elem.coeff(key))
        for key in sorted(elem.coeffs)
    ]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_grade(args) -> int:
    from .graded import GradedAmbient, GradedError, GradedIdeal, GradedPoly, grade_cyclic

    model = _model_from_args(args)
    s = _radius(args.r).s
    ambient = GradedAmbient(model.p, model.d, [1] * model.d, s)
    try:
        gens = [GradedPoly.parse(ambient, g) for g in args.gens]
        ideal = GradedIdeal(ambient, gens)
    except GradedError as exc:
        raise ParseError(str(exc)) from None
    _emit(args, f"grade = {grade_cyclic(ideal, model.d)}\n")
    return EXIT_OK


def cmd_basis(args) -> int:
    dist = _load_distribution(args.infile)
    model = dist.model
    rows = [r for r in args.basis.split(";") if r.strip()]
    if len(rows) != model.d:
        raise UsageError(f"basis needs {model.d} elements separated by ';'")
    basis = [model.element(_parse_coords(r, model.d)) for r in rows]
    _emit(args, serialize_distribution(dist.change_basis(basis)))
    return EXIT_OK


def cmd_conj(args) -> int:
    dist = _load_distribution(args.infile)
    if args.sigma:
        out = dist.conjugate("sigma")
    elif args.elem is not None:
        g = dist.model.element(_parse_coords(args.elem, dist.model.d))
        out = dist.conjugate(g)
    else:
        raise UsageError("conj needs --elem or --sigma")
    _emit(args, serialize_distribution(out))
    return EXIT_OK


def cmd_qnorm(args) -> int:
    lam1 = _load_distribution(args.files[0])
    lam2 = _load_distribution(args.files[1])
    n = q_norm((lam1, lam2), _radius(args.r))
    _emit(args, f"{n}\n")
    return EXIT_OK


def cmd_rthresh(args) -> int:
    dist = _load_distribution(args.infile)
    s = dist.r_threshold().s
    _emit(args, f"s = {s}\nr = p^-{s}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .suites import SUITES, SuiteParams, SuiteRefused, run_suite

    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UsageError(
                f"unknown suite {name!r}; choose from: {', '.join(SUITES)} or 'all'"
            )
    N, T = _precision_args(args)
    p = 5 if args.p is None else args.p
    if args.group is not None:
        p = GroupModel.from_string(args.group, prec=N).p
        if args.p not in (None, p):
            raise UsageError(f"-p {args.p} contradicts --group {args.group}, whose prime is {p}")
    params = SuiteParams(
        p=p,
        N=N,
        T=T,
        seed=args.seed,
        group=args.group,
        samples=args.samples,
    )
    reports = []
    for name in names:
        try:
            reports.append(run_suite(name, params))
        except SuiteRefused as exc:
            print(exc, file=sys.stderr)
    if not reports:
        return EXIT_USAGE
    _emit(args, "".join(r.to_text(args.format) for r in reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK


# -- parser ------------------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


_GROUP = (
    _arg("--group", help="group id, e.g. heisenberg:5 or abelian:2:5"),
    _arg("-N", type=int, help="scalar precision (window) in p-digits"),
    _arg("-T", help="truncation degree, a non-negative rational "
         "(floored: degrees are integers)"),
)
_OUT = _arg("--out", help="output file ('-' = stdout)")
_IN = _arg("--in", dest="infile", required=True)

# name -> (help, handler, arguments in the order they are added)
COMMANDS = {
    "expand": ("expand a Dirac or monomial distribution", cmd_expand, (
        *_GROUP, _OUT,
        _arg("--elem", help="chart coordinates a1,...,ad of a group element"),
        _arg("--monomial", help="exponents a1,...,ad of b^alpha"),
    )),
    "mul": ("convolve two distribution files", cmd_mul, (
        _OUT,
        _arg("files", nargs=2, help="two distribution files"),
        _arg("--r", help="radius exponent s for an extra tail certificate"),
    )),
    "norm": ("certified r-norm interval", cmd_norm, (
        _OUT, _IN,
        _arg("--r", required=True, help="rational s in (0,1]; r = p^-s"),
    )),
    "symbol": ("principal symbol in the graded ring", cmd_symbol, (
        _OUT, _IN, _arg("--r", required=True),
    )),
    "pair": ("pair a distribution with a builtin function", cmd_pair, (
        _OUT, _IN,
        _arg("--fn", required=True, help="builtin function id"),
        _arg("--cap", type=int, default=16, help="Mahler table cap A"),
    )),
    "mahler": ("Mahler coefficient table of a builtin function", cmd_mahler, (
        *_GROUP, _OUT,
        _arg("--fn", required=True),
        _arg("--cap", type=int, default=16),
    )),
    "project": ("finite-level group-algebra projection", cmd_project, (
        _OUT, _IN, _arg("--level", type=int, required=True),
    )),
    "grade": ("grade of a cyclic graded module", cmd_grade, (
        *_GROUP, _OUT,
        _arg("--r", required=True),
        _arg("gens", nargs="+", help="ideal generators, e.g. 'X1^2+4*e0*X2'"),
    )),
    "basis": ("re-expand in another ordered basis", cmd_basis, (
        _OUT, _IN,
        _arg("--basis", required=True,
             help="d elements 'a1,..,ad;b1,..,bd;...' in chart coordinates"),
    )),
    "conj": ("conjugate a distribution", cmd_conj, (
        _OUT, _IN,
        _arg("--elem", help="conjugating element coordinates"),
        _arg("--sigma", action="store_true",
             help="use the order-2 coset representative (semidirect model)"),
    )),
    "qnorm": ("quotient norm of a semidirect pair", cmd_qnorm, (
        _OUT, _arg("files", nargs=2), _arg("--r", required=True),
    )),
    "rthresh": ("radius threshold of an exact integral distribution", cmd_rthresh, (
        _OUT, _IN,
    )),
    "verify": ("run a named verification suite", cmd_verify, (
        *_GROUP, _OUT,
        _arg("suite", help="suite id or 'all'"),
        _arg("-p", type=int),
        _arg("--seed", type=int, default=0),
        _arg("--samples", type=int),
        _arg("--format", choices=("text", "tsv"), default="text"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser with every subcommand."""
    ap = argparse.ArgumentParser(
        prog="padicdist",
        description="Exact arithmetic in p-adic distribution algebras of "
        "uniform pro-p groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(command=name, func=func)
    return ap


def _value(kwargs, text):
    """``text`` through the declared type and choices; ValueError if refused."""
    value = kwargs.get("type", str)(text)
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(text)
    return value


def _dashed(arg):
    """Whether argparse may read ``arg`` as an option: it starts with '-'."""
    return arg.startswith("-") and arg != "-"


def _plain_call(argv):
    """The Namespace the full tree gives ``argv`` if it is a plain call (see
    the module docstring), else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    ns = {"command": argv[0]}
    flags, positional, required, given, run = {}, None, set(), set(), []
    for names, kwargs in arguments:
        if not names[0].startswith("-"):
            positional = (names[0], kwargs)
            continue
        dest = kwargs.get("dest", names[0].lstrip("-"))
        store_true = kwargs.get("action") == "store_true"
        ns[dest] = False if store_true else kwargs.get("default")
        flags[names[0]] = (dest, store_true, kwargs)
        if kwargs.get("required"):
            required.add(dest)
    i = 1
    try:
        while i < len(argv):
            if argv[i] in flags:
                dest, store_true, kwargs = flags[argv[i]]
                if store_true:
                    ns[dest] = True
                else:
                    i += 1
                    if i == len(argv) or _dashed(argv[i]):
                        return None
                    ns[dest] = _value(kwargs, argv[i])
                given.add(dest)
            elif _dashed(argv[i]) or positional is None or run and run[-1] != i - 1:
                return None
            else:
                run.append(i)
            i += 1
        if positional:
            name, kwargs = positional
            nargs = kwargs.get("nargs")
            if not run or nargs != "+" and len(run) != (nargs or 1):
                return None
            values = [_value(kwargs, argv[k]) for k in run]
            ns[name] = values if nargs else values[0]
    except ValueError:
        return None
    if not required <= given:
        return None
    return argparse.Namespace(**ns, func=func)


def _parse_args(argv):
    """The Namespace of ``argv``, as the full tree parses it."""
    return _plain_call(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (PadicError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
