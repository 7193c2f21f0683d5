"""Command-line front end.

Exit codes: 0 success, 1 verification-check failure, 2 usage error,
3 parse error in an input file, 4 precision exhausted.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .padic import PadicError, PrecisionExhausted
from .groupmodel import GroupModel, ModelError
from .distalg import Distribution, RadiusParam, q_norm
from .graded import GradedAmbient, GradedError, GradedIdeal, GradedPoly, grade_cyclic
from .mahler import FunctionSpec, finite_level_project, mahler_coeffs, pair
from .serialize import (
    ParseError,
    format_normvalue,
    format_scalar,
    parse_distribution,
    serialize_distribution,
    serialize_mahler,
)
from .suites import SUITES, SuiteParams, run_suite

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
    try:
        return RadiusParam(_fraction(text))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _precision_args(args):
    """(N, T) from -N and -T, defaulting to 12 each."""
    N = args.N
    if N is None:
        N = 12
    T = _fraction(args.T or "12")
    if N < 1 or T < 0:
        raise UsageError(f"N must be >= 1 and T >= 0, got N={N} T={T}")
    return N, T


def _model_from_args(args) -> GroupModel:
    gid = args.group or "heisenberg:5"
    N, T = _precision_args(args)
    try:
        return GroupModel.from_string(gid, prec=N, max_weight=T)
    except ModelError as exc:
        raise UsageError(str(exc)) from None


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
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    s_work = _radius(args.r).s if args.r else None
    _emit(args, serialize_distribution(lam.mul(mu, s_work=s_work)))
    return EXIT_OK


def cmd_norm(args) -> int:
    dist = _load_distribution(args.infile)
    n = dist.norm(_radius(args.r))
    _emit(args, f"{format_normvalue(n.lower)} .. {format_normvalue(n.upper)}\n")
    return EXIT_OK


def cmd_symbol(args) -> int:
    dist = _load_distribution(args.infile)
    sym, deg = dist.principal_symbol(_radius(args.r))
    _emit(args, f"{sym.to_text()}\ndegree = {deg}\n")
    return EXIT_OK


def _function_spec(args, model) -> FunctionSpec:
    try:
        return FunctionSpec.parse(model.d, model.p, args.fn)
    except (PadicError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def cmd_pair(args) -> int:
    dist = _load_distribution(args.infile)
    f = _function_spec(args, dist.model)
    table = mahler_coeffs(f, args.cap, prec=dist.model.prec)
    value, err = pair(dist, table)
    _emit(args, f"value = {format_scalar(value)}\nerror <= {format_normvalue(err)}\n")
    return EXIT_OK


def cmd_mahler(args) -> int:
    model = _model_from_args(args)
    f = _function_spec(args, model)
    _emit(args, serialize_mahler(mahler_coeffs(f, args.cap, prec=model.prec)))
    return EXIT_OK


def cmd_project(args) -> int:
    dist = _load_distribution(args.infile)
    if args.level < 1:
        raise UsageError("projection level must be >= 1")
    elem = finite_level_project(dist, args.level)
    lines = [
        ",".join(str(x) for x in key) + " : " + format_scalar(c)
        for key, c in sorted(elem.coeffs.items())
    ]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_grade(args) -> int:
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
    try:
        out = dist.change_basis(basis)
    except ModelError as exc:
        raise UsageError(str(exc)) from None
    _emit(args, serialize_distribution(out))
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
    _emit(args, f"{format_normvalue(n.lower)} .. {format_normvalue(n.upper)}\n")
    return EXIT_OK


def cmd_rthresh(args) -> int:
    dist = _load_distribution(args.infile)
    s = dist.r_threshold().s
    _emit(args, f"s = {s}\nr = p^-{s}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UsageError(
                f"unknown suite {name!r}; choose from: {', '.join(SUITES)} or 'all'"
            )
    N, T = _precision_args(args)
    params = SuiteParams(
        p=args.p,
        N=N,
        T=T,
        seed=args.seed,
        group=args.group,
        samples=args.samples,
    )
    pieces = []
    ok = True
    for name in names:
        report = run_suite(name, params)
        ok = ok and report.passed
        pieces.append(report.to_text(args.format))
    _emit(args, "".join(pieces))
    return EXIT_OK if ok else EXIT_CHECK


# -- parser ------------------------------------------------------------------


def _add_common(sp, *, group=True, out=True):
    if group:
        sp.add_argument("--group", help="group id, e.g. heisenberg:5 or abelian:2:5")
        sp.add_argument("-N", type=int, help="scalar precision (window) in p-digits")
        sp.add_argument("-T", help="truncation degree, a non-negative rational "
                        "(floored: degrees are integers)")
    if out:
        sp.add_argument("--out", help="output file ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padicdist",
        description="Exact arithmetic in p-adic distribution algebras of "
        "uniform pro-p groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expand", help="expand a Dirac or monomial distribution")
    _add_common(sp)
    sp.add_argument("--elem", help="chart coordinates a1,...,ad of a group element")
    sp.add_argument("--monomial", help="exponents a1,...,ad of b^alpha")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("mul", help="convolve two distribution files")
    _add_common(sp, group=False)
    sp.add_argument("files", nargs=2, help="two distribution files")
    sp.add_argument("--r", help="radius exponent s for an extra tail certificate")
    sp.set_defaults(func=cmd_mul)

    sp = sub.add_parser("norm", help="certified r-norm interval")
    _add_common(sp, group=False)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--r", required=True, help="rational s in (0,1]; r = p^-s")
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("symbol", help="principal symbol in the graded ring")
    _add_common(sp, group=False)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--r", required=True)
    sp.set_defaults(func=cmd_symbol)

    sp = sub.add_parser("pair", help="pair a distribution with a builtin function")
    _add_common(sp, group=False)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--fn", required=True, help="builtin function id")
    sp.add_argument("--cap", type=int, default=16, help="Mahler table cap A")
    sp.set_defaults(func=cmd_pair)

    sp = sub.add_parser("mahler", help="Mahler coefficient table of a builtin function")
    _add_common(sp)
    sp.add_argument("--fn", required=True)
    sp.add_argument("--cap", type=int, default=16)
    sp.set_defaults(func=cmd_mahler)

    sp = sub.add_parser("project", help="finite-level group-algebra projection")
    _add_common(sp, group=False)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("grade", help="grade of a cyclic graded module")
    _add_common(sp)
    sp.add_argument("--r", required=True)
    sp.add_argument("gens", nargs="+", help="ideal generators, e.g. 'X1^2+4*e0*X2'")
    sp.set_defaults(func=cmd_grade)

    sp = sub.add_parser("basis", help="re-expand in another ordered basis")
    _add_common(sp, group=False)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--basis", required=True,
                    help="d elements 'a1,..,ad;b1,..,bd;...' in chart coordinates")
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("conj", help="conjugate a distribution")
    _add_common(sp, group=False)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--elem", help="conjugating element coordinates")
    sp.add_argument("--sigma", action="store_true",
                    help="use the order-2 coset representative (semidirect model)")
    sp.set_defaults(func=cmd_conj)

    sp = sub.add_parser("qnorm", help="quotient norm of a semidirect pair")
    _add_common(sp, group=False)
    sp.add_argument("files", nargs=2)
    sp.add_argument("--r", required=True)
    sp.set_defaults(func=cmd_qnorm)

    sp = sub.add_parser("rthresh", help="radius threshold of an exact integral "
                        "distribution")
    _add_common(sp, group=False)
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func=cmd_rthresh)

    sp = sub.add_parser("verify", help="run a named verification suite")
    _add_common(sp)
    sp.add_argument("suite", help="suite id or 'all'")
    sp.add_argument("-p", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--format", choices=("text", "tsv"), default="text")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
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
    except (PadicError, GradedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
