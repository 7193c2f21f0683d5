"""Text serialization: scalars as `v:m:N`, norm values as `p^q`, distribution
and Mahler-table files with one term per line.

A scalar reads back with its value and window.  A distribution file keeps
the head and two numbers of its enclosure, the growth-0 bound on the
unstored entries and the stored error; it drops the cap lines, the lines of
growth > 0 and the Dirac witness.

A file is checked in one pass: ``_parse_terms`` refuses a term line whose
multi-index is malformed, repeated or of degree above the header's T, or
whose scalar is, with that line's number.  ``parse_distribution`` and
``parse_mahler`` wrap the checked parts without the checks of the
``Distribution`` and ``MahlerTable`` constructors."""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .padic import NormValue, PadicError, PadicScalar, PrecisionExhausted, ppow, vp_int
from .groupmodel import GroupModel, ModelError, truncation
from .distalg import Distribution, Enclosure

if TYPE_CHECKING:
    from .mahler import MahlerTable


class ParseError(PadicError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


# -- scalars ----------------------------------------------------------------


def format_scalar(c: PadicScalar) -> str:
    """Canonical `v:m:N` with value p^v * m known mod p^N."""
    return _format_triple(c.p, c.triple)


def _format_triple(p: int, x) -> str:
    """`v:m:N` of the triple (residue, prec, shift): the valuation v, the
    unit cofactor m of the residue and the window N = prec - shift."""
    r, prec, shift = x
    window = prec - shift
    if window < 1:
        raise PrecisionExhausted(f"no certified digit to write (window {window})")
    r %= ppow(p, prec)
    if r == 0:
        return f"{window}:0:{window}"
    k = vp_int(r, p)
    return f"{k - shift}:{r // ppow(p, k)}:{window}"


def parse_scalar(p: int, text: str, line=None) -> PadicScalar:
    r, prec, shift = _parse_triple(p, text, line)
    return PadicScalar(p, prec, r, shift)


def _parse_triple(p: int, text: str, line=None):
    """The (residue, prec, shift) triple of a `v:m:N` literal, residue
    reduced."""
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ParseError(f"scalar literal must be v:m:N, got {text!r}", line)
    try:
        v, m, n = map(int, parts)
    except ValueError:
        raise ParseError(f"non-integer field in scalar literal {text!r}", line) from None
    if n < 1:
        raise ParseError(f"scalar window must be >= 1 in {text!r}", line)
    if m == 0:
        if v != n:
            raise ParseError(f"zero scalar must read N:0:N, got {text!r}", line)
        return 0, n, 0
    if m % p == 0:
        raise ParseError(f"cofactor must be a unit in {text!r}", line)
    if v >= n:
        raise ParseError(f"valuation {v} outside window {n} in {text!r}", line)
    if v >= 0:
        return m * ppow(p, v) % ppow(p, n), n, 0
    return m % ppow(p, n - v), n - v, -v


# -- norm values ------------------------------------------------------------


def parse_normvalue(text: str, line=None) -> NormValue:
    text = text.strip()
    if text == "0":
        return NormValue.zero()
    if text == "unbounded":
        return NormValue.unbounded()
    if not text.startswith("p^"):
        raise ParseError(f"bad norm value {text!r}", line)
    try:
        q = Fraction(text[2:])
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad norm value exponent in {text!r}", line) from None
    return NormValue(-q)


# -- distributions ----------------------------------------------------------


def serialize_distribution(d: Distribution) -> str:
    model = d.model
    enc = d.enclosure
    b = enc.bound(0, 0)
    head = (
        f"group={model.id} p={model.p} N={model.prec} "
        f"T={d.T}/1 tail={'unbounded' if b is None else b} exact={1 if d.exact else 0}"
    )
    if not enc.stored.is_zero:
        head += f" err={enc.stored}"
    return _format_terms(head, model.p, d.coeffs)


def _format_terms(head: str, p: int, coeffs) -> str:
    """The header line, then one `a1,...,ad : v:m:N` line per stored triple,
    in index order."""
    lines = [head]
    for alpha in sorted(coeffs):
        lines.append(",".join(map(str, alpha)) + " : " + _format_triple(p, coeffs[alpha]))
    return "\n".join(lines) + "\n"


def _parse_header(line):
    fields = {}
    for i, tok in enumerate(line.split()):
        if "=" not in tok:
            raise ParseError(f"bad header token {tok!r}", 1, i)
        k, v = tok.split("=", 1)
        if k in fields:
            raise ParseError(f"repeated header field {k!r}", 1, i)
        fields[k] = v
    return fields


def _parse_terms(lines, p: int, d: int, T=None) -> dict:
    """{alpha: triple} from the term lines that follow the header (line 2 on);
    a multi-index must have d entries >= 0, appear once and, under a
    truncation weight T, have degree |alpha| <= T.  Each triple is in the
    stored form (``_parse_triple``)."""
    coeffs = {}
    for ln_no, ln in enumerate(lines, start=2):
        if not ln.strip():
            continue
        if ":" not in ln:
            raise ParseError("term line must read a1,...,ad : v:m:N", ln_no)
        left, _, right = ln.partition(":")
        try:
            alpha = tuple(map(int, left.split(",")))
        except ValueError:
            raise ParseError(f"bad multi-index {left.strip()!r}", ln_no) from None
        if len(alpha) != d or min(alpha) < 0:
            raise ParseError(f"multi-index {alpha} invalid for d={d}", ln_no)
        if T is not None and sum(alpha) > T:
            raise ParseError(f"stored index {alpha} exceeds truncation weight {T}", ln_no)
        if alpha in coeffs:
            raise ParseError(f"duplicate index {alpha}", ln_no)
        coeffs[alpha] = _parse_triple(p, right, ln_no)
    return coeffs


def parse_distribution(text: str) -> Distribution:
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise ParseError("empty distribution file", 1)
    h = _parse_header(lines[0])
    for need in ("group", "p", "N", "T", "tail", "exact"):
        if need not in h:
            raise ParseError(f"missing header field {need!r}", 1)
    try:
        p = int(h["p"])
        prec = int(h["N"])
        num, den = h["T"].split("/")
        T = Fraction(int(num), int(den))
        exact = {"0": False, "1": True}[h["exact"]]
    except (ValueError, ZeroDivisionError, KeyError):
        raise ParseError("malformed header numbers", 1) from None
    try:
        model = GroupModel.from_string(h["group"], prec=prec, max_weight=max(T, 12))
        T = truncation(T)
    except ModelError as exc:
        raise ParseError(str(exc), 1) from None
    if model.p != p:
        raise ParseError(f"header p={p} contradicts group id {h['group']}", 1)
    coeffs = _parse_terms(lines[1:], p, model.d, T)
    # an exact file's tail is 0, whatever its header says
    tail = NormValue.zero() if exact else parse_normvalue(h["tail"], 1)
    herr = parse_normvalue(h["err"], 1) if "err" in h else NormValue.zero()
    if exact and not herr.is_zero:
        raise ParseError("exact distributions carry no head error", 1)
    unstored = () if tail.is_unbounded else ((tail, Fraction(0)),)
    # every part is checked: the terms by _parse_terms, the rest above
    return Distribution._clean(model, coeffs, T, Enclosure(herr, unstored))


# -- Mahler tables ----------------------------------------------------------


def serialize_mahler(t: MahlerTable) -> str:
    if t.decay is None:
        decay = "none"
    else:
        C, g = t.decay
        decay = f"{C}@{g}"
    head = (
        f"mahler p={t.p} d={t.d} N={t.prec} A={t.cap} "
        f"decay={decay} complete={1 if t.complete else 0}"
    )
    return _format_terms(head, t.p, t.coeffs)


def parse_mahler(text: str) -> MahlerTable:
    from .mahler import MahlerError, MahlerTable

    lines = text.splitlines()
    if not lines or not lines[0].startswith("mahler "):
        raise ParseError("not a Mahler table file", 1)
    h = _parse_header(lines[0][len("mahler "):])
    try:
        p = int(h["p"])
        d = int(h["d"])
        prec = int(h["N"])
        cap = int(h["A"])
        complete = {"0": False, "1": True}[h["complete"]]
    except (ValueError, KeyError):
        raise ParseError("malformed Mahler header", 1) from None
    decay = None
    if h.get("decay", "none") != "none":
        c_text, _, g_text = h["decay"].partition("@")
        try:
            growth = Fraction(g_text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad decay growth in {h['decay']!r}", 1) from None
        decay = (parse_normvalue(c_text, 1), growth)
    try:
        # the header numbers first: the term lines are read mod p
        header = MahlerTable.check_header(d, p, prec, cap)
    except MahlerError as exc:
        raise ParseError(str(exc), 1) from None
    # every part is checked: the terms by _parse_terms, the rest above
    return MahlerTable._clean(header, _parse_terms(lines[1:], p, d), decay, complete)
