"""Text serialization: scalars as `v:m:N`, norm values as `p^q`, distribution
and Mahler-table files with one term per line.

A scalar reads back with its value and window.  A distribution file keeps
the head and two numbers of its enclosure: the stored error (``err=``),
within which a missing term line of degree <= T is zero, and the growth-0
bound on the degrees above T (``tail=``); it drops the cap lines, the lines
of growth > 0 and the Dirac witness.

The writer puts the header on line 1, then one ``a1,...,ad : v:m:N`` line
per stored triple, in index order, in ASCII digits, each line ending in \n
(d = 0 writes a blank index field).  A body in exactly that form is read in
bulk (``_bulk_terms``): one pattern checks every line, the indices become
ints in one pass, the degree and duplicate checks are made over the whole
table, and each distinct literal is read once, by the scalar rule
``_triple`` that both readers share.  Any other spelling (blank lines, CRLF
or another line break, extra spaces, ``+1``, non-ASCII digits, no final
newline), and any body the bulk reader would refuse, is read line by line
(``_parse_terms``) to the same table: a term line whose multi-index is
malformed, repeated or of degree above the header's T, or whose scalar is,
is refused with that line's number.  ``parse_distribution`` and
``parse_mahler`` wrap the checked parts without the checks of the
``Distribution`` and ``MahlerTable`` constructors."""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice, repeat
from typing import TYPE_CHECKING

from .padic import NormValue, PadicError, PadicScalar, PrecisionExhausted, as_int, ppow, vp_int
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
    p = as_int(p, ParseError, "prime p")
    r, prec, shift = _parse_triple(p, _as_text(text, "scalar literal"), line)
    return PadicScalar(p, prec, r, shift)


def _as_text(x, what) -> str:
    """A caller's text, refused with ParseError unless it is a str."""
    if not isinstance(x, str):
        raise ParseError(f"{what} {x!r} is not text")
    return x


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
    return _triple(p, v, m, n, text, line)


def _triple(p: int, v: int, m: int, n: int, text: str, line=None):
    """The stored triple of the literal `v:m:N` that ``text`` spells, from its
    three ints: the one scalar rule of both term readers."""
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
    text = _as_text(text, "norm value").strip()
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


def _split_header(text: str):
    """The header line and the text after it, as ``str.splitlines`` cuts the
    first line: at the first \n, unless another line break comes first."""
    head, _, body = text.partition("\n")
    if len((head + "\n").splitlines()) > 1:
        lines = text.splitlines()
        return (lines[0] if lines else ""), "\n".join(lines[1:])
    return head, body


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


# a term line as the writer spells it: d ASCII indices, ` : `, a `v:m:N`
# literal and \n (d = 0 writes a blank index field)
_WRITTEN_LINE = "{} : -?[0-9]+:[0-9]+:[0-9]+\n"


def _read_terms(body: str, p: int, d: int, T=None) -> dict:
    """{alpha: triple} of the term lines in ``body`` (line 2 on): in bulk for
    a body in the writer's form (``_bulk_terms``), else line by line
    (``_parse_terms``), which also locates every refusal."""
    coeffs = _bulk_terms(body, p, d, T)
    return _parse_terms(body.splitlines(), p, d, T) if coeffs is None else coeffs


def _bulk_terms(body: str, p: int, d: int, T=None):
    """What ``_parse_terms`` reads from a body in the writer's form, with the
    same checks made over the whole body at once; None for any other body
    and for any body that ``_parse_terms`` refuses.  Each distinct scalar
    literal is read once."""
    if not body:
        return {}
    if d > len(body):  # not one line of d indices fits
        return None
    index = "[0-9]+" + ",[0-9]+" * (d - 1) if d else ""
    if re.fullmatch(f"(?:{_WRITTEN_LINE.format(index)})*", body) is None:
        return None
    # index field, literal, index field, literal, ..., ""
    fields = body.replace("\n", " : ").split(" : ")
    literals = fields[1::2]
    n, distinct = len(literals), [*{*literals}]
    # the int words: d per index field, then v, m, N of each distinct literal
    words = ",".join([*fields[0:-1:2], *distinct] if d else distinct).replace(":", ",")
    words = words.split(",")
    try:
        value = {w: int(w) for w in {*words}}  # each distinct spelling once
        ints = map(value.__getitem__, words)
        alphas = list(zip(*[islice(ints, n * d)] * d)) if d else [()] * n
        if d and T is not None and max(map(sum, alphas)) > T:
            return None
        triples = dict(zip(distinct, map(_triple, repeat(p), ints, ints, ints, distinct)))
    except (ValueError, ParseError):  # an int past the digit limit, a bad scalar
        return None
    coeffs = dict(zip(alphas, map(triples.__getitem__, literals)))
    return coeffs if len(coeffs) == n else None


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
            if left.strip():
                raise ParseError(f"bad multi-index {left.strip()!r}", ln_no) from None
            alpha = ()  # a blank index field, the one index when d = 0
        if len(alpha) != d or d and min(alpha) < 0:
            raise ParseError(f"multi-index {alpha} invalid for d={d}", ln_no)
        if T is not None and sum(alpha) > T:
            raise ParseError(f"stored index {alpha} exceeds truncation weight {T}", ln_no)
        if alpha in coeffs:
            raise ParseError(f"duplicate index {alpha}", ln_no)
        coeffs[alpha] = _parse_triple(p, right, ln_no)
    return coeffs


def parse_distribution(text: str) -> Distribution:
    head, body = _split_header(_as_text(text, "distribution file"))
    if not head.strip():
        raise ParseError("empty distribution file", 1)
    h = _parse_header(head)
    for need in ("group", "p", "N", "T", "tail", "exact"):
        if need not in h:
            raise ParseError(f"missing header field {need!r}", 1)
    try:
        p = int(h["p"])
        prec = int(h["N"])
        num, den = map(int, h["T"].split("/"))
        T = num // den  # the floor of num/den, which truncation takes
        exact = {"0": False, "1": True}[h["exact"]]
    except (ValueError, ZeroDivisionError, KeyError):
        raise ParseError("malformed header numbers", 1) from None
    try:
        model = GroupModel.from_string(h["group"], prec=prec, max_weight=max(T, 12))
        if T < 0:
            truncation(Fraction(num, den))  # refuses it, in its own words
    except ModelError as exc:
        raise ParseError(str(exc), 1) from None
    if model.p != p:
        raise ParseError(f"header p={p} contradicts group id {h['group']}", 1)
    coeffs = _read_terms(body, p, model.d, T)
    if exact:
        # an exact file's tail is 0, whatever its header says
        if "err" in h and not parse_normvalue(h["err"], 1).is_zero:
            raise ParseError("exact distributions carry no head error", 1)
        enclosure = Enclosure.EXACT
    else:
        tail = parse_normvalue(h["tail"], 1)
        herr = parse_normvalue(h["err"], 1) if "err" in h else NormValue.zero()
        enclosure = Enclosure(herr, () if tail.is_unbounded else ((tail, Fraction(0)),))
    # every part is checked: the terms by _read_terms, the rest above
    return Distribution._clean(model, coeffs, T, enclosure)


# -- Mahler tables ----------------------------------------------------------


def serialize_mahler(t: MahlerTable) -> str:
    if t.decay is None or t.complete:
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

    head, body = _split_header(_as_text(text, "Mahler table file"))
    if not head.startswith("mahler "):
        raise ParseError("not a Mahler table file", 1)
    h = _parse_header(head[len("mahler "):])
    try:
        p = int(h["p"])
        d = int(h["d"])
        prec = int(h["N"])
        cap = int(h["A"])
        complete = {"0": False, "1": True}[h["complete"]]
    except (ValueError, KeyError):
        raise ParseError("malformed Mahler header", 1) from None
    decay = (NormValue.zero(), 0) if complete else None
    if h.get("decay", "none") != "none":
        if complete:
            raise ParseError("a complete Mahler table carries no decay line", 1)
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
    # every part is checked: the terms by _read_terms, the rest above
    return MahlerTable._clean(header, _read_terms(body, p, d), decay)
