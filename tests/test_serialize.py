import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pathlib import Path

from padicdist.distalg import Distribution, Enclosure, RadiusParam, lie_generator
from padicdist.groupmodel import GroupModel, simplex
from padicdist.mahler import FunctionSpec, MahlerError, MahlerTable, mahler_coeffs
from padicdist.padic import NormValue, PadicScalar, PrecisionExhausted
from padicdist import serialize
from padicdist.serialize import (
    ParseError,
    format_scalar,
    parse_distribution,
    parse_mahler,
    parse_normvalue,
    parse_scalar,
    serialize_distribution,
    serialize_mahler,
    _parse_terms,
)

P = 5


class TestScalarFormat:
    @given(st.integers(-10**8, 10**8), st.integers(2, 20))
    def test_int_round_trip(self, x, prec):
        c = PadicScalar.from_int(P, x, prec)
        back = parse_scalar(P, format_scalar(c))
        assert back.same_value(c) and back.window == c.window

    @given(
        st.integers(-1000, 1000),
        st.integers(1, 1000).filter(lambda d: d % P != 0),
    )
    def test_fraction_round_trip(self, num, den):
        c = PadicScalar.from_fraction(P, Fraction(num, den), 14)
        back = parse_scalar(P, format_scalar(c))
        assert back.same_value(c)

    def test_zero_form(self):
        assert format_scalar(PadicScalar.zero(P, 9)) == "9:0:9"

    def test_negative_valuation(self):
        c = PadicScalar.from_fraction(P, Fraction(1, P * P), 10)
        text = format_scalar(c)
        assert text.startswith("-2:")
        assert parse_scalar(P, text).same_value(c)

    @pytest.mark.parametrize("c", [PadicScalar(P, 3, 1, 3), PadicScalar(P, 2, 0, 3)])
    def test_refuses_a_scalar_without_a_certified_digit(self, c):
        # window prec - shift < 1: no `v:m:N` line with N >= 1 says this
        assert c.window < 1
        with pytest.raises(PrecisionExhausted):
            format_scalar(c)

    @pytest.mark.parametrize(
        "bad",
        ["", "1:2", "1:2:3:4", "a:b:c", "0:5:12", "12:0:3", "13:1:12", "1:0:2"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(P, bad)


class TestNormValueFormat:
    def test_round_trips(self):
        for b in (NormValue(Fraction(3, 2)), NormValue(0), NormValue(-2),
                  NormValue.zero(), NormValue.unbounded()):
            assert parse_normvalue(str(b)).exponent == b.exponent

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_normvalue("q^3")


def _random_distribution(rng):
    gid = rng.choice(["abelian:2:5", "heisenberg:5", "semidirect:5"])
    model = GroupModel.from_string(gid, prec=12, max_weight=Fraction(12))
    if rng.random() < 0.5:
        return Distribution.dirac(model.random_element(rng))
    alphas = list(simplex(model.d, 4))
    coeffs = {}
    for a in rng.sample(sorted(alphas), rng.randint(1, 3)):
        coeffs[a] = rng.randint(1, 5**6)
    return Distribution.from_coeffs(model, coeffs, model.max_weight)


class TestDistributionFiles:
    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            d = _random_distribution(rng)
            text = serialize_distribution(d)
            back = parse_distribution(text)
            assert serialize_distribution(back) == text

    def test_round_trip_dirac_h1_to_the_p(self):
        model = GroupModel.abelian(1, P, prec=12, max_weight=Fraction(8))
        d = Distribution.dirac(model.element([P]), T=Fraction(8))
        text = serialize_distribution(d)
        assert serialize_distribution(parse_distribution(text)) == text

    def test_rational_T_header_reads_as_its_floor(self):
        model = GroupModel.heisenberg(P, prec=12, max_weight=Fraction(6))
        d = Distribution.dirac(model.element([-1, 2, 0]), T=6)
        assert not d.exact
        text = serialize_distribution(d)
        assert " T=6/1 " in text
        a = parse_distribution(text)
        b = parse_distribution(text.replace(" T=6/1 ", " T=13/2 "))
        assert a.T == b.T == 6 and type(b.T) is int
        for s in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            r = RadiusParam(s)
            assert a.norm(r) == b.norm(r)
        assert serialize_distribution(b) == text

    def test_header_fields(self):
        model = GroupModel.heisenberg(P, prec=12, max_weight=Fraction(12))
        text = serialize_distribution(Distribution.one(model))
        head = text.splitlines()[0]
        assert "group=heisenberg:5" in head and "exact=1" in head

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: "",
            lambda t: t.replace("group=", "grp="),
            lambda t: t.replace("exact=1", "exact=yes"),
            lambda t: t + "not a term line\n",
            lambda t: t + "0,0,0 : 0:1:15\n" + "0,0,0 : 0:1:15\n",
            lambda t: t + "1,2 : 0:1:15\n",
            lambda t: t.replace("p=5", "p=7"),
        ],
    )
    def test_rejects_malformed_files(self, mutate):
        model = GroupModel.heisenberg(P, prec=12, max_weight=Fraction(12))
        text = serialize_distribution(Distribution.one(model))
        with pytest.raises(ParseError):
            parse_distribution(mutate(text))

    @pytest.mark.parametrize("old,new", [
        (" T=6/1 ", " T=1/0 "),
        (" tail=p^0 ", " tail=p^1/0 "),
        (" exact=0", " exact=0 err=p^1/0"),
    ])
    def test_zero_denominator_is_a_parse_error(self, old, new):
        model = GroupModel.heisenberg(P, prec=12, max_weight=Fraction(6))
        text = serialize_distribution(Distribution.dirac(model.element([-1, 2, 0]), T=6))
        assert old in text
        with pytest.raises(ParseError):
            parse_distribution(text.replace(old, new))

    @pytest.mark.parametrize("old,new", [
        (" N=12 ", " N=7 N=12 "),
        (" exact=1", " exact=1 exact=1"),
        ("group=heisenberg:5 ", "group=heisenberg:5 group=abelian:3:5 "),
    ])
    def test_rejects_repeated_header_field(self, old, new):
        model = GroupModel.heisenberg(P, prec=12, max_weight=Fraction(12))
        text = serialize_distribution(Distribution.one(model))
        assert old in text
        with pytest.raises(ParseError) as exc:
            parse_distribution(text.replace(old, new))
        assert "repeated" in str(exc.value) and exc.value.line == 1

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rejects_precision_below_one(self, n):
        model = GroupModel.heisenberg(P, prec=12, max_weight=Fraction(12))
        text = serialize_distribution(Distribution.one(model))
        with pytest.raises(ParseError):
            parse_distribution(text.replace(" N=12 ", f" N={n} "))

    def test_exact_file_with_head_error_is_a_parse_error(self):
        text = "group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1 err=p^0\n0 : 0:1:12\n"
        with pytest.raises(ParseError) as exc:
            parse_distribution(text)
        assert "head error" in str(exc.value) and exc.value.line == 1
        # a zero error is no error
        lam = parse_distribution(text.replace(" err=p^0", " err=0"))
        assert lam.exact and lam.enclosure.stored.is_zero

    @pytest.mark.parametrize("group,p", [("heisenberg:4", 4), ("abelian:1:9", 9)])
    def test_non_prime_p_is_a_parse_error(self, group, p):
        with pytest.raises(ParseError) as exc:
            parse_distribution(f"group={group} p={p} N=12 T=4/1 tail=0 exact=1\n")
        assert "prime" in str(exc.value) and exc.value.line == 1

    def test_dimension_zero_round_trip(self):
        # d = 0: the one multi-index is (), written as a blank index field
        model = GroupModel.from_string("abelian:0:5")
        for lam in (Distribution.one(model, 3), Distribution.from_coeffs(model, {(): 7}, 3)):
            text = serialize_distribution(lam)
            assert text.splitlines()[1].startswith(" : ")
            back = parse_distribution(text)
            assert back.coeffs == lam.coeffs and serialize_distribution(back) == text

    def test_parse_error_carries_line(self):
        model = GroupModel.heisenberg(P, prec=12, max_weight=Fraction(12))
        text = serialize_distribution(Distribution.one(model)) + "oops\n"
        with pytest.raises(ParseError) as exc:
            parse_distribution(text)
        assert exc.value.line == 3


def _checked(text):
    """The distribution of a well-formed file through the checked
    constructor: its term lines read without the degree check, which the
    constructor makes, and its header as ``parse_distribution`` reads it."""
    lines = text.splitlines()
    head = dict(tok.split("=", 1) for tok in lines[0].split())
    T = Fraction(head["T"])
    model = GroupModel.from_string(head["group"], prec=int(head["N"]), max_weight=max(T, 12))
    exact = head["exact"] == "1"
    tail = NormValue.zero() if exact else parse_normvalue(head["tail"])
    unstored = () if tail.is_unbounded else ((tail, Fraction(0)),)
    enclosure = Enclosure(parse_normvalue(head.get("err", "0")), unstored)
    return Distribution(model, _parse_terms(lines[1:], model.p, model.d), T, enclosure)


def _constructed():
    """One distribution of each constructor, exact and inexact, and a
    product, on every model kind."""
    out = []
    for gid in ("abelian:1:5", "abelian:2:5", "heisenberg:5", "semidirect:5"):
        m = GroupModel.from_string(gid, prec=12, max_weight=Fraction(8))
        one = (0,) * m.d
        ramp = tuple(range(1, m.d + 1))
        g, h = m.element(ramp), m.element((-1,) + ramp[1:])
        out += [
            Distribution.zero_dist(m),
            Distribution.one(m, 4),
            Distribution.monomial(m, ramp, 6),
            Distribution.dirac(g, 6),
            Distribution.dirac(h, 6),
            Distribution.dirac_combination(m, [(3, g), (Fraction(1, 5), h)], 5),
            Distribution.from_coeffs(m, {one: 5, ramp: (0, 1, 0)}, 6),
            Distribution.from_coeffs(m, {one: 7}, 6, Enclosure(NormValue(1), ((NormValue(2), 0),))),
            Distribution.from_coeffs(m, {one: 7}, 6, Enclosure()),
            lie_generator(m, 0, 6),
            Distribution.dirac(g, 6).mul(Distribution.dirac(h, 6)),
        ]
    return out


class TestOneCheckedPass:
    """``parse_distribution`` checks a file in one pass and wraps the parts
    unchecked; it must answer as the checked constructor does."""

    def test_term_above_T_is_refused_on_its_line(self):
        head = "group=abelian:1:5 p=5 N=12 T={} tail={} exact={}\n"
        for T, tail, exact in (("2/1", "0", 1), ("5/2", "p^0", 0), ("0/1", "unbounded", 0)):
            text = head.format(T, tail, exact) + "0 : 0:1:12\n\n3 : 0:1:12\n"
            with pytest.raises(ParseError, match="exceeds truncation weight") as exc:
                parse_distribution(text)
            assert exc.value.line == 4
        with pytest.raises(ParseError) as exc:
            parse_distribution("group=heisenberg:5 p=5 N=12 T=2/1 tail=0 exact=1\n"
                               "0,1,1 : 0:1:12\n1,1,1 : 0:1:12\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0\n", 1),
        ("group=abelian:1:5 p=5 N=x T=4/1 tail=0 exact=1\n", 1),
        ("group=abelian:1:5 p=5 N=12 T=-1/1 tail=0 exact=1\n0 : 0:1:12\n", 1),
        ("group=abelian:-1:5 p=5 N=12 T=4/1 tail=0 exact=1\n", 1),
        ("group=abelian:1:5 p=7 N=12 T=4/1 tail=0 exact=1\n", 1),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=q^1 exact=0\n", 1),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1 err=p^0\n", 1),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\n0 : 0:1:12\nx\n", 3),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\n0 : 0:1:12\na : 0:1:12\n", 3),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\n0,1 : 0:1:12\n", 2),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\n-1 : 0:1:12\n", 2),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\n1 : 0:1:12\n1 : 0:2:12\n", 3),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\n1 : 0:5:12\n", 2),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\n1 : 0:1:0\n", 2),
        # a blank index is () and names a term only when d = 0
        ("group=abelian:2:5 p=5 N=12 T=4/1 tail=0 exact=1\n : 0:1:12\n", 2),
        # lines as str.splitlines counts them: a header ended by \x85 before
        # its \n has a blank line 2, CRLF is one break
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\x85\nx\n", 3),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\r\n0 : 0:1:12\r\nx\r\n", 3),
        ("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\u20280 : 0:1:12\n-1 : 0:1:12", 3),
    ])
    def test_every_refusal_keeps_its_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_distribution(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text", [
        *(path.read_text() for path in sorted((Path(__file__).parent / "golden").glob("*.dist"))),
        *(serialize_distribution(lam) for lam in _constructed()),
        # an exact file drops its known zeros, and keeps a zero on a narrow window
        "group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1\n0 : 1:0:1\n1 : 14:0:14\n",
        "group=abelian:1:5 p=5 N=12 T=9/2 tail=unbounded exact=0 err=p^-1\n1 : -1:2:3\n",
        "group=abelian:0:5 p=5 N=12 T=3/1 tail=0 exact=1\n : 0:1:16\n",
    ])
    def test_parsed_equals_checked(self, text):
        parsed, checked = parse_distribution(text), _checked(text)
        assert (parsed.coeffs, parsed.T, parsed.enclosure, parsed.exact) == \
            (checked.coeffs, checked.T, checked.enclosure, checked.exact)
        assert type(parsed.T) is int and parsed.model.id == checked.model.id


def _writer_files():
    """Files as the writer emits them: the golden product, ``_constructed()``,
    ``expand`` outputs for d = 0..3 at T in {0, 1, 20}, and Mahler tables."""
    texts = [path.read_text() for path in sorted((Path(__file__).parent / "golden").glob("*.dist"))]
    texts += [serialize_distribution(lam) for lam in _constructed()]
    for gid, coords in (("abelian:0:5", ()), ("abelian:1:5", (7,)), ("abelian:2:5", (7, -3)),
                        ("heisenberg:5", (7, -3, 2))):
        for T in (0, 1, 20):
            m = GroupModel.from_string(gid, prec=12, max_weight=T)
            texts.append(serialize_distribution(Distribution.dirac(m.element(coords))))
    for d, fid, cap in ((1, "power1p:0", 6), (2, "indicator:1,2:1", 4), (0, "constant:2", 2)):
        texts.append(serialize_mahler(mahler_coeffs(FunctionSpec.parse(d, P, fid), cap, prec=12)))
    return texts


WRITER_FILES = _writer_files()


def _spelled(text, where, f):
    """text with its first or last term line replaced by f(index, literal),
    or None when the file has no term line."""
    lines = text.split("\n")
    terms = [i for i, ln in enumerate(lines[1:], start=1) if ln]
    if not terms:
        return None
    i = terms[0 if where == "first" else -1]
    index, _, literal = lines[i].partition(" : ")
    lines[i] = f(index, literal)
    return None if lines[i] is None else "\n".join(lines)


def _head(text):
    """(p, T) of a file's header; T is None for a Mahler table."""
    head = text.split("\n", 1)[0].removeprefix("mahler ")
    h = dict(tok.split("=", 1) for tok in head.split())
    return int(h["p"]), (int(h["T"].split("/")[0]) if "T" in h else None)


def _swapped(text, where):
    """text with its first two or last two term lines swapped, or None."""
    lines = text.split("\n")
    if len(lines) < 4:
        return None
    i = 1 if where == "first" else len(lines) - 3
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines)


def _first(index, f):
    """index with f applied to its first entry (a blank index stays blank)."""
    entries = index.split(",")
    return ",".join([f(entries[0]), *entries[1:]]) if index else index


# each mutation: (text, where, p, T) -> the mutated text, or None where it does not apply
MUTATIONS = {
    # line order and line breaks
    "swapped lines": lambda t, w, p, T: _swapped(t, w),
    "duplicated line": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"{i} : {v}\n{i} : {v}"),
    "blank line": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"\n{i} : {v}\n"),
    "crlf": lambda t, w, p, T: t.replace("\n", "\r\n"),
    "\\x1c": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"{i} : {v}\x1c"),
    "\\x85": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"{i} : {v}\x85"),
    "\\u2028": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"{i} : {v}\u2028"),
    "no final newline": lambda t, w, p, T: t[:-1],
    # number spellings
    "degree T + 1": lambda t, w, p, T: None if T is None else _spelled(
        t, w, lambda i, v: ",".join([str(T + 1)] + ["0"] * i.count(",")) + f" : {v}"
        if i else None),
    "-1": lambda t, w, p, T: _spelled(t, w, lambda i, v: _first(i, lambda a: "-1") + f" : {v}"),
    "+1": lambda t, w, p, T: _spelled(t, w, lambda i, v: _first(i, lambda a: "+" + a) + f" : {v}"),
    "01": lambda t, w, p, T: _spelled(t, w, lambda i, v: _first(i, lambda a: "0" + a) + f" : {v}"),
    "arabic-indic 3": lambda t, w, p, T: _spelled(
        t, w, lambda i, v: _first(i, lambda a: "\u0663") + f" : {v}"),
    "extra spaces": lambda t, w, p, T: _spelled(
        t, w, lambda i, v: " " + i.replace(",", " , ") + "  :  " + v + " "),
    "minus in a literal": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"{i} : -{v}"),
    # scalars
    "m = 0 mod p": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"{i} : 0:{p}:12"),
    "3:0:5": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"{i} : 3:0:5"),
    "window 0": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"{i} : 0:1:0"),
    "v >= N": lambda t, w, p, T: _spelled(t, w, lambda i, v: f"{i} : 12:1:12"),
}


def _outcome(text):
    """What a file reads as: its parts, term order included, or the
    refusal's text and line."""
    try:
        if text.startswith("mahler "):
            t = parse_mahler(text)
            return list(t.coeffs.items()), (t.d, t.p, t.prec, t.cap, t.decay)
        lam = parse_distribution(text)
        return list(lam.coeffs.items()), (lam.model.id, lam.T, lam.enclosure, lam.exact)
    except ParseError as exc:
        return str(exc), exc.line


class TestBulkTerms:
    """``_bulk_terms`` reads a body in the writer's form at once and hands
    every other body to the line loop ``_parse_terms``: both must read every
    file alike, to the same table or the same refusal on the same line."""

    def test_every_writer_file_is_read_in_bulk(self, monkeypatch):
        # the loop is never reached, so the bulk reader is what reads them
        def loop(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(serialize, "_parse_terms", loop)
        for text in WRITER_FILES:
            assert isinstance(_outcome(text)[0], list), text

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_bulk_reads_as_the_loop(self, monkeypatch, mutation, where):
        mutate = MUTATIONS[mutation]
        cases = [bad for bad in (mutate(text, where, *_head(text)) for text in WRITER_FILES)
                 if bad is not None]
        assert cases
        got = [_outcome(bad) for bad in cases]
        monkeypatch.setattr(serialize, "_bulk_terms", lambda *args: None)
        assert got == [_outcome(bad) for bad in cases]

    def test_loop_reads_writer_files_as_the_bulk_reader(self, monkeypatch):
        got = [_outcome(text) for text in WRITER_FILES]
        monkeypatch.setattr(serialize, "_bulk_terms", lambda *args: None)
        assert got == [_outcome(text) for text in WRITER_FILES]

    def test_a_dimension_past_the_body_is_read_line_by_line(self):
        # no line of d indices fits, so no pattern of d indices is built
        with pytest.raises(ParseError, match="invalid for d=") as exc:
            parse_mahler(f"mahler p=5 d={10 ** 12} N=12 A=4 decay=none complete=0\n0 : 0:1:12\n")
        assert exc.value.line == 2


class TestMahlerFiles:
    def test_round_trip(self):
        # the same text, and the same table: equal triples, cap, decay and
        # completeness, for every builtin function at p = 3, 5 and 7
        for p, d, cap in itertools.product((3, 5, 7), (1, 2), (0, 3, 8)):
            ones, twos = ",".join(["1"] * d), ",".join(["2"] * d)
            ramp = ",".join(str(i + 1) for i in range(d))
            for fid in ("constant:3", "coordinate:0", f"coordinate:{d - 1}",
                        f"monomial:{twos}", f"monomial:{ramp}", "power1p:0",
                        f"indicator:{ones}:1", f"indicator:{twos}:2"):
                t = mahler_coeffs(FunctionSpec.parse(d, p, fid), cap, prec=12)
                text = serialize_mahler(t)
                back = parse_mahler(text)
                assert serialize_mahler(back) == text
                assert back.coeffs == t.coeffs
                assert (back.cap, back.decay, back.complete) == (t.cap, t.decay, t.complete)
                # parse_mahler wraps its checked parts unchecked; they must
                # make the table the checked constructor makes of them
                checked = MahlerTable(d, p, 12, cap, back.coeffs, back.decay)
                assert all(getattr(back, k) == getattr(checked, k) for k in MahlerTable.__slots__)

    @pytest.mark.parametrize("growth", ["1/0", "x"])
    def test_rejects_bad_decay_growth(self, growth):
        text = serialize_mahler(mahler_coeffs(FunctionSpec.power_series_1p(1, P, 0), 4))
        assert "@1 " in text
        with pytest.raises(ParseError):
            parse_mahler(text.replace("@1 ", f"@{growth} "))

    @staticmethod
    def _table_text():
        return serialize_mahler(mahler_coeffs(FunctionSpec.power_series_1p(1, P, 0), 4))

    def test_rejects_repeated_header_field(self):
        text = self._table_text()
        assert " A=4 " in text
        with pytest.raises(ParseError) as exc:
            parse_mahler(text.replace(" A=4 ", " A=4 A=9 "))
        assert "repeated" in str(exc.value)

    def test_rejects_duplicate_index(self):
        text = self._table_text()
        assert "\n1 : 1:1:12\n" in text
        with pytest.raises(ParseError) as exc:
            parse_mahler(text + "1 : 0:3:12\n")
        assert "duplicate" in str(exc.value)

    def test_rejects_negative_index(self):
        with pytest.raises(ParseError) as exc:
            parse_mahler(self._table_text() + "-1 : 0:3:12\n")
        assert exc.value.line == 7

    @pytest.mark.parametrize("terms, line", [
        ("x\n", 2),
        ("0 : 0:1:12\na : 0:1:12\n", 3),
        ("0,1 : 0:1:12\n", 2),
        ("0 : 0:1:12\n\n-1 : 0:1:12\n", 4),
        ("1 : 0:1:12\n1 : 0:2:12\n", 3),
        ("1 : 0:5:12\n", 2),
        ("1 : 0:1:0\n", 2),
        ("1 : 0:1\n", 2),
    ])
    def test_every_term_refusal_keeps_its_line(self, terms, line):
        with pytest.raises(ParseError) as exc:
            parse_mahler("mahler p=5 d=1 N=12 A=4 decay=none complete=0\n" + terms)
        assert exc.value.line == line

    def test_complete_table_carries_no_decay_line(self):
        # the zero decay line alone says that every c_alpha past the cap is 0
        text = "mahler p=5 d=1 N=12 A=4 decay={} complete=1\n0 : 0:1:12\n"
        t = parse_mahler(text.format("none"))
        assert t.complete and t.decay == (NormValue.zero(), 0)
        assert serialize_mahler(t) == text.format("none")
        with pytest.raises(ParseError, match="no decay line") as exc:
            parse_mahler(text.format("p^0@1"))
        assert exc.value.line == 1

    def test_rejects_wrong_magic(self):
        with pytest.raises(ParseError):
            parse_mahler("distribution p=5\n")

    def test_dimension_zero_round_trips(self):
        # at d = 0 the one multi-index is (), written as an empty field
        text = "mahler p=5 d=0 N=12 A=2 decay=none complete=1\n : 0:2:12\n"
        t = parse_mahler(text)
        assert (t.d, t.coeff(())) == (0, PadicScalar(5, 12, 2))
        assert serialize_mahler(t) == text

    @pytest.mark.parametrize("p,d,N,A,word", [
        (4, 1, 12, 4, "prime"),
        (5, 1, 0, 4, "precision"),
        (5, -1, 12, 4, "dimension"),
        (5, 1, 12, -2, "cap"),
        (0, 1, 3, 2, "prime"),
    ])
    def test_rejects_bad_header_numbers(self, p, d, N, A, word):
        # p an odd prime, d >= 0, N >= 1 and A >= 0, as distribution files
        # require of their models; the header is checked before the term
        # lines, which are read mod p
        header = f"mahler p={p} d={d} N={N} A={A} decay=none complete=0\n"
        for text in (header, header + "0 : 0:1:3\n"):
            with pytest.raises(ParseError) as exc:
                parse_mahler(text)
            assert word in str(exc.value) and exc.value.line == 1
        with pytest.raises(MahlerError):
            MahlerTable(d, p, N, A, {})
