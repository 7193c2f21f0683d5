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
    ])
    def test_parsed_equals_checked(self, text):
        parsed, checked = parse_distribution(text), _checked(text)
        assert (parsed.coeffs, parsed.T, parsed.enclosure, parsed.exact) == \
            (checked.coeffs, checked.T, checked.enclosure, checked.exact)
        assert type(parsed.T) is int and parsed.model.id == checked.model.id


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
                checked = MahlerTable(d, p, 12, cap, back.coeffs, back.decay, back.complete)
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

    def test_rejects_wrong_magic(self):
        with pytest.raises(ParseError):
            parse_mahler("distribution p=5\n")

    @pytest.mark.parametrize("p,d,N,A,word", [
        (4, 1, 12, 4, "prime"),
        (5, 1, 0, 4, "precision"),
        (5, 0, 12, 4, "dimension"),
        (5, 1, 12, -2, "cap"),
        (0, 1, 3, 2, "prime"),
    ])
    def test_rejects_bad_header_numbers(self, p, d, N, A, word):
        # p an odd prime, d >= 1, N >= 1 and A >= 0, as distribution files
        # require of their models; the header is checked before the term
        # lines, which are read mod p
        header = f"mahler p={p} d={d} N={N} A={A} decay=none complete=0\n"
        for text in (header, header + "0 : 0:1:3\n"):
            with pytest.raises(ParseError) as exc:
                parse_mahler(text)
            assert word in str(exc.value) and exc.value.line == 1
        with pytest.raises(MahlerError):
            MahlerTable(d, p, N, A, {})
