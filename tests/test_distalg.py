from decimal import Decimal
import math
from fractions import Fraction
from math import inf
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from padicdist.distalg import (
    DistError,
    Distribution,
    Enclosure,
    Line,
    NormInterval,
    RadiusParam,
    _commutation_core,
    lie_generator,
    q_norm,
    semidirect_mul,
    structure_constants,
)
from padicdist.graded import GradedAmbient, GradedError, GradedPoly
from padicdist.groupmodel import GroupModel, ModelError, ModelMismatch, simplex
from padicdist.mahler import (FunctionSpec, GroupAlgebraElement, MahlerError, MahlerTable,
                              amice_report, finite_level_project, mahler_coeffs)
from padicdist.padic import (NormValue, PadicError, PadicScalar, PrecisionExhausted,
                             triple_valuation, vp_int)
from padicdist.serialize import (ParseError, parse_distribution, parse_scalar,
                                 serialize_distribution, serialize_mahler)
from padicdist.suites import SuiteParams, _second_basis

import norm_reference
from enclosure_view import head_error, tail_bound_at_growth, tail_certs

P = 5
T = Fraction(12)


def heis():
    return GroupModel.heisenberg(P, prec=12, max_weight=T)


def ab(d):
    return GroupModel.abelian(d, P, prec=12, max_weight=T)


def sc(model, x):
    return PadicScalar.from_int(model.p, x, model.elem_prec)


R12 = RadiusParam(Fraction(1, 2))


class TestConstructors:
    def test_dirac_of_h1(self):
        # delta_{h1} = 1 + b1
        model = ab(1)
        d = Distribution.dirac(model.element([1]))
        assert d.exact
        assert d.coeff((0,)).same_value(sc(model, 1))
        assert d.coeff((1,)).same_value(sc(model, 1))
        assert set(d.coeffs) == {(0,), (1,)}

    def test_dirac_binomial_coefficients(self):
        model = ab(1)
        d = Distribution.dirac(model.element([4]))
        import math

        for k in range(5):
            assert d.coeff((k,)).same_value(sc(model, math.comb(4, k)))

    def test_dirac_negative_coordinate_is_truncated(self):
        model = ab(1)
        d = Distribution.dirac(model.element([-1]))
        assert not d.exact
        assert d.enclosure.bound(0, 0) == NormValue(0)
        for k in range(6):
            assert d.coeff((k,)).same_value(sc(model, (-1) ** k))

    def test_merged_support_keeps_the_exact_representative(self):
        import random

        model = ab(1)
        r = model.random_element(random.Random(2))
        # the same point 2, once as a residue and once as an exact integer
        residue_2 = model.gmul(model.gmul(r, model.ginv(r)), model.element([2]))
        assert not residue_2.exact and residue_2.key() == (2,)
        for terms in ([(1, residue_2), (1, model.element([2]))],
                      [(1, model.element([2])), (1, residue_2)]):
            d = Distribution.dirac_combination(model, terms)
            assert d.exact
            assert {a: d.coeff(a).residue for a in d.coeffs} == {(0,): 2, (1,): 4, (2,): 2}

    def test_monomial_weight_guard(self):
        model = heis()
        with pytest.raises(DistError):
            Distribution.monomial(model, (13, 0, 0))

    def test_zero_and_one(self):
        model = heis()
        one = Distribution.one(model)
        z = Distribution.zero_dist(model)
        assert (one - one).coeffs == z.coeffs
        assert one.norm(R12).lower == NormValue(0)

    def test_exact_refuses_a_head_error(self):
        # exact means the enclosure is EXACT: a file that says exact=1 with
        # a head error is refused, a stored error beside EXACT's zero line
        # is an inexact head, and a zero stored error is none
        with pytest.raises(ParseError, match="head error"):
            parse_distribution("group=abelian:1:5 p=5 N=12 T=4/1 tail=0 exact=1 err=p^0\n")
        model = ab(1)
        one = sc(model, 1).triple
        zero_line = [(NormValue.zero(), 0)]
        assert not Distribution(model, {(0,): one}, 4, Enclosure(NormValue(0), zero_line)).exact
        assert not Distribution.from_coeffs(model, {(0,): 1}, 4,
                                            Enclosure(NormValue.unbounded(), zero_line)).exact
        lam = Distribution(model, {(0,): one}, 4, Enclosure(NormValue.zero(), zero_line))
        assert lam.exact and lam.enclosure == Enclosure.EXACT

    @pytest.mark.parametrize("stored,unstored,cap", [
        # a float growth, which the r-norm profile cannot scale
        (NormValue.zero(), [(NormValue(1), 0.25)], []),
        (NormValue.zero(), [], [(NormValue(1), True)]),
        (NormValue.zero(), [(1, Fraction(0))], []),
        (NormValue.zero(), [], [(NormValue(1), Fraction(0), True)]),
        (NormValue.zero(), [NormValue(1)], []),
        (0, [], []),
    ])
    def test_enclosure_refuses_bad_lines(self, stored, unstored, cap):
        with pytest.raises(DistError, match="enclosure"):
            Enclosure(stored, unstored, cap)

    def test_constructor_takes_an_enclosure_only(self):
        model = ab(1)
        with pytest.raises(DistError, match="not an Enclosure"):
            Distribution(model, {}, 4, [(NormValue(1), Fraction(0))])

    def test_default_enclosure_bounds_nothing_unstored(self):
        model = ab(1)
        lam = Distribution(model, {(0,): sc(model, 1).triple}, 4)
        assert lam.enclosure == Enclosure() and not lam.exact
        for s in NORM_RADII:
            assert lam.norm(RadiusParam(s)).upper.is_unbounded

    def test_exact_results_carry_the_exact_enclosure(self):
        # points in N^d of degree <= T: (2,0,1)(1,3,4) = (3,3,5), and
        # (0,1,0) commutes with (0,2,1)
        heis_model, model = heis(), ab(2)
        g, h = heis_model.element([2, 0, 1]), heis_model.element([1, 3, 4])
        b = Distribution.monomial(model, (1, 0))
        cases = [
            Distribution.zero_dist(model), Distribution.one(model), b,
            Distribution.from_coeffs(model, {(1, 1): 3}, 6),
            Distribution.dirac(model.element([2, 1])),
            Distribution.dirac_combination(model, [(3, model.element([1, 1])),
                                                   (Fraction(1, 5), model.element([0, 2]))]),
            Distribution.dirac(g).mul(Distribution.dirac(h)),
            Distribution.dirac(heis_model.element([0, 2, 1])).conjugate(
                heis_model.element([0, 1, 0])),
            b + Distribution.dirac(model.element([1, 2])),
            b.scale(7), -b, b - b,
            parse_distribution(serialize_distribution(b)),
        ]
        for lam in cases:
            assert lam.exact and lam.enclosure == Enclosure.EXACT, lam.coeffs

    def test_constructor_takes_int_triples_only(self):
        # a table of PadicScalars is refused here, not later inside norm
        model = ab(2)
        good = sc(model, 25).triple
        assert Distribution(model, {(1, 0): good}, 6).coeffs == {(1, 0): good}
        for bad in (sc(model, 25), list(good), good[:2], (25, 6, 0, 0), (25, 6.0, 0),
                    (True, 6, 0), 25):
            with pytest.raises(DistError, match=r"coefficient at \(1, 0\)"):
                Distribution(model, {(0, 0): good, (1, 0): bad}, 6)


class TestConvolution:
    def test_dirac_multiplicativity(self):
        model = heis()
        g = model.element([2, 3, 1])
        h = model.element([1, 0, 4])
        left = Distribution.dirac(g) * Distribution.dirac(h)
        right = Distribution.dirac(model.gmul(g, h))
        keys = set(left.coeffs) | set(right.coeffs)
        assert all(left.coeff(a).same_value(right.coeff(a)) for a in keys)

    def test_b1b2_is_monomial(self):
        model = heis()
        b1 = Distribution.monomial(model, (1, 0, 0))
        b2 = Distribution.monomial(model, (0, 1, 0))
        prod = b1 * b2
        assert prod.exact and set(prod.coeffs) == {(1, 1, 0)}

    def test_commutator_witness(self):
        model = heis()
        b1 = Distribution.monomial(model, (1, 0, 0))
        b2 = Distribution.monomial(model, (0, 1, 0))
        comm = b1 * b2 - b2 * b1
        assert comm.coeff((0, 0, 1)).same_value(sc(model, P))

    def test_h1_to_the_p(self):
        # (1+b1)^p: coefficient at b1^2 is C(p,2), valuation 1
        model = ab(1)
        d = Distribution.dirac(model.element([P]))
        import math

        assert d.coeff((2,)).same_value(sc(model, math.comb(P, 2)))
        assert d.coeff((2,)).valuation == 1

    def test_identity_element(self):
        model = heis()
        one = Distribution.one(model)
        lam = Distribution.dirac(model.element([1, 2, 3]))
        prod = one * lam
        keys = set(prod.coeffs) | set(lam.coeffs)
        assert all(prod.coeff(a).same_value(lam.coeff(a)) for a in keys)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_associativity_on_monomials(self, i, j, k):
        model = heis()
        f = Distribution.monomial(model, (i, 0, 0))
        g = Distribution.monomial(model, (0, j, 0))
        h = Distribution.monomial(model, (0, 0, k))
        left = (f * g) * h
        right = f * (g * h)
        keys = set(left.coeffs) | set(right.coeffs)
        assert all(left.coeff(a).same_value(right.coeff(a)) for a in keys)


def scalar(model, c):
    """A stored triple (residue, prec, shift) read as its PadicScalar."""
    r, prec, shift = c
    return PadicScalar(model.p, prec, r, shift)


class TestStructureConstants:
    def test_central_entry(self):
        model = GroupModel.heisenberg(P, prec=12, max_weight=Fraction(6))
        table, verdicts = structure_constants(model, (0, 1, 0), (1, 0, 0), Fraction(6))
        assert scalar(model, table[(0, 0, 1)]).same_value(sc(model, -P))
        assert all(verdicts.values())

    def test_verdict_matches_direct_bound(self):
        model = GroupModel.heisenberg(P, prec=12, max_weight=Fraction(6))
        beta, gamma = (2, 1, 0), (0, 1, 1)
        table, verdicts = structure_constants(model, beta, gamma, Fraction(6))
        tb = sum(beta) + sum(gamma)
        for alpha, c in table.items():
            c = scalar(model, c)
            if c.valuation is None:
                continue
            want = c.valuation >= max(0, tb - sum(alpha))
            assert verdicts[alpha] == want

    @staticmethod
    def assert_matches_dirac_product(model, beta, gamma, T):
        """The table against the Dirac product of the two monomials: equal
        values on common entries, windows never narrower, zeros wherever
        only one side stores an entry, and identical verdicts."""
        table, verdicts = structure_constants(model, beta, gamma, T)
        tb = sum(beta) + sum(gamma)
        big = max(T, sum(beta), sum(gamma))
        prod = Distribution.monomial(model, beta, big).mul(
            Distribution.monomial(model, gamma, big), T=T)
        want = {}
        for alpha in prod.coeffs:
            c = prod.coeff(alpha)
            if alpha in table:
                mine = scalar(model, table[alpha])
                assert mine.same_value(c), (beta, gamma, alpha)
                assert mine.window >= c.window, (beta, gamma, alpha)
            else:
                assert c.residue == 0, (beta, gamma, alpha)
            if c.valuation is not None:
                want[alpha] = c.valuation >= max(0, tb - sum(alpha))
        for alpha, c in table.items():
            assert alpha in prod.coeffs or scalar(model, c).residue == 0, (beta, gamma, alpha)
        assert verdicts == want, (beta, gamma)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_heisenberg_table_matches_dirac_products(self, p):
        model = GroupModel.heisenberg(p, prec=12, max_weight=6)
        indices = list(simplex(model.d, 6))
        pairs = [(b, g) for b in indices for g in indices if sum(b) + sum(g) <= 6]
        assert len(pairs) == 924
        for beta, gamma in pairs:
            self.assert_matches_dirac_product(model, beta, gamma, 6)

    def test_abelian_and_semidirect_tables_match_dirac_products(self):
        a2 = GroupModel.abelian(2, P, prec=12, max_weight=6)
        for beta, gamma, T in [((0, 0), (0, 0), 6), ((1, 2), (3, 0), 6),
                               ((2, 2), (1, 1), 4), ((0, 3), (0, 4), 5)]:
            self.assert_matches_dirac_product(a2, beta, gamma, T)
        sd = GroupModel.semidirect(P, prec=12, max_weight=6)
        for beta, gamma, T in [((2,), (3,), 6), ((4,), (4,), 6), ((0,), (1,), 0)]:
            self.assert_matches_dirac_product(sd, beta, gamma, T)

    def test_factor_above_T(self):
        model = GroupModel.heisenberg(P, prec=12, max_weight=6)
        for beta, gamma in [((0, 5, 0), (2, 0, 0)), ((4, 0, 0), (0, 0, 1)),
                            ((0, 3, 0), (4, 0, 0))]:
            self.assert_matches_dirac_product(model, beta, gamma, 3)
        table, verdicts = structure_constants(model, (4, 0, 0), (0, 0, 1), 3)
        assert table == {} and verdicts == {}

    def test_cores_live_on_the_model(self):
        model = GroupModel.heisenberg(P, prec=12, max_weight=6)
        assert model.commutation_cores == {}
        structure_constants(model, (1, 2, 0), (3, 0, 1), 6)
        assert set(model.commutation_cores) == {(2, 3, 6)}
        structure_constants(model, (0, 2, 0), (3, 1, 0), 6)
        assert set(model.commutation_cores) == {(2, 3, 6)}
        assert GroupModel.heisenberg(P, prec=12, max_weight=6).commutation_cores == {}

    @staticmethod
    def entries(model, table):
        return [(alpha, *scalar(model, c).triple) for alpha, c in table.items()]

    @pytest.mark.parametrize("spec", ["heisenberg:5", "abelian:2:5", "semidirect:5"])
    def test_repeated_calls_are_equal(self, spec):
        model = GroupModel.from_string(spec, prec=12, max_weight=6)
        indices = list(simplex(model.d, 4))
        for beta, gamma in [(b, g) for b in indices for g in indices if sum(b) + sum(g) <= 6]:
            first, first_verdicts = structure_constants(model, beta, gamma, 6)
            again, again_verdicts = structure_constants(model, beta, gamma, 6)
            assert self.entries(model, first) == self.entries(model, again)
            assert list(first_verdicts.items()) == list(again_verdicts.items())

    def test_a_returned_table_is_the_callers_own(self):
        # the cores are kept on the model; a caller that mutates or clears a
        # returned table or its verdicts must not change what the next call
        # returns, and the triples it holds are immutable
        heisenberg = GroupModel.heisenberg(P, prec=12, max_weight=6)
        abelian = GroupModel.abelian(2, P, prec=12, max_weight=6)
        for model, beta, gamma in [(heisenberg, (0, 2, 0), (3, 0, 0)),
                                   (heisenberg, (1, 2, 0), (3, 0, 1)),
                                   (abelian, (1, 2), (3, 0))]:
            table, verdicts = structure_constants(model, beta, gamma, 6)
            want, want_verdicts = self.entries(model, table), dict(verdicts)
            assert table and all(type(c) is tuple for c in table.values())
            for alpha in table:
                table[alpha] = (1, 1, 0)
                verdicts[alpha] = None
            table[(6,) * model.d] = (0, 1, 0)
            again, again_verdicts = structure_constants(model, beta, gamma, 6)
            assert self.entries(model, again) == want
            assert again_verdicts == want_verdicts
            table.clear()
            verdicts.clear()
            again, again_verdicts = structure_constants(model, beta, gamma, 6)
            assert self.entries(model, again) == want
            assert again_verdicts == want_verdicts

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("N", [1, 2, 12])
    def test_cores_match_the_product_route(self, p, N):
        # each room of the core b2^a b1^g, built from its Dirac grid, holds
        # the entries of degree <= room of the product of the two monomials,
        # with their verdicts; the exact cores (a = 0 or g = 0) included,
        # which drop their known zeros as mul's exact path does
        model = GroupModel.heisenberg(p, prec=N, max_weight=6)
        for T in range(9):
            for a in range(T + 1):
                for g in range(T + 1 - a):
                    core = _commutation_core(model, a, g, T)
                    assert len(core) == T + 1
                    head = Distribution.monomial(model, (0, a, 0), T).mul(
                        Distribution.monomial(model, (g, 0, 0), T), T=T).coeffs
                    want = []
                    for alpha, c in head.items():
                        v = triple_valuation(p, c)
                        want.append((alpha, c, None if v is None
                                     else v >= max(0, a + g - sum(alpha))))
                    for room, entries in enumerate(core):
                        assert set(entries) == {e for e in want if sum(e[0]) <= room}, \
                            (a, g, T, room)


# entries that are no integer, and a multi-index that is no iterable
NOT_INTEGERS = [("a", 0, 0), (None, 0, 0), 5, (0, float("inf"), 0), (0, 0, float("nan"))]


class TestInvalidMultiIndices:
    """A negative, fractional or non-numeric exponent or a multi-index of the
    wrong length has no monomial; it is refused with DistError, not stored,
    dropped, rounded or read as a shorter one."""

    @pytest.mark.parametrize("alpha", [(-1, 2, 0), (0, 0, -3), (1, 0), (1, 0, 0, 0),
                                       (Fraction(3, 2), 0, 0), (0, 0.5, 1)] + NOT_INTEGERS)
    def test_monomial(self, alpha):
        with pytest.raises(DistError):
            Distribution.monomial(GroupModel.heisenberg(P), alpha)

    @pytest.mark.parametrize("alpha", [(-1, 1), (1,), (0, 0, 1), (Fraction(1, 2), 1)])
    def test_from_coeffs(self, alpha):
        model = GroupModel.abelian(2, P)
        with pytest.raises(DistError):
            Distribution.from_coeffs(model, {alpha: 1, (0, 0): 1}, 6)
        with pytest.raises(DistError):
            Distribution.from_coeffs(model, {alpha: 1}, 6, Enclosure())

    @pytest.mark.parametrize("beta, gamma", [((-1, 0, 0), (1, 0, 0)),
                                             ((0, 1, 0), (0, -1, 2)),
                                             ((0, 1), (1, 0, 0)),
                                             ((0, 1, 0), (1, 0, 0, 0))]
                             + [((0, 1, 0), alpha) for alpha in NOT_INTEGERS])
    def test_structure_constants(self, beta, gamma):
        with pytest.raises(DistError):
            structure_constants(GroupModel.heisenberg(P), beta, gamma, 6)
        with pytest.raises(DistError):
            structure_constants(GroupModel.heisenberg(P), gamma, beta, 6)

    @pytest.mark.parametrize("alpha", [(1.5, 2, 0), (-1, 0, 0), (1, 0)] + NOT_INTEGERS)
    def test_coeff(self, alpha):
        d = Distribution.dirac(GroupModel.heisenberg(P).element((1, 2, 0)))
        with pytest.raises(DistError):
            d.coeff(alpha)

    def test_abelian_structure_constants(self):
        with pytest.raises(DistError):
            structure_constants(GroupModel.abelian(2, P), (1, -1), (0, 1), 6)


class TestNorms:
    def test_monomial_norm(self):
        model = heis()
        b1 = Distribution.monomial(model, (1, 0, 0))
        n = b1.norm(R12)
        assert n.collapsed and n.lower == NormValue(Fraction(1, 2))

    def test_scale_by_p(self):
        model = heis()
        lam = Distribution.monomial(model, (1, 0, 0)).scale(P)
        n = lam.norm(R12)
        assert n.collapsed and n.lower == NormValue(Fraction(3, 2))

    def test_max_attained(self):
        model = ab(2)
        lam = Distribution.from_coeffs(model, {(0, 0): P, (1, 0): 1}, T)
        n = lam.norm(R12)
        assert n.collapsed and n.lower == NormValue(Fraction(1, 2))

    def test_ultrametric_triangle(self):
        model = heis()
        lam = Distribution.monomial(model, (1, 0, 0))
        mu = Distribution.monomial(model, (0, 0, 1)).scale(P)
        both = lam + mu
        assert both.norm(R12).upper <= max(lam.norm(R12).upper, mu.norm(R12).upper)

    def test_inexact_dirac_norm_is_one(self):
        model = ab(1)
        d = Distribution.dirac(model.element([-1]))
        n = d.norm(R12)
        assert n.lower == NormValue(0)
        assert n.upper == NormValue(0)


def cert_bound_at(lam, tau, s):
    """Best all-alpha certificate bound on |d_alpha| r^(s tau) at one index,
    one NormValue per certificate: the first of the tightest."""
    best = None
    for c in tail_certs(lam):
        if not c.all_alpha:
            continue
        cand = c.bound * NormValue((s - c.growth) * tau)
        if best is None or cand < best:
            best = cand
    return best


def coeff_sup_by_entries(lam):
    """Reference for Distribution.coeff_sup: one bound per stored coefficient,
    the larger of its magnitude and head_error, and head_error where an
    index of degree <= T is unstored, from the growth-0 tail up."""
    tail = tail_bound_at_growth(lam, 0)
    if tail is None:
        return None
    best = tail
    if norm_reference.unstored_degrees(lam):
        best = max(best, head_error(lam))
    for alpha in lam.coeffs:
        c = lam.coeff(alpha)
        v = c.valuation
        up = NormValue(v) if v is not None else NormValue(c.window)
        best = max(best, up, head_error(lam))
    return best


def norm_by_entries(lam, r):
    """Reference for Distribution.norm: one bound per stored coefficient, and
    one per degree <= T with an unstored index, which is zero to within
    head_error."""
    s = r.s
    lower = NormValue.zero()
    uppers = []
    for alpha in lam.coeffs:
        c = lam.coeff(alpha)
        tau = sum(alpha)
        v = c.valuation
        if v is not None and head_error(lam) < NormValue(v):
            lower = max(lower, NormValue(v + s * tau))
            uppers.append(NormValue(v + s * tau))
            continue
        mag = NormValue(v) if v is not None else NormValue(c.window)
        up = max(mag, head_error(lam)) * NormValue(s * tau)
        cb = cert_bound_at(lam, tau, s)
        if cb is not None and cb < up:
            up = cb
        uppers.append(up)
    for tau in norm_reference.unstored_degrees(lam):
        up = head_error(lam) * NormValue(s * tau)
        cb = cert_bound_at(lam, tau, s)
        uppers.append(up if cb is None or up < cb else cb)
    tail = tail_by_certs(lam, s)
    uppers.append(NormValue.unbounded() if tail is None else tail)
    return NormInterval(lower, max([lower, *uppers]))


def tail_by_certs(lam, s):
    """The tail term from the certificates alone: (C, t) with t <= s bounds
    |d_alpha| r^tau by C p^-((s - t) tau) at every alpha past the head, so
    by C p^-((s - t) tplus) there, tplus = T + 1.  The least
    of these; zero when exact, None when no certificate applies."""
    if lam.exact:
        return NormValue.zero()
    tplus = lam.T + 1
    return min((c.bound * NormValue((s - c.growth) * tplus)
                for c in tail_certs(lam) if c.growth <= s), default=None)


NORM_RADII = [Fraction(1, 8), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
              Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]
SMALL_MODELS = {
    "abelian:1": lambda: GroupModel.abelian(1, P, prec=6, max_weight=6),
    "abelian:2": lambda: GroupModel.abelian(2, P, prec=6, max_weight=6),
    "heisenberg": lambda: GroupModel.heisenberg(P, prec=6, max_weight=4),
}


@st.composite
def norm_values(draw):
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from([NormValue.zero(), NormValue.unbounded()]))
    if draw(st.booleans()):
        # a rational exponent, as products of norm bounds at rational radii have
        return NormValue(Fraction(draw(st.integers(-4, 24)), draw(st.sampled_from([2, 3, 4]))))
    return NormValue(draw(st.integers(-1, 6)))


@st.composite
def distributions(draw):
    """Exact, inexact, head_error-carrying, parsed, lie_generator and
    mul(s_work=...) distributions on small models."""
    model = SMALL_MODELS[draw(st.sampled_from(sorted(SMALL_MODELS)))]()
    d, T = model.d, model.max_weight
    # raw tables thrice: their uncertain entries, head errors and caps are
    # what the profile has to get right
    kind = draw(st.sampled_from(["from_coeffs", "dirac", "raw", "raw", "raw", "parsed",
                                 "lie", "mul"]))
    coord = st.integers(-3, 5)
    index = st.tuples(*[st.integers(0, 3)] * d).filter(lambda a: sum(a) <= T)
    if kind == "from_coeffs":
        alphas = draw(st.lists(index, max_size=5))
        table = {a: draw(st.integers(-P ** 3, P ** 3)) for a in alphas}
        return Distribution.from_coeffs(model, table, T)
    if kind == "lie":
        return lie_generator(model, draw(st.integers(0, d - 1)), draw(st.integers(1, T)))
    if kind == "raw" or (kind == "parsed" and draw(st.booleans())):
        coeffs = {}
        for _ in range(draw(st.integers(0, 10))):
            alpha = draw(index)
            prec = draw(st.integers(2, 6))
            residue = draw(st.sampled_from([0, 0, 0, 1, 2, P, 2 * P, P ** 2, P ** 3]))
            coeffs[alpha] = PadicScalar(P, prec, residue, draw(st.integers(0, 1))).triple
        # (bound, growth, cap)
        lines = [(draw(norm_values()),
                  draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                                        Fraction(2, 3), Fraction(1)])),
                  draw(st.integers(0, 3)) > 0)
                 for _ in range(draw(st.integers(0, 3)))]
        if draw(st.integers(0, 3)):
            # a tail bounded at every s, so that the entries can set the upper end
            lines.append((NormValue(draw(st.integers(0, 3))), Fraction(0), False))
        herr = draw(st.one_of(st.just(NormValue.zero()), norm_values()))
        lam = Distribution(model, coeffs, T, Enclosure(
            herr, [(C, t) for C, t, cap in lines if not cap],
            [(C, t) for C, t, cap in lines if cap]))
    else:
        g = model.element(draw(st.lists(coord, min_size=d, max_size=d)))
        lam = Distribution.dirac(g)
        if kind == "mul":
            h = model.element(draw(st.lists(coord, min_size=d, max_size=d)))
            s_work = draw(st.lists(st.sampled_from(NORM_RADII), min_size=1, max_size=2))
            lam = lam.mul(Distribution.dirac(h), s_work=s_work)
    if kind == "parsed":
        lam = parse_distribution(serialize_distribution(lam))
    return lam


def outcome(f, *args):
    """f(*args), or the type and message of the DistError or ValueError it
    raises."""
    try:
        return f(*args)
    except (DistError, ValueError) as exc:
        return type(exc), str(exc)


def _tie_case(entries, enclosure):
    model = GroupModel.abelian(2, P, prec=6, max_weight=6)
    coeffs = {alpha: PadicScalar(P, prec, residue).triple for alpha, residue, prec in entries}
    return Distribution(model, coeffs, 6, enclosure)


class TestNormProfile:
    @pytest.mark.parametrize("lam", [
        # an entry of known valuation exactly at an all-alpha cap
        # p^-(2 + s tau), after an entry the cap holds down to it; the
        # unstored index (0, 0), zero to within the head error p^-2, reads
        # p^-2 at degree 0 and sets the upper end above their tie
        _tie_case([((0, 1), 0, 1), ((1, 0), P ** 2, 5)],
                  Enclosure(NormValue(2), cap=[(NormValue(2), Fraction(0))])),
        # a window bound at degree 2 and a valuation at degree 0, both p^-4
        _tie_case([((2, 0), 0, 3), ((0, 0), P ** 4, 6)],
                  Enclosure(NormValue(4), [(NormValue(1), Fraction(0))])),
    ])
    def test_tied_upper_ends(self, lam):
        # bounds from different levels tie for the upper end
        r = RadiusParam(Fraction(1, 2))
        got, want = lam.norm(r), norm_by_entries(lam, r)
        assert got.upper.exponent == want.upper.exponent
        assert got.lower == want.lower

    @pytest.mark.parametrize("coeffs,herr,upper", [
        # two unknown entries of degree 1: the wider window (p^-2 > p^-4)
        # is the bound, whichever comes first
        ({(0, 1): (4, 0), (1, 0): (2, 0)}, NormValue.zero(), Fraction(5, 2)),
        ({(0, 1): (2, 0), (1, 0): (4, 0)}, NormValue.zero(), Fraction(5, 2)),
        # valuation 3 under head error p^-2: the entry reads p^-5/2 at
        # degree 1, and the unstored index (0, 0), zero to within the head
        # error, reads p^-2 at degree 0 and sets the upper end
        ({(1, 0): (6, P ** 3)}, NormValue(2), Fraction(2)),
        # valuation 3 at head error p^-3: the entry's own valuation gives
        # p^-7/2 at degree 1, and the unstored (0, 0) p^-3 at degree 0
        ({(1, 0): (6, P ** 3)}, NormValue(3), Fraction(3)),
    ])
    def test_entry_bounds(self, coeffs, herr, upper):
        model = GroupModel.abelian(2, P, prec=6, max_weight=6)
        coeffs = {a: (residue, prec, 0) for a, (prec, residue) in coeffs.items()}
        lam = Distribution(model, coeffs, 6, Enclosure(herr, [(NormValue(1), Fraction(0))]))
        r = RadiusParam(Fraction(1, 2))
        got, want = lam.norm(r), norm_by_entries(lam, r)
        assert got.upper.exponent == want.upper.exponent == upper
        assert got.lower == want.lower == NormValue.zero()

    @given(distributions(), st.lists(st.sampled_from(NORM_RADII), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_per_entry_bounds(self, lam, radii):
        # the exponents of both interval ends
        for s in radii:
            r = RadiusParam(s)
            got, want = lam.norm(r), norm_by_entries(lam, r)
            assert got.lower.exponent == want.lower.exponent, (s, got, want)
            assert got.upper.exponent == want.upper.exponent, (s, got, want)

    @given(distributions())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_coeff_sup_matches_per_entry_bounds(self, lam):
        got, want = lam.coeff_sup(), coeff_sup_by_entries(lam)
        if want is None:
            assert got is None
            return
        assert got.exponent == want.exponent, (got, want)

    @pytest.mark.parametrize("prec,herr,cap", [
        # an all-alpha cap p^-(19/3) below an unknown entry known to p^-6
        (6, NormValue.zero(), NormValue(Fraction(19, 3))),
        # a head error p^-(19/3) above an unknown entry known to p^-8
        (8, NormValue(Fraction(19, 3)), None),
    ])
    def test_exponents_in_thirds_at_radius_one_half(self, prec, herr, cap):
        # norm() compares exponents over a common denominator, which must
        # take in the thirds that the radius does not have
        model = GroupModel.abelian(2, P, prec=6, max_weight=6)
        caps = [] if cap is None else [(cap, Fraction(0))]
        lam = Distribution(model, {(0, 0): (0, prec, 0)}, 6,
                           Enclosure(herr, [(NormValue(7), Fraction(0))], caps))
        got, want = lam.norm(R12), norm_by_entries(lam, R12)
        assert got.upper.exponent == want.upper.exponent == Fraction(19, 3)

    @given(distributions())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_reference(self, lam):
        # the profile against the per-call code it replaced: both interval
        # ends at every radius (s = 1 included), the symbol or its refusal,
        # the coefficient sup, integrality and the radius threshold
        for s in NORM_RADII:
            r = RadiusParam(s)
            got, want = lam.norm(r), norm_reference.norm(lam, r)
            assert got.lower.exponent == want.lower.exponent, (s, got, want)
            assert got.upper.exponent == want.upper.exponent, (s, got, want)
            assert outcome(lam.principal_symbol, r) == \
                outcome(norm_reference.principal_symbol, lam, r), s
        assert lam.coeff_sup() == norm_reference.coeff_sup(lam)
        assert lam.is_integral() == norm_reference.is_integral(lam)
        assert outcome(lam.r_threshold) == outcome(norm_reference.r_threshold, lam)

    # certificate bounds and growths in halves, thirds and quarters (D0 = 12),
    # with an unbounded head error or an unbounded certificate
    SCALED_ENTRIES = {(0, 0): (P ** 2, 6, 0), (1, 0): (0, 3, 0), (0, 2): (2 * P, 6, 1),
                      (2, 1): (0, 5, 1), (3, 3): (P ** 4, 6, 0)}
    SCALED_UNSTORED = [(NormValue(Fraction(5, 2)), Fraction(1, 3)),
                       (NormValue(Fraction(9, 4)), Fraction(1, 2))]
    SCALED_CAP = [(NormValue(Fraction(7, 3)), Fraction(3, 4))]

    # extra: (unstored lines, cap lines)
    @pytest.mark.parametrize("herr,extra", [
        (NormValue.unbounded(), ([], [])),
        (NormValue.zero(), ([(NormValue.unbounded(), Fraction(1, 4))], [])),
        (NormValue(Fraction(11, 4)), ([], [(NormValue.unbounded(), Fraction(2, 3))])),
        (NormValue.unbounded(), ([(NormValue(Fraction(1, 3)), Fraction(0))], [])),
    ])
    def test_exponents_scaled_by_the_common_denominator(self, herr, extra):
        model = GroupModel.abelian(2, P, prec=6, max_weight=6)
        unstored, cap = extra
        lam = Distribution(model, self.SCALED_ENTRIES, 6, Enclosure(
            herr, self.SCALED_UNSTORED + unstored, self.SCALED_CAP + cap))
        prof = lam._rnorm_profile()
        assert prof.D0 == 12
        assert prof.herr == (herr.exponent if herr.exponent in (inf, -inf)
                             else herr.exponent * 12)
        # every finite scaled value is an int
        for tau, e in prof.lower + prof.upper + prof.floors + prof.tails:
            assert type(e) is int or e in (inf, -inf), (tau, e)
        for s in NORM_RADII:
            r = RadiusParam(s)
            got = lam.norm(r)
            for want in (norm_by_entries(lam, r), norm_reference.norm(lam, r)):
                assert got.lower.exponent == want.lower.exponent, (s, got, want)
                assert got.upper.exponent == want.upper.exponent, (s, got, want)
            assert outcome(lam.principal_symbol, r) == \
                outcome(norm_reference.principal_symbol, lam, r), s
        assert lam.coeff_sup() == norm_reference.coeff_sup(lam) == coeff_sup_by_entries(lam)
        assert outcome(lam.r_threshold) == outcome(norm_reference.r_threshold, lam)

    def test_coeff_sup_ties_with_the_tail_bound(self):
        # a known valuation 2 beside a growth-0 tail bound p^-2
        model = GroupModel.abelian(2, P, prec=6, max_weight=6)
        lam = Distribution(model, {(1, 0): (P ** 2, 6, 0)}, 6,
                           Enclosure(unstored=[(NormValue(2), Fraction(0))]))
        assert lam.coeff_sup().exponent == 2


class TestLieGenerator:
    def test_coefficients(self):
        # log(1 + b1) = sum (-1)^(k+1) b1^k / k
        model = heis()
        lg = lie_generator(model, 0)
        for k in range(1, 13):
            want = PadicScalar.from_fraction(
                model.p, Fraction((-1) ** (k + 1), k), lg.coeff((k, 0, 0)).window
            )
            assert lg.coeff((k, 0, 0)).same_value(want)

    def test_truncation_below_the_generator_is_refused(self):
        with pytest.raises(DistError, match="below the generator's weight"):
            lie_generator(ab(1), 0, T=0)

    def test_symbol_high_radius(self):
        from padicdist.graded import GradedAmbient, GradedPoly

        model = heis()
        sym, deg = lie_generator(model, 0).principal_symbol(R12)
        a = GradedAmbient(P, 3, [1] * 3, Fraction(1, 2))
        assert sym == GradedPoly.variable(a, 1) and deg == Fraction(1, 2)

    def test_symbol_low_radius(self):
        from padicdist.graded import GradedAmbient, GradedPoly

        model = heis()
        r = RadiusParam(Fraction(1, 8))
        sym, deg = lie_generator(model, 0).principal_symbol(r)
        a = GradedAmbient(P, 3, [1] * 3, Fraction(1, 8))
        assert sym == GradedPoly(a, {(P, 0, 0, -1): 1})
        assert deg == Fraction(P, 8) - 1

    def test_symbol_tie_radius(self):
        model = heis()
        sym, _ = lie_generator(model, 0).principal_symbol(RadiusParam(Fraction(1, P - 1)))
        assert len(sym.terms) == 2

    @pytest.mark.parametrize("i", [3, -1, 1.5, "0", None])
    def test_index_outside_the_generators_rejected(self, i):
        # heisenberg:5 has the generators 0, 1 and 2
        model = GroupModel.heisenberg(5, max_weight=4)
        with pytest.raises(DistError, match="generator index"):
            lie_generator(model, i, 4)

    @pytest.mark.parametrize("p,T", [(5, 6), (7, 12), (5, 30), (3, 30)])
    def test_tail_certificate_covers_every_k(self, p, T):
        # the tail claims |1/k| = p^(v_p(k)) <= p^(t*k) for every k > T;
        # a growth read off the first prime power past T alone fails here
        model = GroupModel.abelian(1, p, prec=12, max_weight=Fraction(T))
        enc = lie_generator(model, 0).enclosure
        (cert,) = enc.unstored
        assert enc.cap == () and enc.stored.is_zero
        assert cert.bound == NormValue.one()
        for k in range(T + 1, p ** 2 * T):
            v, n = 0, k
            while n % p == 0:
                v, n = v + 1, n // p
            assert v <= cert.growth * k, (k, v, cert.growth)


class TestSymbolGuards:
    def test_zero_has_no_symbol(self):
        model = heis()
        with pytest.raises(DistError):
            Distribution.zero_dist(model).principal_symbol(R12)

    def test_s_must_be_below_one(self):
        model = heis()
        with pytest.raises(DistError):
            Distribution.one(model).principal_symbol(RadiusParam(1))

    def test_homomorphism_on_monomials(self):
        model = heis()
        b1 = Distribution.monomial(model, (1, 0, 0))
        b2 = Distribution.monomial(model, (0, 1, 0))
        s1, _ = b1.principal_symbol(R12)
        s2, _ = b2.principal_symbol(R12)
        sp, _ = (b1 * b2).principal_symbol(R12)
        assert sp == s1 * s2


class TestConjugationAndBasis:
    def test_sigma_on_b(self):
        model = GroupModel.semidirect(P, prec=12, max_weight=T)
        out = Distribution.monomial(model, (1,)).conjugate("sigma")
        for k in range(1, 13):
            assert out.coeff((k,)).same_value(sc(model, (-1) ** k))

    def test_inner_conjugation_preserves_norm(self):
        model = heis()
        g = model.element([2, 1, 3])
        lam = Distribution.from_coeffs(model, {(1, 0, 0): 1, (0, 0, 1): P}, T)
        n0 = lam.norm(R12)
        n1 = lam.conjugate(g).norm(R12)
        assert n0.collapsed and n1.collapsed and n0.lower == n1.lower

    def test_element_of_another_model_is_refused(self):
        lam = Distribution.monomial(heis(), (1, 0, 0))
        for other in (GroupModel.heisenberg(7), ab(3)):
            with pytest.raises(ModelMismatch):
                lam.conjugate(other.element([1, 0, 0]))

    def test_sigma_needs_the_semidirect_model(self):
        lam = Distribution.monomial(heis(), (1, 0, 0))
        with pytest.raises(ModelError, match="sigma conjugation is defined only"):
            lam.conjugate("sigma")

    def test_action_that_is_no_element_is_refused(self):
        with pytest.raises(DistError, match="undefined conjugation action 42"):
            Distribution.monomial(heis(), (1, 0, 0)).conjugate(42)

    def test_change_basis_b1_example(self):
        model = ab(2)
        h1, h2 = model.element([1, 0]), model.element([0, 1])
        out = Distribution.monomial(model, (1, 0)).change_basis([model.gmul(h1, h2), h2])
        assert out.coeff((1, 0)).same_value(sc(model, 1))
        assert out.coeff((0, 1)).same_value(sc(model, -1))
        assert out.coeff((1, 1)).same_value(sc(model, -1))

    def test_change_basis_keeps_exact_images_exact(self):
        # delta_{h1 h2} is exactly 1 + b'2 in the basis (h1, h1 h2, h3)
        model = GroupModel.heisenberg(P, prec=4, max_weight=2)
        basis = [model.element(c) for c in ([1, 0, 0], [1, 1, 0], [0, 0, 1])]
        out = Distribution.dirac(model.element([1, 1, 0])).change_basis(basis)
        assert out.exact and out.enclosure == Enclosure.EXACT
        assert out.coeffs == {(0, 0, 0): sc(model, 1).triple, (0, 1, 0): sc(model, 1).triple}
        # its support is in the other chart, on which the law does not act
        assert out.dirac_terms is None

    @pytest.mark.parametrize("x", [-2, P ** 15])
    def test_change_basis_keeps_other_images_inexact(self, x):
        # delta_x is its own image in the basis (h1): a negative x has no
        # finite expansion, and 5^15 = 0 mod p^W lifts to 0, which the basis
        # power does not rebuild to 5^15
        model = GroupModel.abelian(1, P, prec=12, max_weight=6)
        assert model.elem_prec == 15
        out = Distribution.dirac(model.element([x])).change_basis([model.element([1])])
        assert not out.exact
        for k in range(7):
            true = math.prod(range(x - k + 1, x + 1)) // math.factorial(k)
            assert out.coeff((k,)).same_value(PadicScalar.from_int(P, true, 40)), k


class TestRadiusThreshold:
    def test_oracles(self):
        model = ab(1)
        cases = [
            ({(0,): 1}, Fraction(1)),
            ({(0,): P, (1,): 1}, Fraction(1)),
            ({(0,): P, (3,): 1}, Fraction(1, 3)),
            # min(v0/(4-0), v2/(4-2)) = min(2/4, 1/2) = 1/2
            ({(0,): P * P, (2,): P, (4,): 1}, Fraction(1, 2)),
        ]
        for table, want in cases:
            a = Distribution.from_coeffs(model, table, T)
            assert a.r_threshold().s == want

    def test_requires_unit(self):
        model = ab(1)
        a = Distribution.from_coeffs(model, {(1,): P}, T)
        with pytest.raises(DistError):
            a.r_threshold()

    def test_requires_exact(self):
        model = ab(1)
        d = Distribution.dirac(model.element([-1]))
        with pytest.raises(DistError):
            d.r_threshold()

    def test_requires_integral(self):
        a = Distribution.from_coeffs(ab(1), {(0,): Fraction(1, P)}, T)
        assert a.exact
        with pytest.raises(DistError, match="requires an integral distribution"):
            a.r_threshold()

    def test_stored_zero_of_an_exact_head(self):
        # an exact file may store a zero (`12:0:12`); it is the value 0 and
        # bounds nothing, so the threshold is that of b1 alone
        text = "group=abelian:1:5 p=5 N=12 T=6/1 tail=0 exact=1\n0 : 12:0:12\n1 : 0:1:12\n"
        assert parse_distribution(text).r_threshold().s == 1


class TestSemidirect:
    def test_qnorm_of_p_sigma(self):
        model = GroupModel.semidirect(P, prec=12, max_weight=T)
        b = Distribution.monomial(model, (1,))
        mu = (b, Distribution.one(model).scale(P))
        for s in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            n = q_norm(mu, RadiusParam(s))
            assert n.collapsed and n.lower == NormValue(min(s, Fraction(1)))

    def test_semidirect_product_structure(self):
        # (0, 1)*(0, 1) = (delta_sigma)^2 = (1, 0)
        model = GroupModel.semidirect(P, prec=12, max_weight=T)
        zero = Distribution.zero_dist(model)
        one = Distribution.one(model)
        lam0, lam1 = semidirect_mul((zero, one), (zero, one))
        assert not lam1.coeffs
        assert lam0.coeff((0,)).same_value(sc(model, 1))

    def test_semidirect_product_needs_sigma(self):
        one = Distribution.one(ab(1))
        with pytest.raises(ModelError, match="sigma conjugation is defined only on the semidirect"):
            semidirect_mul((one, one), (one, one))

    def test_qnorm_needs_the_semidirect_model(self):
        one = Distribution.one(GroupModel.from_string("abelian:1:5"))
        with pytest.raises(ModelMismatch, match="q-norm is defined on the semidirect model"):
            q_norm((one, one), R12)


def inexact_head(src, K, growth=Fraction(0)):
    """The entries of src of degree <= K, with a growth-t tail certificate
    read off src's entries above K: an inexact distribution that src
    satisfies."""
    model = src.model
    bound = NormValue.zero()
    head = {}
    for alpha in src.coeffs:
        c = src.coeff(alpha)
        if sum(alpha) <= K:
            head[alpha] = c
        else:
            bound = max(bound, c.abs_val() * NormValue(growth * sum(alpha)))
    return Distribution.from_coeffs(model, head, K, Enclosure(unstored=[(bound, growth)]))


def heis_source():
    """An exact head up to degree 3 with a 1/p coefficient, at N = 4."""
    model = GroupModel.heisenberg(P, prec=4, max_weight=6)
    return Distribution.dirac_combination(model, [
        (1, model.element([2, 1, 0])), (Fraction(1, P), model.element([0, 2, 1])),
        (-1, model.element([1, 0, 2]))], 6)


def summary(lam):
    """What a result certifies: entries as (residue, prec, shift), the tail
    certificates and head error as exponents, and the norm interval at
    s = 1/2."""
    entries = {}
    for alpha in sorted(lam.coeffs):
        c = lam.coeff(alpha)
        entries[alpha] = (c.residue, c.prec, c.shift)
    return {
        "T": lam.T,
        "entries": entries,
        "certs": [(c.bound.exponent, c.growth, c.all_alpha) for c in tail_certs(lam)],
        "head_error": head_error(lam).exponent,
        "norm": [x.exponent for x in lam.norm(R12)],
    }


def assert_contains_exact_norm(lam, source):
    """lam's norm interval at s = 1/2 holds the norm of the distribution
    that its input came from, where that norm is known exactly."""
    want = source.norm(R12)
    assert want.collapsed
    got = lam.norm(R12)
    assert got.lower <= want.lower <= got.upper


class TestInexactHeads:
    """Operations on heads with a tail: entries, certificates, head error
    and norm pinned, each interval checked against the exact source."""

    CONJUGATE_ENTRIES = {
        (0, 0, 0): (1, 7, 1), (0, 0, 1): (1, 7, 1), (0, 0, 2): (100, 7, 1),
        (0, 1, 0): (7, 7, 1), (0, 1, 1): (78122, 7, 1), (0, 2, 0): (1, 7, 1),
        (1, 0, 0): (1, 7, 0), (1, 0, 1): (78118, 7, 0), (1, 1, 0): (2, 7, 0),
        (2, 0, 0): (1, 7, 0)}

    def test_conjugate(self):
        src = heis_source()
        g = src.model.element([1, 1, 0])
        out = inexact_head(src, 2).conjugate(g)
        assert summary(out) == {
            "T": 2,
            "entries": self.CONJUGATE_ENTRIES,
            "certs": [(-1, 0, True)],
            "head_error": -1,
            "norm": [inf, -1],
        }
        assert_contains_exact_norm(out, src.conjugate(g))

    def test_conjugate_without_a_growth_zero_tail(self):
        # no sup bound: the head error is unbounded and nothing is certified
        src = heis_source()
        g = src.model.element([1, 1, 0])
        out = inexact_head(src, 2, Fraction(1, 2)).conjugate(g)
        assert summary(out) == {
            "T": 2,
            "entries": self.CONJUGATE_ENTRIES,
            "certs": [],
            "head_error": -inf,
            "norm": [inf, -inf],
        }
        assert_contains_exact_norm(out, src.conjugate(g))

    def test_change_basis(self):
        # the r-norm does not depend on the ordered basis.  The head's Dirac
        # points have exact images in the new chart, whose binomial rows end
        # at their coordinates, so an entry that only the terms of shift 0
        # reach keeps their window p^7, where rows to T gave it the shift-1
        # terms' p^6: b'3^2 is 3, not 15/5, and b'1 is 1, not 5/5
        src = heis_source()
        basis = _second_basis(src.model)
        out = inexact_head(src, 2).change_basis(basis)
        assert summary(out) == {
            "T": 2,
            "entries": {
                (0, 0, 0): (1, 7, 1), (0, 0, 1): (78111, 7, 1), (0, 0, 2): (3, 7, 0),
                (0, 1, 0): (7, 7, 1), (0, 1, 1): (78117, 7, 1), (0, 2, 0): (1, 7, 1),
                (1, 0, 0): (1, 7, 0), (1, 0, 1): (78120, 7, 0), (1, 1, 0): (2, 7, 0),
                (2, 0, 0): (1, 7, 0)},
            "certs": [(-1, 0, True)],
            "head_error": -1,
            "norm": [inf, -1],
        }
        assert_contains_exact_norm(out, src)

    def test_mul(self):
        # a growth-0 tail: the head error is the tail bound times the
        # other factor's coefficient sup
        src = heis_source()
        h = Distribution.dirac(src.model.element([0, 0, 1]))
        out = inexact_head(src, 2).mul(h)
        assert summary(out) == {
            "T": 2,
            "entries": {
                (0, 0, 0): (1, 7, 1), (0, 0, 1): (78117, 7, 1), (0, 0, 2): (78111, 7, 1),
                (0, 1, 0): (7, 7, 1), (0, 1, 1): (9, 7, 1), (0, 2, 0): (1, 7, 1),
                (1, 0, 0): (1, 7, 0), (1, 0, 1): (78124, 7, 0), (1, 1, 0): (2, 7, 0),
                (2, 0, 0): (1, 7, 0)},
            "certs": [(-1, 0, True)],
            "head_error": -1,
            "norm": [inf, -1],
        }
        assert_contains_exact_norm(out, src.mul(h))

    def test_mul_without_a_growth_zero_tail(self):
        # only a growth-1/2 tail: no head error bound, but s_work certifies
        # the product at growth 1/2
        src = heis_source()
        h = Distribution.dirac(src.model.element([0, 0, 1]))
        out = inexact_head(src, 2, Fraction(1, 2)).mul(h, s_work=Fraction(1, 2))
        assert summary(out) == {
            "T": 2,
            "entries": {
                (0, 0, 0): (1, 7, 1), (0, 0, 1): (78117, 7, 1), (0, 0, 2): (78111, 7, 1),
                (0, 1, 0): (7, 7, 1), (0, 1, 1): (9, 7, 1), (0, 2, 0): (1, 7, 1),
                (1, 0, 0): (1, 7, 0), (1, 0, 1): (78124, 7, 0), (1, 1, 0): (2, 7, 0),
                (2, 0, 0): (1, 7, 0)},
            "certs": [(-1, Fraction(1, 2), True)],
            "head_error": -inf,
            "norm": [inf, -1],
        }
        assert_contains_exact_norm(out, src.mul(h))

    def test_add_entry_missing_from_inexact_operand(self):
        # b3^3 lies beyond the inexact head and above the sum's T = 2: the
        # sum cuts it off and its tail certificate covers it, so no entry of
        # the sum lacks an inexact operand's value and no head error is added
        src = heis_source()
        b = Distribution.monomial(src.model, (0, 0, 3))
        out = inexact_head(src, 2) + b
        assert summary(out) == {
            "T": 2,
            "entries": {
                (0, 0, 0): (1, 7, 1), (0, 0, 1): (78116, 7, 1), (0, 0, 2): (78124, 7, 0),
                (0, 1, 0): (7, 7, 1), (0, 1, 1): (2, 7, 1), (0, 2, 0): (1, 7, 1),
                (1, 0, 0): (1, 7, 0), (1, 0, 1): (78123, 7, 0), (1, 1, 0): (2, 7, 0),
                (2, 0, 0): (1, 7, 0)},
            "certs": [(-1, 0, False)],
            "head_error": inf,
            "norm": [-1, -1],
        }
        assert_contains_exact_norm(out, src + b)


def standard_basis(model):
    return [model.element([int(i == j) for j in range(model.d)]) for i in range(model.d)]


class TestWhatAnInexactHeadLeavesOut:
    """conjugate, change_basis and mul bound what an inexact head's Dirac
    decomposition leaves out by the larger of the growth-0 tail and the
    head error, and certify nothing without a growth-0 tail."""

    @pytest.mark.parametrize("op", ["mul", "conjugate", "change_basis"])
    def test_head_error_above_the_tail(self, op):
        # the head 25 at degree 0 with error p^0 admits the value 1 there,
        # of norm p^0, though its tail is only p^-5
        model = GroupModel.heisenberg(P, prec=12, max_weight=3)
        lam = Distribution.from_coeffs(
            model, {(0, 0, 0): 25}, 3, Enclosure(NormValue(0), [(NormValue(5), Fraction(0))]))
        if op == "mul":
            out = lam.mul(Distribution.one(model, 3))
        elif op == "conjugate":
            out = lam.conjugate(model.element([1, 0, 0]))
        else:
            out = lam.change_basis(standard_basis(model))
        n = out.norm(R12)
        assert n.lower <= NormValue(0) <= n.upper

    def test_change_basis_without_a_growth_zero_tail(self):
        # log(1 + b1) has the entry 1/25 at degree 25 > T, of norm
        # |1/25| r^25 = p^(2 - 25/50) at s = 1/50
        model = GroupModel.from_string("heisenberg:5")
        lam = lie_generator(model, 0, T=6)
        out = lam.change_basis(standard_basis(model))
        assert out.enclosure.unstored == out.enclosure.cap == ()
        assert out.norm(RadiusParam(Fraction(1, 50))).upper >= NormValue(Fraction(-3, 2))



# every library entry point that takes a truncation weight T, as a function
# of T whose value is comparable
TRUNCATION_ENTRY_POINTS = {
    "GroupModel": lambda T: GroupModel.abelian(2, P, prec=6, max_weight=T).max_weight,
    "Distribution": lambda T: serialize_distribution(
        Distribution(ab(2), {(1, 0): (1, 6, 0)}, T)),
    "monomial": lambda T: serialize_distribution(Distribution.monomial(ab(2), (1, 2), T)),
    "dirac_combination": lambda T: serialize_distribution(
        Distribution.dirac_combination(ab(2), [(3, ab(2).element([2, 1]))], T)),
    "mul": lambda T: serialize_distribution(
        Distribution.dirac(heis().element([1, 2, 0])).mul(
            Distribution.monomial(heis(), (1, 0, 0)), T=T)),
    "structure_constants": lambda T: list(
        structure_constants(heis(), (0, 2, 0), (2, 0, 0), T)[0].items()),
    "lie_generator": lambda T: serialize_distribution(lie_generator(ab(2), 1, T)),
    "SuiteParams": lambda T: SuiteParams(T=T).T,
}


class TestTruncationRule:
    """One rule for T everywhere: a rational T >= 0 truncates like its
    floor, and a negative T is refused with ModelError."""

    @pytest.mark.parametrize("entry", sorted(TRUNCATION_ENTRY_POINTS))
    def test_half_integer_acts_as_its_floor(self, entry):
        f = TRUNCATION_ENTRY_POINTS[entry]
        assert f(Fraction(13, 2)) == f(6)

    @pytest.mark.parametrize("entry", sorted(TRUNCATION_ENTRY_POINTS))
    def test_negative_is_refused(self, entry):
        with pytest.raises(ModelError, match=r"^truncation weight T must be >= 0, got -1$"):
            TRUNCATION_ENTRY_POINTS[entry](-1)

    @pytest.mark.parametrize("entry, bad", [
        (entry, bad) for entry in sorted(TRUNCATION_ENTRY_POINTS)
        for bad in (inf, math.nan, "12", None)
        # these read None as the default weight
        if not (bad is None and entry in ("dirac_combination", "lie_generator", "monomial",
                                          "mul"))])
    def test_no_finite_floor_is_refused(self, entry, bad):
        # inf, nan, a string and None escaped as OverflowError, ValueError
        # or TypeError
        with pytest.raises(ModelError, match=r"^truncation weight T must be a finite rational"):
            TRUNCATION_ENTRY_POINTS[entry](bad)

    def test_ints_past_the_rule(self):
        model = GroupModel.abelian(2, P, prec=6, max_weight=Fraction(13, 2))
        assert type(Distribution.one(model).T) is int
        assert type(SuiteParams(T=Fraction(25, 2)).T) is int

    def test_file_header(self):
        head = "group=abelian:1:5 p=5 N=6 T={} tail=0 exact=1\n0 : 0:1:6\n"
        assert serialize_distribution(parse_distribution(head.format("13/2"))) == \
            serialize_distribution(parse_distribution(head.format("6/1")))
        with pytest.raises(ParseError, match="truncation weight T must be >= 0"):
            parse_distribution(head.format("-1/1"))


class IntegerEntry(NamedTuple):
    """A library entry point that reads an integer, or a tuple of d of them,
    from a caller: ``f`` of the value under test gives a comparable output,
    ``good`` is a value it accepts and ``error`` its module's error.
    ``nonnegative`` marks the readers that refuse a negative entry; ``key``
    the ones that read a dict key, which a list cannot be."""

    f: Callable
    good: int | tuple
    error: type
    nonnegative: bool = False
    key: bool = False


def _table():
    return MahlerTable(2, P, 6, 4, {(1, 2): (1, 6, 0), (0, 1): (3, 6, 0)}, decay=(NormValue.zero(), 0))


def _projection():
    return finite_level_project(Distribution.dirac(ab(2).element([2, 3])), 1)


def _graded():
    return GradedAmbient(P, 2, [1, 1], Fraction(1, 2))


# every library entry point that reads a caller integer, as a function of it
INTEGER_ENTRY_POINTS = {
    # tuple readers
    "Distribution": IntegerEntry(lambda a: serialize_distribution(
        Distribution(ab(2), {a: (1, 6, 0)}, 6, Enclosure.EXACT)), (1, 2), DistError, True, True),
    "from_coeffs": IntegerEntry(lambda a: serialize_distribution(
        Distribution.from_coeffs(ab(2), {a: 3}, 6)), (1, 2), DistError, True, True),
    "monomial": IntegerEntry(lambda a: serialize_distribution(
        Distribution.monomial(ab(2), a, 6)), (1, 2), DistError, True),
    "coeff": IntegerEntry(lambda a: Distribution.dirac(ab(2).element([2, 3])).coeff(a).triple,
                          (1, 2), DistError, True),
    "structure_constants": IntegerEntry(lambda a: list(
        structure_constants(heis(), a, (2, 0, 0), 6)[0].items()), (0, 2, 0), DistError, True),
    "MahlerTable": IntegerEntry(lambda a: serialize_mahler(
        MahlerTable(2, P, 6, 4, {a: (1, 6, 0)}, decay=(NormValue.zero(), 0))), (1, 2), MahlerError, True, True),
    "MahlerTable.coeff": IntegerEntry(lambda a: _table().coeff(a).triple, (1, 2), MahlerError,
                                      True),
    "MahlerTable.evaluate": IntegerEntry(lambda x: _table().evaluate(x).triple, (3, -4),
                                         MahlerError),
    "FunctionSpec.monomial": IntegerEntry(lambda a: FunctionSpec.monomial(2, P, a).id, (1, 2),
                                          MahlerError, True),
    "FunctionSpec.indicator": IntegerEntry(lambda a: FunctionSpec.indicator(2, P, a, 1).id,
                                           (2, -3), MahlerError),
    "FunctionSpec.evaluate": IntegerEntry(
        lambda x: FunctionSpec.monomial(2, P, (1, 2)).evaluate(x), (3, -4), MahlerError),
    "GroupAlgebraElement": IntegerEntry(lambda k: repr(GroupAlgebraElement(
        ab(2), 1, {k: (1, 6, 0)}).coeffs), (2, -3), MahlerError, key=True),
    "GroupAlgebraElement.coeff": IntegerEntry(lambda k: _projection().coeff(k).triple, (2, -2),
                                              MahlerError),
    "GroupModel.element": IntegerEntry(lambda x: ab(2).element(x).coords, (2, -3), ModelError),
    "GradedPoly": IntegerEntry(lambda m: GradedPoly(_graded(), {m: 3}).terms, (1, 0, -2),
                               GradedError, key=True),
    # scalar readers
    "GroupModel p": IntegerEntry(lambda p: serialize_distribution(Distribution.dirac(
        GroupModel("abelian", p, 2, prec=6, max_weight=4).element([1, 2]))), 5, ModelError),
    "GroupModel prec": IntegerEntry(lambda n: serialize_distribution(Distribution.dirac(
        GroupModel.abelian(2, P, prec=n, max_weight=4).element([1, 2]))), 6, ModelError),
    "GroupModel d": IntegerEntry(lambda d: GroupModel("abelian", P, d, prec=6, max_weight=4).id,
                                 2, ModelError),
    "GroupModel.gpow": IntegerEntry(lambda t: heis().gpow(heis().element([1, 2, 3]), t).coords,
                                    2, ModelError),
    "lie_generator index": IntegerEntry(lambda i: serialize_distribution(
        lie_generator(ab(2), i, 4)), 1, DistError),
    "mahler_coeffs cap": IntegerEntry(lambda A: serialize_mahler(
        mahler_coeffs(FunctionSpec.monomial(2, P, (2, 1)), A, prec=6)), 2, MahlerError),
    "mahler_coeffs prec": IntegerEntry(lambda n: serialize_mahler(
        mahler_coeffs(FunctionSpec.monomial(2, P, (2, 1)), 4, prec=n)), 6, MahlerError),
    "MahlerTable p": IntegerEntry(lambda p: serialize_mahler(
        MahlerTable(2, p, 6, 4, {(1, 2): (1, 6, 0)})), 5, MahlerError),
    "MahlerTable d": IntegerEntry(lambda d: serialize_mahler(
        MahlerTable(d, P, 6, 4, {(1, 2): (1, 6, 0)})), 2, MahlerError),
    "MahlerTable cap": IntegerEntry(lambda A: serialize_mahler(
        MahlerTable(2, P, 6, A, {(1, 2): (1, 6, 0)})), 4, MahlerError),
    "MahlerTable prec": IntegerEntry(lambda n: serialize_mahler(
        MahlerTable(2, P, n, 4, {(1, 2): (1, 6, 0)})), 6, MahlerError),
    "GroupAlgebraElement level": IntegerEntry(lambda n: repr(GroupAlgebraElement(
        ab(2), n, {(2, 3): (1, 6, 0)}).coeffs), 2, MahlerError),
    "finite_level_project": IntegerEntry(lambda n: repr(finite_level_project(
        Distribution.dirac(ab(2).element([2, 3])), n).coeffs), 1, MahlerError),
    "FunctionSpec p": IntegerEntry(lambda p: serialize_mahler(
        mahler_coeffs(FunctionSpec.coordinate(2, p, 0), 4, prec=6)), 5, MahlerError),
    "FunctionSpec d": IntegerEntry(lambda d: serialize_mahler(
        mahler_coeffs(FunctionSpec.coordinate(d, P, 0), 4, prec=6)), 2, MahlerError),
    "FunctionSpec.indicator level": IntegerEntry(
        lambda n: FunctionSpec.indicator(2, P, (2, 3), n).id, 2, MahlerError),
    "GradedAmbient p": IntegerEntry(lambda p: repr(GradedAmbient(p, 2, [1, 1], Fraction(1, 2))),
                                    5, GradedError),
    "GradedAmbient d": IntegerEntry(lambda d: repr(GradedAmbient(P, d, [1, 1], Fraction(1, 2))),
                                    2, GradedError),
    "GradedPoly coefficient": IntegerEntry(lambda c: GradedPoly(_graded(), {(1, 0, 0): c}).terms,
                                           3, GradedError),
    "GradedPoly.variable": IntegerEntry(lambda i: GradedPoly.variable(_graded(), i).terms, 2,
                                        GradedError),
}


def _malformed(entry):
    """Inputs that are no integer (or no d of them) for the entry."""
    good = entry.good
    if isinstance(good, int):
        return [str(good), None, (good,), inf, -inf, math.nan, good + 0.5, Fraction(1, 2)]
    d = len(good)
    rest = good[1:]
    out = [("a",) + rest, (None,) + rest, (inf,) + rest, (math.nan,) + rest,
           (good[0] + 0.5,) + rest, (Fraction(1, 2),) + rest, good[:-1], good + (0,),
           5, None, "1" * d]
    if entry.nonnegative:
        out.append((-1,) + rest)
    return out


def _spellings(entry):
    """Spellings of the entry's good value that read as the same ints."""
    good = entry.good
    if isinstance(good, int):
        return [float(good), Fraction(good)]
    out = [tuple(map(float, good)), tuple(map(Fraction, good))]
    if not entry.key:
        out.append(list(good))
    return out


# inputs that a reader without the rule stored, or refused with an error
# that is not its module's, each with the error now raised or the value now
# returned: a stored negative key makes lambda * 1 != lambda and writes a file
# that does not parse, and a short one breaks mul
INTEGER_DEFECTS = {
    "negative-key": (lambda: Distribution(heis(), {(-1, 2, 0): (1, 12, 0)}, 4, Enclosure.EXACT),
                     DistError),
    "short-key": (lambda: Distribution(heis(), {(1, 2): (1, 12, 0)}, 4, Enclosure.EXACT),
                  DistError),
    "mahler-negative-key": (lambda: MahlerTable(1, 5, 12, 4, {(-1,): (1, 12, 0)}, decay=(NormValue.zero(), 0)),
                            MahlerError),
    "project-level": (lambda: finite_level_project(Distribution.dirac(ab(2).element([1, 2])), 1.5),
                      MahlerError),
    "mahler-cap": (lambda: mahler_coeffs(FunctionSpec.coordinate(1, P, 0), 2.5), MahlerError),
    "model-prec": (lambda: GroupModel.from_string("abelian:1:5", prec=2.5), ModelError),
    "graded-text": (lambda: GradedPoly(_graded(), {("a", 0, 0): 1}), GradedError),
    "graded-none": (lambda: GradedPoly(_graded(), {(None, 0, 0): 1}), GradedError),
    "graded-int": (lambda: GradedPoly(_graded(), {5: 1}), GradedError),
    "graded-inf": (lambda: GradedPoly(_graded(), {(inf, 0, 0): 1}), GradedError),
    "coset-int": (lambda: GroupAlgebraElement(ab(2), 1, {5: (1, 12, 0)}), MahlerError),
    "evaluate-int": (lambda: FunctionSpec.coordinate(2, P, 0).evaluate(5), MahlerError),
    "element-int": (lambda: ab(2).element(5), ModelError),
    # the prime test looped for ever on an infinite p, and passed a NaN
    "model-prime-inf": (lambda: GroupModel("abelian", inf, 2), ModelError),
    "model-prime-nan": (lambda: GroupModel("abelian", math.nan, 2), ModelError),
    # a dimension True was stored as is: the id read abelian:True:5, and
    # every file the model wrote failed to parse
    "model-d-true": (lambda: parse_distribution(serialize_distribution(
        Distribution.one(GroupModel("abelian", 5, True)))).model.id, "abelian:1:5"),
}


class TestIntegerRule:
    """One rule for caller integers (``padic.as_int`` and ``int_tuple``): an
    integral value is read as an int, and anything else is refused with the
    entry point's module error, never TypeError, ValueError or
    OverflowError."""

    @pytest.mark.parametrize("name, bad", [
        (name, bad) for name, entry in INTEGER_ENTRY_POINTS.items() for bad in _malformed(entry)])
    def test_malformed_is_refused(self, name, bad):
        entry = INTEGER_ENTRY_POINTS[name]
        with pytest.raises(entry.error, match="integer"):
            entry.f(bad)

    @pytest.mark.parametrize("name", sorted(INTEGER_ENTRY_POINTS))
    def test_integral_spellings_read_as_ints(self, name):
        entry = INTEGER_ENTRY_POINTS[name]
        want = entry.f(entry.good)
        for spelling in _spellings(entry):
            assert repr(entry.f(spelling)) == repr(want)

    @pytest.mark.parametrize("name", sorted(INTEGER_DEFECTS))
    def test_named_defects(self, name):
        make, want = INTEGER_DEFECTS[name]
        if isinstance(want, str):
            assert make() == want
        else:
            with pytest.raises(want):
                make()


class ContainerEntry(NamedTuple):
    """A library entry point that reads a caller's container of scalars:
    ``f`` of the container, ``error`` its module's error and ``good`` a
    container it takes."""

    f: Callable
    error: type
    good: object


# every library entry point that reads a caller's container of scalars, as a
# function of it: a table is a mapping, dirac_combination's terms are
# (coefficient, element) pairs and parse_scalar's literal is text
CONTAINER_ENTRY_POINTS = {
    "Distribution": ContainerEntry(lambda x: Distribution(ab(1), x, 4), DistError,
                                   {(1,): (2, 6, 0)}),
    "from_coeffs": ContainerEntry(lambda x: Distribution.from_coeffs(ab(1), x, 4), DistError,
                                  {(1,): 2}),
    "dirac_combination": ContainerEntry(lambda x: Distribution.dirac_combination(ab(1), x, 4),
                                        DistError, [(2, ab(1).element([3]))]),
    "MahlerTable": ContainerEntry(lambda x: MahlerTable(1, 5, 6, 4, x), MahlerError,
                                  {(1,): (2, 6, 0)}),
    "GroupAlgebraElement": ContainerEntry(lambda x: GroupAlgebraElement(ab(1), 1, x),
                                          MahlerError, {(2,): 3}),
    "parse_scalar": ContainerEntry(lambda x: parse_scalar(5, x), ParseError, "0:2:6"),
}

# containers that no entry point takes: each raised TypeError or
# AttributeError (and a list of pairs was read as a table by the
# constructors) before the rule
CONTAINER_MALFORMED = {"int": 5, "None": None, "list of ints": [1], "pairs": [((1,), 2)],
                       "point not an element": [(2, 3)]}


class TestContainerRule:
    """One rule for a caller's container of scalars (``padic.as_items`` and
    ``as_pairs``): what is not the container an entry point reads is refused
    with its module's error."""

    @pytest.mark.parametrize("name, bad", [
        (name, bad) for name in CONTAINER_ENTRY_POINTS for bad in CONTAINER_MALFORMED])
    def test_malformed_is_refused(self, name, bad):
        entry = CONTAINER_ENTRY_POINTS[name]
        with pytest.raises(PadicError) as info:
            entry.f(CONTAINER_MALFORMED[bad])
        assert info.type is entry.error, info.value

    @pytest.mark.parametrize("name", sorted(CONTAINER_ENTRY_POINTS))
    def test_good_is_taken(self, name):
        entry = CONTAINER_ENTRY_POINTS[name]
        entry.f(entry.good)


class RationalEntry(NamedTuple):
    """A library entry point that reads a caller rational: ``f`` of the
    value under test gives a comparable output, ``error`` is its module's
    error and ``none_is_default`` marks a reader of None as its default."""

    f: Callable
    error: type
    none_is_default: bool = False


def _product(s_work):
    return Distribution.dirac(heis().element([1, 2, 0])).mul(
        Distribution.monomial(heis(), (1, 0, 0)), s_work=s_work).enclosure


# every library entry point that reads a caller rational other than a
# truncation weight T, as a function of it
RATIONAL_ENTRY_POINTS = {
    "RadiusParam": RationalEntry(RadiusParam, DistError),
    "GradedAmbient": RationalEntry(lambda s: GradedAmbient(P, 2, [1, 1], s), GradedError),
    "mul": RationalEntry(_product, DistError, True),
    "mul-tuple": RationalEntry(lambda s: _product((Fraction(1, 4), s)), DistError),
    "amice_report": RationalEntry(lambda u: amice_report(_table(), [u]), MahlerError),
}


class TestRationalRule:
    """One rule for caller rationals (``padic.as_rational``): an int or a
    Fraction is read as it is and a float or Decimal at its exact value;
    anything else is refused with the entry point's module error, never
    TypeError, OverflowError or Fraction's own ValueError."""

    @pytest.mark.parametrize("name, bad", [
        (name, bad) for name, entry in RATIONAL_ENTRY_POINTS.items()
        for bad in (inf, -inf, math.nan, None, "1/2", 1j)
        if not (bad is None and entry.none_is_default)])
    def test_no_finite_rational_is_refused(self, name, bad):
        # inf, None and 1j escaped as OverflowError or TypeError, nan with
        # Fraction's own ValueError, and "1/2" was read as a Fraction or, in
        # s_work, character by character
        entry = RATIONAL_ENTRY_POINTS[name]
        with pytest.raises(entry.error, match=r"^\w[\w ]* must be a finite rational, got "):
            entry.f(bad)

    @pytest.mark.parametrize("name", sorted(RATIONAL_ENTRY_POINTS))
    def test_exact_spellings_read_alike(self, name):
        f = RATIONAL_ENTRY_POINTS[name].f
        want = repr(f(Fraction(1, 2)))
        assert repr(f(0.5)) == repr(f(Decimal("0.5"))) == want


class ScalarEntry(NamedTuple):
    """A library entry point that reads a caller scalar: ``f`` of the value
    under test gives a comparable output and ``error`` is its module's
    error.  ``kind`` says what it takes: "stored" triples only, any
    "coefficient" (a rational, a PadicScalar of its prime or a triple), a
    "rational", a norm "exponent" (a rational or an infinity) or an
    "integer", of which ``good`` is one."""

    f: Callable
    error: type
    kind: str
    good: int | None = None


def _fields(c):
    return c.p, c.prec, c.residue, c.shift


# every library entry point that reads a caller scalar (a distribution or
# Mahler coefficient, a PadicScalar field or a NormValue exponent), as a
# function of it
SCALAR_ENTRY_POINTS = {
    "Distribution": ScalarEntry(lambda c: serialize_distribution(
        Distribution(ab(1), {(1,): c}, 4, Enclosure.EXACT)), DistError, "stored"),
    "from_coeffs": ScalarEntry(lambda c: serialize_distribution(
        Distribution.from_coeffs(ab(1), {(1,): c}, 4)), DistError, "coefficient"),
    "scale": ScalarEntry(lambda c: serialize_distribution(
        Distribution.monomial(ab(1), (1,), 4).scale(c)), DistError, "coefficient"),
    "dirac_combination": ScalarEntry(lambda c: serialize_distribution(
        Distribution.dirac_combination(ab(1), [(c, ab(1).element([2]))], 4)), DistError,
        "coefficient"),
    "MahlerTable": ScalarEntry(lambda c: serialize_mahler(
        MahlerTable(1, P, 6, 4, {(1,): c}, decay=(NormValue.zero(), 0))), MahlerError, "stored"),
    "GroupAlgebraElement": ScalarEntry(lambda c: repr(GroupAlgebraElement(
        ab(1), 1, {(2,): c}).coeffs), MahlerError, "coefficient"),
    "PadicScalar p": ScalarEntry(lambda p: _fields(PadicScalar(p, 6, 7)), PadicError,
                                 "integer", P),
    "PadicScalar prec": ScalarEntry(lambda n: _fields(PadicScalar(P, n, 7)), PadicError,
                                    "integer", 6),
    "PadicScalar residue": ScalarEntry(lambda r: _fields(PadicScalar(P, 6, r)), PadicError,
                                       "integer", 7),
    "PadicScalar shift": ScalarEntry(lambda k: _fields(PadicScalar(P, 6, 7, k)), PadicError,
                                     "integer", 2),
    "from_int": ScalarEntry(lambda n: _fields(PadicScalar.from_int(P, n, 6)), PadicError,
                            "integer", 7),
    "from_int prec": ScalarEntry(lambda n: _fields(PadicScalar.from_int(P, 7, n)), PadicError,
                                 "integer", 6),
    "from_fraction": ScalarEntry(lambda x: _fields(PadicScalar.from_fraction(P, x, 6)),
                                 PadicError, "rational"),
    "from_fraction prec": ScalarEntry(lambda n: _fields(PadicScalar.from_fraction(
        P, Fraction(1, 3), n)), PadicError, "integer", 6),
    "zero": ScalarEntry(lambda n: _fields(PadicScalar.zero(P, n)), PadicError, "integer", 6),
    "one": ScalarEntry(lambda n: _fields(PadicScalar.one(P, n)), PadicError, "integer", 6),
    "NormValue": ScalarEntry(lambda e: repr(NormValue(e)), PadicError, "exponent"),
    "parse_scalar": ScalarEntry(lambda p: _fields(parse_scalar(p, "0:1:6")), ParseError,
                                "integer", P),
}

# inputs that are no scalar of any kind, but for those that ``kind`` takes
SCALAR_MALFORMED = {
    "text": "1/2", "nan": math.nan, "inf": inf, "-inf": -inf, "None": None, "complex": 1j,
    "float": 7.5, "float residue": (1.5, 6, 0), "pair": (1, 6),
    "other prime": PadicScalar(7, 3, 6),
}
SCALAR_TAKES = {"coefficient": {"float"}, "rational": {"float"},
                "exponent": {"float", "inf", "-inf"}}


class TestScalarRule:
    """One rule for caller scalars: a coefficient or a norm exponent is read
    by ``padic.as_rational``, a triple or PadicScalar field by ``as_int``, a
    PadicScalar of another prime is refused, and every refusal is the entry
    point's module error, never TypeError, ValueError or OverflowError."""

    @pytest.mark.parametrize("name, bad", [
        (name, bad) for name, entry in SCALAR_ENTRY_POINTS.items() for bad in SCALAR_MALFORMED
        if bad not in SCALAR_TAKES.get(entry.kind, ())])
    def test_malformed_is_refused(self, name, bad):
        # "1/2" and "3" were read as Fractions, a PadicScalar of p = 7 was
        # stored by its residue, a float residue was stored as a float, and
        # the rest escaped as TypeError, ValueError or OverflowError
        entry = SCALAR_ENTRY_POINTS[name]
        with pytest.raises(PadicError) as info:
            entry.f(SCALAR_MALFORMED[bad])
        assert info.type is entry.error, info.value

    @pytest.mark.parametrize("name", sorted(
        name for name, entry in SCALAR_ENTRY_POINTS.items() if entry.kind in SCALAR_TAKES))
    def test_exact_spellings_read_alike(self, name):
        f = SCALAR_ENTRY_POINTS[name].f
        want = repr(f(Fraction(1, 2)))
        assert repr(f(0.5)) == repr(f(Decimal("0.5"))) == want

    @pytest.mark.parametrize("name", sorted(
        name for name, entry in SCALAR_ENTRY_POINTS.items() if entry.kind == "integer"))
    def test_integral_spellings_read_as_ints(self, name):
        entry = SCALAR_ENTRY_POINTS[name]
        want = repr(entry.f(entry.good))
        for spelling in (float(entry.good), Fraction(entry.good), Decimal(entry.good)):
            assert repr(entry.f(spelling)) == want

    def test_a_scalar_of_another_prime_was_read_by_its_residue(self):
        # 6 mod 7^3 was stored as (6, 3, 0), 6 mod 5^3
        model = GroupModel.from_string("abelian:1:5")
        with pytest.raises(DistError, match="not a scalar of p = 5"):
            Distribution.from_coeffs(model, {(0,): PadicScalar(7, 3, 6)}, 3)


class TestCallerTriples:
    """A triple given by a caller is read as the PadicScalar it names, and a
    constructor takes only triples in the stored form."""

    @staticmethod
    def model():
        model = GroupModel.abelian(1, P, prec=12, max_weight=4)
        assert model.elem_prec == 14
        return model

    def test_constructor_refuses_an_unreduced_residue(self):
        # 5^14 mod 5^14 is 0, so a norm p^-14 .. p^-14 would be false
        with pytest.raises(DistError, match=r"coefficient at \(0,\) is not a stored triple"):
            Distribution(self.model(), {(0,): (5 ** 14, 14, 0)}, 4, Enclosure.EXACT)

    def test_from_coeffs_refuses_an_empty_window(self):
        with pytest.raises(PrecisionExhausted):
            Distribution.from_coeffs(self.model(), {(0,): (1, 0, 0)}, 4)

    def test_from_coeffs_keeps_a_windowed_zero(self):
        # 0 mod 5 may be 5, of norm p^-2 at s = 1: an entry, not an exact zero
        model = self.model()
        lam = Distribution.from_coeffs(model, {(1,): PadicScalar(P, 1, 0), (3,): 1}, 4)
        assert lam.coeffs == {(1,): (0, 1, 0), (3,): (1, 14, 0)}
        assert str(lam.norm(RadiusParam(1))) == "p^-3 .. p^-2"

    def test_scale_refuses_an_empty_window(self):
        with pytest.raises(PrecisionExhausted):
            Distribution.one(self.model()).scale((1, 0, 0))

    def test_scale_refuses_a_float_residue(self):
        with pytest.raises(DistError, match="triple of ints"):
            Distribution.one(self.model()).scale((1.5, 14, 0))

    def test_scale_keeps_the_witness_zero_rule(self):
        # a witness term scaled to 0 goes, as it does from lam - lam
        lam = Distribution.dirac(GroupModel.from_string("abelian:1:5").element((3,)))
        assert lam.scale(0).dirac_terms == (lam - lam).dirac_terms == ()
        assert lam.scale(5).dirac_terms == (((5, 16, 0), (3,), True),)

    def test_caller_triples_are_reduced(self):
        model = self.model()
        lam = Distribution.from_coeffs(model, {(0,): (5 ** 14 + 3, 14, 0), (1,): (-1, 14, 1)}, 4)
        assert lam.coeffs == {(0,): (3, 14, 0), (1,): (5 ** 14 - 1, 14, 1)}
        assert Distribution.from_coeffs(model, {(0,): (5 ** 14, 14, 0)}, 4).coeffs == {}
        with pytest.raises(DistError):
            Distribution.from_coeffs(model, {(0,): (1, 14, -1)}, 4)

    def test_mahler_table_refuses_an_unreduced_residue(self):
        with pytest.raises(MahlerError, match=r"coefficient at \(1,\) is not a stored triple"):
            MahlerTable(1, P, 4, 3, {(1,): (5 ** 4, 4, 0)})
        with pytest.raises(MahlerError):
            MahlerTable(1, P, 4, 3, {(1,): (1, 0, 0)})


class TestExactPointsThatAgreeOnlyModW:
    """delta_0 and delta_{5^15} have the same key at W = 15, but the
    coefficient of b^5 in their sum is C(5^15, 5), of valuation 14."""

    @staticmethod
    def model():
        model = GroupModel.abelian(1, P, prec=12, max_weight=6)
        assert model.elem_prec == 15
        return model

    @staticmethod
    def assert_true_to(lam, points):
        # every coefficient up to T agrees with the true one on its window
        for k in range(lam.T + 1):
            true = sum(math.comb(x, k) for x in points)
            assert lam.coeff((k,)).same_value(PadicScalar.from_int(P, true, 40)), k
        assert not lam.exact

    @pytest.mark.parametrize("order", [(0, 5 ** 15), (5 ** 15, 0)])
    def test_both_term_orders(self, order):
        model = self.model()
        lam = Distribution.dirac_combination(model, [(1, model.element([x])) for x in order])
        self.assert_true_to(lam, order)
        ((_, coords, exact),) = lam.dirac_terms
        assert not exact and coords == (0,)

    def test_a_later_exact_point_does_not_make_it_exact(self):
        model = self.model()
        lam = Distribution.dirac_combination(
            model, [(1, model.element([x])) for x in (0, 5 ** 15, 0)])
        self.assert_true_to(lam, (0, 5 ** 15, 0))

    def test_sum_then_product(self):
        model = self.model()
        total = Distribution.dirac(model.element([0])) + Distribution.dirac(model.element([5 ** 15]))
        self.assert_true_to(total.mul(Distribution.one(model)), (0, 5 ** 15))


def sum_operand(draw, model, table):
    """(operand, source): the source is the exact table, the operand an exact
    distribution (the table cut at its T) or an inexact view of it at T, with
    every head entry stored, valid tail certificates and maybe a cap and a
    head_error."""
    T = draw(st.integers(0, model.max_weight))
    if draw(st.booleans()):
        table = {a: c for a, c in table.items() if sum(a) <= T}
        return Distribution.from_coeffs(model, table, T), table
    head = {a: table.get(a, 0) for a in simplex(model.d, T)}
    unstored, caps = [], []
    for t in draw(st.lists(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
                           min_size=1, max_size=2, unique=True)):
        above = [(a, c) for a, c in table.items() if sum(a) > T]
        # the least valid bound, or a looser one
        C = max((NormValue(vp_int(c, P) + t * sum(a)) for a, c in above if c),
                default=NormValue.zero())
        if C.is_zero or draw(st.booleans()):
            C = max(C, NormValue(draw(st.integers(-1, 3))))
        unstored.append((C, t))
        if draw(st.booleans()):
            cap = max((NormValue(vp_int(c, P) + t * sum(a)) for a, c in table.items() if c),
                      default=NormValue(2))
            caps.append((cap, t))
    herr = draw(st.sampled_from([NormValue.zero(), NormValue(3), NormValue(1)]))
    return Distribution.from_coeffs(model, head, T, Enclosure(herr, unstored, caps)), table


SUM_MODELS = {
    "abelian:1": lambda: GroupModel.abelian(1, P, prec=6, max_weight=8),
    "abelian:2": lambda: GroupModel.abelian(2, P, prec=6, max_weight=5),
}


@st.composite
def sum_cases(draw):
    model = SUM_MODELS[draw(st.sampled_from(sorted(SUM_MODELS)))]()
    index = st.sampled_from(list(simplex(model.d, model.max_weight)))
    value = st.sampled_from([1, 2, -3, P, 2 * P, P ** 2, 3 * P ** 3])
    tables = [draw(st.dictionaries(index, value, max_size=5)) for _ in range(2)]
    return model, [sum_operand(draw, model, table) for table in tables]


class TestSumCertificates:
    """What a sum certifies holds of the sum of its operands' sources, with
    operands of different T, exact and inexact."""

    def test_exact_operands_keep_the_larger_head(self):
        # b^6 lies above the first operand's T = 4 and is certified, not dropped
        model = GroupModel.abelian(1, P, prec=12, max_weight=8)
        out = Distribution.monomial(model, (0,), 4).scale(5) + Distribution.monomial(model, (6,), 8)
        assert out.exact and out.T == 8 and set(out.coeffs) == {(0,), (6,)}
        n = out.norm(RadiusParam(Fraction(1, 8)))
        assert n.lower == n.upper == NormValue(Fraction(3, 4))

    def test_inexact_sum_covers_what_it_cuts(self):
        model = GroupModel.abelian(1, P, prec=12, max_weight=8)
        lam = Distribution.from_coeffs(model, {(0,): 25}, 4,
                                       Enclosure(unstored=[(NormValue(2), Fraction(0))]))
        out = lam + Distribution.monomial(model, (6,), 8)
        assert not out.exact and out.T == 4
        assert out.enclosure.unstored == (Line(NormValue(0), Fraction(0)),)
        assert out.enclosure.cap == ()
        n = out.norm(RadiusParam(Fraction(1, 8)))
        # |d_6| r^6 = p^(-3/4) lies inside
        assert n.upper == NormValue(Fraction(5, 8)) >= NormValue(Fraction(3, 4))

    def test_index_past_T_adds_no_head_error(self):
        # b^6 lies above the sum's T = 4, so the certain entry 25 (valuation
        # 2) stays certain: the lower end is p^-2, not 0
        model = GroupModel.abelian(1, P, prec=12, max_weight=8)
        lam = Distribution.from_coeffs(model, {(0,): 25}, 4,
                                       Enclosure(unstored=[(NormValue(2), Fraction(0))]))
        b = Distribution.monomial(model, (6,), 8)
        for out in (lam + b, b + lam):
            assert out.enclosure.stored == NormValue.zero()
            assert out.norm(RadiusParam(Fraction(1, 8))) == \
                NormInterval(NormValue(2), NormValue(Fraction(5, 8)))

    def test_exact_operand_caps_with_its_stored_sup(self):
        # |5 + d_0| = p^-1 whatever d_0 with |d_0| <= p^-2 is
        model = GroupModel.abelian(1, P, prec=12, max_weight=4)
        a = Distribution.from_coeffs(model, {(0,): 5}, 4)
        o = Distribution(model, {(0,): (0, 1, 0)}, 4,
                         Enclosure(cap=[(NormValue(2), Fraction(0))]))
        for out in (a + o, o + a):
            assert Line(NormValue(1), Fraction(0)) in out.enclosure.cap
            assert out.norm(R12) == NormInterval(NormValue.zero(), NormValue(1))

    @given(sum_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_certificates_hold_of_the_true_sum(self, case):
        model, ((lam, src1), (mu, src2)) = case
        out = lam + mu
        true = {a: src1.get(a, 0) + src2.get(a, 0) for a in set(src1) | set(src2)}
        true = {a: c for a, c in true.items() if c}

        def size(c):
            return NormValue(vp_int(c, P)) if c else NormValue.zero()

        assert out.exact == (lam.exact and mu.exact)
        if out.exact:
            assert out.T == max(lam.T, mu.T)
            assert {a: out.coeff(a).residue for a in out.coeffs} == \
                {a: c % P ** model.elem_prec for a, c in true.items()}
        for a in out.coeffs:
            got = out.coeff(a)
            diff = Fraction(got.residue, P ** got.shift) - true.get(a, 0)
            off = NormValue(vp_int(diff.numerator, P) - vp_int(diff.denominator, P)) \
                if diff else NormValue.zero()
            assert off <= max(NormValue(got.window), head_error(out)), a
        for c in tail_certs(out):
            for a, x in true.items():
                if c.all_alpha or sum(a) > out.T:
                    assert size(x) <= c.bound * NormValue(-c.growth * sum(a)), (c, a)
        for s in NORM_RADII:
            want = max((size(x) * NormValue(s * sum(a)) for a, x in true.items()),
                       default=NormValue.zero())
            got = out.norm(RadiusParam(s))
            assert got.lower <= want <= got.upper, s
