import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from padicdist.distalg import Distribution, TailCert, lie_generator
from padicdist.groupmodel import GroupModel
from padicdist.mahler import (
    FunctionSpec,
    MahlerError,
    amice_report,
    finite_level_project,
    int_binom,
    mahler_coeffs,
    pair,
    pair_with_indicator_crosscheck,
)
from padicdist.padic import NormValue, PadicScalar, ppow

P = 5
N = 12


def ab(d):
    return GroupModel.abelian(d, P, prec=N, max_weight=Fraction(12))


def sc(x, prec=N):
    return PadicScalar.from_int(P, x, prec)


class TestIntBinom:
    @given(st.integers(-30, 30), st.integers(0, 10))
    def test_matches_generalized_binomial(self, m, k):
        want = math.comb(m, k) if m >= 0 else (-1) ** k * math.comb(k - m - 1, k)
        assert int_binom(m, k) == want


def mahler_coeffs_by_binomial_sums(f, A, prec=12):
    """Reference for mahler_coeffs: {alpha: c_alpha} with c_alpha =
    sum_{beta <= alpha} (-1)^{|alpha - beta|} C(alpha, beta) f(beta),
    summed in Fractions for every |alpha| <= A."""
    values = {}
    coeffs = {}
    for alpha in product(range(A + 1), repeat=f.d):
        if sum(alpha) > A:
            continue
        total = Fraction(0)
        for beta in product(*(range(a + 1) for a in alpha)):
            if beta not in values:
                values[beta] = f.evaluate(beta)
            w = 1
            for a, b in zip(alpha, beta):
                w *= math.comb(a, b)
            total += (-1) ** (sum(alpha) - sum(beta)) * w * values[beta]
        if total:
            coeffs[alpha] = PadicScalar.from_fraction(f.p, total, prec)
    return coeffs


def builtin_functions(d, p):
    yield FunctionSpec.constant(d, p, 3)
    yield FunctionSpec.monomial(d, p, [2] + [1] * (d - 1))
    yield FunctionSpec.indicator(d, p, list(range(1, d + 1)), 1)
    yield FunctionSpec.indicator(d, p, [p + 1] * d, 2)
    for i in range(d):
        yield FunctionSpec.coordinate(d, p, i)
        yield FunctionSpec.power_series_1p(d, p, i)


class TestMahlerCoeffs:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_binomial_sums(self, d, p):
        # the same table, scalar for scalar, with the same completeness flag;
        # a reference c_alpha does not depend on the cap, so the cap-12
        # reference restricted to |alpha| <= cap is the reference at cap
        for f in builtin_functions(d, p):
            full = mahler_coeffs_by_binomial_sums(f, 12, prec=N)
            for cap in range(13):
                t = mahler_coeffs(f, cap, prec=N)
                want = {a: c for a, c in full.items() if sum(a) <= cap}
                complete = f.poly_degree() is not None and cap >= f.poly_degree()
                assert list(t.coeffs) == sorted(want), (f, cap)
                for alpha, c in want.items():
                    got = t.coeffs[alpha]
                    assert (got.p, got.prec, got.residue, got.shift) == \
                        (c.p, c.prec, c.residue, c.shift), (f, cap, alpha)
                assert t.complete == complete and t.cap == cap, (f, cap)


    def test_non_integer_values_are_refused(self):
        # the differences run in ints: a value off Z is an error, not truncated
        class Half(FunctionSpec):
            def evaluate(self, point):
                return Fraction(1, 2)

        with pytest.raises(MahlerError, match="not an integer"):
            mahler_coeffs(Half.constant(1, P), 2, prec=N)

    def test_constant(self):
        t = mahler_coeffs(FunctionSpec.constant(1, P), 2 * P, prec=N)
        assert set(t.coeffs) == {(0,)}
        assert t.coeff((0,)).same_value(sc(1))
        assert t.complete

    def test_x_squared(self):
        # x^2 = binom(x,1) + 2*binom(x,2)
        t = mahler_coeffs(FunctionSpec.monomial(1, P, (2,)), 8, prec=N)
        assert t.coeff((1,)).same_value(sc(1))
        assert t.coeff((2,)).same_value(sc(2))
        assert all(sum(a) <= 2 for a in t.coeffs)

    def test_power1p(self):
        t = mahler_coeffs(FunctionSpec.power_series_1p(1, P, 0), 10, prec=16)
        for k in range(11):
            assert t.coeff((k,)).same_value(PadicScalar.from_int(P, ppow(P, k), 16))
        assert not t.complete

    def test_inverts_evaluation(self):
        # sum_alpha c_alpha binom(m, alpha) = f(m) at integer points
        for f in (
            FunctionSpec.monomial(2, P, (2, 1)),
            FunctionSpec.coordinate(2, P, 0),
            FunctionSpec.constant(2, P, 3),
        ):
            t = mahler_coeffs(f, 6, prec=N)
            for m in ((0, 0), (1, 3), (4, 2), (6, 6)):
                got = t.evaluate(m)
                want = PadicScalar.from_fraction(P, f.evaluate(m), got.window)
                assert got.same_value(want)

    def test_indicator_values(self):
        f = FunctionSpec.indicator(1, P, [2], 1)
        assert f.evaluate((2,)) == 1
        assert f.evaluate((2 + P,)) == 1
        assert f.evaluate((3,)) == 0


class TestFunctionSpecParse:
    def test_round_trips(self):
        for text in ("constant:1", "coordinate:0", "monomial:1,2", "power1p:0",
                      "indicator:1,2:1"):
            f = FunctionSpec.parse(2, P, text)
            assert FunctionSpec.parse(2, P, f.id).id == f.id

    def test_bad_ids(self):
        with pytest.raises((MahlerError, ValueError)):
            FunctionSpec.parse(1, P, "exp:1")


class TestAmice:
    def test_geometric_decay_rows(self):
        t = mahler_coeffs(FunctionSpec.power_series_1p(1, P, 0), 12, prec=20)
        rows = amice_report(t, [Fraction(1, 2)])[0]["rows"]
        for k in range(13):
            assert rows[k] == NormValue(k - Fraction(k, 2))

    def test_constant_rows_vanish(self):
        t = mahler_coeffs(FunctionSpec.constant(1, P), 2 * P, prec=N)
        rows = amice_report(t, [Fraction(1, 2)])[0]["rows"]
        assert all(rows[k].is_zero for k in range(1, 2 * P + 1))


class TestPairing:
    def test_dirac_evaluation(self):
        model = ab(1)
        t = mahler_coeffs(FunctionSpec.power_series_1p(1, P, 0), 20, prec=N)
        g = model.element([7])
        value, err = pair(Distribution.dirac(g), t)
        want = pow(1 + P, 7, ppow(P, value.window))
        diff = value - PadicScalar.from_int(P, want, value.window)
        assert diff.residue == 0 or diff.abs_val() <= err

    def test_monomial_pairs_to_coefficient(self):
        model = ab(1)
        t = mahler_coeffs(FunctionSpec.monomial(1, P, (3,)), 8, prec=N)
        for k in range(4):
            v, err = pair(Distribution.monomial(model, (k,)), t)
            assert err.is_zero and v.same_value(t.coeff((k,)))

    def test_identity_pairs_to_c0(self):
        model = ab(1)
        t = mahler_coeffs(FunctionSpec.power_series_1p(1, P, 0), 20, prec=N)
        v, _ = pair(Distribution.one(model), t)
        assert v.same_value(t.coeff((0,)))

    def test_linearity(self):
        model = ab(1)
        t = mahler_coeffs(FunctionSpec.monomial(1, P, (2,)), 8, prec=N)
        lam = Distribution.monomial(model, (1,))
        mu = Distribution.monomial(model, (2,))
        v1, _ = pair(lam, t)
        v2, _ = pair(mu, t)
        v3, _ = pair(lam.scale(3) + mu, t)
        assert v3.same_value(v1.mul_int(3) + v2)

    def test_refuses_uncertified_inexact(self):
        model = ab(1)
        lam = Distribution.dirac(model.element([-1]))  # inexact
        t = mahler_coeffs(FunctionSpec.indicator(1, P, [0], 1), 3 * P, prec=N)
        with pytest.raises(MahlerError):
            pair(lam, t)

    @pytest.mark.parametrize("T", [2, 4, 6, 8])
    @pytest.mark.parametrize("cap", [2, 4, 8, 12, 16])
    def test_error_covers_table_entries_beyond_T(self, T, cap):
        # delta_x truncated at T paired with (1 + p)^x, whose table runs to
        # the cap: the entries between T and the cap pair with the tail
        model = GroupModel.abelian(1, P, prec=N, max_weight=T)
        t = mahler_coeffs(FunctionSpec.power_series_1p(1, P, 0), cap, prec=N)
        for x in (3, 9, 37, 123, 1000):
            value, err = pair(Distribution.dirac(model.element([x]), T), t)
            diff = value - sc((1 + P) ** x, value.window)
            assert diff.residue == 0 or diff.abs_val() <= err, x

    def test_derivative_of_lie_generator(self):
        model = ab(1)
        t = mahler_coeffs(FunctionSpec.coordinate(1, P, 0), 6, prec=N)
        v, err = pair(lie_generator(model, 0), t)
        assert err.is_zero and v.same_value(sc(1, v.prec))


class TestPairingInexactHeads:
    """pair() on inexact heads, against the exact source lam = p delta_3 -
    3p delta_1, whose entries are -2p, 3p and p at degrees 0, 2 and 3 (the
    degree-1 entry vanishes), and the complete table of x^2."""

    def source(self):
        model = GroupModel.abelian(1, P, prec=4, max_weight=6)
        return Distribution.dirac_combination(
            model, [(P, model.element([3])), (-3 * P, model.element([1]))], 6)

    def check(self, lam, want_value, want_err):
        t = mahler_coeffs(FunctionSpec.monomial(1, P, (2,)), 6, prec=4)
        assert t.complete
        value, err = pair(lam, t)
        assert (value.residue, value.prec, value.shift) == want_value
        assert (err.exponent, err.exact) == want_err
        # the exact pairing <lam, x^2> = p * 9 - 3p * 1 lies within the error
        exact, exact_err = pair(self.source(), t)
        assert exact_err.is_zero and exact.same_value(sc(6 * P, 4))
        diff = value - exact
        assert diff.residue == 0 or diff.abs_val() <= err

    def test_head_error(self):
        # the whole head, a zero tail and a head error p^-3: the error is
        # that times the table's sup bound p^0
        src = self.source()
        lam = Distribution.from_coeffs(
            src.model, {a: src.coeff(a) for a in src.coeffs}, 3, exact=False,
            tail_certs=[TailCert(NormValue.zero(), Fraction(0))],
            head_error=NormValue(3, exact=False))
        self.check(lam, (30, 4, 0), (3, False))

    def test_table_entries_beyond_the_head(self):
        # the head to degree 2 under a tail bound p^-1: c_1 = 1 pairs with
        # the unstored degree-1 entry, which only the tail bounds
        src = self.source()
        lam = Distribution.from_coeffs(
            src.model, {a: src.coeff(a) for a in src.coeffs if sum(a) <= 2}, 2,
            exact=False, tail_certs=[TailCert(NormValue(1), Fraction(0))])
        self.check(lam, (30, 4, 0), (1, True))


class TestProjection:
    def test_dirac_projects_to_coset(self):
        model = ab(2)
        g = model.element([3, 7])
        e = finite_level_project(Distribution.dirac(g), 1)
        assert e.coeff((3, 2)).same_value(sc(1, e.coeff((3, 2)).prec))

    def test_b_projects_to_difference(self):
        model = ab(1)
        b = Distribution.monomial(model, (1,))
        e = finite_level_project(b, 1)
        one = sc(1, e.coeff((1,)).prec)
        assert e.coeff((1,)).same_value(one)
        assert e.coeff((0,)).same_value(-one)

    def test_multiplicative(self):
        model = GroupModel.heisenberg(P, prec=N, max_weight=Fraction(12))
        lam = Distribution.dirac_combination(
            model, [(1, model.element([1, 0, 2])), (3, model.element([0, 1, 0]))]
        )
        mu = Distribution.dirac(model.element([2, 2, 1]))
        for n in (1, 2):
            left = finite_level_project(lam * mu, n)
            right = finite_level_project(lam, n) * finite_level_project(mu, n)
            assert left == right

    def test_requires_witness(self):
        model = ab(1)
        lam = Distribution.from_coeffs(
            model, {}, Fraction(12), exact=False,
            tail_certs=[],
        )
        with pytest.raises(MahlerError):
            finite_level_project(lam, 1)


class TestCrosscheck:
    def test_dirac_in_coset(self):
        model = ab(2)
        g = model.element([2, 3])
        assert pair_with_indicator_crosscheck(Distribution.dirac(g), [2, 3], 1) == "true"

    def test_dirac_outside_coset(self):
        model = ab(2)
        g = model.element([2, 3])
        assert pair_with_indicator_crosscheck(Distribution.dirac(g), [0, 0], 1) == "true"

    def test_difference_combination(self):
        model = ab(2)
        lam = Distribution.dirac_combination(
            model,
            [(1, model.element([1, 0])), (-1, model.element([0, 1]))],
        )
        v = pair_with_indicator_crosscheck(lam, [1, 0], 1, A=3 * P)
        assert v in ("true", "inconclusive")
        assert v != "false"
