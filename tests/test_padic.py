from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padicdist.padic import (
    NormValue,
    PadicError,
    PadicScalar,
    PrecisionExhausted,
    _binom_residue,
    ppow,
    vp_factorial,
    vp_int,
)

P = 5
N = 12


def s(x, prec=N):
    return PadicScalar.from_int(P, x, prec)


class TestValuationHelpers:
    def test_vp_int(self):
        assert vp_int(1, P) == 0
        assert vp_int(50, P) == 2
        assert vp_int(-125, P) == 3

    def test_vp_int_zero_rejected(self):
        with pytest.raises((PadicError, ValueError)):
            vp_int(0, P)

    def test_vp_factorial_legendre(self):
        # Legendre: v_p(n!) = (n - digitsum_p(n)) / (p - 1)
        import math

        for n in range(0, 60):
            assert vp_factorial(n, P) == vp_int(math.factorial(n), P) if n >= P else True
        assert vp_factorial(25, P) == 6
        assert vp_factorial(24, P) == 4


class TestScalarArithmetic:
    def test_exact_valuation(self):
        assert s(7).valuation == 0
        assert s(50).valuation == 2
        assert s(0).valuation is None

    def test_window_zero_is_inexact(self):
        z = s(0)
        assert z.abs_val() == NormValue(N)

    @pytest.mark.parametrize("prec", [0, -2])
    def test_window_below_one_refused(self, prec):
        with pytest.raises(PrecisionExhausted):
            PadicScalar(P, prec, 1)

    def test_add_window_is_min(self):
        a = PadicScalar.from_int(P, 3, 10)
        b = PadicScalar.from_int(P, 4, 6)
        assert (a + b).window == 6
        assert (a + b).same_value(PadicScalar.from_int(P, 7, 6))

    def test_fraction_with_denominator(self):
        half = PadicScalar.from_fraction(P, Fraction(1, 2), N)
        assert (half + half).same_value(s(1))
        assert half.valuation == 0

    def test_p_in_denominator(self):
        c = PadicScalar.from_fraction(P, Fraction(1, P), N)
        assert c.valuation == -1
        assert (c * s(P)).same_value(s(1))

    def test_canonical_folds_p_powers(self):
        c = PadicScalar.from_fraction(P, Fraction(50, P), N)
        assert c.canonical().shift == 0

    def test_mul_precision_min(self):
        a = PadicScalar.from_int(P, 3, 10)
        b = PadicScalar.from_int(P, 4, 7)
        assert (a * b).prec == 7

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_ring_laws_sampled(self, x, y):
        assert (s(x) + s(y)).same_value(s(x + y))
        assert (s(x) * s(y)).same_value(s(x * y))
        assert (-s(x)).same_value(s(-x))


class TestNormValue:
    def test_ordering_reversed_in_exponent(self):
        assert NormValue(2) < NormValue(1) < NormValue(0) < NormValue(-1)

    def test_zero_and_unbounded(self):
        assert NormValue.zero() < NormValue(100)
        assert NormValue.unbounded() > NormValue(-100)

    def test_mul_adds_exponents(self):
        assert NormValue(Fraction(1, 2)) * NormValue(Fraction(1, 3)) == NormValue(
            Fraction(5, 6)
        )

    def test_mul_with_zero(self):
        zero, unbounded, half = NormValue.zero(), NormValue.unbounded(), NormValue(Fraction(1, 2))
        for a, b, want in [(zero, unbounded, zero), (unbounded, zero, zero),
                           (zero, zero, zero), (unbounded, unbounded, unbounded),
                           (zero, half, zero), (half, zero, zero),
                           (unbounded, half, unbounded), (half, unbounded, unbounded)]:
            got = a * b
            assert got == want and got.exponent == want.exponent, (a, b)


def binom(x, k):
    """C(x, k) for an integral scalar x, from _binom_residue."""
    prec, res = _binom_residue(x.p, x.prec, x.residue, k)
    return PadicScalar(x.p, prec, res)


class TestBinom:
    def test_integer_points(self):
        x = s(7, prec=N + vp_factorial(3, P))
        assert binom(x, 3).same_value(s(35))
        assert binom(x, 0).same_value(s(1))

    def test_negative_argument(self):
        x = s(-1, prec=N + vp_factorial(4, P))
        # binom(-1, k) = (-1)^k
        for k in range(5):
            assert binom(x, k).same_value(s((-1) ** k))

    def test_precision_loss_is_vp_kfact(self):
        x = PadicScalar.from_int(P, 7, 20)
        out = binom(x, P)  # v_p(p!) = 1
        assert out.window == 20 - 1

    @given(st.integers(0, 200), st.integers(0, 8))
    def test_matches_exact_binomial(self, m, k):
        import math

        x = PadicScalar.from_int(P, m, 20)
        want = math.comb(m, k)
        got = binom(x, k)
        assert got.same_value(PadicScalar.from_int(P, want, got.window))
