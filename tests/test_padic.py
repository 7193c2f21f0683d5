import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, strategies as st

from padicdist.groupmodel import simplex
from padicdist.padic import (
    NormValue,
    PadicError,
    PadicScalar,
    PrecisionExhausted,
    binom as binom_row,
    binomial_transform,
    int_binom,
    ppow,
    vp_factorial,
    vp_int,
)

from mahler_reference import binom_residue

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


class TestScalarPrime:
    def test_float_p_reads_as_the_int(self):
        # ppow's cache keys 5.0 like 5: a float p stored there would make
        # ppow(5, e) a float for the rest of the process
        ppow.cache_clear()
        c = PadicScalar(5.0, N, 1, 0)
        assert type(c.p) is int and type(ppow(5, N)) is int
        assert c.same_value(PadicScalar(P, N, 1, 0))

    @pytest.mark.parametrize("p", [5.5, "5", None])
    def test_non_integral_p_refused(self, p):
        with pytest.raises(PadicError, match="prime p"):
            PadicScalar(p, N, 1)


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
    """C(x, k) for an integral scalar x, entry k of its ``padic.binom`` row."""
    row = binom_row(x.p, x.prec, x.residue, k)
    return PadicScalar(x.p, x.prec - vp_factorial(k, x.p), row[k])


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


class TestBinomRow:
    """``padic.binom``'s rows, built by a recurrence in k and cached whole,
    against one ``math.comb`` per entry."""

    T = 12

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_rows_match_math_comb(self, p):
        for prec in range(1, 17):
            m = ppow(p, prec)
            xs = [0, 1, 2, p - 1, p, p + 1, 2 * p * p + 3, m - 2, m - 1, m, m + 1]
            for x in xs:
                want, raised = [1], None
                for k in range(1, self.T + 4):
                    try:
                        want.append(binom_residue(p, prec, x, k)[1])
                    except PrecisionExhausted as exc:
                        raised = k, str(exc)
                        break
                for kmax in range(self.T + 4):
                    if raised is not None and kmax >= raised[0]:
                        # the first entry the window cannot hold, same message
                        with pytest.raises(PrecisionExhausted) as info:
                            binom_row(p, prec, x, kmax)
                        assert str(info.value) == raised[1], (p, prec, x, kmax)
                    else:
                        assert binom_row(p, prec, x, kmax) == tuple(want[:kmax + 1]), \
                            (p, prec, x, kmax)

    def test_negative_argument(self):
        # C(-1, k) = (-1)^k and C(-3, 2) = 6
        assert binom_row(P, 4, -1, 6) == tuple((-1) ** k % ppow(P, 4 - vp_factorial(k, P))
                                              for k in range(7))
        assert binom_row(P, 4, -3, 2)[2] == 6

    def test_one_cache_entry_per_row(self):
        binom_row.cache_clear()
        binom_row(P, N, 7, 10)
        binom_row(P, N, 7, 10)
        info = binom_row.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def box(sides):
    return set(product(*(range(n + 1) for n in sides)))


def down_closed_sets(d):
    """A simplex, a box, their union, and the union of a thin simplex and a
    long box in N^d, each as its sorted keys."""
    simp, wide = set(simplex(d, 3)), set(simplex(d, 1))
    return [sorted(keys) for keys in
            (simp, box((3, 1, 2)[:d]), simp | box((3, 1, 2)[:d]), wide | box((4, 0, 1)[:d]))]


def transform_matrix(keys, transpose):
    """{(alpha, beta): entry} of the transform on the down-closed keys, one
    unit vector at a time; each image keeps the keys in their order."""
    out = {}
    for beta in keys:
        table = dict.fromkeys(keys, 0)
        table[beta] = 1
        binomial_transform(table, transpose)
        assert list(table) == keys
        out.update(((alpha, beta), x) for alpha, x in table.items())
    return out


class TestBinomialTransform:
    @pytest.mark.parametrize("d", range(4))
    def test_directions_are_transposes(self, d):
        # <u, F v> = <F^T u, v> for every pair of unit vectors u, v
        for keys in down_closed_sets(d):
            forward = transform_matrix(keys, False)
            back = transform_matrix(keys, True)
            assert all(forward[a, b] == back[b, a] for a in keys for b in keys)
            assert any(forward[a, b] for a in keys for b in keys if a != b) or d == 0

    @pytest.mark.parametrize("d", range(4))
    def test_forward_inverts_newton_interpolation(self, d):
        # f(x) = sum_alpha c_alpha C(x, alpha) on the keys: its forward
        # differences are the c_alpha
        rng = random.Random(d)
        for keys in down_closed_sets(d):
            c = {alpha: rng.randint(-9, 9) for alpha in keys}
            f = {x: sum(ca * prod(map(int_binom, x, alpha)) for alpha, ca in c.items())
                 for x in keys}
            binomial_transform(f)
            assert f == c

    @pytest.mark.parametrize("d", range(4))
    def test_transpose_fills_the_downward_closure(self, d):
        # a table that is not down-closed: the transpose of its closure,
        # filled with zeros, on the closure
        rng = random.Random(d)
        for keys in down_closed_sets(d):
            sparse = {k: rng.randint(1, 9) for k in keys[::3]}
            full = dict.fromkeys(set().union(*map(box, sparse)), 0)
            full.update(sparse)
            binomial_transform(sparse, transpose=True)
            binomial_transform(full, transpose=True)
            assert sparse == full
