import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mahler_reference import evaluate_scalars, mul_scalars, pair_scalars, project_scalars
from padicdist.distalg import Distribution, Enclosure, lie_generator
from padicdist.groupmodel import GroupModel
from padicdist.mahler import (
    FunctionSpec,
    GroupAlgebraElement,
    MahlerError,
    MahlerTable,
    amice_report,
    finite_level_project,
    int_binom,
    mahler_coeffs,
    pair,
    pair_with_indicator_crosscheck,
)
from padicdist.padic import NormValue, PadicScalar, PrecisionExhausted, ppow
from padicdist.serialize import format_scalar, parse_mahler

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
        # reference restricted to |alpha| <= cap is the reference at cap; the
        # polynomial kinds also at the CLI's default cap 16, far past their
        # degrees
        for f in builtin_functions(d, p):
            top = 12 if f.poly_degree() is None else 16
            full = mahler_coeffs_by_binomial_sums(f, top, prec=N)
            for cap in sorted({*range(13), top}):
                t = mahler_coeffs(f, cap, prec=N)
                want = {a: c for a, c in full.items() if sum(a) <= cap}
                complete = f.poly_degree() is not None and cap >= f.poly_degree()
                assert list(t.coeffs) == sorted(want), (f, cap)
                for alpha, c in want.items():
                    got = t.coeff(alpha)
                    assert (got.p, got.prec, got.residue, got.shift) == \
                        (c.p, c.prec, c.residue, c.shift), (f, cap, alpha)
                assert t.complete == complete and t.cap == cap, (f, cap)


    def test_polynomials_are_evaluated_up_to_their_degree(self):
        # c_alpha reads f at beta <= alpha only, and is 0 past the degree
        seen = []

        class Counted(FunctionSpec):
            def evaluate(self, point):
                seen.append(point)
                return super().evaluate(point)

        for f in (Counted.monomial(2, P, (2, 1)), Counted.coordinate(2, P, 0),
                  Counted.constant(2, P, 3)):
            seen.clear()
            t = mahler_coeffs(f, 16, prec=N)
            assert max(map(sum, seen)) == f.poly_degree()
            assert t.cap == 16 and t.complete

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

    @pytest.mark.parametrize("text", [
        "coordinate:0:9", "constant:3:4", "power1p:0:junk", "monomial:2,1:9",
        "indicator:1,2:1:5", "indicator:1,2", "coordinate", "monomial", "power1p",
        "constant:1:", "coordinate:0:",
    ])
    def test_wrong_field_counts_are_refused(self, text):
        # a trailing field is not ignored, and a missing one is no IndexError
        with pytest.raises(MahlerError, match="wrong number of fields"):
            FunctionSpec.parse(2, P, text)

    def test_constant_takes_an_optional_value(self):
        assert FunctionSpec.parse(2, P, "constant").id == "constant:1"
        assert FunctionSpec.parse(2, P, "constant:3").id == "constant:3"


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
        assert v3.same_value(v1 * sc(3, v1.prec) + v2)

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
        assert err.exponent == want_err
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
            src.model, {a: src.coeff(a) for a in src.coeffs}, 3,
            Enclosure(NormValue(3), [(NormValue.zero(), Fraction(0))]))
        self.check(lam, (30, 4, 0), 3)

    def test_table_entries_beyond_the_head(self):
        # the head to degree 2 under a tail bound p^-1: c_1 = 1 pairs with
        # the unstored degree-1 entry, which only the tail bounds
        src = self.source()
        lam = Distribution.from_coeffs(
            src.model, {a: src.coeff(a) for a in src.coeffs if sum(a) <= 2}, 2,
            Enclosure(unstored=[(NormValue(1), Fraction(0))]))
        self.check(lam, (30, 4, 0), 1)


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
            model, {}, Fraction(12), Enclosure())
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
        v = pair_with_indicator_crosscheck(lam, [1, 0], 1)
        assert v in ("true", "inconclusive")
        assert v != "false"


class TestIndexValidation:
    """Indices and points are refused unless they are d integers (and, for a
    table index, nonnegative), as Distribution.coeff refuses them."""

    def table(self):
        return mahler_coeffs(FunctionSpec.monomial(1, P, (2,)), 6, prec=N)

    @pytest.mark.parametrize("alpha", [(1.5,), (1, 0), (-1,), ()])
    def test_table_coeff(self, alpha):
        with pytest.raises(MahlerError, match="multi-index"):
            self.table().coeff(alpha)

    def test_table_coeff_accepts_integral_entries(self):
        t = self.table()
        assert t.coeff((1,)).same_value(sc(1)) and t.coeff((2.0,)).same_value(sc(2))
        assert t.coeff((7,)).same_value(sc(0))

    @pytest.mark.parametrize("point", [(2, 5), (2.5,), ()])
    def test_table_evaluate(self, point):
        with pytest.raises(MahlerError, match="point"):
            self.table().evaluate(point)

    def test_table_evaluate_at_negative_points(self):
        got = self.table().evaluate((-3,))
        assert got.same_value(sc(9, got.window))

    def projection(self):
        g = GroupModel.from_string("abelian:2:5", prec=N, max_weight=12).element([2, 3])
        return finite_level_project(Distribution.dirac(g), 1)

    @pytest.mark.parametrize("key", [(2.7, 3), (2,), (2, 3, 0)])
    def test_coset_coeff(self, key):
        with pytest.raises(MahlerError, match="coset key"):
            self.projection().coeff(key)

    @pytest.mark.parametrize("make, match", [
        (lambda: FunctionSpec.monomial(1, P, (1.5,)), "is not 1"),
        (lambda: FunctionSpec.indicator(1, P, (2.5,), 1), "is not 1"),
        (lambda: FunctionSpec.coordinate(1, P, 0).evaluate((2.7,)), "is not 1"),
        (lambda: FunctionSpec.monomial(1, P, (math.inf,)), "is not 1"),
        (lambda: FunctionSpec.indicator(1, P, (math.nan,), 1), "is not 1"),
        (lambda: FunctionSpec.indicator(1, P, (2,), 1.5), "^indicator level 1.5 is not an integer"),
        (lambda: FunctionSpec.constant(1, P, 2.5), "^constant value 2.5 is not an integer"),
        (lambda: FunctionSpec.constant(1, P, "2"), "^constant value '2' is not an integer"),
        (lambda: FunctionSpec.coordinate(2, P, 0.5), "^coordinate index 0.5 is not an integer"),
        (lambda: FunctionSpec.power_series_1p(2, P, Fraction(1, 2)),
         r"^coordinate index Fraction\(1, 2\) is not an integer"),
    ], ids=["monomial", "indicator", "evaluate", "monomial-inf", "indicator-nan",
            "indicator-level", "constant",
            "constant-text", "coordinate", "power1p"])
    def test_function_spec_refuses_fractional_inputs(self, make, match):
        # refused, not truncated to monomial:1, indicator:2:1, the value 2,
        # constant:2 or the coordinate 0, nor kept as indicator:2.0:1.5 with
        # float residues
        with pytest.raises(MahlerError, match=match):
            make()

    def test_function_spec_accepts_integral_scalars(self):
        assert FunctionSpec.indicator(1, P, (7,), 2.0).id == "indicator:7:2"
        assert FunctionSpec.constant(1, P, Fraction(4)).id == "constant:4"
        assert FunctionSpec.coordinate(2, P, 1.0).id == "coordinate:1"
        assert FunctionSpec.power_series_1p(2, P, 1.0).id == "power1p:1"

    def test_negative_coset_keys_reduce(self):
        e = self.projection()
        assert e.coeff((-3, 3)).same_value(sc(1, e.coeff((2, 3)).prec))
        assert e.coeff((2, -2)).same_value(e.coeff((2, 3)))

    @pytest.mark.parametrize("c", [sc(3), (3, N), (3.0, N, 0), [3, N, 0], (3, N, 0, 0)])
    def test_table_refuses_non_triples(self, c):
        with pytest.raises(TypeError, match=r"coefficient at \(1,\) is not a \(residue"):
            MahlerTable(1, P, N, 4, {(1,): c})


def same_scalar(got, want):
    return (got.p, got.prec, got.residue, got.shift) == \
        (want.p, want.prec, want.residue, want.shift)


def same_cosets(elem, want):
    """A GroupAlgebraElement against {key: PadicScalar}, key order included."""
    return list(elem.coeffs) == list(want) and all(
        same_scalar(elem.coeff(k), c) for k, c in want.items())


class TestStoredForm:
    def test_tables_and_cosets_hold_reduced_int_triples(self):
        model = GroupModel.heisenberg(P, prec=N, max_weight=Fraction(12))
        lam = Distribution.dirac_combination(model, [
            (1, model.element([1, 0, 2])), (-1, model.element([26, 0, 2])),
            (Fraction(3, P), model.element([0, 1, 0]))])
        e = finite_level_project(lam, 1)
        for x in (e, e * e, mahler_coeffs(FunctionSpec.power_series_1p(3, P, 0), 6, prec=N)):
            assert x.coeffs
            for c in x.coeffs.values():
                assert type(c) is tuple and [type(v) for v in c] == [int, int, int]
                assert 0 <= c[0] < P ** c[1] and c[2] >= 0
        assert all(c[0] for c in e.coeffs.values())
        assert (1, 0, 2) not in e.coeffs  # 1 - 1 in the coset of (1, 0, 2)

    def test_constructor_refuses_a_float_residue(self):
        model = GroupModel.abelian(2, P, prec=4)
        with pytest.raises(TypeError, match="triple of ints"):
            GroupAlgebraElement(model, 1, {(0, 0): (1.5, 3, 0)})

    def test_constructor_refuses_a_key_that_is_no_coset(self):
        # the product multiplies keys by the group law, so each must have d
        # integer entries
        model = GroupModel.abelian(2, P, prec=4)
        for key in ((0, 0, 0), (1,), (Fraction(1, 2), 0)):
            with pytest.raises(MahlerError, match="coset key"):
                GroupAlgebraElement(model, 1, {key: (1, 3, 0)})

    def test_constructor_refuses_an_empty_window(self):
        # prec 0 knows no digit; reduced away, it would read as 0 mod p^N
        model = GroupModel.abelian(2, P, prec=4)
        with pytest.raises(PrecisionExhausted):
            GroupAlgebraElement(model, 1, {(0, 0): (1, 0, 0)})

    def test_constructor_keeps_a_zero_on_a_narrow_window(self):
        # 0 mod p^3 may be p^3; only a zero to the working precision is
        # dropped, as Distribution.from_coeffs drops it
        model = GroupModel.abelian(2, P, prec=4)
        W = model.elem_prec
        e = GroupAlgebraElement(model, 1, {(0, 0): (0, 3, 0), (1, 0): (0, W, 0)})
        assert e.coeffs == {(0, 0): (0, 3, 0)}
        assert e.coeff((0, 0)).prec == 3


class TestAgainstScalarReference:
    """pair, MahlerTable.evaluate, finite_level_project and the product in
    K[G/G_n], computed on triples, against their PadicScalar versions in
    mahler_reference: identical (p, prec, residue, shift) for every value
    and coefficient, and the same error bound."""

    @staticmethod
    def distributions(model, rng):
        p, d, T = model.p, model.d, model.max_weight

        def coord():
            return [rng.randint(-20, 40) for _ in range(d)]

        for _ in range(3):
            yield Distribution.dirac(model.element(coord()))
            yield Distribution.dirac(model.element([rng.randint(0, 2) for _ in range(d)]))
        for _ in range(2):
            yield Distribution.dirac_combination(model, [
                (Fraction(rng.randint(-30, 30), p ** rng.randint(0, 2)), model.element(coord()))
                for _ in range(3)])
        for i in range(d):
            yield lie_generator(model, i)
        src = Distribution.dirac(model.element(coord()))
        for k in (1, 3):
            yield Distribution.from_coeffs(
                model, {a: src.coeff(a) for a in src.coeffs if sum(a) <= T - 1}, T - 1,
                Enclosure(NormValue(k), [(NormValue(k - 1), Fraction(0))]))

    @staticmethod
    def tables(d, p, prec, rng):
        for f in builtin_functions(d, p):
            for cap in (2, 7):
                yield mahler_coeffs(f, cap, prec=prec)
        # entries with p in the denominator and mixed windows, read from a
        # table file, with and without decay
        for decay in ("none", "p^1@1/2"):
            lines = [f"mahler p={p} d={d} N={prec} A=3 decay={decay} complete=0"]
            for alpha in product(range(4), repeat=d):
                if sum(alpha) <= 3 and rng.random() < 0.7:
                    x = Fraction(rng.randint(-60, 60), p ** rng.randint(0, 2))
                    c = PadicScalar.from_fraction(p, x, rng.randint(prec - 3, prec))
                    lines.append(",".join(map(str, alpha)) + " : " + format_scalar(c))
            yield parse_mahler("\n".join(lines) + "\n")

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("d", [1, 2])
    def test_pair_and_evaluate(self, p, d):
        rng = random.Random(f"pair-{p}-{d}")
        model = GroupModel.from_string(f"abelian:{d}:{p}", prec=8, max_weight=6)
        lams = list(self.distributions(model, rng))
        checked = refused = 0
        for t in self.tables(d, p, rng.choice((6, 8, 10)), rng):
            for point in [[rng.randint(-30, 60) for _ in range(d)] for _ in range(4)]:
                assert same_scalar(t.evaluate(point), evaluate_scalars(t, point))
            for lam in lams:
                try:
                    want, want_err = pair_scalars(lam, t)
                except MahlerError:
                    with pytest.raises(MahlerError):
                        pair(lam, t)
                    refused += 1
                    continue
                value, err = pair(lam, t)
                assert same_scalar(value, want), (lam, t)
                assert err.exponent == want_err.exponent
                checked += 1
        assert checked > 100 and refused > 0

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("mid", ["abelian:2:{p}", "heisenberg:{p}"])
    def test_projection_and_product(self, p, mid):
        rng = random.Random(f"project-{p}-{mid}")
        model = GroupModel.from_string(mid.format(p=p), prec=6, max_weight=3)
        lams = []
        for _ in range(4):
            terms = []
            for _ in range(rng.randint(1, 4)):
                g = [rng.randint(-p * p, 2 * p * p) for _ in range(model.d)]
                a = Fraction(rng.randint(-40, 40), p ** rng.randint(0, 1))
                # a cancelling partner in the same level-1 and level-2 coset
                terms += [(a, model.element(g)),
                          (-a, model.element([x + p * p for x in g]))]
            lams.append(Distribution.dirac_combination(model, terms[:-1] + [
                (rng.randint(1, 9), model.element([rng.randint(0, 5) for _ in range(model.d)]))]))
            lams.append(Distribution.dirac_combination(model, terms))
        for n in (1, 2, 3):
            projs = [(finite_level_project(lam, n), project_scalars(lam, n)) for lam in lams]
            for e, want in projs:
                assert same_cosets(e, want)
            for (e1, w1), (e2, w2) in zip(projs, projs[1:]):
                assert same_cosets(e1 * e2, mul_scalars(model, n, w1, w2))
