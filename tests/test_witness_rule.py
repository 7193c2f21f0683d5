"""Every result with a Dirac witness is built by one rule.

A witness sum_j a_j delta_{g_j} has Mahler coefficients sum_j a_j C(g_j, alpha),
each bounded by max_j |a_j| since |C(x, k)| <= 1 on Z_p.  So every inexact
result that ``dirac_combination``, ``mul`` of two witnesses, ``conjugate``
or ``change_basis`` builds from a witness states that bound as its one
growth-0 cap line, with no stored error and no unstored line.  The draws
include witnesses whose caps are looser than their terms: sums in which
terms cancel, and differences delta_g - delta_h with g = h mod p^k.

The products are also held to ROADMAP 4(b)'s two cheap assertions, which
need no recomputation: ||lambda mu||_r = ||lambda||_r ||mu||_r (Thm 4.5), so
the product's norm interval meets the product of the factors' intervals;
and log_p ||lambda||_r is a max of affine functions of s, convex and
nonincreasing, so the lower end at s2 exceeds neither the upper end at
s1 < s2 nor the interpolation of the upper ends at s1 and s3 > s2.

Sums are held to the per-growth rule that ``Distribution.__add__``
replaced (``add_reference``), and to two checks of truth.  By the
ultrametric inequality ||lambda + mu||_r <= max(||lambda||_r, ||mu||_r), so
a sum's lower end exceeds neither operand's upper end at once; and where
||lambda||_r > ||mu||_r is certain (lambda's lower end above mu's upper
end), ||lambda + mu||_r = ||lambda||_r, so the sum's interval meets
lambda's.  Sums of finite tables are also held to their true coefficients,
with lines that grow and lines that decay (growth below 0).
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from padicdist.distalg import Distribution, Enclosure, RadiusParam, lie_generator
from padicdist.groupmodel import GroupModel, simplex
from padicdist.padic import NormValue, triple_exponent, vp_int
from padicdist.suites import S4

from add_reference import sum_enclosure

KINDS = ("abelian:2", "heisenberg", "semidirect")
# generators of omega 1 for ``change_basis``
BASES = {
    "abelian:2": [(1, 0), (1, 1)],
    "heisenberg": [(1, 0, 0), (1, 1, 0), (0, 0, 1)],
    "semidirect": [(-1,)],
}


def model_of(kind, p, prec):
    name = f"abelian:2:{p}" if kind == "abelian:2" else f"{kind}:{p}"
    return GroupModel.from_string(name, prec=prec, max_weight=6)


def point(rng, model, exact=True):
    if not exact:
        return model.random_element(rng)
    return model.element([rng.randint(-2 if rng.random() < 0.3 else 0, 4)
                          for _ in range(model.d)])


def coefficient(rng, p):
    return rng.choice([1, -1, Fraction(1, p), rng.randint(1, p * p) * p ** rng.randint(0, 3)])


def witnesses(rng, model, T):
    """Distributions with a Dirac witness, exact and inexact: three Dirac
    combinations first, then sums and a monomial."""
    p = model.p
    out = []
    for _ in range(3):
        terms = [(coefficient(rng, p), point(rng, model, rng.random() < 0.6))
                 for _ in range(rng.randint(1, 3))]
        out.append(Distribution.dirac_combination(model, terms, T))
    g = point(rng, model, exact=False)
    h = point(rng, model)
    k = rng.randint(1, 3)
    # a sum that keeps the witness p^k delta_h under the cap of delta_g
    out.append(Distribution.dirac_combination(model, [(1, g), (p ** k, h)], T)
               - Distribution.dirac(g, T))
    # delta_g - delta_g' with g' = g mod p^k
    shifted = model.element([x + p ** k for x in h.coords])
    out.append(Distribution.dirac(h, T) - Distribution.dirac(shifted, T))
    out.append(Distribution.monomial(model, (1,) + (0,) * (model.d - 1), T))
    for lam in out:
        assert lam._exact_terms() is not None
    return out


def witness_results(kind, p):
    """(name, result, bound of its witness terms, factors) for each draw."""
    rng = random.Random(f"witness-rule-{kind}-{p}")
    out = []
    for prec in (3, 8):
        model = model_of(kind, p, prec)
        T = rng.randint(3, 5)
        pool = witnesses(rng, model, T)
        basis = [model.element(b) for b in BASES[kind]]
        out += [("dirac_combination", lam, None, (lam,)) for lam in pool[:3]]
        for lam in pool:
            for h in (point(rng, model), point(rng, model, exact=False)):
                out.append(("conjugate", lam.conjugate(h), None, (lam,)))
            # the chart map is one to one mod p^W, so the image terms have
            # the source's coefficients
            out.append(("change_basis", lam.change_basis(basis),
                        witness_bound(p, lam._exact_terms()), (lam,)))
        for lam, mu in zip(pool, pool[1:] + pool[:1]):
            out.append(("mul", lam.mul(mu), None, (lam, mu)))
            out.append(("mul s_work", lam.mul(mu, s_work=S4), None, (lam, mu)))
    return out


def witness_bound(p, terms) -> NormValue:
    return NormValue(min(triple_exponent(p, a) for a, _, _ in terms))


def growth_zero_line(lam) -> NormValue:
    lines = [C for C, t in lam.enclosure.cap if t == 0]
    assert len(lines) == 1, lam.enclosure
    return lines[0]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind", KINDS)
class TestOneWitnessRule:
    def test_the_cap_line_is_the_witness_bound(self, kind, p):
        inexact = 0
        for name, lam, bound, factors in witness_results(kind, p):
            if lam.exact:
                continue
            inexact += 1
            if bound is None:
                bound = witness_bound(p, lam.dirac_terms)
            enc = lam.enclosure
            assert enc.stored.is_zero and enc.unstored == (), (name, enc)
            line = growth_zero_line(lam)
            assert line == bound, (name, line, bound)
            if name.startswith("mul"):
                assert line <= factors[0].coeff_sup() * factors[1].coeff_sup(), name
                # s_work adds its lines at growth s and leaves the growth-0 one
                assert {t for _, t in enc.cap} <= {Fraction(0), *S4}, name
            else:
                assert line <= factors[0].coeff_sup(), name
        assert inexact > 10

    def test_a_witness_tighter_than_its_caps(self, kind, p):
        # the sum keeps the witness p^2 delta_h under the caps of delta_g:
        # its products and images are capped by p^-2, not by its coeff_sup
        model = model_of(kind, p, 8)
        g = model.random_element(random.Random(p))
        h = model.element([1] * model.d)
        lam = (Distribution.dirac_combination(model, [(1, g), (p ** 2, h)], 4)
               - Distribution.dirac(g, 4))
        assert lam.coeff_sup() == NormValue.one()
        for out in (lam.mul(Distribution.dirac(g, 4)), lam.conjugate(g)):
            assert growth_zero_line(out) == NormValue(2)

    def test_products_meet_and_are_convex_across_radii(self, kind, p):
        radii = [RadiusParam(s) for s in sorted(S4)]
        checked = 0
        for name, prod, _, factors in witness_results(kind, p):
            if not name.startswith("mul"):
                continue
            lam, mu = factors
            norms = [prod.norm(r) for r in radii]
            for n, a, b in zip(norms, (lam.norm(r) for r in radii), (mu.norm(r) for r in radii)):
                # the intervals [n.lower, n.upper] and [a.lower b.lower, a.upper b.upper] meet
                assert n.lower <= a.upper * b.upper and a.lower * b.lower <= n.upper, (name, n)
                checked += 1
            for (s1, n1), (s2, n2), (s3, n3) in combinations(zip(sorted(S4), norms), 3):
                assert n2.lower <= n1.upper, (name, s2)
                e1, e3 = n1.upper.exponent, n3.upper.exponent
                if e1 != float("-inf") and e3 != float("-inf"):
                    # exponents: log_p of a norm is minus its exponent
                    chord = ((s3 - s2) * e1 + (s2 - s1) * e3) / (s3 - s1)
                    assert n2.lower.exponent >= chord, (name, s1, s2, s3)
        assert checked > 0


# -- sums --------------------------------------------------------------------


def head(rng, model, T, enclosure):
    """An inexact head of degree <= T with the given enclosure: integral and
    fractional entries, and one uncertain entry (0, 1, 1)."""
    p = model.p
    alphas = rng.sample(list(simplex(model.d, T)), 4)
    table = {a: rng.choice([1, -2, p, 3 * p ** 2, Fraction(1, p)]) for a in alphas[1:]}
    table[alphas[0]] = (0, 1, 1)
    return Distribution.from_coeffs(model, table, T, enclosure)


def sum_operands(kind, p):
    """Operands for sums: exact and inexact at different T, stored errors of
    int and of fractional exponent, ``lie_generator``'s growing line (growth
    1/10 at p = 5 and T = 8), the cap lines of ``mul(s_work=S4)``, heads with
    no growth-0 line or no line at all, zero operands, and sums of these."""
    rng = random.Random(f"sum-rule-{kind}-{p}")
    model = model_of(kind, p, 8)
    d = model.d
    pool = witnesses(rng, model, 5)
    g, h = point(rng, model, exact=False), point(rng, model)
    lie = lie_generator(model, 0, 8)
    product = Distribution.dirac(g, 4).mul(Distribution.dirac(h, 4), s_work=S4)
    witness_product = pool[0].mul(pool[3], s_work=S4)
    pool += [
        Distribution.zero_dist(model, 3),
        Distribution.zero_dist(model, 6),
        Distribution.monomial(model, (2,) + (0,) * (d - 1), 6).scale(p),
        lie,
        lie_generator(model, d - 1, 4).scale(Fraction(1, p)),
        product,
        witness_product,
        lie + product,
        witness_product - pool[1],
        head(rng, model, 4, Enclosure(NormValue(2), [(NormValue(1), 0)])),
        head(rng, model, 3, Enclosure(NormValue(Fraction(5, 2)),
                                      [(NormValue(Fraction(1, 3)), Fraction(1, 4))],
                                      [(NormValue(Fraction(3, 2)), Fraction(1, 2))])),
        head(rng, model, 5, Enclosure(NormValue(1), cap=[(NormValue(0), Fraction(1, 2))])),
        head(rng, model, 4, Enclosure()),
    ]
    return pool


def sums(kind, p):
    """(lam, mu, lam + mu) for every ordered pair of operands."""
    pool = sum_operands(kind, p)
    return [(lam, mu, lam + mu) for lam in pool for mu in pool]


def exponents(enclosure):
    return [enclosure.stored.exponent] + [C.exponent for C, _ in
                                          enclosure.unstored + enclosure.cap]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind", KINDS)
class TestSumRule:
    def test_matches_the_per_growth_rule(self, kind, p):
        growths = set()
        for lam, mu, out in sums(kind, p):
            want = sum_enclosure(lam, mu)
            assert out.enclosure == want, (lam.enclosure, mu.enclosure)
            assert list(map(str, exponents(out.enclosure))) == list(map(str, exponents(want)))
            # an integral exponent is held as an int
            assert not any(type(e) is Fraction and e.denominator == 1
                           for e in exponents(out.enclosure)), out.enclosure
            growths |= {t for _, t in out.enclosure.unstored + out.enclosure.cap}
        assert set(S4) <= growths
        if p == 5:
            assert Fraction(1, 10) in growths

    def test_sums_obey_the_ultrametric_inequality(self, kind, p):
        assert ultrametric_violation(kind, p) is None


def ultrametric_violation(kind, p):
    """The first sum, and radius in S4, at which the sum's lower end exceeds
    both operands' upper ends, or the sum's interval misses the interval of
    an operand whose norm certainly exceeds the other's; None for none."""
    radii = [RadiusParam(s) for s in S4]
    for lam, mu, out in sums(kind, p):
        for r in radii:
            n, a, b = out.norm(r), lam.norm(r), mu.norm(r)
            if n.lower > max(a.upper, b.upper):
                return "lower end", lam, mu, r
            for x, y in ((a, b), (b, a)):
                if x.lower > y.upper and not (n.lower <= x.upper and x.lower <= n.upper):
                    return "misses the larger operand", lam, mu, r
    return None


# -- sums of finite tables, held to their true coefficients -----------------

TRUE_SUM_GROWTHS = (Fraction(-1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4), Fraction(1))


def table_operand(rng, model, table, T):
    """(lambda, its true coefficients): the int table cut at T, exact, or
    the whole table as its head to T with lines, each the least that holds
    past T (or a looser one) at a growth that may be below 0, and maybe a
    cap line and a stored error."""
    tau = sum
    p = model.p

    def cover(items, t):
        return max((NormValue(vp_int(c, p) + t * tau(a)) for a, c in items if c),
                   default=NormValue.zero())

    if rng.random() < 0.3:
        table = {a: c for a, c in table.items() if tau(a) <= T}
        return Distribution.from_coeffs(model, table, T), table
    above = [(a, c) for a, c in table.items() if tau(a) > T]
    unstored, cap = [], []
    for t in rng.sample(TRUE_SUM_GROWTHS, rng.randint(1, 2)):
        C = cover(above, t)
        if C.is_zero or rng.random() < 0.3:
            C = max(C, NormValue(rng.randint(-1, 3)))
        unstored.append((C, t))
        if rng.random() < 0.3:
            cap.append((cover(table.items(), t), t))
    stored = rng.choice([NormValue.zero(), NormValue.zero(), NormValue(3)])
    entries = {a: table.get(a, 0) for a in simplex(model.d, T)}
    return Distribution.from_coeffs(model, entries, T, Enclosure(stored, unstored, cap)), table


def true_sum_violation(p, draws=120):
    """The first sum of two finite tables, each an exact or an inexact
    operand at its own T, whose lines or norm intervals at S4 say something
    false of the true sum; None for none."""
    rng = random.Random(f"true-sum-{p}")
    model = GroupModel.from_string(f"abelian:2:{p}", prec=6, max_weight=6)
    tau = sum
    values = [1, 2, -3, p, 2 * p, p ** 2, 3 * p ** 3]
    for _ in range(draws):
        (lam, src1), (mu, src2) = (
            table_operand(rng, model, {a: rng.choice(values)
                                       for a in rng.sample(list(simplex(2, 6)), 5)},
                          rng.randint(1, 6)) for _ in range(2))
        out = lam + mu
        true = {a: src1.get(a, 0) + src2.get(a, 0) for a in {*src1, *src2}}
        true = {a: c for a, c in true.items() if c}
        sizes = {a: NormValue(vp_int(c, p)) for a, c in true.items()}
        enc = out.enclosure
        if not out.exact:
            for lines, past_T in ((enc.unstored, True), (enc.cap, False)):
                for C, t in lines:
                    for a, x in sizes.items():
                        if (tau(a) > out.T or not past_T) and x > C * NormValue(-t * tau(a)):
                            return "line", (C, t), a, lam, mu
        for s in S4:
            want = max((x * NormValue(s * tau(a)) for a, x in sizes.items()),
                       default=NormValue.zero())
            got = out.norm(RadiusParam(s))
            if not got.lower <= want <= got.upper:
                return "norm", s, lam, mu
    return None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sums_of_tables_hold_of_the_true_sum(p):
    assert true_sum_violation(p) is None
