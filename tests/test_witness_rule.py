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
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from padicdist.distalg import Distribution, RadiusParam
from padicdist.groupmodel import GroupModel
from padicdist.padic import NormValue, triple_bound
from padicdist.suites import S4

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
    return max(triple_bound(p, a) for a, _, _ in terms)


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
