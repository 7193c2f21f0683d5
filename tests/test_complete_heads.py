"""A head is complete to its T, checked against recomputation.

Every index of degree <= T that a distribution does not store is zero to
within its stored error, or to the zero rule's window N + 2 where the
library dropped a known zero; the enclosure's ``unstored`` lines bound only
the degrees above T, and its ``cap`` lines every degree.  Each producer's
result, and its ``parse . serialize``, is held here to its true
coefficients, recomputed up to degree T + K without the library's
expansion: exact Fractions from ``math.comb`` over the Dirac points, whose
coordinates come from the group laws written out again below, or from the
closed form of log(1 + b_i).  A stored entry must agree with the truth on
its window or within the stored error, and the upper end of each norm
interval must bound every true |d_alpha| r^tau.

Answers of the rule are pinned at the end: norms and pairings that read an
unstored index inside the head by the stored error alone, and the Dirac
witness that an inexact sum keeps.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from padicdist.distalg import Distribution, Enclosure, RadiusParam, lie_generator
from padicdist.groupmodel import GroupModel, simplex
from padicdist.mahler import FunctionSpec, mahler_coeffs, pair
from padicdist.padic import NormValue
from padicdist.serialize import parse_distribution, serialize_distribution

KINDS = ("abelian:1", "abelian:2", "heisenberg", "semidirect")
K = 4  # the truth is recomputed up to degree T + K


def make_model(kind, p, prec):
    name = {"abelian:1": f"abelian:1:{p}", "abelian:2": f"abelian:2:{p}"}.get(kind, f"{kind}:{p}")
    return GroupModel.from_string(name, prec=prec)


# -- the group laws, written out again on exact int coordinates ------------


def law_mul(model, a, b):
    if model.kind == "heisenberg":
        (x1, y1, z1), (x2, y2, z2) = a, b
        return (x1 + x2, y1 + y2, z1 + z2 - model.p * x2 * y1)
    return tuple(x + y for x, y in zip(a, b))


def law_inv(model, a):
    if model.kind == "heisenberg":
        x, y, z = a
        return (-x, -y, -z - model.p * x * y)
    return tuple(-x for x in a)


def conjugated(model, g, h):
    return law_mul(model, law_mul(model, g, h), law_inv(model, g))


# bases of generators of omega 1, with the coordinates of an exact point in
# each: h1^y1 (h1 h2)^y2 h3^y3 = (y1 + y2, y2, y3 - p C(y2, 2)) on heisenberg
BASES = {
    "abelian:1": ([(-1,)], lambda p, x: (-x[0],)),
    "semidirect": ([(-1,)], lambda p, x: (-x[0],)),
    "abelian:2": ([(1, 0), (1, 1)], lambda p, x: (x[0] - x[1], x[1])),
    "heisenberg": ([(1, 0, 0), (1, 1, 0), (0, 0, 1)],
                   lambda p, x: (x[0] - x[1], x[1], x[2] + p * x[1] * (x[1] - 1) // 2)),
}


# -- true coefficients -------------------------------------------------------


def gcomb(x: int, k: int) -> int:
    """C(x, k) for any integer x."""
    return comb(x, k) if x >= 0 else (-1) ** k * comb(k - x - 1, k)


def dirac_truth(d, terms, top):
    """{alpha: d_alpha} of sum a_j delta_{x_j} for |alpha| <= top, the a_j
    Fractions and the x_j int coordinates."""
    out = {}
    for alpha in simplex(d, top):
        v = Fraction(0)
        for a, x in terms:
            w = 1
            for xi, ai in zip(x, alpha):
                w *= gcomb(xi, ai)
            v += a * w
        out[alpha] = v
    return out


def add_truth(*parts):
    out = {}
    for c, truth in parts:
        for alpha, v in truth.items():
            out[alpha] = out.get(alpha, 0) + c * v
    return out


def log_truth(d, i, top):
    """log(1 + b_i): (-1)^(k+1) / k at k e_i, k >= 1."""
    return {alpha: (Fraction((-1) ** (alpha[i] + 1), alpha[i])
                    if alpha[i] and sum(alpha) == alpha[i] else Fraction(0))
            for alpha in simplex(d, top)}


def abs_value(p, x) -> NormValue:
    """|x| for a Fraction x."""
    if x == 0:
        return NormValue.zero()
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return NormValue(v)


def violations(lam, truth):
    """The indices at which lam's head or enclosure says something false of
    truth (which runs to degree lam.T + K)."""
    p, enc = lam.model.p, lam.enclosure
    zero_rule = NormValue(lam.model.zero_window)
    bad = []
    for alpha, x in truth.items():
        tau = sum(alpha)
        for C, t in enc.cap:
            if abs_value(p, x) > C * NormValue(-t * tau):
                bad.append((alpha, "cap", x))
        if tau > lam.T:
            lines = [C * NormValue(-t * tau) for C, t in enc.unstored + enc.cap]
            if lines and abs_value(p, x) > min(lines):
                bad.append((alpha, "line", x))
        elif alpha in lam.coeffs:
            r, prec, shift = lam.coeffs[alpha]
            diff = abs_value(p, x - Fraction(r, p ** shift))
            if diff > NormValue(prec - shift) and diff > enc.stored:
                bad.append((alpha, "entry", x))
        elif abs_value(p, x) > max(enc.stored, zero_rule):
            bad.append((alpha, "unstored", x))
    # the upper end of each norm interval bounds every true |d_alpha| r^tau
    for s in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        upper = lam.norm(RadiusParam(s)).upper
        bad += [(alpha, f"norm at s = {s}", x) for alpha, x in truth.items()
                if abs_value(p, x) * NormValue(s * sum(alpha)) > upper]
    return bad


# -- the producers -----------------------------------------------------------


def draw_point(rng, model, exact=True):
    if not exact:
        return model.random_element(rng)
    lo = -4 if rng.random() < 0.4 else 0
    return model.element([rng.randint(lo, 6) for _ in range(model.d)])


def perturbed(rng, model, truth, T, e):
    """A head of truth to degree T under the stored error p^-e and the line
    p^0 past T: each entry moved by a multiple of p^e, and some entries that
    p^e divides left out, which the stored error then covers."""
    p = model.p
    table = {}
    for alpha, v in truth.items():
        if sum(alpha) > T or v % p ** e == 0 and rng.random() < 0.3:
            continue
        table[alpha] = v + p ** e * rng.randint(-3, 3)
    return Distribution.from_coeffs(model, table, T,
                                    Enclosure(NormValue(e), [(NormValue(0), Fraction(0))]))


def cases(kind, p):
    """(name, distribution, truth) for each producer and operation."""
    rng = random.Random(f"complete-{kind}-{p}")
    out = []
    for prec in (3, 8):
        model = make_model(kind, p, prec)
        d = model.d
        for _ in range(2):
            T = rng.randint(2, 3 if kind == "heisenberg" else 5)
            top = T + K
            g = draw_point(rng, model)
            h = draw_point(rng, model)
            r = draw_point(rng, model, exact=False)
            dg = dirac_truth(d, [(1, g.coords)], top)
            dh = dirac_truth(d, [(1, h.coords)], top)
            one = dirac_truth(d, [(1, (0,) * d)], top)
            out.append(("dirac", Distribution.dirac(g, T), dg))
            # an inexact point's truth is taken at its residues: every lift
            # has the same entries on their windows
            out.append(("dirac inexact", Distribution.dirac(r, T),
                        dirac_truth(d, [(1, r.coords)], top)))
            terms = [(Fraction(rng.randint(-9, 9), p ** rng.randint(0, 1)), draw_point(rng, model))
                     for _ in range(3)]
            comb_truth = dirac_truth(d, [(a, x.coords) for a, x in terms], top)
            out.append(("dirac_combination", Distribution.dirac_combination(model, terms, T),
                        comb_truth))
            beta = rng.choice(list(simplex(d, 2)))
            out.append(("monomial", Distribution.monomial(model, beta, T),
                        {a: Fraction(a == beta) for a in simplex(d, top)}))
            table = {a: rng.randint(-p ** 2, p ** 2) for a in simplex(d, T) if rng.random() < 0.5}
            out.append(("from_coeffs", Distribution.from_coeffs(model, table, T),
                        {a: Fraction(table.get(a, 0)) for a in simplex(d, top)}))
            i = rng.randrange(d)
            out.append(("lie_generator", lie_generator(model, i, T), log_truth(d, i, top)))
            gh = dirac_truth(d, [(1, law_mul(model, g.coords, h.coords))], top)
            out.append(("mul witness", Distribution.dirac(g, T) * Distribution.dirac(h, T), gh))
            files = [parse_distribution(serialize_distribution(Distribution.dirac(x, T)))
                     for x in (g, h)]
            out.append(("mul head", files[0] * files[1], gh))
            out.append(("mul head by dirac", files[0] * Distribution.dirac(h, T), gh))
            out.append(("dirac - one", Distribution.dirac(g, T) - Distribution.one(model, T),
                        add_truth((1, dg), (-1, one))))
            T2 = T + rng.randint(0, 2)
            out.append(("sum of two T", Distribution.dirac(h, T2) + files[0],
                        add_truth((1, dh), (1, dg))))
            out.append(("mul head + one", files[0] * files[1] + Distribution.one(model, T2),
                        add_truth((1, gh), (1, one))))
            # a head known to within p^-e, with unstored indices under that error
            pert = perturbed(rng, model, dg, T, rng.randint(1, 3))
            out.append(("perturbed", pert, dg))
            out.append(("perturbed mul", pert * Distribution.dirac(h, T), gh))
            out.append(("file mul perturbed", files[1] * pert,
                        dirac_truth(d, [(1, law_mul(model, h.coords, g.coords))], top)))
            out.append(("perturbed + dirac", pert + Distribution.dirac(h, T2),
                        add_truth((1, dg), (1, dh))))
            out.append(("perturbed conjugate", pert.conjugate(h),
                        dirac_truth(d, [(1, conjugated(model, h.coords, g.coords))], top)))
            c = Fraction(rng.randint(1, 9), p ** rng.randint(0, 1))
            out.append(("scale", Distribution.dirac_combination(model, terms, T).scale(c),
                        add_truth((c, comb_truth))))
            out.append(("conjugate", Distribution.dirac_combination(model, terms, T).conjugate(h),
                        dirac_truth(d, [(a, conjugated(model, h.coords, x.coords))
                                        for a, x in terms], top)))
            out.append(("conjugate file", files[0].conjugate(h),
                        dirac_truth(d, [(1, conjugated(model, h.coords, g.coords))], top)))
            if model.law.sigma:
                out.append(("conjugate sigma", Distribution.dirac(g, T).conjugate("sigma"),
                            dirac_truth(d, [(1, law_inv(model, g.coords))], top)))
            basis, coords_in = BASES[kind]
            out.append(("change_basis", Distribution.dirac_combination(model, terms, T)
                        .change_basis([model.element(b) for b in basis]),
                        dirac_truth(d, [(a, coords_in(p, x.coords)) for a, x in terms], top)))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_every_unstored_index_is_zero_to_its_error(kind, p):
    checked = 0
    for name, lam, truth in cases(kind, p):
        assert not violations(lam, truth), (name, violations(lam, truth)[:3])
        back = parse_distribution(serialize_distribution(lam))
        assert not violations(back, truth), (name + " file", violations(back, truth)[:3])
        checked += sum(1 for a in truth if sum(a) <= lam.T and a not in lam.coeffs)
    assert checked > 0


def test_the_checker_sees_a_dropped_entry():
    # a Dirac head with one entry taken out, under its own stored error 0
    model = make_model("abelian:2", 5, 8)
    lam = Distribution.dirac(model.element([2, 1]), 4)
    assert lam.exact
    cut = Distribution(model, {a: c for a, c in lam.coeffs.items() if a != (1, 1)}, 4,
                       Enclosure.EXACT)
    truth = dirac_truth(2, [(1, (2, 1))], 4 + K)
    assert not violations(lam, truth)
    assert [(a, why) for a, why, _ in violations(cut, truth)] == [((1, 1), "unstored")]


def test_sum_covers_the_longer_operands_unstored_degrees():
    # an operand at T = 10 whose unstored indices up to 10 are within p^0,
    # under a line p^-5 above 10; the sum, cut at 5, must bound degrees 6 to
    # 10 by p^0
    model = make_model("abelian:1", 5, 8)
    lam = Distribution(model, {}, 10, Enclosure(NormValue(0), [(NormValue(5), Fraction(0))]))
    total = lam + Distribution.zero_dist(model, 5)
    assert total.T == 5
    assert total.enclosure.bound(6) >= NormValue(0)


# -- answers of the one reading ----------------------------------------------


def test_product_by_one_keeps_the_stored_error():
    # d_1 = 0 to 20 digits under err p^0, and a tail p^0: d_0 and d_1 may
    # each be 1, which the product by one must allow at s = 1
    model = GroupModel.abelian(1, 5)
    lam = Distribution(model, {(1,): (0, 20, 0)}, 4,
                       Enclosure(NormValue(0), [(NormValue(0), Fraction(0))]))
    r = RadiusParam(1)
    assert str(lam.norm(r)) == "0 .. p^0"
    assert str((lam * Distribution.one(model, 4)).norm(r)) == "0 .. p^0"
    # the same head with d_0 in place of d_1
    lam = Distribution(model, {(0,): (0, 20, 0)}, 4,
                       Enclosure(NormValue(0), [(NormValue(0), Fraction(0))]))
    assert str((lam * Distribution.one(model, 4)).norm(r)) == "0 .. p^0"


def test_log_pairing_reads_no_line_inside_the_head():
    # <log(1 + b), (1 + p)^x> = log(1 + p): the head stores every nonzero
    # term up to T = 8, so only its line past T, p^(9/10) at degree 9 times
    # |c_9| = p^-9, bounds the error
    model = GroupModel.abelian(1, 5)
    table = mahler_coeffs(FunctionSpec.power_series_1p(1, 5, 0), 8, prec=model.elem_prec)
    value, err = pair(lie_generator(model, 0, T=8), table)
    assert err <= NormValue(8)
    assert err == NormValue(Fraction(81, 10))
    # log(1 + p) = sum_k (-1)^(k+1) p^k / k, whose terms past k = 8 are below p^-9
    want = sum(Fraction((-1) ** (k + 1) * 5 ** k, k) for k in range(1, 40))
    assert abs_value(5, want - Fraction(value.residue, 5 ** value.shift)) <= NormValue(9)


def test_table_entries_inside_the_cap_are_zero():
    # c_alpha of (1 + p)^x0 is 0 off the first axis; the pairing of a Dirac
    # on abelian:2:5 at T = 8 is certified to p^-9, past the head and the cap
    model = GroupModel.abelian(2, 5)
    table = mahler_coeffs(FunctionSpec.power_series_1p(2, 5, 0), 8, prec=model.elem_prec)
    value, err = pair(Distribution.dirac(model.element([-7, 3]), 8), table)
    assert err == NormValue(9)
    assert abs_value(5, Fraction(6, 1) ** -7 - Fraction(value.residue, 5 ** value.shift)) \
        <= NormValue(9)


def amice_exponent(p, g, s):
    """e with ||delta_g - 1||_r = p^-e on abelian:1:p at r = p^-s: the Amice
    roots of (1 + T)^g - 1."""
    k, x = 0, g
    while x % p == 0:
        x //= p
        k += 1
    return s + sum((p ** n - p ** (n - 1)) * min(s, Fraction(1, p ** (n - 1) * (p - 1)))
                   for n in range(1, k + 1))


@pytest.mark.parametrize("g,h", [(15, 7), (35, 3), (10, 20)])
def test_dirac_differences_keep_their_witness(g, h):
    # (delta_g - 1)(delta_h - 1) at T = 12: a factor with g past T is an
    # inexact sum that keeps the Dirac witness of its two terms (an exact
    # one derives it), so the product is the Dirac combination of four
    # points and its norm collapses at the closed form
    model = GroupModel.abelian(1, 5)
    one = Distribution.one(model, 12)
    x = Distribution.dirac(model.element([g]), 12) - one
    y = Distribution.dirac(model.element([h]), 12) - one
    assert x.exact or x.dirac_terms is not None
    for s in (Fraction(1, 8), Fraction(1, 5), Fraction(1, 2)):
        want = NormValue(amice_exponent(5, g, s) + amice_exponent(5, h, s))
        n = (x * y).norm(RadiusParam(s))
        assert n.lower == n.upper == want, (s, n)


def test_exact_sum_derives_its_witness_on_demand():
    model = GroupModel.abelian(1, 5)
    total = Distribution.monomial(model, (1,), 4) + Distribution.one(model, 4)
    assert total.exact and total.dirac_terms is None
    assert total._exact_terms() is not None
