from fractions import Fraction
from itertools import product
from math import inf
import random

import pytest
from hypothesis import given, settings, strategies as st

import padicdist.graded as graded

from graded_reference import (
    _grevlex_key,
    grade_grevlex,
    groebner_grevlex,
    krull_dim_frozensets,
    reduce_grevlex,
    saturate_bayer,
    saturate_by_quotients,
    saturate_rabinowitsch,
)
from padicdist.graded import (
    GradedAmbient,
    GradedError,
    GradedIdeal,
    GradedPoly,
    _buchberger,
    grade_cyclic,
    krull_dim,
    saturate,
)

P = 5


def amb(d, s=Fraction(1, 2)):
    return GradedAmbient(P, d, [1] * d, s)


def var(a, i):
    return GradedPoly.variable(a, i)


class TestPolyArithmetic:
    def test_parse_round_trip(self):
        a = amb(2)
        f = GradedPoly.parse(a, "2*e0^3*X1 + 4*X2^2")
        assert f == GradedPoly(a, {(1, 0, 3): 2, (0, 2, 0): 4})
        assert GradedPoly.parse(a, f.to_text()) == f

    def test_parse_negative_e0_display_only(self):
        a = amb(1)
        f = GradedPoly.parse(a, "1*e0^-1*X1^5")
        assert f.min_e0_exponent == -1
        with pytest.raises(GradedError):
            GradedIdeal(a, [f])

    def test_parse_rejects_negative_x(self):
        with pytest.raises(GradedError):
            GradedPoly.parse(amb(1), "1*X1^-2")

    @pytest.mark.parametrize("terms", [
        {(1.5, 0, 0): 1},
        # not X1 + 4 X1 = 0: a fractional exponent is refused, not truncated
        {(1.5, 0, 0): 1, (1, 0, 0): 4},
        {(0, 0, Fraction(1, 2)): 1},
    ])
    def test_rejects_fractional_exponents(self, terms):
        with pytest.raises(GradedError, match="is not 3 integers"):
            GradedPoly(amb(2), terms)

    def test_accepts_integral_exponents_of_any_type(self):
        a = amb(2)
        assert GradedPoly(a, {(1.0, 0, Fraction(2)): 3}) == GradedPoly(a, {(1, 0, 2): 3})

    def test_coefficients_mod_p(self):
        a = amb(1)
        x = var(a, 1)
        assert (x + x + x + x + x).is_zero

    def test_mul_commutes(self):
        a = amb(2)
        f = GradedPoly.parse(a, "1*X1 + 2*e0")
        g = GradedPoly.parse(a, "3*X2 + 1*X1^2")
        assert f * g == g * f

    def test_shift_e0_unit(self):
        a = amb(1)
        f = GradedPoly.parse(a, "1*e0^2*X1")
        assert f.shift_e0(-2).shift_e0(2) == f

    def test_homogeneous_degrees(self):
        a = amb(2, s=Fraction(1, 2))
        f = GradedPoly.parse(a, "1*X1 + 1*X2")
        assert f.is_homogeneous() and f.degrees() == {Fraction(1, 2)}
        g = GradedPoly.parse(a, "1*e0 + 1*X1^2")
        assert g.is_homogeneous()  # deg e0 = 1 = 2s

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_distributivity_sampled(self, i, j):
        a = amb(2)
        import random

        rng = random.Random(i * 17 + j)

        def rnd():
            return GradedPoly(
                a,
                {
                    (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)): rng.randint(1, P - 1)
                    for _ in range(3)
                },
            )

        f, g, h = rnd(), rnd(), rnd()
        assert f * (g + h) == f * g + f * h


class TestGroebner:
    def test_hand_oracle(self):
        # <X1^2, X1X2 - e0^2>: the S-polynomial reduces to e0^2*X1
        a = amb(2)
        x1, x2, e0 = var(a, 1), var(a, 2), var(a, 0)
        ideal = GradedIdeal(a, [x1 * x1, x1 * x2 - e0 * e0])
        gb = ideal.groebner()
        assert gb.contains(e0 * e0 * x1)
        assert any(g == e0 * e0 * x1 for g in gb.gens)

    def test_groebner_idempotent(self):
        a = amb(2)
        x1, x2, e0 = var(a, 1), var(a, 2), var(a, 0)
        gb = GradedIdeal(a, [x1 * x1, x1 * x2 - e0 * e0]).groebner()
        assert gb.groebner().same_ideal(gb)

    def test_contains_generators_and_combinations(self):
        a = amb(3)
        gens = [var(a, 1) * var(a, 2), var(a, 2) * var(a, 3) - var(a, 0)]
        ideal = GradedIdeal(a, gens)
        for g in gens:
            assert ideal.contains(g)
        assert ideal.contains(gens[0] * var(a, 3) + gens[1] * var(a, 1))
        assert not ideal.contains(var(a, 1))

    def test_reduce_certificate(self):
        a = amb(2)
        x1, x2 = var(a, 1), var(a, 2)
        ideal = GradedIdeal(a, [x1 * x1 - x2, x2 * x2])
        probe = x1 * x1 * x1 + x2
        rem, cof = ideal.reduce(probe)
        recon = rem
        for c, b in zip(cof, ideal.basis_polys()):
            recon = recon + c * b
        assert recon == probe

    def test_zero_ideal(self):
        a = amb(2)
        ideal = GradedIdeal(a, [])
        assert not ideal.contains(var(a, 1))
        assert ideal.contains(GradedPoly.zero_poly(a))


class TestSaturation:
    def test_e0x1_saturates_to_x1(self):
        a = amb(2)
        sat = saturate(GradedIdeal(a, [var(a, 0) * var(a, 1)]))
        assert sat.same_ideal(GradedIdeal(a, [var(a, 1)]).groebner())

    def test_e0_power_saturates_to_unit(self):
        a = amb(2)
        sat = saturate(GradedIdeal(a, [var(a, 0) * var(a, 0)]))
        assert sat.contains(GradedPoly.constant(a, 1))

    def test_saturation_is_stable(self):
        a = amb(2)
        ideal = GradedIdeal(a, [var(a, 1) * var(a, 2)])
        sat = saturate(ideal)
        assert saturate(sat).same_ideal(sat)

    def test_mixed_generator(self):
        # <e0*X1, X2>: saturation adds X1
        a = amb(2)
        sat = saturate(GradedIdeal(a, [var(a, 0) * var(a, 1), var(a, 2)]))
        assert sat.contains(var(a, 1)) and sat.contains(var(a, 2))


@st.composite
def small_ideals(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.sampled_from([1, 2]))
    a = GradedAmbient(p, d, [1] * d, Fraction(1, 2))
    mons = [m for m in product(range(3), repeat=d + 1) if sum(m) <= 2]
    term = st.dictionaries(st.sampled_from(mons), st.integers(1, p - 1),
                           min_size=1, max_size=3)
    gens = draw(st.lists(term, min_size=1, max_size=3))
    return GradedIdeal(a, [GradedPoly(a, g) for g in gens])


def e0_power_certificate(ideal, sat, kmax=8):
    """Certificate that I : e0^infinity is sat: I lies in sat, and each basis
    element b of sat has e0^k * b in I; returns the least such k per b."""
    assert all(sat.contains(g) for g in ideal.gens)
    ks = []
    for b in sat.basis_polys():
        k = next((k for k in range(kmax + 1) if ideal.contains(b.shift_e0(k))), None)
        assert k is not None, f"no e0^k * ({b.to_text()}) in I with k <= {kmax}"
        ks.append(k)
    return ks


ROADMAP_GENS = ("X1^2+e0*X2", "X2^2*X3+e0^2*X1", "X3^2*e0+X1*X2")
ROADMAP_SAT = (
    "1*X1^2+1*X2*e0",
    "1*X3^2*e0+1*X1*X2",
    "1*X1*X3^2+4*X2^2",
    "1*X1*e0^2+1*X2^2*X3",
    "1*X2*X3^3+1*X2*e0^2",
    "1*X2*X3*e0^3+4*X2^4",
    "1*X1*X3*e0^3+4*X1*X2^3",
    "1*X3^5+4*X1*X2*e0",
    "1*X1*e0^5+1*X2^5",
    "1*X2*e0^6+4*X1*X2^5",
)

# trinomial quadrics over F_5 at d=3 whose saturation by one elimination took
# over 3 s each
HEAVY_GENS = (
    "4*X1*X2+1*X1*e0+1*e0^2, 4*X1^2+2*X1*X3+3*X1*e0, 1*X1*X2+2*X2^2+2*X3*e0",
    "1*X1^2+1*X1*X2+3*X2^2, 4*X1*X2+1*X1*e0+3*e0^2, 3*X1^2+2*X2*X3+1*X2*e0",
)


class TestSaturationOracle:
    # the references return deglex bases; _buchberger re-reduces them in the
    # library's order, where reduced bases of equal ideals are equal lists
    @given(small_ideals())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_iterated_quotients(self, ideal):
        ref = saturate_by_quotients(ideal)
        assert saturate(ideal).groebner_raw() == _gb(ref, ideal.ambient.p)

    @given(small_ideals())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_rabinowitsch(self, ideal):
        ref = saturate_rabinowitsch(ideal)
        assert saturate(ideal).groebner_raw() == _gb(ref, ideal.ambient.p)

    def test_roadmap_ideal(self):
        a = amb(3)
        ideal = GradedIdeal(a, [GradedPoly.parse(a, g) for g in ROADMAP_GENS])
        sat = saturate(ideal)
        assert tuple(b.to_text() for b in sat.basis_polys()) == ROADMAP_SAT
        assert max(e0_power_certificate(ideal, sat)) <= 2
        assert grade_cyclic(ideal, 3) == 3

    def test_saturated_p3_ideal(self):
        # already saturated; iterated quotients ran for minutes on it
        a = GradedAmbient(3, 2, [1, 1], Fraction(1, 2))
        ideal = GradedIdeal(a, [GradedPoly(a, t) for t in (
            {(0, 1, 2): 2, (1, 1, 0): 2, (0, 0, 1): 1},
            {(0, 1, 0): 1, (0, 0, 0): 1, (1, 1, 0): 1},
            {(2, 0, 1): 2, (0, 1, 0): 2},
        )])
        sat = saturate(ideal)
        assert sat.same_ideal(ideal.groebner())
        assert set(e0_power_certificate(ideal, sat)) == {0}
        assert grade_cyclic(ideal, 2) == 3

    @pytest.mark.parametrize("gens", HEAVY_GENS)
    def test_heavy_trinomial_ideal(self, gens):
        a = amb(3)
        ideal = GradedIdeal(a, [GradedPoly.parse(a, g) for g in gens.split(",")])
        sat = saturate(ideal)
        e0_power_certificate(ideal, sat, kmax=3)
        assert all(b.min_e0_exponent == 0 for b in sat.basis_polys())
        assert grade_cyclic(ideal, 3) == 3


def _gb(gens, p):
    # the engine's reduced basis, decoded
    return _buchberger(gens, p).unpack()


def _items(basis):
    # term order too: the benchmark hashes the reprs of these dicts
    return [list(b.items()) for b in basis]


QUADRICS = [m for m in product(range(3), repeat=3) if sum(m) == 2]
QUADRICS_E0 = [m for m in product(range(3), repeat=4) if sum(m) == 2]

# (d, terms per generator, monomials, whether a generator must involve e0):
# the groebner benchmark's two families (trinomial quadrics in X1, X2, e0 and
# binomial quadrics in X1, X2, X3) and the two d=3 families it leaves out
# (trinomials, and binomials involving e0)
FAMILIES = {
    "d2-trinomials": (2, 3, QUADRICS, False),
    "d3-binomials": (3, 2, [m + (0,) for m in QUADRICS], False),
    "d3-trinomials": (3, 3, QUADRICS_E0, False),
    "d3-e0-binomials": (3, 2, QUADRICS_E0, True),
}


def seeded_ideals(family, p, count):
    """count ideals of three generators from the family over F_p, each with a
    member (a combination of the generators) and a random probe."""
    d, nterms, mons, need_e0 = FAMILIES[family]
    rng = random.Random(f"{family}:{p}")
    a = GradedAmbient(p, d, [1] * d, Fraction(1, 2))

    def rnd(nterms, deg):
        return GradedPoly(a, {
            tuple(rng.randint(0, deg) for _ in range(d + 1)): rng.randrange(1, p)
            for _ in range(nterms)
        })

    for _ in range(count):
        gens = []
        while len(gens) < 3:
            support = rng.sample(mons, nterms)
            if not need_e0 or any(m[-1] for m in support):
                gens.append(GradedPoly(a, {m: rng.randrange(1, p) for m in support}))
        member = GradedPoly.zero_poly(a)
        for g in gens:
            member = member + rnd(3, 1) * g
        yield d, GradedIdeal(a, gens), member, rnd(3, 2)


class TestEngineMatchesReference:
    """The library's bases, saturations, grades, remainders and cofactors
    are those of a plain engine that reduces every pair and finds each lead
    with ``max(..., key=...)``, term order included."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p, count", [(5, 40), (3, 4), (7, 4)])
    def test_seeded_ideals(self, family, p, count):
        for d, ideal, member, probe in seeded_ideals(family, p, count):
            raw = ideal._raw_gens()
            ref = groebner_grevlex(raw, p)
            assert _items(_gb(raw, p)) == _items(ref)
            ref_sat = saturate_bayer(ideal)
            sat = saturate(GradedIdeal(ideal.ambient, ideal.gens))
            assert _items(sat.groebner_raw()) == _items(ref_sat)
            ref_grade = grade_grevlex(ref_sat, d)
            assert grade_cyclic(ideal, d) == (inf if ref_grade is None else ref_grade)
            for poly in (member, probe):
                rem, cof = ideal.reduce(poly)
                ref_rem, ref_cof = reduce_grevlex(poly.terms, ref, p)
                assert list(rem.terms.items()) == list(ref_rem.items())
                assert [list(c.terms.items()) for c in cof] == _items(ref_cof)
            assert not ideal.reduce(member)[0].terms


class TestBasisReuse:
    """saturate keeps the basis of a homogeneous ideal, which it computes on
    the way, as that ideal's own basis."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_homogeneous_ideal_keeps_its_basis(self, family):
        for d, ideal, _, _ in seeded_ideals(family, 5, 3):
            grade_cyclic(ideal, d)
            kept = ideal._packed
            assert kept is not None
            assert _items(ideal.groebner_raw()) == _items(_gb(ideal._raw_gens(), 5))
            assert ideal._packed is kept

    def test_principal_ideal_keeps_its_term_order(self):
        # two generators with one lead: the first one's term order is kept
        a = amb(2)
        ideal = GradedIdeal(a, [GradedPoly.parse(a, t) for t in (
            "2*e0*X2 + 1*X1^2 + 3*X1*X2", "2*X1^2 + 1*X1*X2 + 4*e0*X2")])
        grade_cyclic(ideal, 2)
        assert _items(ideal.groebner_raw()) == _items(groebner_grevlex(ideal._raw_gens(), P))
        assert list(ideal.groebner_raw()[0]) == [(0, 1, 1), (2, 0, 0), (1, 1, 0)]

    @pytest.mark.parametrize("gens", [("X1+e0^2", "X2*X1"), ROADMAP_GENS])
    def test_inhomogeneous_ideal_is_left_alone(self, gens):
        a = amb(3)
        ideal = GradedIdeal(a, [GradedPoly.parse(a, g) for g in gens])
        sat = saturate(ideal)
        assert ideal._packed is None
        assert sat.groebner_raw() == _gb(saturate_by_quotients(ideal), P)


def _homogeneous(poly):
    # in total degree, as saturate reads it (not in the grading degree)
    return len({sum(m) for m in poly.terms}) <= 1


def inhomogeneous_ideals(d, p, count):
    """count ideals of three generators over F_p with d X-variables, each
    generator two or three terms of total degree 0 to 2 and at least one
    generator not homogeneous in total degree."""
    rng = random.Random(f"inhomogeneous:{d}:{p}")
    a = GradedAmbient(p, d, [1] * d, Fraction(1, 2))
    mons = [m for m in product(range(3), repeat=d + 1) if sum(m) <= 2]
    while count:
        gens = [GradedPoly(a, {m: rng.randrange(1, p) for m in rng.sample(mons, rng.randint(2, 3))})
                for _ in range(3)]
        if not all(map(_homogeneous, gens)):
            count -= 1
            yield GradedIdeal(a, gens)


def _divided(basis):
    """Each element divided by the largest power of e0 dividing it."""
    out = []
    for b in basis:
        k = min(m[-1] for m in b)
        out.append({m[:-1] + (m[-1] - k,): c for m, c in b.items()})
    return out


class TestOneRunSaturation:
    """For a homogeneous ideal, saturate inter-reduces the e0-divided basis
    instead of running Buchberger on it again; the result is the full run's,
    term order included.  Other ideals still take the second run."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_homogeneous_ideals(self, family, p):
        for _, ideal, _, _ in seeded_ideals(family, p, 8):
            assert all(map(_homogeneous, ideal.gens))
            full = _gb(_divided(_gb(ideal._raw_gens(), p)), p)
            sat = saturate(GradedIdeal(ideal.ambient, ideal.gens))
            assert _items(sat.groebner_raw()) == _items(full) == _items(saturate_bayer(ideal))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_inhomogeneous_ideals(self, d, p, monkeypatch):
        runs = _counting_runs(monkeypatch)
        for ideal in inhomogeneous_ideals(d, p, 8):
            sat = saturate(ideal)
            assert ideal._packed is None
            assert _items(sat.groebner_raw()) == _items(saturate_bayer(ideal))
            # the saturation is marked, and saturating it again runs nothing
            runs.clear()
            assert saturate(sat) is sat and not runs


def _same_as_checked(q):
    # what the checking constructor makes of q's terms, term order included
    return list(GradedPoly(q.ambient, q.terms).terms.items()) == list(q.terms.items())


class TestUncheckedOutputs:
    """The engine's outputs skip GradedPoly's checks, so they must already be
    what the checks would make of them; the divisors are prepared once per
    ideal."""

    def ideals(self):
        for family in FAMILIES:
            for p in (3, 5, 7):
                for _, ideal, member, probe in seeded_ideals(family, p, 3):
                    yield ideal, [member, probe]
        a = amb(2)
        # a probe with negative e0 exponents, which GradedPoly allows
        yield (GradedIdeal(a, [GradedPoly.parse(a, t) for t in ("X1^2+e0", "X1*X2")]),
               [GradedPoly.parse(a, "3*X1^3*X2*e0^-2+X2^2+4"), GradedPoly.zero_poly(a)])

    def test_outputs_pass_the_checks(self):
        for ideal, polys in self.ideals():
            outs = ideal.basis_polys() + list(ideal.groebner().gens)
            outs += ideal.groebner().basis_polys()
            sat = saturate(ideal)
            outs += list(sat.gens) + sat.basis_polys()
            for poly in polys:
                rem, cof = ideal.reduce(poly)
                outs += [rem] + cof
            assert outs and all(_same_as_checked(q) for q in outs)

    def test_cofactor_identity_after_mixed_calls(self):
        for ideal, polys in self.ideals():
            basis = ideal.basis_polys()
            for poly in polys + polys:
                assert ideal.contains(poly) == ideal.reduce(poly)[0].is_zero
                rem, cof = ideal.reduce(poly)
                recon = rem
                for c, b in zip(cof, basis):
                    recon = recon + c * b
                assert recon == poly

    def test_divisors_are_prepared_once(self, monkeypatch):
        # Buchberger's run builds the basis's divisors; nothing after it
        # builds one for this ideal's basis again
        built = []
        divisor = graded._divisor
        monkeypatch.setattr(graded, "_divisor", lambda b, p, lay: built.append(b) or divisor(b, p, lay))
        a = amb(3)
        ideal = GradedIdeal(a, [GradedPoly.parse(a, t) for t in ("X1*X2+e0^2", "X2*X3+X1^2")])
        ideal.groebner_raw()
        assert built
        built.clear()
        poly = GradedPoly.parse(a, "X1^3*X2+2*X3")
        first = ideal.reduce(poly)
        assert ideal.reduce(poly) == first
        ideal.contains(poly)
        krull_dim(ideal)
        ideal.basis_polys()
        assert built == []
        assert ideal._basis() is ideal._basis()


@st.composite
def scaled_cases(draw):
    """(ideal, probes, whole): an ideal of one to three generators over F_p,
    d <= 3, with every exponent of the scaled slots (all of them if whole,
    else one X slot) a multiple of a scale up to 2^70, and probes that may
    have negative e0 exponents.  Every monomial the engines build then keeps
    those slots multiples of the scale, so a huge scale costs no more steps."""
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1, 2**13 - 1, 2**13, 2**70 - 1, 2**70]))
    whole = draw(st.booleans())
    slots = range(d + 1) if whole else [draw(st.integers(0, d - 1))]
    a = GradedAmbient(p, d, [1] * d, Fraction(1, 2))

    def scaled(mon):
        return tuple(x * scale if i in slots else x for i, x in enumerate(mon))

    mons = [m for m in product(range(3), repeat=d + 1) if sum(m) <= 2]
    term = st.dictionaries(st.sampled_from(mons), st.integers(1, p - 1), min_size=1, max_size=3)
    gens = [GradedPoly(a, {scaled(m): c for m, c in g.items()})
            for g in draw(st.lists(term, min_size=1, max_size=3))]
    probe_mons = [m + (e,) for m in product(range(4), repeat=d) if sum(m) <= 3
                  for e in range(-2, 3)]
    probe = st.dictionaries(st.sampled_from(probe_mons), st.integers(1, p - 1), max_size=4)
    probes = [GradedPoly(a, {scaled(m): c for m, c in t.items()})
              for t in draw(st.lists(probe, min_size=1, max_size=2))]
    return GradedIdeal(a, gens), probes, whole


class TestPackedEngine:
    """The packed engine against the plain reference engine, term order
    included, on exponents from 0 to past 2^70: far enough that some built
    terms leave their first layout's range and the call is redone wider."""

    def test_matches_reference(self, monkeypatch):
        overflows = []
        widening = graded._widening

        def counted(width, run):
            def recorded(w):
                try:
                    return run(w)
                except graded._FieldOverflow:
                    overflows.append(w)
                    raise
            return widening(width, recorded)

        monkeypatch.setattr(graded, "_widening", counted)

        @given(scaled_cases())
        @settings(max_examples=80, deadline=None, derandomize=True)
        def check(case):
            ideal, probes, whole = case
            p, d = ideal.ambient.p, ideal.ambient.d
            raw = ideal._raw_gens()
            ref = groebner_grevlex(raw, p)
            assert _items(ideal.groebner_raw()) == _items(ref)
            for poly in probes:
                rem, cof = ideal.reduce(poly)
                ref_rem, ref_cof = reduce_grevlex(poly.terms, ref, p)
                assert list(rem.terms.items()) == list(ref_rem.items())
                assert [list(c.terms.items()) for c in cof] == _items(ref_cof)
                assert ideal.contains(poly) == (not ref_rem)
            # saturate_bayer homogenizes with a variable h whose exponents
            # are multiples of a scale only when every slot is scaled or no
            # generator needs h
            if whole or all(map(_homogeneous, ideal.gens)):
                ref_sat = saturate_bayer(ideal)
                sat = saturate(GradedIdeal(ideal.ambient, ideal.gens))
                assert _items(sat.groebner_raw()) == _items(ref_sat)
                ref_grade = grade_grevlex(ref_sat, d)
                assert grade_cyclic(ideal, d) == (inf if ref_grade is None else ref_grade)

        check()
        assert overflows


class TestCodec:
    """Exponent tuples to packed keys and back, through each layout's tables."""

    @staticmethod
    def monomials(n, width):
        # the ends of the range and values inside it, in every slot; e0 (the
        # last slot) also negative, down to -2 * 2^70 where that fits
        off = 1 << width - 2
        xs = [0, 1, 2, off // 3, off - 1, off]
        es = xs + [-1, -off // 3, -off + 1] + [e for e in (-2 * 2 ** 70,) if e > -off]
        rng = random.Random(f"codec:{n}:{width}")
        mons = {tuple(rng.choice(xs) for _ in range(n - 1)) + (rng.choice(es),)
                for _ in range(40)}
        mons |= {(x,) * (n - 1) + (e,) for x in (0, off) for e in es}
        return sorted(mons)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_round_trip(self, n):
        for width in range(16, 75):
            mons = self.monomials(n, width)
            poly = {m: 1 + i % 4 for i, m in enumerate(mons)}
            lay = graded._Layout(n, width)
            packed = lay.pack(poly)
            # filled on the first call, read from the tables on the second,
            # and decoded by a layout whose tables never saw these keys
            assert lay.pack(poly) == packed
            assert list(lay.unpack(packed).items()) == list(poly.items())
            assert list(lay.unpack(packed).items()) == list(poly.items())
            assert list(graded._Layout(n, width).unpack(packed).items()) == list(poly.items())
            # int order is the monomial order
            assert sorted(poly, key=_grevlex_key) == sorted(poly, key=lay.enc.__getitem__)

    @pytest.mark.parametrize("width", [16, 17, 40, 74])
    def test_out_of_range_exponents_overflow(self, width):
        off = 1 << width - 2
        lay = graded._Layout(3, width)
        for mon in ((off + 1, 0, 0), (0, 0, off + 1), (0, 0, -off), (0, 0, -2 * 2 ** 70 - off)):
            with pytest.raises(graded._FieldOverflow):
                lay.pack({(0, 0, 0): 1, mon: 2})
            assert mon not in lay.enc

    def test_widths_keep_their_own_tables(self):
        graded._layout.cache_clear()
        narrow, wide = graded._layout(3, 16), graded._layout(3, 32)
        assert narrow.enc == narrow.dec == wide.enc == wide.dec == {}
        mon = (1, 2, 3)
        (kn,), (kw,) = narrow.pack({mon: 1}), wide.pack({mon: 1})
        assert kn != kw
        assert narrow.unpack({kn: 1}) == wide.unpack({kw: 1}) == {mon: 1}
        # each width reads the other's key by its own fields, not from a table
        assert list(wide.unpack({kn: 1})) != [mon] and list(narrow.unpack({kw: 1})) != [mon]
        assert narrow.enc[mon] == kn and wide.enc[mon] == kw
        # the tables go with the cache, as in a fresh process
        graded._layout.cache_clear()
        assert graded._layout(3, 16) is not narrow and graded._layout(3, 16).enc == {}


def _counting_runs(monkeypatch):
    """The list of ``_buchberger`` results, one per run from now on."""
    runs = []
    buchberger = graded._buchberger
    monkeypatch.setattr(graded, "_buchberger",
                        lambda gens, p: runs.append(buchberger(gens, p)) or runs[-1])
    return runs


class TestOneBuchbergerRun:
    """An ideal's basis comes from one ``_buchberger`` run, whatever is asked
    of the ideal and in whatever order; that run's length is the basis size."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_homogeneous_ideals(self, family, p, monkeypatch):
        runs = _counting_runs(monkeypatch)
        for i, (d, ideal, member, probe) in enumerate(seeded_ideals(family, p, 6)):
            runs.clear()
            calls = [
                lambda: ideal.groebner_raw(),
                lambda: ideal.reduce(member),
                lambda: ideal.contains(probe),
                lambda: saturate(ideal),
                lambda: saturate(saturate(ideal)),
                lambda: grade_cyclic(ideal, d),
            ]
            # a different call first for each ideal
            k = i % len(calls)
            for call in calls[k:] + calls[:k]:
                call()
            assert len(runs) == 1
            assert len(runs[0]) == len(ideal.groebner_raw())

    def test_inhomogeneous_ideal(self, monkeypatch):
        runs = _counting_runs(monkeypatch)
        a = amb(3)
        ideal = GradedIdeal(a, [GradedPoly.parse(a, g) for g in ROADMAP_GENS])
        ideal.reduce(GradedPoly.parse(a, "X1^3*X2+2*X3"))
        ideal.contains(GradedPoly.parse(a, "X1"))
        assert [len(r) for r in runs] == [len(ideal.groebner_raw())]
        # saturating takes two runs of its own, on the homogenized ideal and
        # on the divided basis; the second is the saturation's basis
        sat = saturate(ideal)
        assert len(runs) == 3 and len(runs[2]) == len(sat.groebner_raw())
        sat.reduce(GradedPoly.parse(a, "X1^3*X2+2*X3"))
        krull_dim(sat)
        assert len(runs) == 3
        # a saturation is marked as one: saturating it again, or taking its
        # grade, runs nothing
        assert saturate(sat) is sat
        assert grade_cyclic(sat, 3) == 3
        assert len(runs) == 3


def _grade_by_saturation(ideal, d):
    """(d+1) - krull_dim(saturate(J)) on a fresh copy of J, inf for the unit
    ideal: the saturation's own basis, built in full."""
    dim = krull_dim(saturate(GradedIdeal(ideal.ambient, ideal.gens)))
    return inf if dim == -1 else (d + 1) - dim


class TestGradeFromLeads:
    """For homogeneous J, grade_cyclic reads in(J) : e0^infinity off the leads
    of J's own basis; the grade is the one the saturation's basis gives."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families(self, family):
        grades, e0_leads = set(), 0
        for p in (3, 5, 7):
            for d, ideal, _, _ in seeded_ideals(family, p, 12):
                want = _grade_by_saturation(ideal, d)
                assert grade_cyclic(ideal, d) == want
                grades.add(want)
                e0_leads += any(max(b, key=_grevlex_key)[-1] for b in ideal.groebner_raw())
        assert len(grades) > 1
        if family != "d3-binomials":  # its generators have no e0
            assert e0_leads

    @pytest.mark.parametrize("gens, grade", [
        # leads divisible by e0: X1*e0 and X2*e0 strike to X1 and X2
        (("X1*e0", "X2*e0"), 2),
        (("X1*e0+X2^2", "X2^2*e0"), 2),
        (("X1^2*e0+X2*e0^2", "X2^3"), 2),
        (("e0^3+X1*e0^2",), 1),
        # a lead that is a power of e0 strikes to the unit
        (("e0^2",), inf),
        (("X1*X2+e0", "X2^2*e0"), inf),
        # the zero ideal
        ((), 0),
        # generators that are not homogeneous
        (("X1^2+e0", "X1*X2"), 2),
        (("X1+e0^2", "X2*X1"), 2),
    ])
    def test_known_answers(self, gens, grade):
        a = amb(2)
        ideal = GradedIdeal(a, [GradedPoly.parse(a, g) for g in gens])
        assert grade_cyclic(ideal, 2) == _grade_by_saturation(ideal, 2) == grade

    def test_one_run_and_no_inter_reduction(self, monkeypatch):
        # Buchberger's own _reduce_basis call is the only one: the saturation's
        # basis is never built
        runs = _counting_runs(monkeypatch)
        reductions = []
        reduce_basis = graded._reduce_basis
        monkeypatch.setattr(graded, "_reduce_basis",
                            lambda *args: reductions.append(args) or reduce_basis(*args))
        for family in FAMILIES:
            for d, ideal, _, _ in seeded_ideals(family, 5, 6):
                runs.clear()
                reductions.clear()
                grade_cyclic(ideal, d)
                assert len(runs) == len(reductions) == 1


class TestKrullDimension:
    """krull_dim reads supports as bitmasks off packed keys; the reference
    reads them as frozensets off decoded leads."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_frozenset_version(self, family, p):
        dims = set()
        for d, ideal, _, _ in seeded_ideals(family, p, 12):
            for I in (ideal, saturate(ideal)):
                want = krull_dim_frozensets(I.groebner_raw(), d + 1)
                assert krull_dim(I) == want
                dims.add(want)
        assert len(dims) > 1


class TestDimensionAndGrade:
    def test_krull_table(self):
        a2, a3 = amb(2), amb(3)
        assert krull_dim(GradedIdeal(a2, [])) == 3
        assert krull_dim(GradedIdeal(a2, [var(a2, 1)])) == 2
        assert krull_dim(GradedIdeal(a3, [var(a3, i) for i in (1, 2, 3)])) == 1
        assert krull_dim(GradedIdeal(a2, [GradedPoly.constant(a2, 1)])) == -1

    def test_grade_table(self):
        a2, a3 = amb(2), amb(3)
        assert grade_cyclic(GradedIdeal(a2, []), 2) == 0
        assert grade_cyclic(GradedIdeal(a2, [var(a2, 1)]), 2) == 1
        assert grade_cyclic(GradedIdeal(a3, [var(a3, i) for i in (1, 2, 3)]), 3) == 3
        assert grade_cyclic(GradedIdeal(a2, [var(a2, 0)]), 2) == inf

    def test_grade_ignores_e0_torsion(self):
        # e0*X1 and X1 generate the same module support after inverting e0
        a = amb(2)
        g1 = grade_cyclic(GradedIdeal(a, [var(a, 0) * var(a, 1)]), 2)
        g2 = grade_cyclic(GradedIdeal(a, [var(a, 1)]), 2)
        assert g1 == g2 == 1

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_grade_takes_only_the_ambients_d(self, d):
        # <X1, X2> has grade 2 on abelian:2:5's ring; (d+1) - dim would
        # answer d for any other d
        a = amb(2)
        ideal = GradedIdeal(a, [var(a, 1), var(a, 2)])
        assert grade_cyclic(ideal, 2) == 2
        with pytest.raises(GradedError, match="ambient"):
            grade_cyclic(ideal, d)


class TestAmbientDiscipline:
    def test_mismatched_ambients_rejected(self):
        f = var(amb(2), 1)
        g = var(amb(2, s=Fraction(1, 4)), 1)
        with pytest.raises(GradedError):
            f + g

    @pytest.mark.parametrize("omegas", [[2, 1], [1], [1, 1, 1], [Fraction(1, 2)] * 2])
    def test_weights_other_than_ones_refused(self, omegas):
        with pytest.raises(GradedError, match="omega must be 1"):
            GradedAmbient(P, 2, omegas, Fraction(1, 2))

    def test_negative_d_refused(self):
        # with d = -1, (1,) * d is (), so the empty weights passed; its zero
        # ideal then had grade 0
        with pytest.raises(GradedError, match="d must be >= 0"):
            GradedAmbient(P, -1, [], Fraction(1, 2))

    def test_ones_give_the_same_ambient(self):
        assert GradedAmbient(P, 2, (Fraction(1), 1), Fraction(1, 2)) == amb(2)
        assert hash(GradedAmbient(P, 2, [1, 1], Fraction(1, 2))) == hash(amb(2))
        assert amb(0) == GradedAmbient(P, 0, [], Fraction(1, 2))

    def test_monomial_degree(self):
        rng = random.Random("monomial-degree")
        for _ in range(200):
            d = rng.randint(0, 4)
            s = Fraction(rng.randint(1, 8), 8)
            mon = tuple(rng.randint(0, 6) for _ in range(d)) + (rng.randint(-5, 5),)
            deg = amb(d, s).monomial_degree(mon)
            assert deg == mon[-1] + s * sum(mon[:-1]) and type(deg) is Fraction
