"""One zero rule: a coefficient is dropped only when ``known_zero``, that
is residue 0 on a window of at least N + 2 (``GroupModel.zero_window``).

A zero known on a narrower window is an uncertain entry: the r-norms and
the level-n projections read it.  So an operation that is the identity on
the distribution (scaling by 1, a double negation, adding zero, multiplying
by one, conjugating by the identity, changing to the standard basis, a file
round trip) must keep its norm interval: for an exact head some completion
attains each end, so a sound image's interval contains both ends.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from padicdist.distalg import Distribution, Enclosure, RadiusParam, known_zero
from padicdist.groupmodel import GroupModel, simplex
from padicdist.mahler import GroupAlgebraElement, finite_level_project
from padicdist.padic import NormValue, ppow
from padicdist.serialize import parse_distribution, serialize_distribution

from test_distalg import standard_basis

RADII = [RadiusParam(Fraction(k, 4)) for k in range(1, 5)]
KINDS = {
    "abelian:1": lambda p, **kw: GroupModel.abelian(1, p, **kw),
    "abelian:2": lambda p, **kw: GroupModel.abelian(2, p, **kw),
    "heisenberg": GroupModel.heisenberg,
    "semidirect": GroupModel.semidirect,
}


def identity_images(lam):
    """Images of lam under operations that are the identity on it."""
    model, T = lam.model, lam.T
    one = Distribution.one(model, T)
    return {
        "scale(1)": lam.scale(1),
        "-(-lam)": -(-lam),
        "lam + 0": lam + Distribution.zero_dist(model, T),
        "lam * 1": lam.mul(one),
        "1 * lam": one.mul(lam),
        "conjugate(identity)": lam.conjugate(model.identity()),
        "change_basis(standard)": lam.change_basis(standard_basis(model)),
        "parse(serialize)": parse_distribution(serialize_distribution(lam)),
    }


def containment_failures(lam):
    """(operation, s) for each image and radius whose norm interval misses
    an end of lam's own."""
    failures = []
    for name, out in identity_images(lam).items():
        for r in RADII:
            want, got = lam.norm(r), out.norm(r)
            if not (got.lower <= want.lower and want.upper <= got.upper):
                failures.append((name, r.s))
    return failures


@st.composite
def exact_heads(draw):
    """Exact heads from ``from_coeffs`` with windows 1..W and shifts 0 or 1."""
    p = draw(st.sampled_from([3, 5, 7]))
    T = draw(st.integers(0, 5))
    model = KINDS[draw(st.sampled_from(sorted(KINDS)))](
        p, prec=draw(st.sampled_from([2, 4, 12])), max_weight=draw(st.sampled_from([T, 12])))
    W = model.elem_prec
    table = {}
    for alpha in draw(st.lists(st.sampled_from(list(simplex(model.d, T))),
                               max_size=6, unique=True)):
        shift = draw(st.integers(0, 1))
        prec = draw(st.integers(1, W)) + shift
        r = draw(st.one_of(st.sampled_from([0, 1, p, p * p]),
                           st.integers(0, ppow(p, prec) - 1)))
        table[alpha] = (r, prec, shift)
    return Distribution.from_coeffs(model, table, T)


class TestIdentityOperationsKeepTheNormInterval:
    @given(exact_heads())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_images_contain_both_ends(self, lam):
        assert lam.exact
        assert containment_failures(lam) == []


def abelian_15():
    """ROADMAP 4(d)'s model: abelian:1:5 at N = 12, T = 4 (W = N + 2 = 14)."""
    model = GroupModel.abelian(1, 5, prec=12, max_weight=4)
    assert model.zero_window == model.elem_prec == 14
    return model


class TestWindowedZeroKnownAnswers:
    """lam = 0 mod p at b^0 plus 25 b^1 has norm p^-5/2 .. p^-1 at s = 1/2:
    p^-5/2 when d_0 = 0, p^-1 when d_0 = 5."""

    @staticmethod
    def lam():
        return Distribution.from_coeffs(abelian_15(), {(0,): (0, 1, 0), (1,): 25}, 4)

    def test_identity_operations_keep_the_norm(self):
        lam = self.lam()
        model = lam.model
        one = Distribution.one(model, 4)
        assert str(lam.norm(RADII[1])) == "p^-5/2 .. p^-1"
        for out in (lam.mul(one), lam.conjugate(model.identity()), lam.scale(1), -(-lam),
                    lam + Distribution.zero_dist(model, 4)):
            assert str(out.norm(RADII[1])) == "p^-5/2 .. p^-1"

    def test_product_by_one_is_the_head(self):
        lam = self.lam()
        assert lam.mul(Distribution.one(lam.model, 4)).coeffs == lam.coeffs

    def test_projection_keeps_the_windowed_coset(self):
        # the b^0 entry and -25 delta_0 leave 0 mod p at coset 0, not 0
        assert finite_level_project(self.lam(), 1).coeffs == {
            (0,): (0, 1, 0), (1,): (25, 14, 0)}

    def test_head_with_an_unstored_line(self):
        # ROADMAP 4(a)'s repro: b^1 may be 1, which gives p^-1/8 at s = 1/8;
        # the images must allow it (the head's own norm is 4(a)'s fault)
        model = GroupModel.abelian(1, 5, max_weight=22)
        lam = Distribution(model, {(0,): (0, 2, 0)}, 22,
                           Enclosure(unstored=[(NormValue(0), 0)]))
        r = RadiusParam(Fraction(1, 8))
        for out in (lam.mul(Distribution.one(model, 22)), lam.conjugate(model.identity())):
            assert out.norm(r).upper >= NormValue(Fraction(1, 8))


class TestThreshold:
    """At p = 3 with max_weight >= 3 the guard digits make elem_prec wider
    than N + 2; a zero on window N + 1 stays at every site and one on
    window N + 2 goes."""

    @staticmethod
    def model():
        model = GroupModel.abelian(1, 3, prec=4, max_weight=6)
        assert (model.zero_window, model.elem_prec) == (6, 8)
        return model

    def test_known_zero(self):
        model = self.model()
        assert not known_zero(model, (0, 5, 0)) and not known_zero(model, (0, 6, 1))
        assert known_zero(model, (0, 6, 0)) and known_zero(model, (0, 7, 1))
        assert not known_zero(model, (3 ** 5, 8, 0))

    def test_exact_table_constructor(self):
        model = self.model()
        lam = Distribution(model, {(0,): (0, 5, 0), (1,): (0, 6, 0)}, 4, Enclosure.EXACT)
        assert lam.coeffs == {(0,): (0, 5, 0)}
        assert Distribution.from_coeffs(model, {(0,): (0, 5, 0), (1,): (0, 6, 0)}, 4).coeffs \
            == {(0,): (0, 5, 0)}
        # an inexact table keeps its stored zeros
        assert set(Distribution(model, {(0,): (0, 5, 0), (1,): (0, 6, 0)}, 4).coeffs) \
            == {(0,), (1,)}

    def test_exact_result(self):
        # the sum's entries 1 - 1, cancelled on window N + 1 and N + 2
        model = self.model()
        one = Distribution.one(model, 4)
        for prec, kept in ((5, {(0,): (0, 5, 0)}), (6, {})):
            out = one + Distribution.from_coeffs(model, {(0,): (-1, prec, 0)}, 4)
            assert out.exact and out.coeffs == kept

    def test_witness(self):
        model = self.model()
        lam = Distribution.dirac_combination(
            model, [((0, 5, 0), model.element([1])), ((0, 6, 0), model.element([2]))], 4)
        assert lam.dirac_terms == (((0, 5, 0), (1,), True),)

    def test_cosets(self):
        e = GroupAlgebraElement(self.model(), 1, {(0,): (0, 5, 0), (1,): (0, 6, 0)})
        assert e.coeffs == {(0,): (0, 5, 0)}

    def test_below_p_the_threshold_is_elem_prec(self):
        for p in (3, 5, 7):
            for max_weight in range(p):
                for N in (1, 4, 12):
                    model = GroupModel.abelian(1, p, prec=N, max_weight=max_weight)
                    assert model.zero_window == model.elem_prec == N + 2
