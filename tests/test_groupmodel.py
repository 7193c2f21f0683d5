"""Group law checks against an independent 3x3 matrix realization.

The heisenberg model chart (x, y, z) corresponds to the upper-triangular
matrix I + p*x*E12 + p*y*E23 + (p*z + p^2*x*y)*E13, whose multiplication
gives the closed-form law used by the chart."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicdist.groupmodel import (
    LAWS,
    GroupElement,
    GroupModel,
    Law,
    ModelError,
    basis_chart,
    simplex,
    validate_basis,
)
from padicdist.padic import ppow, vp_int

import basis_reference

P = 5


def heis(prec=12):
    return GroupModel.heisenberg(P, prec=prec, max_weight=Fraction(12))


def mat_of(model, g):
    m = ppow(P, model.elem_prec + 2)
    x, y, z = g.key()
    assert all(isinstance(c, int) and 0 <= c < ppow(P, model.elem_prec) for c in (x, y, z))
    return (
        (1, P * x % m, (P * z + P * P * x * y) % m),
        (0, 1, P * y % m),
        (0, 0, 1),
    )


def mat_mul(a, b, m):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) % m for j in range(3))
        for i in range(3)
    )


def commutator(model, g, h):
    """[g, h] = g^-1 h^-1 g h."""
    return model.gmul(model.gmul(model.ginv(g), model.ginv(h)), model.gmul(g, h))


def is_identity_in_window(g):
    """Whether every chart coordinate of g vanishes mod p^elem_prec."""
    return not any(g.key())


coords_st = st.lists(st.integers(0, ppow(P, 6) - 1), min_size=3, max_size=3)


class TestHeisenbergLaw:
    @given(coords_st, coords_st)
    @settings(max_examples=60, deadline=None)
    def test_gmul_matches_matrix_product(self, a, b):
        model = heis()
        m = ppow(P, model.elem_prec + 2)
        g, h = model.element(a), model.element(b)
        # the matrix entries only determine the chart mod p^elem_prec
        want = mat_mul(mat_of(model, g), mat_of(model, h), m)
        got = mat_of(model, model.gmul(g, h))
        mm = ppow(P, model.elem_prec)
        assert all(
            (want[i][j] - got[i][j]) % (P * mm) == 0 for i in range(3) for j in range(3)
        )

    @given(coords_st)
    @settings(max_examples=30, deadline=None)
    def test_inverse(self, a):
        model = heis()
        g = model.element(a)
        assert is_identity_in_window(model.gmul(g, model.ginv(g)))

    @given(coords_st, coords_st, coords_st)
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        model = heis()
        g, h, k = (model.element(x) for x in (a, b, c))
        left = model.gmul(model.gmul(g, h), k)
        right = model.gmul(g, model.gmul(h, k))
        assert left.key() == right.key()

    @given(coords_st, st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_gpow_matches_iterated_product(self, a, t):
        model = heis()
        g = model.element(a)
        fast = model.gpow(g, t)
        slow = model.identity()
        for _ in range(t % 40):
            slow = model.gmul(slow, g)
        if t % 40 == t:
            assert fast.key() == slow.key()

    def test_commutator_is_central(self):
        model = heis()
        g = model.element([1, 0, 0])
        h = model.element([0, 1, 0])
        c = commutator(model, g, h)
        x, y, z = c.key()
        assert x == 0 and y == 0
        # [h1, h2] = h3^(+-p): omega = 2 = omega(h1) + omega(h2)
        assert vp_int(z, P) == 1
        v, exact = model.omega(c)
        assert exact and v == 2


class TestCoordinates:
    def test_exact_elements_keep_their_integers(self):
        model = heis()
        g = model.gmul(model.element([-1, 2, 0]), model.element([3, -4, 1]))
        assert g.exact and g.coords == (2, -2, 1 - P * 3 * 2)
        assert model.gpow(g, -2).exact and model.ginv(g).exact

    def test_inexact_inputs_give_residues(self):
        import random

        model = heis()
        m = ppow(P, model.elem_prec)
        r = model.random_element(random.Random(3))
        assert not r.exact and all(0 <= c < m for c in r.coords)
        for out in (model.gmul(model.element([-1, 0, 0]), r), model.ginv(r),
                    model.gpow(r, -7)):
            assert not out.exact and all(0 <= c < m for c in out.coords)

    def test_key_is_the_residue_tuple(self):
        model = heis()
        m = ppow(P, model.elem_prec)
        g = model.element([-1, 0, m + 2])
        assert g.key() == (m - 1, 0, 2)
        assert g == model.element([m - 1, 0, 2])

    def test_power_takes_integers_only(self):
        model = heis()
        g = model.element([1, 2, 3])
        for t in (1.5, Fraction(3, 2), Fraction(2)):
            with pytest.raises(ModelError, match="exponent must be an integer"):
                model.gpow(g, t)

    def test_element_takes_integers_only(self):
        model = heis()
        with pytest.raises(ModelError):
            model.element([Fraction(1, 2), 0, 0])
        with pytest.raises(ModelError):
            model.element([1, 0])


class TestOmega:
    def test_identity_is_infinite(self):
        model = heis()
        v, exact = model.omega(model.identity())
        assert v == float("inf") or v is None or v > 100

    def test_basis_elements_have_omega_one(self):
        model = heis()
        for i in range(3):
            g = model.element([1 if j == i else 0 for j in range(3)])
            v, exact = model.omega(g)
            assert exact and v == 1

    @given(coords_st)
    @settings(max_examples=40, deadline=None)
    def test_p_power_raises_omega_by_one(self, a):
        model = heis()
        g = model.element(a)
        v, exact = model.omega(g)
        if not exact or v == float("inf"):
            return
        vp, exactp = model.omega(model.gpow(g, P))
        if exactp:
            assert vp == v + 1

    @given(coords_st, coords_st)
    @settings(max_examples=40, deadline=None)
    def test_omega_axioms(self, a, b):
        model = heis()
        g, h = model.element(a), model.element(b)
        vg, eg = model.omega(g)
        vh, eh = model.omega(h)
        vq, eq = model.omega(model.gmul(g, model.ginv(h)))
        if eg and eh and eq:
            assert vq >= min(vg, vh)
        vc, ec = model.omega(commutator(model, g, h))
        if eg and eh and ec:
            assert vc >= vg + vh


class TestModelRegistry:
    def test_from_string(self):
        assert GroupModel.from_string("abelian:2:5").d == 2
        assert GroupModel.from_string("heisenberg:5").kind == "heisenberg"
        assert GroupModel.from_string("semidirect:5").d == 1

    def test_unknown_id(self):
        with pytest.raises(ModelError):
            GroupModel.from_string("solvable:5")

    def test_composite_p_rejected(self):
        for spec in ("abelian:2:6", "heisenberg:4", "abelian:1:9"):
            with pytest.raises(ModelError, match="prime"):
                GroupModel.from_string(spec)

    @pytest.mark.parametrize("prec", [0, -1])
    def test_precision_below_one_rejected(self, prec):
        with pytest.raises(ModelError):
            GroupModel.heisenberg(P, prec=prec)
        with pytest.raises(ModelError):
            GroupModel.from_string("abelian:2:5", prec=prec)

    @pytest.mark.parametrize("kind, d", [
        ("abelian", -1), ("heisenberg", 2), ("heisenberg", 5), ("semidirect", 3),
        ("semidirect", 0), ("abelian", 1.5)])
    def test_dimension_outside_the_kind_rejected(self, kind, d):
        with pytest.raises(ModelError, match="dimension"):
            GroupModel(kind, P, d)

    @pytest.mark.parametrize("spec", ["abelian:-1:5", "abelian:-3:7"])
    def test_negative_dimension_id_rejected(self, spec):
        with pytest.raises(ModelError, match="dimension"):
            GroupModel.from_string(spec)

    def test_abelian_dimension_zero_stays_legal(self):
        assert GroupModel.from_string("abelian:0:5").d == 0
        assert GroupModel.from_string("abelian:0:5").id == "abelian:0:5"

    def test_declared_laws(self):
        assert {kind: (law.dim, law.commutative, law.sigma) for kind, law in LAWS.items()} == {
            "abelian": (None, True, False),
            "heisenberg": (3, False, False),
            "semidirect": (1, True, True),
        }
        for gid in ("abelian:2:5", "heisenberg:5", "semidirect:5"):
            model = GroupModel.from_string(gid)
            assert model.law is LAWS[model.kind]

    def test_id_round_trip(self):
        for gid in ("abelian:2:5", "heisenberg:5", "semidirect:5"):
            assert GroupModel.from_string(gid).id == gid

    def test_semidirect_sigma_inverts(self):
        model = GroupModel.from_string("semidirect:5")
        g = model.element([7])
        assert is_identity_in_window(model.gmul(model.ginv(g), g))


class TestSimplex:
    def test_abelian_count(self):
        assert len(list(simplex(2, 3))) == 10  # C(3+2, 2)

    def test_degrees_are_ints(self):
        model = GroupModel.from_string("abelian:2:5", max_weight=Fraction(13, 2))
        assert model.max_weight == 6 and type(model.max_weight) is int
        for alpha in simplex(2, 3):
            tau = model.tau(alpha)
            assert type(tau) is int and tau == sum(alpha) <= 3

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    @pytest.mark.parametrize("T", [0, 1, 4])
    def test_is_the_filtered_product_in_lex_order(self, d, T):
        want = [a for a in itertools.product(range(T + 1), repeat=d) if sum(a) <= T]
        assert list(simplex(d, T)) == want

    def test_weight_above(self):
        model = heis()
        assert model.weight_above(Fraction(6)) == 7
        assert model.weight_above(Fraction(13, 2)) == 7
        assert type(model.weight_above(Fraction(13, 2))) is int
        assert type(model.tau((1, 2, 0))) is int


class TestBasisChange:
    def test_validate_standard(self):
        model = heis()
        std = [model.element([1 if j == i else 0 for j in range(3)]) for i in range(3)]
        validate_basis(model, std)

    def test_validate_rejects_degenerate(self):
        model = heis()
        h1 = model.element([1, 0, 0])
        with pytest.raises(ModelError, match="singular mod p"):
            validate_basis(model, [h1, h1, model.element([0, 0, 1])])

    def test_coords_reproduce_element(self):
        model = heis()
        h1 = model.element([1, 0, 0])
        h2 = model.element([0, 1, 0])
        h3 = model.element([0, 0, 1])
        basis = [model.gmul(h1, h3), h2, h3]
        point, solve = basis_chart(model, basis)
        g = model.element([3, 4, 2])
        y = solve(g.coords)
        rebuilt = model.identity()
        for yi, bi in zip(y, basis):
            rebuilt = model.gmul(rebuilt, model.gpow(bi, yi))
        assert is_identity_in_window(model.gmul(model.ginv(rebuilt), g))
        assert point(y) == rebuilt.coords

    def test_chart_refuses_what_validate_refuses(self):
        model = heis()
        h1 = model.element([1, 0, 0])
        with pytest.raises(ModelError, match="singular mod p"):
            basis_chart(model, [h1, h1, model.element([0, 0, 1])])
        with pytest.raises(ModelError, match="expected 3 basis elements"):
            basis_chart(model, [h1])


# one model per declared kind: a new law joins the chart checks here
KIND_SPECS = {"abelian": "abelian:3:{p}", "heisenberg": "heisenberg:{p}",
              "semidirect": "semidirect:{p}"}
big_ints = st.one_of(st.integers(-50, 50), st.integers(-10**30 - 50, -10**30 + 50),
                     st.integers(10**30 - 50, 10**30 + 50))


def test_kind_specs_cover_the_laws():
    assert set(KIND_SPECS) == set(LAWS)
    assert Law._fields == ("dim", "commutative", "mul", "pow", "sigma")


def draw_basis(data, model, exact):
    """An ordered basis whose coordinate matrix is (I + L)(D + U) + pR with
    its columns permuted: L strictly lower, U strictly upper, D units mod p,
    so it is invertible mod p; exact, or its residues marked inexact."""
    p, d = model.p, model.d
    ints = st.integers(-2 * p, 2 * p)
    low = [[data.draw(ints) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    up = [[data.draw(ints) if j > i else 0 for j in range(d)] for i in range(d)]
    for i in range(d):
        up[i][i] = data.draw(st.integers(1, p - 1)) * data.draw(st.sampled_from([1, -1]))
    mat = [[sum(low[i][k] * up[k][j] for k in range(d)) + p * data.draw(ints)
            for j in range(d)] for i in range(d)]
    order = data.draw(st.permutations(range(d)))
    cols = [tuple(mat[i][j] for i in range(d)) for j in order]
    if exact:
        return [model.element(c) for c in cols]
    m = ppow(p, model.elem_prec)
    return [GroupElement(model, tuple(x % m for x in c), False) for c in cols]


class TestBasisChart:
    """``basis_chart`` against the per-point GroupElement iteration of
    ``basis_reference``, on every declared kind."""

    @given(st.sampled_from(sorted(KIND_SPECS)), st.sampled_from([3, 5, 7]),
           st.booleans(), st.booleans(), st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_solve_matches_reference_and_point_inverts_it(
            self, kind, p, exact_basis, exact_point, data):
        model = GroupModel.from_string(KIND_SPECS[kind].format(p=p), prec=4, max_weight=5)
        basis = draw_basis(data, model, exact_basis)
        point, solve = basis_chart(model, basis)
        m = ppow(p, model.elem_prec)
        for _ in range(3):
            if exact_point:
                g = model.element([data.draw(big_ints) for _ in range(model.d)])
            else:
                g = GroupElement(model, tuple(data.draw(st.integers(0, m - 1))
                                              for _ in range(model.d)), False)
            y = solve(g.coords)
            assert y == basis_reference.coords_in_basis(model, basis, g)
            assert all(0 <= c < m for c in y)
            assert all((a - b) % m == 0 for a, b in zip(point(y), g.coords))

    @given(st.sampled_from(sorted(KIND_SPECS)), st.sampled_from([3, 5, 7]), st.data())
    @settings(max_examples=90, deadline=None, derandomize=True)
    def test_inverse_is_the_power_minus_one(self, kind, p, data):
        model = GroupModel.from_string(KIND_SPECS[kind].format(p=p))
        law, one = model.law, (0,) * model.d
        a = tuple(data.draw(big_ints) for _ in range(model.d))
        inv = law.pow(p, a, -1)
        assert law.mul(p, a, inv) == one and law.mul(p, inv, a) == one
