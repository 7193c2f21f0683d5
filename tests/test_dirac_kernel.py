"""The Dirac round trip on stored triples against the PadicScalar arithmetic.

``distalg`` stores head entries and Dirac witnesses as (residue, prec,
shift) ints, and decomposes heads into Dirac terms, merges them and
re-expands them on those ints.  The functions below are that round trip
written with PadicScalar operations throughout; every stored triple must
agree with them in residue, prec and shift, and both must raise
PrecisionExhausted on the same inputs.  ``_merge_terms`` must also keep
the order of ``mul_reference``'s merge.  The order of a head's Dirac terms
is not compared: every consumer of a decomposition sums its terms with
``add_triples`` or sorts them.  The packed expansion kernel is also held
to the per-point loop it replaced (``expand_reference``) on inputs that
stress its slots and its groups, and the decomposition of a head to the
per-term loop it replaced.
"""

import contextlib
import io
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from padicdist.cli import main
from padicdist.distalg import (
    DistError,
    Distribution,
    RadiusParam,
    _expand_terms,
    _head_to_dirac,
    _merge_terms,
    lie_generator,
)
from padicdist.groupmodel import GroupElement, GroupModel, basis_chart
from padicdist.padic import PadicScalar, PrecisionExhausted, ppow
from padicdist.serialize import parse_distribution, serialize_distribution
from padicdist.suites import _second_basis

import basis_reference
import expand_reference
import mul_reference
from mahler_reference import binom


def merge_terms_by_scalars(model, terms):
    """Combine Dirac terms with the same key.  The point is exact when the
    exact points at the key all have the same coordinates, else the
    inexact residue point."""
    out = {}
    exact = {}
    for a, g in terms:
        k = g.key()
        out[k] = out[k] + a if k in out else a
        if g.exact:
            exact.setdefault(k, set()).add(g.coords)
    points = {k: model.element(list(next(iter(cs)))) if len(cs) == 1 else None
              for k, cs in exact.items()}
    return tuple(
        (a, points.get(k) or GroupElement(model, k, False))
        for k, a in out.items() if a.residue != 0 or a.prec - a.shift < model.prec + 2
    )


def head_to_dirac_by_scalars(model, coeffs):
    """b^beta = sum_{k <= beta} (-1)^{|beta - k|} C(beta, k) delta_{psi(k)}."""
    acc = {}
    elems = {}

    for beta, c in coeffs.items():
        ranges = [range(b + 1) for b in beta]

        def rec(i, kappa, csign):
            if i == model.d:
                key = tuple(kappa)
                if key not in elems:
                    elems[key] = model.element(list(key))
                term = c * PadicScalar.from_int(model.p, csign, c.prec)
                if key in acc:
                    acc[key] = acc[key] + term
                else:
                    acc[key] = term
                return
            for k in ranges[i]:
                rec(i + 1, kappa + [k], csign * comb(beta[i], k) * (-1) ** (beta[i] - k))

        rec(0, [], 1)
    return tuple(
        (a, elems[k]) for k, a in acc.items()
        if a.residue != 0 or a.prec - a.shift < model.prec + 2
    )


def expand_terms_by_scalars(model, terms, T, coords_of=None):
    """Coefficient table of sum a_j delta_{g_j} up to degree T."""
    out = {}
    d = model.d
    for a, g in terms:
        coords = g.coords if coords_of is None else coords_of(g)
        rows = []
        for i in range(d):
            kmax = T
            if coords_of is None and g.exact and coords[i] >= 0:
                kmax = min(kmax, coords[i])
            x = PadicScalar.from_int(model.p, coords[i], model.elem_prec)
            rows.append([binom(x, k) for k in range(kmax + 1)])

        def rec(i, alpha, budget, prod):
            if i == d:
                key = tuple(alpha)
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
                return
            for k in range(min(budget, len(rows[i]) - 1) + 1):
                rec(i + 1, alpha + [k], budget - k, prod * rows[i][k])

        rec(0, [], T, a)
    return out


def triples(terms):
    """Dirac terms (PadicScalar, g) in the stored form (triple, g)."""
    return tuple((a.triple, g) for a, g in terms)


def points(terms):
    """Dirac terms (triple, element) as the (triple, coords, exact) that
    ``_merge_terms`` takes."""
    return [(a, g.coords, g.exact) for a, g in terms]


def table_entries(table):
    return sorted((alpha, c.residue, c.prec, c.shift) for alpha, c in table.items())


def triple_entries(table):
    return sorted((alpha, *c) for alpha, c in table.items())


def scalar_term_entries(terms):
    return [(a.residue, a.prec, a.shift, g.coords, g.exact) for a, g in terms]


def kernel_term_entries(terms):
    """Witness terms (triple, coords, exact), flattened."""
    return [(*a, coords, exact) for a, coords, exact in terms]


def by_point(terms):
    """Witness terms (triple, coords, exact) keyed by their coordinates,
    which the merge leaves distinct."""
    out = {coords: (a, exact) for a, coords, exact in terms}
    assert len(out) == len(terms)
    return out


def element_term_entries(terms):
    """Reference terms (triple, GroupElement), flattened alike."""
    return [(*a, g.coords, g.exact) for a, g in terms]


def outcome(fn):
    """fn()'s value, or the marker that it exhausted the precision."""
    try:
        return fn()
    except PrecisionExhausted:
        return PrecisionExhausted


MODEL_IDS = ("abelian:1:{p}", "abelian:2:{p}", "heisenberg:{p}", "semidirect:{p}")


@st.composite
def models(draw):
    spec = draw(st.sampled_from(MODEL_IDS)).format(p=draw(st.sampled_from([3, 5, 7])))
    return GroupModel.from_string(spec, prec=draw(st.integers(1, 6)),
                                  max_weight=draw(st.integers(1, 6)))


@st.composite
def coefficients(draw, model):
    """Integers, 1/p^k multiples, lie_generator entries and raw scalars whose
    window may be below 1."""
    p, W = model.p, model.elem_prec
    kind = draw(st.sampled_from(["int", "inverse_power", "lie", "raw"]))
    if kind == "int":
        return PadicScalar.from_int(p, draw(st.integers(-p ** 3, p ** 3)), W)
    if kind == "inverse_power":
        n = draw(st.integers(1, p ** 2))
        return PadicScalar.from_fraction(p, Fraction(n, p ** draw(st.integers(1, 3))), W)
    if kind == "lie":
        k = draw(st.integers(1, 2 * p))
        return PadicScalar.from_fraction(p, Fraction((-1) ** (k + 1), k), W)
    prec = draw(st.integers(1, W))
    return PadicScalar(p, prec, draw(st.integers(0, ppow(p, prec) - 1)),
                       draw(st.integers(0, 3)))


@st.composite
def elements(draw, model):
    """Exact elements with small coordinates, or random inexact ones."""
    if draw(st.booleans()):
        return model.element(draw(st.lists(st.integers(-3, 5), min_size=model.d,
                                           max_size=model.d)))
    return model.random_element(random.Random(draw(st.integers(0, 10 ** 6))))


@st.composite
def combinations(draw):
    """A model, Dirac terms on it (``witness_terms``) and a T that may
    exceed the model's working weight."""
    model = draw(models())
    terms = draw(witness_terms(model))
    return model, terms, draw(st.integers(0, model.max_weight + 3))


@st.composite
def witness_terms(draw, model):
    """Dirac terms (PadicScalar, g) on model: repeated supports included,
    some of them given once exactly and once as residues, or as two exact
    points that agree mod p^W."""
    support = draw(st.lists(elements(model), min_size=1, max_size=4))
    if draw(st.booleans()):
        # inexact copies of the exact points: merging keeps the exact one
        support += [GroupElement(model, g.key(), False) for g in support if g.exact]
    if draw(st.booleans()):
        # exact points that agree with another one only mod p^W: merging
        # keeps neither
        shift = ppow(model.p, model.elem_prec)
        support += [model.element([c + shift for c in g.coords]) for g in support if g.exact]
    return [(draw(coefficients(model)), draw(st.sampled_from(support)))
            for _ in range(draw(st.integers(1, 6)))]


@st.composite
def heads(draw):
    model = draw(models())
    index = st.tuples(*[st.integers(0, 3)] * model.d)
    return model, {alpha: draw(coefficients(model))
                   for alpha in draw(st.lists(index, min_size=1, max_size=5))}


class TestKernelMatchesScalars:
    @given(combinations())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_merge_and_expand(self, case):
        model, terms, T = case
        merged = _merge_terms(model, points(triples(terms)))
        want_merged = merge_terms_by_scalars(model, terms)
        assert kernel_term_entries(merged) == scalar_term_entries(want_merged)
        got = outcome(lambda: triple_entries(_expand_terms(model, merged, T)))
        want = outcome(lambda: table_entries(expand_terms_by_scalars(model, want_merged, T)))
        assert got == want
        # what dirac_combination stores: the same witness, and the same
        # table less its zeros on a window of at least N + 2 where the
        # expansion is exact
        lam = outcome(lambda: Distribution.dirac_combination(model, terms, T))
        if want is PrecisionExhausted:
            assert lam is PrecisionExhausted
            return
        assert kernel_term_entries(lam.dirac_terms) == scalar_term_entries(want_merged)
        assert triple_entries(lam.coeffs) == [
            e for e in want if e[1] or e[2] - e[3] < model.prec + 2 or not lam.exact]

    @given(heads())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_head_to_dirac(self, case):
        model, coeffs = case
        stored = {alpha: c.triple for alpha, c in coeffs.items()}
        assert sorted(kernel_term_entries(_head_to_dirac(model, stored))) == \
            sorted(scalar_term_entries(head_to_dirac_by_scalars(model, coeffs)))

    @given(combinations(), st.integers(0, 3))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_products_of_heads(self, case, extra):
        # mul's round trip: heads to Dirac terms, pairwise products under
        # the group law, merge, expand
        model, terms, T = case
        lam = Distribution.dirac_combination(model, terms, model.max_weight)
        head = {a: c for a, c in lam.coeffs.items() if sum(a) <= extra}
        kernel = _head_to_dirac(model, head)
        scalars = head_to_dirac_by_scalars(model, {a: lam.coeff(a) for a in head})
        prods = [((ra * rb, min(pa, pb), sa + sb), model.gmul(g, h))
                 for (ra, pa, sa), g in mul_reference.elements(model, kernel)
                 for (rb, pb, sb), h in mul_reference.elements(model, kernel)]
        want_prods = [(a * b, model.gmul(g, h)) for a, g in scalars for b, h in scalars]
        merged = _merge_terms(model, points(prods))
        want_merged = merge_terms_by_scalars(model, want_prods)
        assert sorted(kernel_term_entries(merged)) == sorted(scalar_term_entries(want_merged))
        assert outcome(lambda: triple_entries(_expand_terms(model, merged, T))) == \
            outcome(lambda: table_entries(expand_terms_by_scalars(model, want_merged, T)))

    @given(st.sampled_from(["abelian:2:{p}", "heisenberg:{p}"]),
           st.sampled_from([3, 5, 7]), st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_change_basis_coordinates(self, spec, p, data):
        # expansion in another basis's chart: the kernel gets each point at
        # its new coordinates, marked inexact so that no row is pruned
        model = GroupModel.from_string(spec.format(p=p), prec=4, max_weight=5)
        basis = _second_basis(model)
        terms = [(data.draw(coefficients(model)), data.draw(elements(model)))
                 for _ in range(data.draw(st.integers(1, 4)))]

        _, solve = basis_chart(model, basis)

        def coords_of(g):
            return basis_reference.coords_in_basis(model, basis, g)

        merged = _merge_terms(model, points(triples(terms)))
        mapped = [(a, solve(coords), False) for a, coords, _ in merged]
        want_merged = merge_terms_by_scalars(model, terms)
        got = triple_entries(_expand_terms(model, mapped, 5))
        assert got == table_entries(expand_terms_by_scalars(model, want_merged, 5, coords_of))

    def test_lie_generator_products(self):
        # coefficients 1/k with shifts, in the inexact path of mul
        model = GroupModel.heisenberg(3, prec=6, max_weight=8)
        lg = lie_generator(model, 0, 8)
        terms = head_to_dirac_by_scalars(model, {a: lg.coeff(a) for a in lg.coeffs})
        assert any(a.shift > 0 for a, _ in terms)
        assert sorted(kernel_term_entries(_head_to_dirac(model, lg.coeffs))) == \
            sorted(scalar_term_entries(terms))
        g = model.element([1, 2, 0])
        prods = [(a, model.gmul(h, g)) for a, h in terms]
        got = _expand_terms(model, _merge_terms(model, points(triples(prods))), 8)
        want = expand_terms_by_scalars(model, merge_terms_by_scalars(model, prods), 8)
        assert triple_entries(got) == table_entries(want)

    def test_small_precision_exhausts_in_both(self):
        # N = 2 with the working weight at 2: the binomial rows up to T = 12
        # need more guard digits than the window holds
        model = GroupModel.heisenberg(3, prec=2, max_weight=2)
        g = model.random_element(random.Random(1))
        terms = [(PadicScalar.one(model.p, model.elem_prec), g)]
        with pytest.raises(PrecisionExhausted):
            _expand_terms(model, points(triples(terms)), 12)
        with pytest.raises(PrecisionExhausted):
            expand_terms_by_scalars(model, terms, 12)
        with pytest.raises(PrecisionExhausted):
            Distribution.dirac(g, 12)


@st.composite
def kernel_inputs(draw):
    """Dirac terms as the kernel takes them: points that share their first
    d - 1 coordinates; exact nonnegative, exact negative and inexact points
    side by side; coordinates up to 10^30 and residues near p^W; and
    coefficients of a few (prec, shift) classes, some residues unreduced
    or negative; and truncations that exhaust W."""
    model = draw(models())
    p, d, W = model.p, model.d, model.elem_prec
    m = ppow(p, W)
    # a T far above the working weight can need more guard digits than W
    T = draw(st.one_of(st.integers(0, model.max_weight + 3), st.integers(0, 14)))
    coordinate = st.one_of(st.integers(0, T + 2), st.integers(-10 ** 30, -1),
                           st.integers(0, 10 ** 30), st.integers(m - p ** 2, m - 1),
                           st.integers(-m, -m + p ** 2))
    prefixes = draw(st.lists(st.tuples(*[coordinate] * (d - 1)), min_size=1, max_size=3))
    classes = draw(st.lists(st.tuples(st.integers(1, W + 1), st.integers(0, 3)),
                            min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        coords = draw(st.sampled_from(prefixes)) + (draw(coordinate),)
        if draw(st.booleans()):
            g = GroupElement(model, coords, True)
        else:
            g = GroupElement(model, tuple(x % m for x in coords), False)
        prec, shift = draw(st.sampled_from(classes))
        q = ppow(p, prec)
        r = draw(st.one_of(st.integers(0, q - 1), st.integers(q - p, q - 1),
                           st.integers(-q * q, q * q)))
        terms.append(((r, prec, shift), g))
    return model, terms, T


class TestKernelMatchesReference:
    @given(kernel_inputs())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_expand_terms(self, case):
        model, terms, T = case
        got = outcome(lambda: _expand_terms(model, points(terms), T))
        want = outcome(lambda: expand_reference.expand_terms(model, terms, T))
        assert got == want

    def test_no_axes(self):
        # on a model of dimension 0 every term lands on the index ()
        model = GroupModel.abelian(0, 5, prec=4, max_weight=3)
        g = model.element([])
        W = model.elem_prec
        terms = [((3, W, 0), g), ((7, W - 1, 1), g), ((-2, W, 0), g)]
        for n in range(4):
            assert _expand_terms(model, points(terms[:n]), 3) == \
                expand_reference.expand_terms(model, terms[:n], 3)


def reference_heads(spec, p):
    """Heads at T = 12 on one model, as the decomposition meets them: an
    exact Dirac head, an inexact product head (a prec class per v_p(k!)),
    the lie_generator heads (a shift class per v_p(k)) and sparse sub-heads
    of each (every third entry, and the entries of top degree)."""
    model = GroupModel.from_string(spec.format(p=p), max_weight=12)
    rng = random.Random(p)
    exact = Distribution.dirac_combination(model, [
        (1, model.element([2, 1, 3][:model.d])), (-2, model.identity()),
        (Fraction(1, p), model.element([0, 4, 1][:model.d]))], 12)
    product = Distribution.dirac(model.random_element(rng), 12).mul(
        Distribution.dirac(model.random_element(rng), 12))
    heads = [exact.coeffs, product.coeffs]
    heads += [lie_generator(model, i, 12).coeffs for i in range(model.d)]
    for head in heads[:]:
        top = max(map(sum, head))
        heads.append({a: c for j, (a, c) in enumerate(head.items()) if j % 3 == 0})
        heads.append({a: c for a, c in head.items() if sum(a) == top})
    return model, heads


class TestHeadToDiracMatchesReference:
    """``_head_to_dirac`` (``binomial_transform`` per (prec, shift) class)
    against the per-term loop it replaced (``expand_reference``)."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("spec", MODEL_IDS)
    def test_heads(self, spec, p):
        model, heads = reference_heads(spec, p)
        assert any(len({c[1] for c in head.values()}) > 1 for head in heads)
        assert any(len({c[2] for c in head.values()}) > 1 for head in heads)
        for head in heads:
            assert by_point(_head_to_dirac(model, head)) == \
                by_point(expand_reference.head_to_dirac(model, head))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_no_axes(self, p):
        model = GroupModel.abelian(0, p, prec=4, max_weight=3)
        W = model.elem_prec
        for c in [(1, W, 0), (0, W, 0), (0, W - 1, 2), (p, W - 2, 1)]:
            assert _head_to_dirac(model, {(): c}) == \
                expand_reference.head_to_dirac(model, {(): c})

    def test_parsed_expand_heads(self, tmp_path):
        # the heads of expand files, which carry no witness: an exact one,
        # and the truncated heads of points beyond T
        for T, elem in (("8", "1,2,0"), ("8", "7,2,3"), ("12", "7,11,13")):
            path = tmp_path / "e.dist"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["expand", "--group", "heisenberg:5", "-T", T,
                             "--elem", elem, "--out", str(path)]) == 0
            lam = parse_distribution(path.read_text())
            assert by_point(_head_to_dirac(lam.model, lam.coeffs)) == \
                by_point(expand_reference.head_to_dirac(lam.model, lam.coeffs))


def key_order_cases(tmp_path):
    """An exact Dirac product, an inexact Dirac, a Lie generator and a
    parsed ``expand`` file."""
    heis = GroupModel.from_string("heisenberg:5")
    ab = GroupModel.from_string("abelian:2:5")
    path = tmp_path / "e.dist"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["expand", "--group", "heisenberg:5", "-T", "8",
                     "--elem", "7,2,3", "--out", str(path)]) == 0
    return [
        Distribution.dirac(heis.element([1, 1, 0])).mul(
            Distribution.dirac(heis.element([0, 1, 1]))),
        Distribution.dirac(ab.element([-21, 5])),
        lie_generator(heis, 0),
        parse_distribution(path.read_text()),
    ]


def symbol_at_half(lam):
    try:
        sym, degree = lam.principal_symbol(RadiusParam(Fraction(1, 2)))
    except DistError as exc:
        return str(exc)
    return sym.to_text(), degree


def test_key_order_is_not_observable(tmp_path):
    # the order of a head's keys reaches no output: the same head stored in
    # reverse gives the same file, norms, symbol and product
    for lam in key_order_cases(tmp_path):
        model = lam.model
        items = list(lam.coeffs.items())
        fwd, rev = (Distribution(model, dict(order), lam.T, lam.enclosure)
                    for order in (items, items[::-1]))
        assert list(fwd.coeffs) != list(rev.coeffs)
        assert serialize_distribution(fwd) == serialize_distribution(rev)
        for s in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            r = RadiusParam(s)
            assert str(fwd.norm(r)) == str(rev.norm(r))
        assert symbol_at_half(fwd) == symbol_at_half(rev)
        delta = Distribution.dirac(model.element([1, 2, 0][:model.d]), lam.T)
        assert serialize_distribution(fwd.mul(delta)) == serialize_distribution(rev.mul(delta))


@st.composite
def factor_pairs(draw):
    """Two Dirac combinations on one model and a T.  Where drawn, the
    factors get terms 1*x and 1*1, and 1*1 and -1*x, so that x*1 and
    1*(-x) meet at x's key and cancel; alone, or beside the other terms."""
    model, terms1, T = draw(combinations())
    terms2 = draw(witness_terms(model))
    cancel = draw(st.sampled_from(["none", "beside", "alone"]))
    if cancel != "none":
        x = draw(elements(model))
        one = PadicScalar.one(model.p, model.elem_prec)
        e = model.identity()
        pair1, pair2 = [(one, x), (one, e)], [(one, e), (-one, x)]
        if cancel == "alone":
            terms1, terms2 = pair1, pair2
        else:
            terms1, terms2 = terms1 + pair1, terms2 + pair2
    return model, terms1, terms2, T


class TestPairLoopMatchesReference:
    """``mul``'s pair loop (the declared law on coordinate tuples) and
    ``_merge_terms`` on (triple, coords, exact) against the GroupElement
    pair loop and merge they replaced (``mul_reference``)."""

    @given(combinations())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_merge(self, case):
        model, terms, _ = case
        got = _merge_terms(model, points(triples(terms)))
        assert kernel_term_entries(got) == \
            element_term_entries(mul_reference.merge_terms(model, triples(terms)))

    @given(kernel_inputs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_merge_large_coordinates(self, case):
        # exact points up to 10^30 and past p^W, next to their residues
        model, terms, _ = case
        assert kernel_term_entries(_merge_terms(model, points(terms))) == \
            element_term_entries(mul_reference.merge_terms(model, terms))

    @given(factor_pairs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_products(self, case):
        model, terms1, terms2, T = case
        lam1 = outcome(lambda: Distribution.dirac_combination(model, terms1, T))
        lam2 = outcome(lambda: Distribution.dirac_combination(model, terms2, T))
        if PrecisionExhausted in (lam1, lam2):
            return
        # the exact path: the product keeps its merged witness
        want = mul_reference.merge_terms(model, mul_reference.pair_products(
            model, *(mul_reference.elements(model, lam.dirac_terms) for lam in (lam1, lam2))))
        got = outcome(lambda: lam1.mul(lam2, T=T))
        table = outcome(lambda: _expand_terms(model, points(want), T))
        if table is PrecisionExhausted:
            assert got is PrecisionExhausted
            return
        assert kernel_term_entries(got.dirac_terms) == element_term_entries(want)
        assert triple_entries(got.coeffs) == \
            [e for e in triple_entries(table) if e[1] or not got.exact]
        # the head path: inexact heads without a witness
        head1, head2 = (Distribution(model, lam.coeffs, T) for lam in (lam1, lam2))
        want = mul_reference.merge_terms(model, mul_reference.pair_products(
            model, *(mul_reference.elements(model, _head_to_dirac(model, head.coeffs))
                     for head in (head1, head2))))
        got = outcome(lambda: head1.mul(head2, T=T).coeffs)
        assert outcome(lambda: triple_entries(got)) == \
            outcome(lambda: triple_entries(_expand_terms(model, points(want), T)))

    def test_cancelling_products_leave_no_term(self):
        for spec in ("abelian:2:3", "heisenberg:5", "semidirect:7"):
            model = GroupModel.from_string(spec, prec=4, max_weight=4)
            x, e = model.element([1, 2, 0][:model.d]), model.identity()
            lam1 = Distribution.dirac_combination(model, [(1, x), (1, e)], 4)
            lam2 = Distribution.dirac_combination(model, [(1, e), (-1, x)], 4)
            got = lam1.mul(lam2)
            want = mul_reference.merge_terms(model, mul_reference.pair_products(
                model, *(mul_reference.elements(model, lam.dirac_terms) for lam in (lam1, lam2))))
            assert kernel_term_entries(got.dirac_terms) == element_term_entries(want)
            assert [coords for _, coords, _ in got.dirac_terms] == \
                [model.gmul(x, x).coords, e.coords]


@st.composite
def conjugations(draw):
    """A Dirac combination (``combinations``), and what conjugates it: an
    exact or an inexact element of its model, or "sigma" on the semidirect
    model."""
    model, terms, T = draw(combinations())
    if model.law.sigma and draw(st.booleans()):
        return model, terms, T, "sigma"
    return model, terms, T, draw(elements(model))


class TestConjugationMatchesReference:
    """``conjugate``'s action on witness coordinates (the declared law on
    tuples) against the per-point ``gmul(gmul(g, h), ginv(g))`` on
    GroupElements of ``mul_reference``."""

    @staticmethod
    def check(model, terms, T, g):
        lam = outcome(lambda: Distribution.dirac_combination(model, terms, T))
        if lam is PrecisionExhausted:
            return
        # the witness path: the image keeps its merged witness
        want = mul_reference.merge_terms(model, mul_reference.conjugate_terms(
            model, mul_reference.elements(model, lam.dirac_terms), g))
        got = outcome(lambda: lam.conjugate(g))
        table = outcome(lambda: _expand_terms(model, points(want), T))
        if table is PrecisionExhausted:
            assert got is PrecisionExhausted
        else:
            assert kernel_term_entries(got.dirac_terms) == element_term_entries(want)
            assert triple_entries(got.coeffs) == \
                [e for e in triple_entries(table) if e[1] or not got.exact]
        # the head path: an inexact head without a witness
        head = Distribution(model, lam.coeffs, T)
        want = mul_reference.merge_terms(model, mul_reference.conjugate_terms(
            model, mul_reference.elements(model, _head_to_dirac(model, head.coeffs)), g))
        got = outcome(lambda: head.conjugate(g))
        table = outcome(lambda: triple_entries(_expand_terms(model, points(want), T)))
        if table is PrecisionExhausted:
            assert got is PrecisionExhausted
        else:
            assert got.dirac_terms is None and triple_entries(got.coeffs) == table

    @given(conjugations())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_conjugate(self, case):
        self.check(*case)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("spec", ["abelian:2:{p}", "heisenberg:{p}", "semidirect:{p}"])
    def test_every_kind(self, spec, p):
        # exact and inexact points, conjugated by an exact and an inexact
        # element, and by sigma where the model has it
        model = GroupModel.from_string(spec.format(p=p), prec=4, max_weight=4)
        rng = random.Random(p)
        x = model.element([2, -1, 3][:model.d])
        one = PadicScalar.one(p, model.elem_prec)
        terms = [(one, x), (-one, model.identity()), (one + one, model.random_element(rng))]
        actions = [model.element([1, 2, 1][:model.d]), model.random_element(rng)]
        if model.law.sigma:
            actions.append("sigma")
        for g in actions:
            self.check(model, terms, 4, g)
            self.check(model, terms[:2], 4, g)

