"""The distribution algebra of a builtin group model.

A distribution is held as a finite coefficient table over the monomials
b^alpha = (h_1-1)^a1 ... (h_d-1)^ad up to a total-degree cutoff T,
together with one ``Enclosure`` of everything it does not hold exactly: an
error bound on each stored entry beyond its window, and lines (C, t), each
asserting |d_alpha| <= C * p^(t * tau(alpha)), that hold at every unstored
alpha or at every alpha.  ``norm`` reads the unstored lines only at
weight_above(T), past the head, while ``mahler.pair`` reads them at every
unstored degree (ROADMAP item 4(a)).

Every head entry (``coeffs``) and every coefficient of the Dirac witness
(``dirac_terms``) is stored as a triple of ints (residue, prec, shift), the
value p^-shift * residue known mod p^(prec - shift), with the residue
reduced mod p^prec as PadicScalar keeps it.  Sums, valuations and
magnitude bounds follow the triple rules of ``padic``; a product takes the
least prec and adds the shifts.  PadicScalars appear only at the edge:
``as_triple`` reads the int, Fraction, PadicScalar or triple coefficients
that the constructors take, and ``Distribution.coeff`` builds the
PadicScalar of an entry; a caller's multi-index is read by
``padic.int_tuple`` (d nonnegative integral entries, else DistError).
Exact tables, Dirac witnesses and ``mahler``'s coset tables drop a zero only
by ``known_zero`` (a window of at least N + 2, the narrowest of a binomial
row); inexact tables keep their zeros.

A witness term is (triple, coords, exact): the point is its int chart
coordinates, exact or residues mod p^W, on which ``model.law`` acts, from
``_merge_terms`` to ``mahler.finite_level_project``.

Multiplication decomposes heads into finite Dirac combinations by the
transpose of ``padic.binomial_transform`` (``_head_to_dirac``; its forward
direction gives Mahler tables), multiplies the supports with the group
law, and re-expands; no precision is lost on exact inputs.  The expansion
(``_expand_terms``) packs each point's binomial row of the last axis into
one int, in slots of B = bits(largest coefficient residue) + d * bits(p^W)
+ bits(#points) + 1 bits, wide enough that no sum carries; it sums
coefficient times row once per group of points that share their other
rows, and unpacks each slot once per class.  The prec of C(x, k) mod p^W
is W - v_p(k!) for every x, so the prec of an entry does not depend on
which point reached it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce
from itertools import chain
from math import comb, inf, lcm
from typing import NamedTuple

from .padic import (
    NormValue,
    PadicError,
    PadicScalar,
    add_triples,
    binom,
    binomial_transform,
    fraction_triple,
    int_tuple,
    is_int_triple,
    ppow,
    require_triple,
    triple_bound,
    triple_valuation,
    vp_int,
)
from .groupmodel import GroupElement, GroupModel, ModelError, ModelMismatch, truncation


class DistError(PadicError):
    pass


_ZERO = NormValue.zero()


class RadiusParam:
    """A radius r = p^(-s) with exact rational 0 < s <= 1."""

    __slots__ = ("s",)

    def __init__(self, s):
        s = Fraction(s)
        if not (0 < s <= 1):
            raise ValueError(f"radius exponent s must satisfy 0 < s <= 1, got {s}")
        object.__setattr__(self, "s", s)

    def __setattr__(self, *a):
        raise AttributeError("RadiusParam is immutable")

    def __eq__(self, other):
        return isinstance(other, RadiusParam) and self.s == other.s

    def __hash__(self):
        return hash(("RadiusParam", self.s))

    def __repr__(self):
        return f"RadiusParam(s={self.s})"

    def __str__(self):
        return f"p^-{self.s}"


class Line(NamedTuple):
    """|d_alpha| <= bound * p^(growth * tau(alpha)) at every alpha it covers."""

    bound: NormValue
    growth: int | Fraction


class Enclosure(namedtuple("Enclosure", ("stored", "unstored", "cap"))):
    """What a distribution knows of the entries it does not hold exactly.

    Each line (C, t) is a bound on its own, |d_alpha| <= C p^(t tau(alpha)),
    so a set of lines bounds by its least line at each alpha.  ``stored``
    bounds each stored entry's error beyond its window; the ``unstored``
    lines hold at every unstored alpha, and the ``cap`` lines at every
    alpha, so every reader of the unstored entries reads them too.
    ``EXACT`` (stored 0, the one unstored line (0, 0)) says the stored
    entries are the distribution; the default, stored 0 and no line, bounds
    nothing unstored.  A bound that is not a NormValue, or a growth that is
    not an int or a Fraction, is refused with DistError.
    """

    __slots__ = ()

    def __new__(cls, stored=_ZERO, unstored=(), cap=()):
        try:
            unstored, cap = (tuple(Line(*x) for x in lines) for lines in (unstored, cap))
        except TypeError:
            raise DistError("an enclosure line is not a (bound, growth) pair") from None
        for C, t in ((stored, 0), *unstored, *cap):
            if not isinstance(C, NormValue) or type(t) not in (int, Fraction):
                raise DistError(f"enclosure bound {C!r} or growth {t!r} is not a "
                                "NormValue and an int or a Fraction")
        return super().__new__(cls, stored, unstored, cap)

    def bound(self, tau=0, t=inf) -> NormValue | None:
        """The least C p^(g tau) over the lines of growth g <= t that hold at
        every unstored alpha; None for none."""
        return min((C * NormValue(-g * tau) for C, g in self.unstored + self.cap if g <= t),
                   default=None)

    @property
    def gap(self) -> NormValue:
        """Bound on the coefficients of what the Dirac decomposition of the
        head leaves out: the growth-0 bound or ``stored``, whichever is
        larger; unbounded without a growth-0 line."""
        tail = self.bound(0, 0)
        return NormValue.unbounded() if tail is None else max(tail, self.stored)

    def scale(self, c: NormValue) -> "Enclosure":
        """The enclosure of c times the distribution, |c| <= c."""
        return Enclosure(self.stored * c, [(C * c, t) for C, t in self.unstored],
                         [(C * c, t) for C, t in self.cap])


Enclosure.EXACT = Enclosure(_ZERO, ((_ZERO, 0),))


class NormInterval(NamedTuple):
    lower: NormValue
    upper: NormValue

    @property
    def collapsed(self) -> bool:
        return self.lower == self.upper

    def __str__(self):
        return f"{self.lower} .. {self.upper}"


def as_triple(model: GroupModel, c):
    """The stored form of a coefficient given as an int, a Fraction, a
    PadicScalar or a triple of ints (residue, prec, shift), read as the
    PadicScalar it names: ints and Fractions at the model's working
    precision, a triple with its residue reduced, refused when its prec is
    below 1 or its shift below 0."""
    if isinstance(c, PadicScalar):
        return c.triple
    if isinstance(c, tuple):
        if not is_int_triple(c):
            raise TypeError(f"coefficient {c!r} is not a (residue, prec, shift) triple of ints")
        r, prec, shift = c
        return PadicScalar(model.p, prec, r, shift).triple
    return fraction_triple(model.p, c, model.elem_prec)


def known_zero(model: GroupModel, c) -> bool:
    """Whether the triple c, residue reduced, is 0 on a window of at least
    N + 2 (``zero_window``), the narrowest of a binomial row up to the weight
    cap: the one rule that drops a zero.  A zero on a narrower window is an
    uncertain entry, which the r-norms and the projections read."""
    return c[0] == 0 and c[1] - c[2] >= model.zero_window


class Distribution:
    """lambda = sum d_alpha b^alpha, stored up to degree |alpha| <= T.

    ``coeffs`` maps alpha to the triple (residue, prec, shift) of d_alpha
    and ``dirac_terms``, when known, holds an exact witness as terms
    (triple, coords, exact) at distinct points, built by the library
    (``_merge_terms``) and never taken from a caller; ``mul`` and
    ``conjugate`` apply the model's law to its coordinates.
    ``coeff(alpha)`` returns d_alpha as a PadicScalar.  The constructor
    takes triples in the stored form (prec >= 1, shift >= 0, residue
    reduced mod p^prec); ``from_coeffs``, ``dirac_combination`` and
    ``scale`` also take ints, Fractions, PadicScalars and unreduced triples
    (``as_triple``).  An exact table keeps no ``known_zero`` entry.

    ``enclosure`` bounds what the table does not hold exactly; the default
    bounds nothing unstored.  ``exact`` says that it is ``Enclosure.EXACT``.
    What the Dirac decomposition of an inexact head leaves out (its tail
    and the errors of its entries) has coefficients bounded by the
    enclosure's ``gap``; ``mul``, ``conjugate``, ``change_basis`` and ``+``
    all take that bound from there.
    """

    __slots__ = ("model", "coeffs", "T", "enclosure", "dirac_terms", "_profile")

    def __init__(self, model, coeffs, T, enclosure=Enclosure()):
        T = truncation(T)
        coeffs = {_multi_index(model, a): c for a, c in dict(coeffs).items()}
        for alpha, c in coeffs.items():
            if model.tau(alpha) > T:
                raise DistError(f"stored index {alpha} exceeds truncation weight {T}")
            require_triple(model.p, alpha, c)
        if not isinstance(enclosure, Enclosure):
            raise DistError(f"enclosure {enclosure!r} is not an Enclosure")
        self._set(model, coeffs, T, enclosure)

    @classmethod
    def _clean(cls, model, coeffs, T, enclosure, dirac_terms=None) -> "Distribution":
        """Wrap parts already in the form ``__init__`` leaves them in (an int
        T >= 0, a dict of triples of degree <= T, an Enclosure and a tuple of
        Dirac terms), with no checks: for the results the library builds
        itself and for the terms ``serialize`` has checked line by line."""
        out = object.__new__(cls)
        out._set(model, coeffs, T, enclosure, dirac_terms)
        return out

    def _set(self, model, coeffs, T, enclosure, dirac_terms=None):
        """Fill the slots of either constructor; an exact table drops its
        ``known_zero`` entries here."""
        self.model = model
        self.T = T
        self.enclosure = enclosure
        self.coeffs = ({a: c for a, c in coeffs.items() if not known_zero(model, c)}
                       if self.exact else coeffs)
        self.dirac_terms = dirac_terms
        self._profile = None

    @property
    def exact(self) -> bool:
        return self.enclosure == Enclosure.EXACT

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero_dist(cls, model, T=None) -> "Distribution":
        T = model.max_weight if T is None else T
        return cls(model, {}, T, Enclosure.EXACT)

    @classmethod
    def one(cls, model, T=None) -> "Distribution":
        return cls.monomial(model, (0,) * model.d, T)

    @classmethod
    def monomial(cls, model, alpha, T=None) -> "Distribution":
        T = model.max_weight if T is None else T
        return cls(model, {_multi_index(model, alpha): as_triple(model, 1)}, T, Enclosure.EXACT)

    @classmethod
    def dirac(cls, g: GroupElement, T=None) -> "Distribution":
        return cls.dirac_combination(g.model, [(1, g)], T)

    @classmethod
    def dirac_combination(cls, model, terms, T=None) -> "Distribution":
        """sum a_j delta_{g_j}; the term list is retained as an exact witness."""
        T = model.max_weight if T is None else truncation(T)
        for _, g in terms:
            model._require_same(g.model)
        merged = _merge_terms(model, [(as_triple(model, a), g.coords, g.exact) for a, g in terms])
        coeffs = _expand_terms(model, merged, T)
        if out := _exact_result(model, merged, coeffs, T, merged):
            return out
        cap = ((_terms_coeff_bound(model, merged), Fraction(0)),)
        return cls._clean(model, coeffs, T, Enclosure(cap=cap), merged)

    @classmethod
    def from_coeffs(cls, model, table, T, enclosure=Enclosure.EXACT) -> "Distribution":
        """Build from an explicit coefficient table (exact by default), its
        coefficients read by ``as_triple``.  The constructor drops the
        ``known_zero`` entries of an exact table; a zero known on a window
        narrower than N + 2 stays, as an uncertain entry."""
        return cls(model, {a: as_triple(model, c) for a, c in table.items()}, T, enclosure)

    # -- bookkeeping -------------------------------------------------------

    def coeff(self, alpha) -> PadicScalar:
        """d_alpha as a PadicScalar; zero at the working precision where
        nothing is stored.  An alpha that is not d nonnegative integers
        raises DistError."""
        model = self.model
        r, prec, shift = self.coeffs.get(_multi_index(model, alpha),
                                         (0, model.elem_prec, 0))
        return PadicScalar(model.p, prec, r, shift)

    def coeff_sup(self) -> NormValue | None:
        """Certified upper bound on sup_alpha |d_alpha| (head and tail).

        The growth-0 bound of the enclosure, or an entry's magnitude bound
        where larger (as in ``norm``: the stored error where that is
        larger); None without a growth-0 line.  Read off the r-norm
        profile."""
        return self._rnorm_profile().sup

    def is_integral(self) -> bool:
        sup = self.coeff_sup()
        return sup is not None and sup.exponent >= 0 and self.enclosure.stored.exponent >= 0

    def _exact_terms(self):
        """An exact Dirac-combination representation, or None."""
        if self.dirac_terms is None and self.exact:
            self.dirac_terms = _head_to_dirac(self.model, self.coeffs)
        return self.dirac_terms

    # -- linear structure --------------------------------------------------

    def scale(self, c) -> "Distribution":
        p = self.model.p
        c = as_triple(self.model, c)
        cup = triple_bound(p, c)
        cr, cprec, cshift = c

        def times(x):
            r, prec, shift = x
            prec = min(prec, cprec)
            return r * cr % ppow(p, prec), prec, shift + cshift

        coeffs = {a: times(v) for a, v in self.coeffs.items()}
        terms = None
        if self.dirac_terms is not None:
            terms = _merge_terms(self.model, [(times(a), coords, exact)
                                              for a, coords, exact in self.dirac_terms])
        return Distribution._clean(self.model, coeffs, self.T, self.enclosure.scale(cup),
                                   terms)

    def __neg__(self) -> "Distribution":
        return self.scale(-1)

    def __add__(self, other: "Distribution") -> "Distribution":
        """The sum.  Two exact operands vanish past their heads, so their sum
        keeps both heads, at the larger T.  Any other sum is cut at the
        smaller T.  At each growth t of either operand's lines, the sum's
        line is the larger of the operands' least lines at t, and its
        unstored line also covers the entries cut off at T; an exact
        operand's cap is its stored sup.  (The union of the operands' lines
        would not do: each line bounds on its own, so the union would
        certify the tighter operand's bound for the sum.)"""
        self.model._require_same(other.model)
        exact = self.exact and other.exact
        T = max(self.T, other.T) if exact else min(self.T, other.T)
        tau = self.model.tau
        keys = {a for a in chain(self.coeffs, other.coeffs) if tau(a) <= T}
        p = self.model.p
        zero = (0, self.model.elem_prec, 0)
        coeffs = {}
        for a in keys:
            r, prec, shift = add_triples(p, self.coeffs.get(a, zero), other.coeffs.get(a, zero))
            coeffs[a] = r % ppow(p, prec), prec, shift
        e1, e2 = self.enclosure, other.enclosure
        herr = max(e1.stored, e2.stored)
        # an entry of the sum that an inexact operand does not store carries
        # that operand's head gap; an index past T is no entry of the sum,
        # and the lines below cover it
        for left, right in ((self, other), (other, self)):
            if not right.exact and any(a not in right.coeffs for a in left.coeffs
                                       if tau(a) <= T):
                herr = max(herr, right.enclosure.gap)
        if exact:
            enclosure = Enclosure.EXACT
        else:
            def cap_at(x, t):
                if x.exact:
                    return _least_cover([(tau(a), triple_bound(p, c))
                                         for a, c in x.coeffs.items()], t)
                return min((C for C, g in x.enclosure.cap if g <= t), default=None)

            # the stored entries past T, each bounded by its magnitude bound
            # or its operand's stored error, whichever is larger
            cut = [(tau(a), max(triple_bound(p, c), x.enclosure.stored))
                   for x in (self, other) for a, c in x.coeffs.items() if tau(a) > T]
            unstored, cap = [], []
            for t in sorted({g for e in (e1, e2) for _, g in e.unstored + e.cap}):
                a = e1.bound(0, t)
                b = e2.bound(0, t)
                if a is None or b is None:
                    continue
                aa = cap_at(self, t)
                bb = cap_at(other, t)
                if aa is not None and bb is not None:
                    cap.append((max(aa, bb), t))
                unstored.append((max(a, b, _least_cover(cut, t)), t))
            enclosure = Enclosure(herr, unstored, cap)
        terms = None
        if self.dirac_terms is not None and other.dirac_terms is not None:
            terms = _merge_terms(self.model, self.dirac_terms + other.dirac_terms)
        return Distribution._clean(self.model, coeffs, T, enclosure, terms)

    def __sub__(self, other: "Distribution") -> "Distribution":
        return self + (-other)

    # -- multiplication ----------------------------------------------------

    def mul(self, other: "Distribution", T=None, s_work=None) -> "Distribution":
        """Noncommutative convolution via Dirac decomposition of the heads.

        ``s_work`` attaches an extra cap line at growth s_work from the
        product of the factors' norm upper bounds at r = p^(-s_work).
        """
        self.model._require_same(other.model)
        model = self.model
        T = min(self.T, other.T) if T is None else truncation(T)
        t1 = self._exact_terms()
        t2 = other._exact_terms()
        exact_path = t1 is not None and t2 is not None
        t1 = _head_to_dirac(model, self.coeffs) if t1 is None else t1
        t2 = _head_to_dirac(model, other.coeffs) if t2 is None else t2
        law, p = model.law.mul, model.p
        merged = _merge_terms(model, (
            ((ra * rb, pa if pa < pb else pb, sa + sb), law(p, g, h), ge and he)
            for (ra, pa, sa), g, ge in t1 for (rb, pb, sb), h, he in t2))
        coeffs = _expand_terms(model, merged, T)
        if exact_path and (out := _exact_result(model, merged, coeffs, T, merged)):
            return out

        sup1 = self.coeff_sup()
        sup2 = other.coeff_sup()
        cap = []
        if sup1 is not None and sup2 is not None:
            cap.append((sup1 * sup2, Fraction(0)))
        if s_work is not None:
            works = [s_work] if isinstance(s_work, (int, Fraction)) else list(s_work)
            for s in works:
                s = Fraction(s)
                r = RadiusParam(s)
                u1 = self.norm(r).upper
                u2 = other.norm(r).upper
                if not (u1.is_unbounded or u2.is_unbounded):
                    cap.append((u1 * u2, s))
        if exact_path:
            herr = NormValue.zero()
        elif sup1 is None or sup2 is None:
            herr = NormValue.unbounded()
        else:
            herr = max(self.enclosure.gap * sup2, other.enclosure.gap * sup1)
        return Distribution._clean(model, coeffs, T, Enclosure(herr, (), cap),
                                   merged if exact_path else None)

    def __mul__(self, other: "Distribution") -> "Distribution":
        return self.mul(other)

    # -- norms -------------------------------------------------------------

    def norm(self, r: RadiusParam) -> NormInterval:
        """The interval certified to contain sup_alpha |d_alpha| r^tau(alpha).

        A head entry is certain when its valuation v is known and beats the
        enclosure's stored error; it contributes p^-(v + s tau) to both
        ends.  Any other entry contributes only to the upper end: its
        magnitude bound (its valuation, else its window; the stored error
        if that is larger) times r^tau, capped by the cap lines at tau.
        The unstored and cap lines bound the unstored part, read at
        weight_above(T) only: an unstored index of degree <= T reads as
        zero (ROADMAP item 4(a)).

        Written as exponents, each end is a least value of lines in s, read
        off the r-norm profile (``_RNormProfile``) built once per
        distribution; at s = a/b the lines compare as ints over one common
        denominator, and only the two returned ends are Fractions.
        """
        prof = self._rnorm_profile()
        k, S, D = prof.scale(r.s)
        lower = _least_line(prof.lower, k, S)
        # the upper points include the certain levels, so upper <= lower
        upper = -inf if prof.unbounded else _least_line(prof.upper, k, S)
        tail = prof.tail(k, S)
        if tail < upper:
            upper = tail
        return NormInterval(_norm_value(lower, D), _norm_value(upper, D))

    def _rnorm_profile(self) -> "_RNormProfile":
        """Built once: a distribution is not changed after construction."""
        if self._profile is None:
            self._profile = _RNormProfile(self)
        return self._profile

    # -- symbols -----------------------------------------------------------

    def principal_symbol(self, r: RadiusParam):
        """Leading coset in the associated graded ring; (GradedPoly, degree).

        Requires 1/p < r < 1, i.e. s < 1, and enough stored precision that
        the head minimum beats every uncertainty floor: the entries of
        unknown valuation, the tail at weight_above(T) and the stored
        error.  The test reads the r-norm profile; only the leading entries
        are read from ``coeffs``.
        """
        from .graded import GradedAmbient, GradedPoly

        s = r.s
        if s >= 1:
            raise ValueError("principal symbols require 1/p < r < 1 (s < 1)")
        prof = self._rnorm_profile()
        if not prof.valued:
            raise DistError("zero (or valuation-indeterminate) distribution has no symbol")
        k, S, D = prof.scale(s)
        best = _least_line(prof.lower, k, S)
        # every unknown must be certified strictly above the head minimum; an
        # entry of known valuation that does not beat the stored error is
        # refused through that error, which is at most its valuation
        least_floor = min(_least_line(prof.floors, k, S), prof.tail(k, S), k * prof.herr)
        if least_floor <= best:
            raise DistError(
                "insufficient truncation/precision for the principal symbol; "
                "increase T or the scalar window"
            )
        model = self.model
        p = model.p
        ambient = GradedAmbient(p, model.d, [1] * model.d, s)
        terms = {}
        for tau, v, alphas in prof.levels:
            if v * D + S * tau == best:
                for alpha in alphas:
                    # the unit cofactor p^-v * d_alpha mod p
                    r, _, shift = self.coeffs[alpha]
                    terms[alpha + (v,)] = r // ppow(p, v + shift) % p
        return GradedPoly(ambient, terms), Fraction(best, D)

    # -- basis change and conjugation -------------------------------------

    def change_basis(self, basis) -> "Distribution":
        """Re-expand in the monomials of another ordered basis (omega 1 each),
        through its chart, built once (``groupmodel.basis_chart``).

        A point's coordinates in the new chart are residues mod p^W.  For an
        exact point and an exact basis, the residues lifted to their least
        absolute values are the exact coordinates when the chart's ``point``
        rebuilds the point from them; the image is then exact."""
        from .groupmodel import basis_chart

        point, solve = basis_chart(self.model, basis)
        m = ppow(self.model.p, self.model.elem_prec)
        exact_basis = all(b.exact for b in basis)

        def act(coords, exact):
            y = solve(coords)
            if exact and exact_basis:
                lift = tuple(x - m if 2 * x > m else x for x in y)
                if point(lift) == coords:
                    return lift, True
            return y, False

        return self._map_support(act, same_chart=False)

    def conjugate(self, g) -> "Distribution":
        """Image under delta_h -> delta_{g h g^-1} (g a GroupElement or "sigma",
        the order-2 coset acting by inversion)."""
        model = self.model
        law, p = model.law, model.p
        if g == "sigma":
            if not law.sigma:
                raise ModelError("sigma conjugation is defined only on the semidirect model")
            act = lambda coords, exact: (law.pow(p, coords, -1), exact)
        elif isinstance(g, GroupElement):
            model._require_same(g.model)
            x, x_inv = g.coords, law.pow(p, g.coords, -1)
            act = lambda coords, exact: (
                law.mul(p, law.mul(p, x, coords), x_inv), exact and g.exact)
        else:
            raise DistError(f"undefined conjugation action {g!r}")
        return self._map_support(act)

    def _map_support(self, act, same_chart=True) -> "Distribution":
        """sum a_j delta_{act(g_j)} up to degree self.T, over the
        exact witness, else over the Dirac decomposition of the head with the
        enclosure's ``gap`` as the stored error; ``act`` maps a point's
        (coords, exact) to its image's.  With ``same_chart`` unset, ``act``
        gives coordinates in another chart, on which ``model.law`` does not
        act, so the result keeps no witness."""
        model, T = self.model, self.T
        terms = self._exact_terms()
        witness = terms is not None
        if not witness:
            terms = _head_to_dirac(model, self.coeffs)
        merged = _merge_terms(model, ((a, *act(coords, exact)) for a, coords, exact in terms))
        coeffs = _expand_terms(model, merged, T)
        kept = merged if same_chart else None
        if witness and (out := _exact_result(model, merged, coeffs, T, kept)):
            return out
        herr = NormValue.zero() if witness else self.enclosure.gap
        cap = ()
        if not herr.is_unbounded:
            cap = ((max(_terms_coeff_bound(model, merged), self.coeff_sup()), Fraction(0)),)
        return Distribution._clean(model, coeffs, T, Enclosure(herr, (), cap),
                                   kept if witness else None)

    # -- radius threshold --------------------------------------------------

    def r_threshold(self) -> RadiusParam:
        """Smallest p^Q radius past which unit-head filtration membership lifts.

        Requires an exact, integral distribution with at least one unit
        coefficient.
        """
        if not self.exact:
            raise DistError("radius threshold requires an exact distribution")
        if not self.is_integral():
            raise DistError("radius threshold requires an integral distribution")
        valued = self._rnorm_profile().valued
        unit_taus = [tau for tau, v in valued if v == 0]
        if not unit_taus:
            raise DistError("no unit coefficient: the reduction mod p vanishes")
        tau_beta = unit_taus[0]
        s = Fraction(1)
        for tau, v in valued:
            if tau >= tau_beta:
                break
            s = min(s, Fraction(v, tau_beta - tau))
        return RadiusParam(s)


# -- free functions ---------------------------------------------------------


def structure_constants(model: GroupModel, beta, gamma, T):
    """Table {alpha: c} of b^beta b^gamma = sum c b^alpha up to weight T,
    with the per-entry verdict of v_p(c) >= max(0, tau(beta)+tau(gamma)-tau(alpha)).
    Each c is a triple (residue, prec, shift), the stored form of
    ``Distribution.coeffs``; the table is the caller's own, its triples
    immutable.

    The table is a shifted core, not a product per pair.  In the Heisenberg
    model b3 is central, so b^beta b^gamma = b1^beta1 S(beta2, gamma1)
    b2^gamma2 b3^(beta3+gamma3) with the core S(a, g) = b2^a b1^g, and
    b1^x b^alpha b2^y b3^z = b^(alpha + (x, y, z)): the table is S(beta2,
    gamma1) with every index shifted by (beta1, gamma2, beta3+gamma3),
    dropping entries of degree above T.  Under a commutative law (the
    abelian and semidirect models) the core is 1, so the table is
    b^(beta+gamma); Heisenberg's is the one law that is not commutative.

    Each Heisenberg core is expanded from its Dirac grid at T
    (``_commutation_core``), once per (a, g, T), and kept on the model for
    as long as the model lives, with each entry's degree and verdict.
    Since every omega is 1, tau(alpha + offset) = tau(alpha) +
    tau(offset): an entry is kept when its core degree is at most
    T - tau(offset), and its verdict bound tau(beta) + tau(gamma) -
    tau(alpha + offset) = a + g - tau(alpha) does not depend on the offset.
    An entry has the value the Dirac product of b^beta and b^gamma gives
    it, and a window never narrower, since shifting adds no binomial rows.
    Zeros that product stores where no shifted index lands (alpha1 <
    beta1 and the like) are not in the table.
    """
    T = truncation(T)
    beta = _multi_index(model, beta)
    gamma = _multi_index(model, gamma)
    if model.law.commutative:
        alpha = tuple(b + g for b, g in zip(beta, gamma))
        if model.tau(alpha) > T:
            return {}, {}
        return {alpha: as_triple(model, 1)}, {alpha: True}
    core = _commutation_core(model, beta[1], gamma[0], T)
    x, y, z = beta[0], gamma[1], beta[2] + gamma[2]
    room = T - x - y - z
    table = {}
    verdicts = {}
    for (a1, a2, a3), c, verdict in core[room] if room >= 0 else ():
        alpha = (a1 + x, a2 + y, a3 + z)
        table[alpha] = c
        if verdict is not None:
            verdicts[alpha] = verdict
    return table, verdicts


def _commutation_core(model: GroupModel, a: int, g: int, T: int) -> tuple:
    """Head entries of b2^a b1^g up to degree T, as (index, triple,
    verdict): one tuple per room r = 0..T, of the entries of degree at most
    r.  The core is expanded from its Dirac grid,

        b2^a b1^g = sum_{i <= a, j <= g} (-1)^(a-i+g-j) C(a, i) C(g, j) delta_(e2^i e1^j),

    each point e2^i e1^j = (j, i, -p i j) from the model's law and each
    coefficient at the working precision, by one ``_expand_terms`` at T:
    the entries of the Dirac product of the two monomials.  When a = 0 or
    g = 0 every point is exact in N^d, and the core, like ``mul``'s exact
    path, drops its ``known_zero`` entries (``_exact_result``).  The verdict
    is that of v_p(c) >= max(0, a + g - tau(alpha)), None when the
    valuation of c is not known.  Computed once per model and (a, g, T)."""
    key = (a, g, T)
    core = model.commutation_cores.get(key)
    if core is None:
        p, W, law = model.p, model.elem_prec, model.law.mul
        terms = _merge_terms(model, [
            (((-1) ** (a - i + g - j) * comb(a, i) * comb(g, j), W, 0),
             law(p, (0, i, 0), (j, 0, 0)), True)
            for i in range(a + 1) for j in range(g + 1)])
        head = _expand_terms(model, terms, T)
        if out := _exact_result(model, terms, head, T, terms):
            head = out.coeffs
        entries = []
        for alpha, c in head.items():
            tau = model.tau(alpha)
            v = triple_valuation(p, c)
            entries.append((tau, (alpha, c, None if v is None else v >= max(0, a + g - tau))))
        core = model.commutation_cores[key] = tuple(
            tuple(e for tau, e in entries if tau <= room) for room in range(T + 1))
    return core


def lie_generator(model: GroupModel, i: int, T=None) -> Distribution:
    """log(1 + b_i) truncated at degree T, with a certified growing tail."""
    if not isinstance(i, int) or not 0 <= i < model.d:
        raise DistError(f"generator index must be an integer in 0..{model.d - 1}, got {i!r}")
    K = model.max_weight if T is None else truncation(T)
    if K < 1:
        raise DistError("truncation weight below the generator's weight")
    coeffs = {}
    p = model.p
    for k in range(1, K + 1):
        alpha = tuple(k if j == i else 0 for j in range(model.d))
        coeffs[alpha] = as_triple(model, Fraction((-1) ** (k + 1), k))
    # |1/k| = p^(v_p(k)) <= p^(t * k) for all k > K: a k > K with
    # v_p(k) = m is at least k_m, the least multiple of p^m above K, so
    # t = max_m m / k_m.  Once p^m > K, k_m = p^m and m / p^m only falls.
    t = Fraction(0)
    m = 1
    while True:
        q = ppow(p, m)
        t = max(t, Fraction(m, (K // q + 1) * q))
        if q > K:
            break
        m += 1
    return Distribution(model, coeffs, K, Enclosure(unstored=((NormValue.one(), t),)))


def q_norm(pair, r: RadiusParam) -> NormInterval:
    """max of the component norms of mu = lambda_1 + lambda_2 delta_sigma."""
    lam1, lam2 = pair
    if not lam1.model.law.sigma:
        raise ModelMismatch("q-norm is defined on the semidirect model")
    lam1.model._require_same(lam2.model)
    n1 = lam1.norm(r)
    n2 = lam2.norm(r)
    return NormInterval(max(n1.lower, n2.lower), max(n1.upper, n2.upper))


def semidirect_mul(pair1, pair2, s_work=None):
    """(a + b ds)(c + e ds) = (ac + b s(e)) + (a e + b s(c)) ds, with s(x) the
    sigma conjugate and ds^2 = 1."""
    a, b = pair1
    c, e = pair2
    if not a.model.law.sigma:
        raise ModelMismatch("semidirect product requires the semidirect model")
    sc = c.conjugate("sigma")
    se = e.conjugate("sigma")
    first = a.mul(c, s_work=s_work) + b.mul(se, s_work=s_work)
    second = a.mul(e, s_work=s_work) + b.mul(sc, s_work=s_work)
    return first, second


# -- internals --------------------------------------------------------------


class _RNormProfile:
    """The r-norms of one distribution as integer lines in s.

    Write a bound p^-x as its exponent x.  Every exponent the r-norms read
    (valuations, windows, the stored error, line bounds and growths) is
    scaled once by one common denominator D0.  At s = a/b, with D = lcm(D0,
    b), k = D / D0 and S = s D, a contribution W + s tau (W scaled) is then
    the int k W + S tau, and a least such value is attained on the lower
    convex hull of the points (tau, W), the Newton polygon; ``_lower_hull``
    keeps only those points.

    - ``lower``: the certain levels, (tau, v D0) with v the least valuation
      at degree tau of an entry whose valuation beats the stored error.
    - ``upper``: the certain levels and the uncertain ones, whose exponent is
      the least of the entries' magnitude bounds (the stored error where
      that is larger), raised to the cap lines C + (s - t) tau;
      ``unbounded`` when one of these is -inf.
    - ``tails``: the unstored and cap lines (C, t) give C + (s - t) tplus at
      s >= t, tplus = weight_above(T); the pairs (t D0, G), ascending, where
      G is the largest C D0 - t D0 tplus over the lines of growth at most t
      (EXACT's zero line gives the one pair (0, +inf)).
    - ``floors`` and ``herr``: the levels of entries of unknown valuation,
      (tau, window D0), and the stored error D0, the uncertainty floors that
      ``principal_symbol`` tests.
    - ``levels``: (tau, v, indices) per certain level, the indices of its
      entries of valuation v.
    - ``valued``: (tau, least valuation) per level with an entry of known
      valuation, ascending.
    - ``sup``: ``coeff_sup``.

    The infinite exponents are +-inf floats; every other scaled value is an
    int.
    """

    __slots__ = ("D0", "lower", "upper", "unbounded", "tails", "tplus", "floors",
                 "herr", "levels", "valued", "sup")

    def __init__(self, lam: Distribution):
        p = lam.model.p
        enc = lam.enclosure
        herr = enc.stored.exponent
        # each line's exponents, read once: (bound, growth)
        caps = [(C.exponent, t) for C, t in enc.cap]
        lines = [(C.exponent, t) for C, t in enc.unstored] + caps
        D0 = 1
        for x in chain((herr,), *lines):
            if type(x) is not float and D0 % x.denominator:
                D0 = lcm(D0, x.denominator)

        def scaled(x):
            return x if type(x) is float else x.numerator * (D0 // x.denominator)

        H = scaled(herr)
        # an int valuation v beats the stored error when v < ceil(its exponent)
        beats = herr if type(herr) is float else -(-herr.numerator // herr.denominator)
        # per degree (|alpha|, every omega is 1): [least certain v, its
        # indices, least uncertain v, least window]
        by_tau = {}
        for alpha, (r, prec, shift) in lam.coeffs.items():
            tau = sum(alpha)
            level = by_tau.get(tau)
            if level is None:
                level = by_tau[tau] = [None, None, None, None]
            if r:
                v = vp_int(r, p) - shift if r % p == 0 else -shift
                if v < beats:
                    if level[0] is None or v < level[0]:
                        level[0] = v
                        level[1] = [alpha]
                    elif v == level[0]:
                        level[1].append(alpha)
                elif level[2] is None or v < level[2]:
                    level[2] = v
            elif level[3] is None or prec - shift < level[3]:
                level[3] = prec - shift

        caps = [(scaled(C), scaled(t)) for C, t in caps]
        lower, uncertain, floors, levels, valued = [], [], [], [], []
        unbounded = False
        head = inf  # the least exponent of an entry's bound, for coeff_sup
        for tau, (vc, alphas, vu, w) in sorted(by_tau.items()):
            if vc is not None:
                lower.append((tau, vc * D0))
                levels.append((tau, vc, tuple(alphas)))
                if vc < head:
                    head = vc
            if vu is not None:
                valued.append((tau, vu if vc is None or vu < vc else vc))
            elif vc is not None:
                valued.append((tau, vc))
            if w is not None:
                floors.append((tau, w * D0))
            elif vu is None:
                continue
            head = min(head, herr) if w is None else min(head, w, herr)
            e = H if w is None or H < w * D0 else w * D0
            for C, t in caps:
                if C - t * tau > e:
                    e = C - t * tau
            if e == -inf:
                unbounded = True
            elif e != inf:
                uncertain.append((tau, e))

        tplus = lam.model.weight_above(lam.T)
        tails = []
        for t, G in sorted((scaled(t), scaled(C) - scaled(t) * tplus) for C, t in lines):
            if not tails or G > tails[-1][1]:
                tails.append((t, G))
        # the enclosure's bound(0, 0), as an exponent
        tail0 = max((C for C, t in lines if t.numerator <= 0), default=None)

        self.D0 = D0
        self.lower = _lower_hull(lower)
        self.upper = _lower_hull(lower + uncertain)
        self.unbounded = unbounded
        self.tails = tuple(tails)
        self.tplus = tplus
        self.floors = _lower_hull(floors)
        self.herr = H
        self.levels = tuple(levels)
        self.valued = tuple(valued)
        self.sup = None if tail0 is None else NormValue(min(tail0, head))

    def scale(self, s: Fraction):
        """(k, S, D) at s: the common denominator D = lcm(D0, s's), k = D / D0
        and S = s D."""
        b = s.denominator
        D = b if self.D0 == 1 else lcm(self.D0, b)
        return D // self.D0, s.numerator * (D // b), D

    def tail(self, k: int, S: int):
        """The tightest tail term at weight_above(T), scaled by D: +inf when
        exact, -inf when no line has growth at most s."""
        G = -inf
        for t, best in self.tails:
            if k * t > S:
                break
            G = best
        return G if isinstance(G, float) else S * self.tplus + k * G


def _lower_hull(points) -> tuple:
    """The points (tau, W), in ascending tau, at which the least of W + s tau
    over all the points is attained for some s > 0: each has a smaller W
    than the one before, and none lies on or above the segment joining its
    neighbours.  The values along the result fall and then rise."""
    hull = []
    for tau, w in sorted(points):
        if hull and w >= hull[-1][1]:
            continue
        while len(hull) >= 2:
            (t1, w1), (t2, w2) = hull[-2], hull[-1]
            if (t2 - t1) * (w - w1) > (w2 - w1) * (tau - t1):
                break
            hull.pop()
        hull.append((tau, w))
    return tuple(hull)


def _least_line(points, k: int, S: int):
    """The least k W + S tau over a lower hull of points (tau, W); +inf for
    none."""
    best = inf
    for tau, w in points:
        x = k * w + S * tau
        if x >= best:
            break
        best = x
    return best


def _least_cover(bounds, t) -> NormValue:
    """The least C with b <= C p^(t tau) for every (tau, b) in bounds: the
    largest b p^(-t tau); zero for none."""
    return max((b * NormValue(t * tau) for tau, b in bounds), default=NormValue.zero())


def _norm_value(x, D: int) -> NormValue:
    return NormValue(x if isinstance(x, float) else Fraction(x, D))


def _multi_index(model, alpha) -> tuple:
    """alpha as a tuple of d nonnegative ints (``int_tuple``), else DistError."""
    return int_tuple(alpha, model.d, DistError, "multi-index", nonnegative=True)


def _exact_result(model, terms, coeffs, T, witness):
    """The exact distribution with the expansion ``coeffs`` of ``terms`` up
    to degree T, and the Dirac witness ``witness``, when every support point
    is exact in N^d with degree <= T, so that the expansion ends inside the
    head; else None."""
    if all(exact and all(x >= 0 for x in coords) and model.tau(coords) <= T
           for _, coords, exact in terms):
        return Distribution._clean(model, coeffs, T, Enclosure.EXACT, witness)


def _merge_terms(model, terms):
    """The Dirac witness of terms (triple, coords, exact): terms whose points
    share their key, the coordinates mod p^W, combined in first-reach order,
    residues reduced, without the ``known_zero`` coefficients.  The merged
    point is the exact one when exact points reach the key and all have the
    same coordinates; it is the inexact residue point (the key) when only
    inexact points do, or when two exact points differ (mod p^W only)."""
    p = model.p
    reduce_mod = ppow(p, model.elem_prec).__rmod__
    acc = {}
    exact_at = {}
    for a, coords, exact in terms:
        k = tuple(map(reduce_mod, coords))
        acc[k] = add_triples(p, acc[k], a) if k in acc else a
        if exact and exact_at.setdefault(k, coords) != coords:
            exact_at[k] = None
    out = []
    for k, (r, prec, shift) in acc.items():
        c = (r % ppow(p, prec), prec, shift)
        if not known_zero(model, c):
            coords = exact_at.get(k)
            out.append((c, k if coords is None else coords, coords is not None))
    return tuple(out)


def _head_to_dirac(model, coeffs):
    """Exact Dirac decomposition of a finite b-polynomial:
    b^beta = sum_{k <= beta} (-1)^{|beta - k|} C(beta, k) delta_{psi(k)},
    by the transpose of ``binomial_transform`` on each (prec, shift) class
    of the head.  ``_merge_terms`` gets every entry of each class's
    downward closure, zeros too, so that a point keeps the prec and shift
    of every class that reaches it."""
    classes = {}
    for beta, (r, prec, shift) in coeffs.items():
        classes.setdefault((prec, shift), {})[beta] = r
    for table in classes.values():
        binomial_transform(table, transpose=True)
    return _merge_terms(model, [((r, prec, shift), kappa, True)
                                for (prec, shift), table in classes.items()
                                for kappa, r in table.items()])


def _expand_terms(model, terms, T):
    """Coefficient table of sum a_j delta_{g_j} up to degree T:
    c_alpha = sum_j a_j prod_i C(g_ji, alpha_i) for |alpha| <= T.

    A point's row on axis i holds C(x, k) mod p^(W - v_p(k!)) for
    k <= kmax, the cached row ``binom(p, W, x, kmax)`` at the coordinate
    residue x mod p^W (W the model's ``elem_prec``), one lookup per
    distinct (x, kmax); kmax is T, or the coordinate itself when
    it is exact, nonnegative and below T, since C(x, k) vanishes exactly
    for integer x < k.  The prec of C(x, k) does not depend on x, so the
    prec of a product of a coefficient (r, prec, shift) and row entries is
    min(prec, W - max_i v_p(alpha_i!)) whatever the point, and an entry of
    the table is the triple sum of those products (``add_triples`` rules)
    over the points that reach alpha.

    The last axis is summed by Kronecker substitution.  Each row of the
    last axis is packed into one int, entry k in the B-bit slot k, with
    B = bits(largest coefficient residue) + d * bits(p^W) + bits(#points) + 1:
    every coefficient residue (reduced) and row entry is nonnegative and
    below those bounds, so no sum of products carries out of its slot.
    Points of one class (shift, prec) that share their first d - 1 rows
    form a group, whose packed sum of a_j times the last row is one
    multiply-add per point, and which reaches as far on the last axis as
    its longest row.  Each group's first d - 1 axes are then expanded over
    the prefixes its rows reach, and each prefix adds the product of its
    row entries times the group's packed row to the class's packed int for
    that prefix.  Each class unpacks each of its slots once; an index that
    an earlier class reached is combined with it by the ``add_triples``
    rules: the largest shift and the least window.

    An index alpha is stored when some point reaches it, that is alpha_i <=
    kmax_i on every axis, at degree <= T, even when its value is zero.
    Residues are reduced mod p^prec."""
    p, d, W = model.p, model.d, model.elem_prec
    if d == 0:
        # no axis to pack: every term lands on the one index ()
        if not terms:
            return {}
        r, prec, shift = reduce(partial(add_triples, p), (a for a, _, _ in terms))
        return {(): (r % ppow(p, prec), prec, shift)}
    m = ppow(p, W)
    rows = {}
    points = []
    top = K = 0
    for (r, prec, shift), coords, exact in terms:
        keys = []
        for x in coords:
            kmax = x if exact and 0 <= x < T else T
            key = (x % m, kmax)
            if key not in rows:
                rows[key] = binom(p, W, *key)
                if kmax > K:
                    K = kmax
            keys.append(key)
        r %= ppow(p, prec)
        if r > top:
            top = r
        points.append((r, (shift, prec), tuple(keys[:-1]), keys[-1]))
    if not points:
        return {}
    B = top.bit_length() + d * m.bit_length() + len(points).bit_length() + 1
    mask = (1 << B) - 1

    # one [last kmax, packed int] per group: the points of one class with
    # the same rows but the last
    packed = {}
    groups = {}
    for r, cls, head, key in points:
        row = packed.get(key)
        if row is None:
            row = packed[key] = sum(c << (k * B) for k, c in enumerate(rows[key]))
        e = groups.get((cls, head))
        if e is None:
            groups[cls, head] = [key[1], r * row]
        else:
            e[1] += r * row
            if key[1] > e[0]:
                e[0] = key[1]

    # each group adds its packed row times the product of its prefix row
    # entries to its class, per prefix, with the last k it reaches there
    sums = {}
    for (cls, head), (last, total) in groups.items():
        acc = sums.setdefault(cls, {})
        level = [((), 1, T)]
        for key in head:
            row, kmax = rows[key], key[1]
            level = [(pi + (k,), c * row[k], budget - k) for pi, c, budget in level
                     for k in range(budget + 1 if budget < kmax else kmax + 1)]
        for pi, c, budget in level:
            cap = last if last < budget else budget
            e = acc.get(pi)
            if e is None:
                acc[pi] = [cap, c * total]
            else:
                e[1] += c * total
                if cap > e[0]:
                    e[0] = cap

    vpf = [0]
    for k in range(1, K + 1):
        vpf.append(vpf[-1] + (vp_int(k, p) if k % p == 0 else 0))
    out = {}
    for (shift, cprec), acc in sums.items():
        precs = [min(cprec, W - v) for v in range(vpf[-1] + 1)]
        mods = [ppow(p, prec) for prec in precs]
        for pi, (cap, v) in acc.items():
            vp_pi = max(map(vpf.__getitem__, pi), default=0)
            for k in range(cap + 1):
                q = vpf[k] if vpf[k] > vp_pi else vp_pi
                alpha = pi + (k,)
                e = out.get(alpha)
                if e is None:
                    out[alpha] = ((v & mask) % mods[q], precs[q], shift)
                else:
                    r, prec, s = add_triples(p, e, (v & mask, precs[q], shift))
                    out[alpha] = (r % ppow(p, prec), prec, s)
                v >>= B
    return out


def _terms_coeff_bound(model, terms) -> NormValue:
    """Uniform bound on expansion coefficients of a Dirac combination: the
    largest magnitude bound of an a_j."""
    return max((triple_bound(model.p, a) for a, _, _ in terms), default=_ZERO)
