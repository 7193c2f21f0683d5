"""The distribution algebra of a builtin group model.

A distribution is held as a finite coefficient table over the monomials
b^alpha = (h_1-1)^a1 ... (h_d-1)^ad up to a total-degree cutoff T,
together with one ``Enclosure`` of everything it does not hold exactly: an
error bound on each stored entry beyond its window, and lines (C, t), each
asserting |d_alpha| <= C * p^(t * tau(alpha)), that hold at every alpha of
degree above T or at every alpha.  The head is complete to T: every reader
reads an unstored index of degree <= T as zero, to within the stored error.

Every head entry (``coeffs``) and every coefficient of the Dirac witness
(``dirac_terms``) is stored as a triple of ints (residue, prec, shift), the
value p^-shift * residue known mod p^(prec - shift), with the residue
reduced mod p^prec as PadicScalar keeps it.  Sums, valuations and
magnitude bounds follow the triple rules of ``padic``; a product takes the
least prec and adds the shifts.  PadicScalars appear only at the edge:
``as_triple`` reads the rational, PadicScalar or triple coefficients that
the constructors take, and ``Distribution.coeff`` builds the PadicScalar
of an entry; a caller's multi-index is read by ``padic.int_tuple`` (d
nonnegative integral entries, else DistError).
Exact tables, Dirac witnesses and ``mahler``'s coset tables drop a zero only
by ``known_zero`` (a window of at least N + 2, the narrowest of a binomial
row); inexact tables keep their zeros.

A witness term is (triple, coords, exact): the point is its int chart
coordinates, exact or residues mod p^W, on which ``model.law`` acts, from
``_merge_terms`` to ``mahler.finite_level_project``.  Every result with a
witness is built by one rule (``_from_witness``): exact when each point is
exact in N^d with degree <= T, else capped at growth 0 by max_j |a_j|.

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
    as_int,
    as_items,
    as_pairs,
    as_rational,
    binom,
    binomial_transform,
    fraction_triple,
    int_tuple,
    ppow,
    radius_exponent,
    require_triple,
    triple_exponent,
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
        object.__setattr__(self, "s", radius_exponent(s, DistError))

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
    so a set of lines bounds by its least line at each alpha.  The head is
    complete to its T: ``stored`` bounds the error of each stored entry
    beyond its window and of each unstored index of degree <= T, a zero;
    the ``unstored`` lines hold at every alpha of degree above T, the
    ``cap`` lines at every alpha.  ``EXACT`` (stored 0, the one unstored
    line (0, 0)) says the stored entries are the distribution; the default
    bounds nothing past T.  An unknown d_alpha of degree <= T is stored as
    an uncertain entry, such as (0, 1, 1): |d| <= 1.  A bound that is not a
    NormValue, or a growth that is not an int or a Fraction, is refused
    with DistError.
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
        """The least C p^(g tau) over the lines of growth g <= t, which hold
        at every unstored alpha of degree above T; None for none."""
        if not tau:
            return min((C for C, g in self.unstored + self.cap if g <= t), default=None)
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


def as_triple(model: GroupModel, c, error):
    """The stored form of a caller's coefficient: a PadicScalar of the
    model's prime, a rational (``as_rational``) at the model's working
    precision, or a (residue, prec, shift) triple of integers (``int_tuple``)
    read as the PadicScalar it names, a prec below 1 refused with
    PrecisionExhausted; anything else, or a shift below 0, with ``error``."""
    if isinstance(c, PadicScalar):
        if c.p != model.p:
            raise error(f"coefficient {c!r} is not a scalar of p = {model.p}")
        return c.triple
    if isinstance(c, tuple):
        r, prec, shift = int_tuple(c, 3, error, "(residue, prec, shift) triple of ints")
        if shift < 0:
            raise error(f"coefficient {c!r} has a shift below 0")
        return PadicScalar(model.p, prec, r, shift).triple
    return fraction_triple(model.p, as_rational(c, error, "coefficient"), model.elem_prec)


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
    ``scale`` also take what ``as_triple`` reads.  An exact table keeps no
    ``known_zero`` entry.

    ``enclosure`` bounds what the table does not hold exactly, the head
    being complete to T; ``exact`` says that it is ``Enclosure.EXACT``.
    A result with a witness takes its enclosure from the witness rule
    (``_from_witness``).  What the Dirac decomposition of a head without one
    leaves out (its tail, its unstored zeros and the errors of its entries)
    has coefficients bounded by the enclosure's ``gap``; ``mul``,
    ``conjugate`` and ``change_basis`` take that bound from there.
    """

    __slots__ = ("model", "coeffs", "T", "enclosure", "dirac_terms", "_profile")

    def __init__(self, model, coeffs, T, enclosure=Enclosure()):
        T = truncation(T)
        coeffs = {_multi_index(model, a): c
                  for a, c in as_items(coeffs, DistError, "coefficient table")}
        for alpha, c in coeffs.items():
            if sum(alpha) > T:
                raise DistError(f"stored index {alpha} exceeds truncation weight {T}")
            require_triple(model.p, alpha, c, DistError)
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
        return cls(model, {_multi_index(model, alpha): (1, model.elem_prec, 0)}, T,
                   Enclosure.EXACT)

    @classmethod
    def dirac(cls, g: GroupElement, T=None) -> "Distribution":
        return cls.dirac_combination(g.model, [(1, g)], T)

    @classmethod
    def dirac_combination(cls, model, terms, T=None) -> "Distribution":
        """sum a_j delta_{g_j}; the term list is retained as an exact witness."""
        T = model.max_weight if T is None else truncation(T)
        terms = as_pairs(terms, DistError, "terms")
        for _, g in terms:
            if not isinstance(g, GroupElement):
                raise DistError(f"term point {g!r} is not a GroupElement")
        model._require_elements(*(g for _, g in terms))
        return _from_witness(model, _merge_terms(
            model, [(as_triple(model, a, DistError), g.coords, g.exact) for a, g in terms]), T)

    @classmethod
    def from_coeffs(cls, model, table, T, enclosure=Enclosure.EXACT) -> "Distribution":
        """Build from an explicit coefficient table (exact by default), its
        coefficients read by ``as_triple``.  The constructor drops the
        ``known_zero`` entries of an exact table; a zero known on a window
        narrower than N + 2 stays, as an uncertain entry."""
        return cls(model, {a: as_triple(model, c, DistError)
                           for a, c in as_items(table, DistError, "coefficient table")},
                   T, enclosure)

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
        or the stored error (which bounds the unstored indices up to T)
        where larger; None without a growth-0 line.  Read off the r-norm
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
        c = as_triple(self.model, c, DistError)
        cup = NormValue(triple_exponent(p, c))
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
        smaller T, with the larger stored error.  At each growth t of either
        operand's lines, the sum's line is the larger of the operands' least
        lines at t, and its unstored line also covers the indices cut off
        at T; an exact operand's cap is its stored sup.  (The union of the
        operands' lines would not do: each line bounds on its own, so the
        union would certify the tighter operand's bound for the sum.)  An
        inexact sum keeps the operands' Dirac witnesses, an exact one's
        derived; an exact sum derives its own on demand.

        Each operand is read once: its head as the least ``triple_exponent``
        per degree (``_least_exponents``), for an exact operand's cap and
        the cut indices, and its lines by one sweep over the ascending
        growths (``_least_lines``); ``_least_cover`` reads the head's
        exponents in ints."""
        self.model._require_same(other.model)
        exact = self.exact and other.exact
        T = max(self.T, other.T) if exact else min(self.T, other.T)
        keys = {a for a in chain(self.coeffs, other.coeffs) if sum(a) <= T}
        p = self.model.p
        zero = (0, self.model.elem_prec, 0)
        coeffs = {}
        for a in keys:
            r, prec, shift = add_triples(p, self.coeffs.get(a, zero), other.coeffs.get(a, zero))
            coeffs[a] = r % ppow(p, prec), prec, shift
        e1, e2 = self.enclosure, other.enclosure
        herr = max(e1.stored, e2.stored)
        if exact:
            enclosure = Enclosure.EXACT
        else:
            growths = sorted({g for e in (e1, e2) for _, g in e.unstored + e.cap})
            # the indices past T up to an operand's own T: a stored entry by
            # its magnitude bound, and any by the stored error, whose least
            # cover over those degrees is set at their two ends
            cut, reads = [], []
            for x in (self, other):
                enc = x.enclosure
                least = _least_exponents(p, x.coeffs) if x.exact or x.T > T else {}
                if x.T > T:
                    cut += [(k, e) for k, e in least.items() if k > T]
                    cut += [(k, enc.stored.exponent) for k in (T + 1, x.T)]
                caps = ([_least_cover(least.items(), t) for t in growths] if x.exact
                        else _least_lines(enc.cap, growths))
                reads.append((_least_lines(enc.unstored + enc.cap, growths), caps))
            (bounds1, caps1), (bounds2, caps2) = reads
            unstored, cap = [], []
            for t, a, b, aa, bb in zip(growths, bounds1, bounds2, caps1, caps2):
                if a is None or b is None:
                    continue
                if aa is not None and bb is not None:
                    cap.append((max(aa, bb), t))
                unstored.append((max(a, b, _least_cover(cut, t)), t))
            enclosure = Enclosure(herr, unstored, cap)
        terms = None
        if all(x.dirac_terms is not None or x.exact and not exact for x in (self, other)):
            terms = _merge_terms(self.model, self._exact_terms() + other._exact_terms())
        return Distribution._clean(self.model, coeffs, T, enclosure, terms)

    def __sub__(self, other: "Distribution") -> "Distribution":
        return self + (-other)

    # -- multiplication ----------------------------------------------------

    def mul(self, other: "Distribution", T=None, s_work=None) -> "Distribution":
        """Noncommutative convolution via Dirac decomposition of the heads.

        The product of two witnesses is a witness result (``_from_witness``),
        any other has the stored error max(gap1 sup2, gap2 sup1) and the cap
        line sup1 sup2.  ``s_work``, one s or a tuple or list of them, attaches
        to an inexact product a cap line at growth s: the product of the
        factors' norm upper bounds at r = p^(-s)."""
        self.model._require_same(other.model)
        model = self.model
        T = min(self.T, other.T) if T is None else truncation(T)
        t1 = self._exact_terms()
        t2 = other._exact_terms()
        if t1 is not None and t2 is not None:
            out = _from_witness(model, _merge_terms(model, _products(model, t1, t2)), T)
            if out.exact:
                return out
            coeffs, herr, cap, terms = out.coeffs, _ZERO, list(out.enclosure.cap), out.dirac_terms
        else:
            t1 = _head_to_dirac(model, self.coeffs) if t1 is None else t1
            t2 = _head_to_dirac(model, other.coeffs) if t2 is None else t2
            coeffs = _expand_terms(model, _merge_terms(model, _products(model, t1, t2)), T)
            sup1, sup2 = self.coeff_sup(), other.coeff_sup()
            herr, cap, terms = NormValue.unbounded(), [], None
            if sup1 is not None and sup2 is not None:
                herr = max(self.enclosure.gap * sup2, other.enclosure.gap * sup1)
                cap.append((sup1 * sup2, Fraction(0)))
        if s_work is not None:
            for r in map(RadiusParam, s_work if isinstance(s_work, (tuple, list)) else [s_work]):
                u1 = self.norm(r).upper
                u2 = other.norm(r).upper
                if not (u1.is_unbounded or u2.is_unbounded):
                    cap.append((u1 * u2, r.s))
        return Distribution._clean(model, coeffs, T, Enclosure(herr, (), cap), terms)

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
        An unstored index of degree <= T contributes the stored error,
        capped likewise, to the upper end; the unstored and cap lines bound
        the indices past T, read at degree T + 1.

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
        unknown valuation, the tail at degree T + 1 and the stored
        error.  The test reads the r-norm profile; only the leading entries
        are read from ``coeffs``.
        """
        from .graded import GradedAmbient, GradedPoly

        s = r.s
        if s >= 1:
            raise DistError("principal symbols require 1/p < r < 1 (s < 1)")
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

        # the image's points are in the new chart, on which model.law does
        # not act, so it keeps no witness
        image = self._map_support(act)
        return Distribution._clean(image.model, image.coeffs, image.T, image.enclosure)

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
            model._require_elements(g)
            x, x_inv = g.coords, law.pow(p, g.coords, -1)
            act = lambda coords, exact: (
                law.mul(p, law.mul(p, x, coords), x_inv), exact and g.exact)
        else:
            raise DistError(f"undefined conjugation action {g!r}")
        return self._map_support(act)

    def _map_support(self, act) -> "Distribution":
        """sum a_j delta_{act(g_j)} up to degree self.T; ``act`` maps a
        point's (coords, exact) to its image's.  Over the exact witness the
        image is the witness result (``_from_witness``); else over the Dirac
        decomposition of the head, with ``gap`` as the stored error and,
        where that is bounded, the cap line ``coeff_sup``, which bounds the
        decomposition's coefficients, integer combinations of entries."""
        model, T = self.model, self.T
        terms = self._exact_terms()
        witness = terms is not None
        if not witness:
            terms = _head_to_dirac(model, self.coeffs)
        merged = _merge_terms(model, ((a, *act(coords, exact)) for a, coords, exact in terms))
        if witness:
            return _from_witness(model, merged, T)
        herr = self.enclosure.gap
        cap = () if herr.is_unbounded else ((self.coeff_sup(), Fraction(0)),)
        return Distribution._clean(model, _expand_terms(model, merged, T), T,
                                   Enclosure(herr, (), cap))

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

    Each Heisenberg core is the head of its Dirac grid's witness result at
    T (``_commutation_core``, ``_from_witness``), built once per (a, g, T)
    and kept on the model for as long as it lives, with each entry's degree
    and verdict.
    Degrees add, tau(alpha + offset) = tau(alpha) + tau(offset): an entry
    is kept when its core degree is at most T - tau(offset), and its
    verdict bound tau(beta) + tau(gamma) - tau(alpha + offset) = a + g -
    tau(alpha) does not depend on the offset.
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
        if sum(alpha) > T:
            return {}, {}
        return {alpha: (1, model.elem_prec, 0)}, {alpha: True}
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
    coefficient at the working precision, the head at T of their witness
    result (``_from_witness``): the entries of the Dirac product of the two
    monomials.  When a = 0 or g = 0 every point is exact in N^d, so that
    result is exact and keeps no ``known_zero`` entry.  The verdict
    is that of v_p(c) >= max(0, a + g - tau(alpha)), None when the
    valuation of c is not known.  Computed once per model and (a, g, T)."""
    key = (a, g, T)
    core = model.commutation_cores.get(key)
    if core is None:
        p, W = model.p, model.elem_prec
        terms = _merge_terms(model, _products(
            model, [(((-1) ** (a - i) * comb(a, i), W, 0), (0, i, 0), True) for i in range(a + 1)],
            [(((-1) ** (g - j) * comb(g, j), W, 0), (j, 0, 0), True) for j in range(g + 1)]))
        head = _from_witness(model, terms, T).coeffs
        entries = []
        for alpha, c in head.items():
            tau = sum(alpha)
            v = triple_valuation(p, c)
            entries.append((tau, (alpha, c, None if v is None else v >= max(0, a + g - tau))))
        core = model.commutation_cores[key] = tuple(
            tuple(e for tau, e in entries if tau <= room) for room in range(T + 1))
    return core


def lie_generator(model: GroupModel, i: int, T=None) -> Distribution:
    """log(1 + b_i) truncated at degree T, with a certified growing tail."""
    i = as_int(i, DistError, "generator index")
    if not 0 <= i < model.d:
        raise DistError(f"generator index must be in 0..{model.d - 1}, got {i}")
    K = model.max_weight if T is None else truncation(T)
    if K < 1:
        raise DistError("truncation weight below the generator's weight")
    coeffs = {}
    p = model.p
    for k in range(1, K + 1):
        alpha = tuple(k if j == i else 0 for j in range(model.d))
        coeffs[alpha] = fraction_triple(p, Fraction((-1) ** (k + 1), k), model.elem_prec)
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
      ``unbounded`` when one of these is -inf.  A nonzero stored error is an
      uncertain level at every degree 0..T, for the unstored indices; where
      every index is stored, the entries' own bound is never below it.
    - ``tails``: the unstored and cap lines (C, t) give C + (s - t) tplus at
      s >= t, tplus = T + 1; the pairs (t D0, G), ascending, where
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
        # per degree |alpha|: [least certain v, its indices, least
        # uncertain v, least window]
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
        lower, floors, levels, valued = [], [], [], []
        bases = {}  # per degree, the least exponent of an uncertain bound
        head = herr  # the least exponent of a bound up to degree T, for coeff_sup
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
                head = min(head, w)
            elif vu is None:
                continue
            bases[tau] = H if w is None or H < w * D0 else w * D0
        if H != inf:
            bases = {**dict.fromkeys(range(lam.T + 1), H), **bases}
        uncertain, unbounded = [], False
        for tau, e in bases.items():
            for C, t in caps:
                if C - t * tau > e:
                    e = C - t * tau
            if e == -inf:
                unbounded = True
            elif e != inf:
                uncertain.append((tau, e))

        tplus = lam.T + 1
        tails = []
        for t, G in sorted((scaled(t), scaled(C) - scaled(t) * tplus) for C, t in lines):
            if not tails or G > tails[-1][1]:
                tails.append((t, G))

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
        tail0 = enc.bound(0, 0)
        self.sup = None if tail0 is None else NormValue(min(tail0.exponent, head))

    def scale(self, s: Fraction):
        """(k, S, D) at s: the common denominator D = lcm(D0, s's), k = D / D0
        and S = s D."""
        b = s.denominator
        D = b if self.D0 == 1 else lcm(self.D0, b)
        return D // self.D0, s.numerator * (D // b), D

    def tail(self, k: int, S: int):
        """The tightest tail term at degree T + 1, scaled by D: +inf when
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
    """The least C with p^-e <= C p^(t tau) for every (tau, e) in bounds, a
    bound given by its exponent e: p^-(min e + t tau); zero for none.  At
    t = a/b the exponents are compared scaled by b, as the ints b e + a tau
    when every e is an int; a Fraction e (a stored error) makes its sum a
    Fraction, and an infinite one a float."""
    a, b = t.numerator, t.denominator
    return _norm_value(min((b * e + a * tau for tau, e in bounds), default=inf), b)


def _least_exponents(p, coeffs) -> dict:
    """{degree: the least ``triple_exponent`` of an entry of that degree}."""
    least = {}
    for alpha, c in coeffs.items():
        k = sum(alpha)
        e = triple_exponent(p, c)
        if least.get(k, inf) > e:
            least[k] = e
    return least


def _least_lines(lines, growths) -> list:
    """The least bound of the lines of growth at most t, for each t of the
    ascending growths (None before the first line): one sweep in growth
    order with a running minimum."""
    out, best, i = [], None, 0
    lines = sorted(lines, key=lambda line: line.growth)
    for t in growths:
        while i < len(lines) and lines[i].growth <= t:
            if best is None or lines[i].bound < best:
                best = lines[i].bound
            i += 1
        out.append(best)
    return out


def _norm_value(x, D: int) -> NormValue:
    """p^-(x / D) for a rational x, the int quotient when D divides x; an
    infinite x as it is."""
    if isinstance(x, float):
        return NormValue(x)
    q, r = divmod(x, D)
    return NormValue(Fraction(x, D) if r else q)


def _multi_index(model, alpha) -> tuple:
    """alpha as a tuple of d nonnegative ints (``int_tuple``), else DistError."""
    return int_tuple(alpha, model.d, DistError, "multi-index", nonnegative=True)


def _from_witness(model, terms, T) -> Distribution:
    """sum a_j delta_{g_j} up to degree T from its merged Dirac terms, the one
    constructor of a result with a witness: exact when every point is exact
    in N^d with degree <= T, else capped at growth 0 by max_j |a_j|, since
    |C(x, k)| <= 1 on Z_p."""
    coeffs = _expand_terms(model, terms, T)
    if all(exact and all(x >= 0 for x in coords) and sum(coords) <= T
           for _, coords, exact in terms):
        return Distribution._clean(model, coeffs, T, Enclosure.EXACT, terms)
    cap = NormValue(min(triple_exponent(model.p, a) for a, _, _ in terms))
    return Distribution._clean(model, coeffs, T, Enclosure(cap=((cap, Fraction(0)),)), terms)


def _merge_terms(model, terms, modulus=None):
    """The Dirac witness of terms (triple, coords, exact): terms whose points
    share their key, the coordinates mod ``modulus`` (p^W, or p^n for cosets),
    combined in first-reach order, residues reduced, without the ``known_zero``
    coefficients.  The merged point is the exact one when exact points reach
    the key and all have the same coordinates; else it is the key, an inexact
    residue point (only inexact points reach it, or two exact ones differ)."""
    p = model.p
    reduce_mod = (ppow(p, model.elem_prec) if modulus is None else modulus).__rmod__
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


def _products(model, t1, t2):
    """The terms of t1 x t2 pair by pair: least prec, shifts added, law on points."""
    law, p = model.law.mul, model.p
    return (((ra * rb, pa if pa < pb else pb, sa + sb), law(p, g, h), ge and he)
            for (ra, pa, sa), g, ge in t1 for (rb, pb, sb), h, he in t2)


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
