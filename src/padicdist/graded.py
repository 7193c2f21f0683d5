"""Graded rings F_p[e0^{+-1}][X_1..X_d] and commutative Groebner machinery.

The ring of a radius r = p^-s is fixed by (p, d, s): every generator has
omega = 1, so X_i has degree s, e0 (the class of p) degree 1, and the
monomial e0^e X^alpha degree e + s |alpha|.
Monomials are exponent tuples (a_1, ..., a_d, e) with the e0 exponent last.
Every Groebner basis is taken in one monomial order, graded reverse lex with
e0 the last and least variable.  Inside the Groebner engine a monomial is one
int, its packed key (``_Layout``), so that int comparison is the order and a
product, a quotient or a divisibility test is one int operation.  An ideal
keeps the reduced basis of its one Buchberger run packed, with its divisors
(``_Basis``); exponent tuples are decoded on demand, through tables per layout
that hold at most the distinct monomials seen at that width.  The Laurent
variable is handled by saturating ideals at e0 inside the polynomial ring,
which that order reduces to dividing basis elements by powers of e0 (see
``saturate``).  For an ideal J homogeneous in total degree the same theorem
gives in(J : e0^infinity) = in(J) : e0^infinity (Bayer-Stillman, Invent.
Math. 87, 1987), so a grade, which depends only on initial ideals, is read
off J's own leads with e0 struck out (see ``grade_cyclic``).
"""

from __future__ import annotations

from fractions import Fraction
import functools
import heapq
import itertools
from math import inf
from operator import mul
import re

from .padic import PadicError, _check_prime, as_int, int_tuple


class GradedError(PadicError):
    pass


class AmbientMismatch(GradedError):
    pass


class GradedAmbient:
    """Parameters (p, d, s) shared by all polynomials of one ring, with
    omega = 1 on every generator.  The third argument is kept only for
    callers that still pass the weights; it must be d ones."""

    __slots__ = ("p", "d", "s")

    def __init__(self, p, d, omegas, s):
        p, d = _check_prime(p, GradedError), as_int(d, GradedError, "dimension d")
        if d < 0:
            raise GradedError(f"dimension d must be >= 0, got {d}")
        if tuple(omegas) != (1,) * d:
            raise GradedError(f"every generator weight omega must be 1, got {tuple(omegas)}")
        for name, value in (("p", p), ("d", d), ("s", Fraction(s))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("GradedAmbient is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GradedAmbient)
            and (self.p, self.d, self.s) == (other.p, other.d, other.s)
        )

    def __hash__(self):
        return hash((self.p, self.d, self.s))

    def monomial_degree(self, mon) -> Fraction:
        """Grading degree e + s * |alpha| of a monomial."""
        return mon[-1] + self.s * sum(mon[:-1])

    def __repr__(self):
        return f"GradedAmbient(p={self.p}, d={self.d}, s={self.s})"


_TERM_RE = re.compile(r"^(e0|X(\d+))(?:\^(-?\d+))?$")


class GradedPoly:
    """Element of F_p[e0^{+-1}][X_1..X_d]; terms map monomials to units of F_p."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: GradedAmbient, terms):
        self.ambient = ambient
        p, n = ambient.p, ambient.d + 1
        self.terms = {}
        for mon, c in terms.items():
            # integral entries only, so that distinct monomials stay distinct
            key = int_tuple(mon, n, GradedError, "monomial")
            if min(key[:-1], default=0) < 0:
                raise GradedError("X exponents must be non-negative")
            c = as_int(c, GradedError, "coefficient") % p
            if c:
                self.terms[key] = c

    @classmethod
    def _clean(cls, ambient, terms) -> "GradedPoly":
        """Wrap terms already in the form ``__init__`` leaves them in (d+1
        ints per monomial, X exponents >= 0, units mod p), with no checks:
        for the Groebner engine's own outputs."""
        out = object.__new__(cls)
        out.ambient, out.terms = ambient, terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero_poly(cls, ambient) -> "GradedPoly":
        return cls(ambient, {})

    @classmethod
    def constant(cls, ambient, c) -> "GradedPoly":
        return cls(ambient, {(0,) * (ambient.d + 1): c})

    @classmethod
    def variable(cls, ambient, i: int) -> "GradedPoly":
        """X_i for 1 <= i <= d; i = 0 gives e0."""
        i = as_int(i, GradedError, "variable index")
        mon = [0] * (ambient.d + 1)
        if i == 0:
            mon[-1] = 1
        elif 1 <= i <= ambient.d:
            mon[i - 1] = 1
        else:
            raise GradedError(f"no variable with index {i}")
        return cls(ambient, {tuple(mon): 1})

    @classmethod
    def parse(cls, ambient, text: str) -> "GradedPoly":
        """Parse `c*e0^k*X1^a1*...` terms joined by `+` (negative k allowed)."""
        text = text.strip()
        if text in ("0", ""):
            return cls.zero_poly(ambient)
        terms = {}
        for term in text.split("+"):
            term = term.strip()
            if not term:
                raise GradedError("empty term in polynomial text")
            coeff = 1
            mon = [0] * (ambient.d + 1)
            for factor in term.split("*"):
                factor = factor.strip()
                m = _TERM_RE.match(factor)
                if m:
                    exp = int(m.group(3)) if m.group(3) is not None else 1
                    if m.group(1) == "e0":
                        mon[-1] += exp
                    else:
                        i = int(m.group(2))
                        if not 1 <= i <= ambient.d:
                            raise GradedError(f"variable X{i} out of range for d={ambient.d}")
                        if exp < 0:
                            raise GradedError("X exponents must be non-negative")
                        mon[i - 1] += exp
                else:
                    try:
                        coeff *= int(factor)
                    except ValueError:
                        raise GradedError(f"bad factor {factor!r} in polynomial text") from None
            key = tuple(mon)
            terms[key] = terms.get(key, 0) + coeff
        return cls(ambient, terms)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_e0_exponent(self) -> int:
        return min((m[-1] for m in self.terms), default=0)

    def degrees(self) -> set:
        return {self.ambient.monomial_degree(m) for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def _require_ambient(self, other):
        if self.ambient != other.ambient:
            raise AmbientMismatch("mixed graded ambients")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._require_ambient(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return GradedPoly(self.ambient, terms)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(self.ambient, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        self._require_ambient(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return GradedPoly(self.ambient, terms)

    def shift_e0(self, k: int) -> "GradedPoly":
        """Multiply by e0^k (k may be negative: the Laurent unit)."""
        return GradedPoly(
            self.ambient, {m[:-1] + (m[-1] + k,): c for m, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    __hash__ = None

    # -- display -----------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        # print order, an output format apart from the Groebner order: total
        # degree, then lex with e0 least significant
        for mon in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            c = self.terms[mon]
            factors = [str(c)]
            for i, a in enumerate(mon[:-1]):
                if a:
                    factors.append(f"X{i+1}" + (f"^{a}" if a != 1 else ""))
            if mon[-1]:
                factors.append("e0" + (f"^{mon[-1]}" if mon[-1] != 1 else ""))
            parts.append("*".join(factors))
        return "+".join(parts)

    def __repr__(self):
        return f"GradedPoly({self.to_text()})"


# -- the monomial order: packed keys ------------------------------------------


class _FieldOverflow(Exception):
    """A term the engine built has an exponent outside its layout's range."""


class _Layout:
    """Packed graded reverse lex keys of monomials with n exponents.

    The monomial (a_1, ..., a_n), e0 = a_n, is the one int

        (a_1 + ... + a_n) << n*W  +  sum over j of (OFF - a_{j+1}) << j*W

    with OFF = 2^(W-2): below the total degree come the W-bit fields
    OFF - a_n, ..., OFF - a_1, so that int comparison is the order (total
    degree first, then the smaller exponent of the last variable wins).  The
    top bit of each field is a guard that stays clear while every exponent
    lies in -2^(W-2) < a <= 2^(W-2); the degree takes no field of its own, as
    Python ints are signed and unbounded.  Then, with BASE the key of 1:
    - the product of two keys is k1 + k2 - BASE, their quotient k1 - k2 + BASE;
    - l divides m exactly when ((l_low | G) - m_low) & G == G, where _low
      keeps the fields and G is the guard mask: each field of l_low | G minus
      the one of m_low keeps its guard exactly when it is not smaller, and no
      field borrows from the next;
    - the lcm is the field-wise minimum, with the degree recomputed.
    A term built out of range sets the guard of its lowest field out of range,
    and the engine raises ``_FieldOverflow`` there, as ``pack`` does for an
    exponent out of range; its callers then redo the whole call at twice the
    width, from 16 (``_widening``), so that no key ever wraps."""

    __slots__ = ("n", "width", "off", "base", "low", "guards", "top", "mask", "shifts",
                 "weights", "enc", "dec")

    def __init__(self, n, width):
        self.n, self.width = n, width
        self.off = 1 << width - 2
        self.shifts = tuple(range(0, n * width, width))
        self.top = n * width
        self.base = sum(self.off << s for s in self.shifts)
        self.low = (1 << self.top) - 1
        self.guards = sum(1 << s + width - 1 for s in self.shifts)
        self.mask = (1 << width) - 1
        # a_j adds a_j to the degree and takes a_j from its field
        self.weights = tuple((1 << self.top) - (1 << s) for s in self.shifts)
        # exponent tuple -> key and back, filled on first use and dropped
        # with the layout, when ``_layout``'s cache is cleared
        self.enc, self.dec = {}, {}

    def pack(self, poly):
        """A dict on exponent tuples as the same dict on their keys, in its
        term order; ``_FieldOverflow`` for an exponent out of range."""
        enc = self.enc
        try:
            return {enc[m]: c for m, c in poly.items()}
        except KeyError:
            off, base, weights = self.off, self.base, self.weights
            for m in poly:
                if m not in enc:
                    if max(m) > off or min(m) <= -off:
                        raise _FieldOverflow from None
                    enc[m] = base + sum(map(mul, m, weights))
            return {enc[m]: c for m, c in poly.items()}

    def unpack(self, poly):
        """The inverse of ``pack``."""
        dec = self.dec
        try:
            return {dec[k]: c for k, c in poly.items()}
        except KeyError:
            off, mask, shifts = self.off, self.mask, self.shifts
            for k in poly:
                if k not in dec:
                    dec[k] = tuple([off - (k >> s & mask) for s in shifts])
            return {dec[k]: c for k, c in poly.items()}

    def lcm(self, a, b):
        a &= self.low
        b &= self.low
        # the guards where a's field is not below b's, then those fields'
        # value bits, where b's field (the larger exponent) is taken
        ge = ((a | self.guards) - b) & self.guards
        low = a ^ (a ^ b) & ge - (ge >> self.width - 1)
        mask = self.mask
        deg = self.n * self.off - sum([low >> s & mask for s in self.shifts])
        return (deg << self.top) + low


# the narrowest width: it leaves exponents up to 2^14 before a redo, and
# wider keys are longer ints, slower to add, compare and hash
_MIN_WIDTH = 16
_layout = functools.cache(_Layout)


def _widening(width, run):
    """run(width), redone at twice the width while a built term overflows."""
    while True:
        try:
            return run(width)
        except _FieldOverflow:
            width *= 2


# -- raw polynomial engine (dict packed key -> coeff in F_p): max is the lead --


def _divisor(poly, p, lay):
    """(lead, its fields with the guards set, inverse lead coefficient, tail)
    of a nonzero poly."""
    lm = max(poly)
    return (lm, lm & lay.low | lay.guards, pow(poly[lm], -1, p),
            [(m, c) for m, c in poly.items() if m != lm])


def _reduce(work, divisors, p, lay, cof=None):
    """Multivariate division, consuming work: work = sum q_i * divisor_i +
    remainder.  The largest remaining term goes first, to the first divisor
    whose lead divides it; cof, if given, is one dict per divisor and
    collects the q_i."""
    low, guards, base = lay.low, lay.guards, lay.base
    rem = {}
    while work:
        m = max(work)
        c = work.pop(m)
        mlow = m & low
        for i, (lm, lguard, inv, tail) in enumerate(divisors):
            if (lguard - mlow) & guards == guards:
                shift = m - lm
                f = c * inv % p
                if cof is not None:
                    # the popped terms strictly decrease, so the quotient is
                    # new to cof[i]
                    cof[i][shift + base] = f
                for bm, bc in tail:
                    t = shift + bm
                    if t & guards:
                        raise _FieldOverflow
                    nv = (work.get(t, 0) - f * bc) % p
                    if nv:
                        work[t] = nv
                    else:
                        del work[t]
                break
        else:
            rem[m] = c
    return rem


def _spoly(f, g, p, lay):
    """S-polynomial of two divisors; their leads cancel and are never formed."""
    (lf, _, cf, tf), (lg, _, cg, tg) = f, g
    l = lay.lcm(lf, lg)
    guards = lay.guards
    out = {}
    for shift, tail, scale in ((l - lf, tf, cf), (l - lg, tg, -cg)):
        for m, c in tail:
            t = shift + m
            if t & guards:
                raise _FieldOverflow
            out[t] = (out.get(t, 0) + c * scale) % p
    return {m: c for m, c in out.items() if c}


class _Basis:
    """A reduced basis as the engine holds it: its layout (None when empty),
    its polys in that layout, smallest lead first, and their divisors."""

    __slots__ = ("lay", "polys", "divs")

    def __init__(self, lay, polys, divs):
        self.lay, self.polys, self.divs = lay, polys, divs

    def __len__(self):
        return len(self.polys)

    def unpack(self):
        return [self.lay.unpack(b) for b in self.polys]


def _buchberger(gens, p) -> _Basis:
    """The reduced Groebner basis of plain exponent dicts, as the engine holds it.

    Pairs are taken smallest lcm first (the normal strategy), which keeps the
    degrees of intermediate polynomials low, and are pruned by Gebauer and
    Moeller's update (J. Symb. Comp. 6, 1988): criteria B, M and F and the
    product criterion.  ``active`` is their G: an element whose lead a later
    lead divides stops taking new pairs and dividing, though pairs already
    queued with it stay."""
    gens = [g for g in gens if g]
    if not gens:
        return _Basis(None, [], [])
    n = len(next(iter(gens[0])))
    return _widening(_MIN_WIDTH, lambda w: _buchberger_packed(gens, p, _layout(n, w)))


def _buchberger_packed(gens, p, lay):
    """``_buchberger`` on the keys of the layout lay."""
    basis = [lay.pack(g) for g in gens]
    lcm, low, guards, top = lay.lcm, lay.low, lay.guards, lay.top
    divs, active, pairs = [], [], []

    def update(k):
        nonlocal pairs, active
        h, hguard = divs[k][:2]
        cands = []
        for t in active:
            lt = divs[t][0]
            l = lcm(h, lt)
            # the lcm is the product exactly when the degrees add
            cands.append((l, t, l >> top == (h >> top) + (lt >> top)))
        # M and F: drop a new pair whose lcm another new pair's lcm divides,
        # keeping one of each equal lcm; coprime pairs stay to the end as
        # witnesses, then go by the product criterion
        kept = []
        for n, (l, t, coprime) in enumerate(cands):
            llow = l & low
            if coprime or not any(
                ((o[0] & low | guards) - llow) & guards == guards
                for o in itertools.chain(cands[n + 1:], kept)
            ):
                kept.append((l, t, coprime))
        # B: an old pair (i, j) goes when h divides its lcm and neither lcm
        # with h equals it
        pairs = [
            pr for pr in pairs
            if (hguard - (pr[0] & low)) & guards != guards
            or lcm(divs[pr[1]][0], h) == pr[0]
            or lcm(divs[pr[2]][0], h) == pr[0]
        ]
        pairs.extend((l, k, t) for l, t, coprime in kept if not coprime)
        heapq.heapify(pairs)
        active = [t for t in active if (hguard - (divs[t][0] & low)) & guards != guards] + [k]

    for k, b in enumerate(basis):
        divs.append(_divisor(b, p, lay))
        update(k)
    reducers = [divs[t] for t in active]
    while pairs:
        _, i, j = heapq.heappop(pairs)
        r = _reduce(_spoly(divs[i], divs[j], p, lay), reducers, p, lay)
        if r:
            basis.append(r)
            divs.append(_divisor(r, p, lay))
            update(len(basis) - 1)
            reducers = [divs[t] for t in active]
    return _reduce_basis(basis, divs, p, lay)


def _reduce_basis(basis, divs, p, lay) -> _Basis:
    """Minimalize, then inter-reduce and make monic (the reduced basis), given
    each element's divisor.  Among elements with equal leads the first is
    kept, so a basis of one generator keeps that generator's term order."""
    low, guards = lay.low, lay.guards
    keep = [i for i, (lm, _, _, _) in enumerate(divs) if not any(
        j != i and (dj[1] - (lm & low)) & guards == guards and (dj[0] != lm or j < i)
        for j, dj in enumerate(divs))]
    out, kept = [], [divs[i] for i in keep]
    for i in keep:
        lead = divs[i][0]
        others = [d for d in kept if d[0] != lead]
        r = _reduce(dict(basis[i]), others, p, lay) if others else dict(basis[i])
        f = pow(r[lead], -1, p)
        out.append({m: c * f % p for m, c in r.items()})
    out.sort(key=max)
    return _Basis(lay, out, [_divisor(b, p, lay) for b in out])


# -- ideals -----------------------------------------------------------------


class GradedIdeal:
    """An ideal of F_p[e0, X_1..X_d] given by generators with e0-exponent >= 0."""

    __slots__ = ("ambient", "_gens", "_gb", "_packed", "_saturated")

    def __init__(self, ambient: GradedAmbient, gens):
        self.ambient = ambient
        gens = tuple(gens)
        for g in gens:
            if g.ambient != ambient:
                raise AmbientMismatch("generator from a different ambient")
            if g.min_e0_exponent < 0:
                raise GradedError("ideal generators must have e0-exponents >= 0")
        self._gens = tuple(g for g in gens if not g.is_zero)
        self._gb = self._packed = None
        # set by ``saturate`` on the ideals it returns: I = I : e0^infinity
        self._saturated = False

    @classmethod
    def _from_basis(cls, ambient, basis: _Basis, saturated=False) -> "GradedIdeal":
        """The ideal a reduced basis from the engine generates, with that
        basis as its own; nothing is checked again."""
        out = cls(ambient, ())
        out._gens, out._packed, out._saturated = None, basis, saturated
        return out

    @property
    def gens(self):
        if self._gens is None:
            self._gens = tuple(self.basis_polys())
        return self._gens

    def _raw_gens(self):
        return [dict(g.terms) for g in self.gens]

    def _basis(self, width=0) -> _Basis:
        """The reduced basis, from this ideal's one ``_buchberger`` run, at a
        width of at least ``width``: repacked only when its own is narrower."""
        basis = self._packed
        if basis is None:
            basis = self._packed = _buchberger(self._raw_gens(), self.ambient.p)
        if basis and basis.lay.width < width:
            lay = _layout(basis.lay.n, width)
            polys = [lay.pack(b) for b in basis.unpack()]
            divs = [_divisor(b, self.ambient.p, lay) for b in polys]
            basis = self._packed = _Basis(lay, polys, divs)
        return basis

    def groebner_raw(self):
        if self._gb is None:
            self._gb = self._basis().unpack()
        return self._gb

    def _divide(self, poly, with_cof):
        """(layout, remainder, cofactors if asked for) of poly by the basis, packed."""

        def run(width):
            basis = self._basis(width)
            lay, divs = basis.lay, basis.divs
            cof = [{} for _ in divs] if with_cof else None
            return lay, _reduce(lay.pack(poly.terms), divs, self.ambient.p, lay, cof), cof

        return _widening(self._basis().lay.width, run)

    def groebner(self) -> "GradedIdeal":
        return GradedIdeal._from_basis(self.ambient, self._basis())

    def contains(self, poly: GradedPoly) -> bool:
        if poly.is_zero:
            return True
        return bool(self._basis()) and not self._divide(poly, False)[1]

    def reduce(self, poly: GradedPoly):
        """Normal form and cofactors w.r.t. the Groebner basis:
        poly = sum cof_i * basis_i + remainder."""
        if not self._basis():
            return poly, []
        amb = self.ambient
        lay, rem, cof = self._divide(poly, True)
        return (GradedPoly._clean(amb, lay.unpack(rem)),
                [GradedPoly._clean(amb, lay.unpack(c)) for c in cof])

    def basis_polys(self):
        return [GradedPoly._clean(self.ambient, dict(b)) for b in self.groebner_raw()]

    def same_ideal(self, other: "GradedIdeal") -> bool:
        return self.groebner_raw() == other.groebner_raw()

    def __repr__(self):
        return f"GradedIdeal({', '.join(g.to_text() for g in self.gens)})"


def saturate(ideal: GradedIdeal) -> GradedIdeal:
    """I : e0^infinity by Bayer's criterion: for an ideal J homogeneous in
    total degree, dividing each element of its Groebner basis in graded
    reverse lex with e0 last by the largest power of e0 dividing it gives a
    Groebner basis of J : e0^infinity (Bayer-Stillman, Invent. Math. 87, 1987;
    Eisenbud, Commutative Algebra, Prop. 15.12).

    When every generator of I is homogeneous, J is I: its basis is I's own,
    and the divided basis only needs inter-reducing, on packed keys (every
    S-pair of a Groebner basis reduces to zero, so ``_buchberger`` on it would
    end in the same ``_reduce_basis`` call on the same list).

    Otherwise each generator f becomes f^h = h^deg(f) * f(X/h, e0/h) with a
    new variable h just before e0, and J = <f^h>.  Setting h = 1 commutes
    with saturating at e0:
    - if e0^k * F lies in J, setting h = 1 puts e0^k * F(h=1) in I;
    - if e0^k * f = sum a_i * f_i in I, homogenizing that identity gives
      h^m * e0^k * f^h = sum h^(m_i) * a_i^h * f_i^h in J for some m, m_i >= 0,
      so h^m * f^h lies in J : e0^infinity, and setting h = 1 returns f.
    So setting h = 1 in a basis of J : e0^infinity gives generators of
    I : e0^infinity; a second Buchberger run makes them the reduced basis,
    as setting h = 1 can change which term leads.

    The ideal returned is marked saturated, and saturating a marked ideal
    returns it as it is."""
    if ideal._saturated:
        return ideal
    amb, p = ideal.ambient, ideal.ambient.p
    gens = [g.terms for g in ideal.gens]
    if _homogeneous(gens):

        def run(width):
            basis = ideal._basis(width)
            lay = basis.lay
            # each element's least e0 exponent, from its largest e0 field
            eshift, mask = lay.shifts[-1], lay.mask
            ks = [lay.off - max([m >> eshift & mask for m in b]) for b in basis.polys]
            if not any(ks):
                # a reduced basis that e0 divides nowhere is already the
                # divided one's reduced basis, term order included
                return basis
            # dividing by e0^k takes k times e0's weight from every key
            w = lay.weights[-1]
            polys = [{m - k * w: c for m, c in b.items()} if k else b
                     for b, k in zip(basis.polys, ks)]
            divs = [_divisor(b, p, lay) if k else d for b, k, d in zip(polys, ks, basis.divs)]
            return _reduce_basis(polys, divs, p, lay)

        basis = ideal._basis()
        return GradedIdeal._from_basis(amb, basis and _widening(basis.lay.width, run), True)
    homog = []
    for g in gens:
        top = max(sum(m) for m in g)
        homog.append({m[:-1] + (top - sum(m), m[-1]): c for m, c in g.items()})
    divided = []
    for b in _buchberger(homog, p).unpack():
        # each element is homogeneous, so dropping h merges no two terms
        k = min(m[-1] for m in b)
        divided.append({m[:-2] + (m[-1] - k,): c for m, c in b.items()})
    return GradedIdeal._from_basis(amb, _buchberger(divided, p), True)


def _homogeneous(gens) -> bool:
    """Whether every generator (an exponent dict) is homogeneous in total
    degree, the grading Bayer's criterion needs (not the grading degree)."""
    return all(len({sum(m) for m in g}) == 1 for g in gens)


def krull_dim(ideal: GradedIdeal) -> int:
    """Krull dimension of F_p[e0, X]/I, from the leads of I's reduced basis."""
    return _independent_dim(_lead_supports(ideal._basis()), ideal.ambient.d + 1)


def _lead_supports(basis: _Basis, strike_e0=False):
    """Each lead's support as a bitmask of exponent slots, bit i for slot i:
    the lead's fields that are not OFF, e0's field left out if asked."""
    if not basis:
        return []
    off, mask, shifts = basis.lay.off, basis.lay.mask, basis.lay.shifts
    if strike_e0:
        shifts = shifts[:-1]
    return [sum(1 << i for i, s in enumerate(shifts) if div[0] >> s & mask != off)
            for div in basis.divs]


def _independent_dim(supports, nvars) -> int:
    """Krull dimension of F_p[x_1..x_nvars]/M for the monomial ideal M whose
    generators have these supports: the size of the largest set of variables
    that holds no support (an independent set modulo M); -1 for the unit
    ideal, the zero ring."""
    if 0 in supports:
        return -1
    best = 0
    for subset in range(1 << nvars):
        size = subset.bit_count()
        if size > best and all(sup & ~subset for sup in supports):
            best = size
    return best


def grade_cyclic(J: GradedIdeal, d: int):
    """(d+1) - dim F_p[e0, X]/(J : e0^infinity), d that of J's ambient (else
    GradedError); inf marks the zero quotient.

    A Krull dimension depends only on the initial ideal, and for J
    homogeneous in total degree, in graded reverse lex with e0 last,
    in(J : e0^infinity) = in(J) : e0^infinity (Bayer-Stillman, Invent. Math.
    87, 1987; Eisenbud, Commutative Algebra, Prop. 15.12).  A monomial ideal
    saturated at e0 is generated by its generators with e0 struck out, so the
    dimension is read off the leads of J's own reduced basis, the one
    Buchberger run that ``reduce`` and ``contains`` share, with e0's field
    cleared; a lead that is a power of e0 strips to the unit.  For any other
    J, setting h = 1 in ``saturate`` can change the leads, and the dimension
    is that of the saturation's basis."""
    if d != J.ambient.d:
        raise GradedError(f"grade_cyclic: d={d!r} is not the ambient's d={J.ambient.d}")
    if _homogeneous([g.terms for g in J.gens]):
        supports = _lead_supports(J._basis(), strike_e0=True)
        dim = _independent_dim(supports, J.ambient.d + 1)
    else:
        dim = krull_dim(saturate(J))
    if dim == -1:
        return inf
    return (J.ambient.d + 1) - dim
