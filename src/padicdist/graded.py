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
which that order reduces to dividing homogenized basis elements by powers of
e0 (see ``saturate``).  For an ideal J homogeneous in total degree the same
theorem gives in(J : e0^infinity) = in(J) : e0^infinity (Bayer-Stillman,
Invent. Math. 87, 1987), so a grade, which depends only on initial ideals, is
read off J's own leads with e0 struck out (see ``grade_cyclic``).
"""

from __future__ import annotations

import functools
import heapq
from math import inf
from operator import mul
import re

from .padic import PadicError, _check_prime, as_int, int_tuple, radius_exponent


class GradedError(PadicError):
    pass


class AmbientMismatch(GradedError):
    pass


class GradedAmbient:
    """Parameters (p, d, s) shared by all polynomials of one ring, with
    omega = 1 on every generator.  The third argument is kept only for
    callers that still pass the weights; it must be d ones.  s is read as
    ``distalg.RadiusParam`` reads it (``padic.radius_exponent``)."""

    __slots__ = ("p", "d", "s")

    def __init__(self, p, d, omegas, s):
        p, d = _check_prime(p, GradedError), as_int(d, GradedError, "dimension d")
        if d < 0:
            raise GradedError(f"dimension d must be >= 0, got {d}")
        if tuple(omegas) != (1,) * d:
            raise GradedError(f"every generator weight omega must be 1, got {tuple(omegas)}")
        s = radius_exponent(s, GradedError)
        for name, value in (("p", p), ("d", d), ("s", s)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("GradedAmbient is immutable")

    def __eq__(self, other):
        return other is self or (
            isinstance(other, GradedAmbient)
            and (self.p, self.d, self.s) == (other.p, other.d, other.s)
        )

    def __hash__(self):
        return hash((self.p, self.d, self.s))

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
            # e0's exponent, the last, may be negative
            if min(key) < 0 and min(key[:-1], default=0) < 0:
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
    - the lcm is the field-wise minimum, with the degree recomputed from the
      sum of its fields, taken two fields at a time: the even fields, and the
      odd ones shifted down, each lie one to a 2W-bit chunk, and a number's
      chunks sum to it mod 2^2W - 1.
    A term built out of range sets the guard of its lowest field out of range,
    and the engine raises ``_FieldOverflow`` there, as ``pack`` does for an
    exponent out of range; its callers then redo the whole call at twice the
    width, from 16 (``_widening``), so that no key ever wraps.  A layout whose
    chunk sums could reach that modulus (2^(W+2) - 1 exponents or more)
    raises it on construction."""

    __slots__ = ("n", "width", "off", "base", "low", "guards", "top", "mask", "shifts",
                 "weights", "evens", "chunk_mod", "enc", "dec")

    def __init__(self, n, width):
        # lcm sums (n+1)//2 fields, each below 2^(W-1), in one chunk
        if (n + 1) // 2 << width - 1 >= (1 << 2 * width) - 1:
            raise _FieldOverflow
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
        self.evens = sum(self.mask << s for s in self.shifts[::2])
        self.chunk_mod = (1 << 2 * width) - 1
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
        evens, mod = self.evens, self.chunk_mod
        deg = self.n * self.off - (low & evens) % mod - (low >> self.width & evens) % mod
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
    lguards = [div[1] for div in divisors]
    rem = {}
    while work:
        m = max(work)
        c = work.pop(m)
        mlow = m & low
        for i, lguard in enumerate(lguards):
            if (lguard - mlow) & guards == guards:
                lm, _, inv, tail = divisors[i]
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


def _spoly(f, g, l, p, lay):
    """S-polynomial of two divisors whose leads have the lcm l; the leads
    cancel and are never formed."""
    (lf, _, cf, tf), (lg, _, cg, tg) = f, g
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
    queued with it stay.  So every element outside the final ``active`` has a
    lead that an active lead divides, and every element the loop adds is
    reduced by the ``active`` of its time, so that no earlier lead divides
    its lead; only a generator can tie with an earlier lead or be divided by
    one.  The minimal basis is therefore read off ``active`` and the
    generators (``_reduce_basis``)."""
    gens = [g for g in gens if g]
    if not gens:
        return _Basis(None, [], [])
    n = len(next(iter(gens[0])))
    return _widening(_MIN_WIDTH, lambda w: _buchberger_packed(gens, p, _layout(n, w)))


def _buchberger_packed(gens, p, lay):
    """``_buchberger`` on the keys of the layout lay."""
    basis = [lay.pack(g) for g in gens]
    lcm, low, guards, top = lay.lcm, lay.low, lay.guards, lay.top
    divs, pairs = [], []
    # the active elements and their divisors, in the same order
    active, reducers = [], []

    def update(k):
        nonlocal pairs, active, reducers
        h, hguard = divs[k][:2]
        hdeg = h >> top
        # (lcm with h, its fields with the guards set, partner, coprime) for
        # each active partner; partners whose lead h divides leave ``active``
        cands, stay = [], []
        for t, (lt, _, _, _) in zip(active, reducers):
            l = lcm(h, lt)
            # the lcm is the product exactly when the degrees add
            cands.append((l, l & low | guards, t, l >> top == hdeg + (lt >> top)))
            stay.append((hguard - (lt & low)) & guards != guards)
        # M and F: drop a new pair whose lcm another new pair's lcm divides,
        # keeping one of each equal lcm; coprime pairs stay to the end as
        # witnesses, then go by the product criterion
        kept = []
        for n, cand in enumerate(cands):
            if cand[3]:
                kept.append(cand)
                continue
            llow = cand[1] ^ guards
            for o in kept:
                if (o[1] - llow) & guards == guards:
                    break
            else:
                for o in cands[n + 1:]:
                    if (o[1] - llow) & guards == guards:
                        break
                else:
                    kept.append(cand)
        # B: an old pair (i, j) goes when h divides its lcm and neither lcm
        # with h equals it; an active partner's lcm with h is in cands
        old, pairs, with_h = pairs, [], None
        for pr in old:
            l, i, j = pr
            if (hguard - (l & low)) & guards == guards:
                if with_h is None:
                    with_h = {t: lh for lh, _, t, _ in cands}
                if ((with_h[i] if i in with_h else lcm(divs[i][0], h)) != l
                        and (with_h[j] if j in with_h else lcm(divs[j][0], h)) != l):
                    continue
            pairs.append(pr)
        pairs.extend((l, k, t) for l, _, t, coprime in kept if not coprime)
        heapq.heapify(pairs)
        if not all(stay):
            active = [t for t, s in zip(active, stay) if s]
            reducers = [d for d, s in zip(reducers, stay) if s]
        active.append(k)
        reducers.append(divs[k])

    for k, b in enumerate(basis):
        divs.append(_divisor(b, p, lay))
        update(k)
    while pairs:
        l, i, j = heapq.heappop(pairs)
        r = _reduce(_spoly(divs[i], divs[j], l, p, lay), reducers, p, lay)
        if r:
            basis.append(r)
            divs.append(_divisor(r, p, lay))
            update(len(basis) - 1)
    return _reduce_basis(basis, divs, active, len(gens), p, lay)


def _reduce_basis(basis, divs, active, ngens, p, lay) -> _Basis:
    """Minimalize, then inter-reduce and make monic (the reduced basis), given
    each element's divisor, the pair loop's final ``active`` and the number
    of generators, which come first.  Among elements with equal leads the
    first is kept, so a basis of one generator keeps that generator's term
    order.

    The minimal elements are found among ``active`` and the generators alone:
    an element outside both has a lead that an active lead divides, and no
    later one (``_buchberger``).  An active element the loop added is always
    minimal, as no other lead divides its own; a generator is dropped when
    another candidate's lead divides its lead, unless the two are equal and
    the generator comes first."""
    low, guards = lay.low, lay.guards
    cands = sorted(set(active).union(range(ngens)))
    keep = []
    for i in cands:
        if i < ngens:
            lm = divs[i][0]
            mlow = lm & low
            if any(j != i and (divs[j][1] - mlow) & guards == guards
                   and (divs[j][0] != lm or j < i) for j in cands):
                continue
        keep.append(i)
    kept = [divs[i] for i in keep]
    out = []
    for i, div in zip(keep, kept):
        lead = div[0]
        others = [d for d in kept if d is not div]
        r = _reduce(dict(basis[i]), others, p, lay) if others else dict(basis[i])
        f = pow(r[lead], -1, p)
        if f != 1:
            r = {m: c * f % p for m, c in r.items()}
        out.append((lead, r))
    out.sort(key=lambda lr: lr[0])
    return _Basis(lay, [r for _, r in out],
                  [(lead, lead & low | guards, 1, [(m, c) for m, c in r.items() if m != lead])
                   for lead, r in out])


# -- ideals -----------------------------------------------------------------


class GradedIdeal:
    """An ideal of F_p[e0, X_1..X_d] given by generators with e0-exponent >= 0."""

    __slots__ = ("ambient", "_gens", "_packed", "_saturated")

    def __init__(self, ambient: GradedAmbient, gens):
        self.ambient = ambient
        gens = tuple(gens)
        for g in gens:
            if g.ambient != ambient:
                raise AmbientMismatch("generator from a different ambient")
            if g.min_e0_exponent < 0:
                raise GradedError("ideal generators must have e0-exponents >= 0")
        self._gens = tuple(g for g in gens if not g.is_zero)
        self._packed = None
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
        """The generators given, or the basis decoded afresh if none were."""
        if self._gens is None:
            return tuple(self.basis_polys())
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
        """The reduced basis as fresh exponent dicts, smallest lead first."""
        return self._basis().unpack()

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
        unpack, clean = lay.unpack, GradedPoly._clean
        return clean(amb, unpack(rem)), [clean(amb, unpack(c) if c else {}) for c in cof]

    def basis_polys(self):
        return [GradedPoly._clean(self.ambient, b) for b in self.groebner_raw()]

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

    Each generator f of I becomes f^h = h^deg(f) * f(X/h, e0/h) with a new
    variable h just before e0, and J = <f^h>.  Setting h = 1 commutes with
    saturating at e0:
    - if e0^k * F lies in J, setting h = 1 puts e0^k * F(h=1) in I;
    - if e0^k * f = sum a_i * f_i in I, homogenizing that identity gives
      h^m * e0^k * f^h = sum h^(m_i) * a_i^h * f_i^h in J for some m, m_i >= 0,
      so h^m * f^h lies in J : e0^infinity, and setting h = 1 returns f.
    So setting h = 1 in a basis of J : e0^infinity gives generators of
    I : e0^infinity; a second Buchberger run makes them the reduced basis,
    as setting h = 1 can change which term leads.  Every ideal takes these
    two runs, homogeneous or not; I's own basis is not built for them.

    The ideal returned is marked saturated, and saturating a marked ideal
    returns it as it is."""
    if ideal._saturated:
        return ideal
    p = ideal.ambient.p
    homog = []
    for g in ideal.gens:
        top = max(sum(m) for m in g.terms)
        homog.append({m[:-1] + (top - sum(m), m[-1]): c for m, c in g.terms.items()})
    divided = []
    for b in _buchberger(homog, p).unpack():
        # each element is homogeneous, so dropping h merges no two terms
        k = min(m[-1] for m in b)
        divided.append({m[:-2] + (m[-1] - k,): c for m, c in b.items()})
    return GradedIdeal._from_basis(ideal.ambient, _buchberger(divided, p), True)


def _homogeneous(gens) -> bool:
    """Whether every generator (an exponent dict) is homogeneous in total
    degree, the grading Bayer's criterion needs (not the grading degree)."""
    return all(len({sum(m) for m in g}) == 1 for g in gens)


def krull_dim(ideal: GradedIdeal) -> int:
    """Krull dimension of F_p[e0, X]/I, from the leads of I's reduced basis."""
    return _independent_dim(_lead_supports(ideal._basis()), ideal.ambient.d + 1)


def _lead_supports(basis: _Basis, strike_e0=False):
    """Each lead's support as a bitmask of exponent slots, the guard bit of
    each field that is not OFF (a nonzero exponent), e0's field left out if
    asked.  A field's xor with OFF lies below its guard, and is nonzero
    exactly when adding the guard less one reaches the guard."""
    if not basis:
        return []
    lay = basis.lay
    guards = lay.guards
    if strike_e0:
        guards ^= 1 << lay.top - 1
    fill, base, low = guards - (guards >> lay.width - 1), lay.base, lay.low
    return [((div[0] ^ base) & low) + fill & guards for div in basis.divs]


def _independent_dim(supports, nvars) -> int:
    """Krull dimension of F_p[x_1..x_nvars]/M for the monomial ideal M whose
    generators have these supports: the size of the largest set of variables
    that holds no support (an independent set modulo M); -1 for the unit
    ideal, the zero ring.  A set holds no support exactly when the variables
    outside it meet every support, so the dimension is nvars less the least
    number of variables that meets every support (``_least_cover``)."""
    if 0 in supports:
        return -1
    return nvars - _least_cover(sorted(set(supports), key=lambda s: (s.bit_count(), s)), nvars)


def _least_cover(supports, bound):
    """The least number of variables that meets every support (bitmasks,
    smallest first), or bound if that is less.  A support no chosen variable
    meets yet needs one of its own variables, so the search branches on the
    variables of the smallest such support, those in the most supports
    first; a variable that is a support on its own is taken without a branch.
    Supports that share no variable need one variable each, so a branch with
    more of them than it may take is dropped."""
    forced = 0
    for s in supports:
        if s & s - 1:
            break
        forced |= s
    if forced:
        taken = forced.bit_count()
        if taken >= bound:
            return bound
        return taken + _least_cover([s for s in supports if not s & forced], bound - taken)
    if not supports:
        return 0
    met = need = 0
    for s in supports:
        if not s & met:
            met |= s
            need += 1
    if need >= bound:
        return bound
    smallest = supports[0]
    options = []
    while smallest:
        var = smallest & -smallest
        smallest ^= var
        options.append((-sum(1 for s in supports if s & var), var))
    for _, var in sorted(options):
        bound = min(bound, 1 + _least_cover([s for s in supports if not s & var], bound - 1))
    return bound


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
