"""Graded rings F_p[e0^{+-1}][X_1..X_d] and commutative Groebner machinery.

Monomials are exponent tuples (a_1, ..., a_d, e) with the e0 exponent last.
Every Groebner basis is taken in one monomial order, graded reverse lex with
e0 the last and least variable.  The Laurent variable is handled by
saturating ideals at e0 inside the polynomial ring, which that order reduces
to dividing basis elements by powers of e0 (see ``saturate``).
"""

from __future__ import annotations

from fractions import Fraction
import heapq
from math import inf
import re

from .padic import PadicError, _check_prime


class GradedError(PadicError):
    pass


class AmbientMismatch(GradedError):
    pass


class GradedAmbient:
    """Parameters (p, d, omega, s) shared by all polynomials of one ring."""

    __slots__ = ("p", "d", "omegas", "s")

    def __init__(self, p, d, omegas, s):
        _check_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "omegas", tuple(Fraction(w) for w in omegas))
        object.__setattr__(self, "s", Fraction(s))

    def __setattr__(self, *a):
        raise AttributeError("GradedAmbient is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GradedAmbient)
            and (self.p, self.d, self.omegas, self.s)
            == (other.p, other.d, other.omegas, other.s)
        )

    def __hash__(self):
        return hash((self.p, self.d, self.omegas, self.s))

    def monomial_degree(self, mon) -> Fraction:
        """Grading degree e + s * tau(alpha) of a monomial."""
        alpha, e = mon[:-1], mon[-1]
        return e + self.s * sum(
            (Fraction(a) * w for a, w in zip(alpha, self.omegas)), Fraction(0)
        )

    def __repr__(self):
        return f"GradedAmbient(p={self.p}, d={self.d}, s={self.s})"


_TERM_RE = re.compile(r"^(e0|X(\d+))(?:\^(-?\d+))?$")


class GradedPoly:
    """Element of F_p[e0^{+-1}][X_1..X_d]; terms map monomials to units of F_p."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: GradedAmbient, terms):
        self.ambient = ambient
        p = ambient.p
        clean = {}
        for mon, c in terms.items():
            mon = tuple(int(x) for x in mon)
            if len(mon) != ambient.d + 1:
                raise GradedError(f"monomial {mon} has wrong length for d={ambient.d}")
            if any(a < 0 for a in mon[:-1]):
                raise GradedError("X exponents must be non-negative")
            c = c % p
            if c:
                clean[mon] = (clean.get(mon, 0) + c) % p
        self.terms = {m: c for m, c in clean.items() if c}

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
        if not self.terms:
            return 0
        return min(m[-1] for m in self.terms)

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


# -- the monomial order ------------------------------------------------------


def _key(mon):
    # graded reverse lex: total degree first, then the smaller exponent of the
    # last variable wins, so e0 (the last slot) is the least variable
    return (sum(mon), tuple(-x for x in reversed(mon)))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# -- raw polynomial engine (dict mon -> coeff in F_p) -----------------------


def _lead(poly):
    return max(poly, key=_key)


def _reduce(poly, basis, p, want_cofactors=False):
    """Multivariate division: poly = sum q_i * basis_i + remainder."""
    work = dict(poly)
    rem = {}
    cof = [dict() for _ in basis] if want_cofactors else None
    leads = [(_lead(b), b) for b in basis]
    while work:
        m = _lead(work)
        c = work.pop(m)
        for i, (lm, b) in enumerate(leads):
            if _mono_divides(lm, m):
                q = _mono_div(m, lm)
                f = (c * pow(b[lm], -1, p)) % p
                if want_cofactors:
                    cof[i][q] = (cof[i].get(q, 0) + f) % p
                for bm, bc in b.items():
                    t = _mono_mul(q, bm)
                    if t == m:
                        continue
                    nv = (work.get(t, 0) - f * bc) % p
                    if nv:
                        work[t] = nv
                    else:
                        work.pop(t, None)
                break
        else:
            rem[m] = c
    if want_cofactors:
        return rem, cof
    return rem


def _spoly(f, g, p):
    lf, lg = _lead(f), _lead(g)
    l = _mono_lcm(lf, lg)
    out = {}
    cf = pow(f[lf], -1, p)
    cg = pow(g[lg], -1, p)
    qf, qg = _mono_div(l, lf), _mono_div(l, lg)
    for m, c in f.items():
        t = _mono_mul(qf, m)
        out[t] = (out.get(t, 0) + c * cf) % p
    for m, c in g.items():
        t = _mono_mul(qg, m)
        out[t] = (out.get(t, 0) - c * cg) % p
    return {m: c for m, c in out.items() if c}


def _buchberger(gens, p):
    """Reduced Groebner basis; pairs are taken smallest lcm first (the normal
    strategy), which keeps the degrees of intermediate polynomials low."""
    basis = [dict(g) for g in gens if g]
    leads = [_lead(b) for b in basis]
    pairs = []

    def add_pairs(k):
        for t in range(k):
            l = _mono_lcm(leads[k], leads[t])
            if l != _mono_mul(leads[k], leads[t]):  # skip coprime leading monomials
                heapq.heappush(pairs, (_key(l), k, t))

    for k in range(len(basis)):
        add_pairs(k)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        r = _reduce(_spoly(basis[i], basis[j], p), basis, p)
        if r:
            basis.append(r)
            leads.append(_lead(r))
            add_pairs(len(basis) - 1)
    return _reduce_basis(basis, p)


def _reduce_basis(basis, p):
    """Minimalize, then inter-reduce and make monic (the reduced basis)."""
    basis = [b for b in basis if b]
    leads = [_lead(b) for b in basis]
    keep = []
    for i, lm in enumerate(leads):
        if any(
            j != i and _mono_divides(leads[j], lm)
            and (leads[j] != lm or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(i)
    out = []
    kept = [basis[i] for i in keep]
    for i, b in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        r = _reduce(b, others, p) if others else dict(b)
        if not r:
            continue
        lm = _lead(r)
        f = pow(r[lm], -1, p)
        out.append({m: (c * f) % p for m, c in r.items()})
    out.sort(key=lambda b: _key(_lead(b)))
    return out


# -- ideals -----------------------------------------------------------------


class GradedIdeal:
    """An ideal of F_p[e0, X_1..X_d] given by generators with e0-exponent >= 0."""

    __slots__ = ("ambient", "gens", "_gb")

    def __init__(self, ambient: GradedAmbient, gens):
        self.ambient = ambient
        out = []
        for g in gens:
            if g.ambient != ambient:
                raise AmbientMismatch("generator from a different ambient")
            if g.min_e0_exponent < 0:
                raise GradedError("ideal generators must have e0-exponents >= 0")
            if not g.is_zero:
                out.append(g)
        self.gens = tuple(out)
        self._gb = None

    def _raw_gens(self):
        return [dict(g.terms) for g in self.gens]

    def groebner_raw(self):
        if self._gb is None:
            self._gb = _buchberger(self._raw_gens(), self.ambient.p)
        return self._gb

    def groebner(self) -> "GradedIdeal":
        out = GradedIdeal(
            self.ambient, [GradedPoly(self.ambient, b) for b in self.groebner_raw()]
        )
        out._gb = [dict(g.terms) for g in out.gens]
        return out

    def contains(self, poly: GradedPoly) -> bool:
        if poly.is_zero:
            return True
        gb = self.groebner_raw()
        if not gb:
            return False
        return not _reduce(dict(poly.terms), gb, self.ambient.p)

    def reduce(self, poly: GradedPoly):
        """Normal form and cofactors w.r.t. the Groebner basis:
        poly = sum cof_i * basis_i + remainder."""
        gb = self.groebner_raw()
        if not gb:
            return poly, []
        rem, cof = _reduce(dict(poly.terms), gb, self.ambient.p, want_cofactors=True)
        return (
            GradedPoly(self.ambient, rem),
            [GradedPoly(self.ambient, c) for c in cof],
        )

    def basis_polys(self):
        return [GradedPoly(self.ambient, b) for b in self.groebner_raw()]

    def same_ideal(self, other: "GradedIdeal") -> bool:
        return self.groebner_raw() == other.groebner_raw()

    def __repr__(self):
        inner = ", ".join(g.to_text() for g in self.gens)
        return f"GradedIdeal({inner})"


def saturate(ideal: GradedIdeal) -> GradedIdeal:
    """I : e0^infinity by Bayer's criterion: for an ideal J homogeneous in
    total degree, dividing each element of its Groebner basis in graded
    reverse lex with e0 last by the largest power of e0 dividing it gives a
    Groebner basis of J : e0^infinity (Bayer-Stillman, Invent. Math. 87, 1987;
    Eisenbud, Commutative Algebra, Prop. 15.12).

    I itself need not be homogeneous, so each generator f becomes
    f^h = h^deg(f) * f(X/h, e0/h) with a new variable h just before e0, and
    J = <f^h>.  Setting h = 1 commutes with saturating at e0:
    - if e0^k * F lies in J, setting h = 1 puts e0^k * F(h=1) in I;
    - if e0^k * f = sum a_i * f_i in I, homogenizing that identity gives
      h^m * e0^k * f^h = sum h^(m_i) * a_i^h * f_i^h in J for some m, m_i >= 0,
      so h^m * f^h lies in J : e0^infinity, and setting h = 1 returns f.
    So setting h = 1 in a basis of J : e0^infinity gives generators of
    I : e0^infinity, and one more Buchberger run gives its reduced basis."""
    amb = ideal.ambient
    p = amb.p
    homog = []
    for g in ideal._raw_gens():
        top = max(sum(m) for m in g)
        homog.append({m[:-1] + (top - sum(m), m[-1]): c for m, c in g.items()})
    gens = []
    for b in _buchberger(homog, p):
        # b is homogeneous, so dropping h merges no two terms
        k = min(m[-1] for m in b)
        gens.append({m[:-2] + (m[-1] - k,): c for m, c in b.items()})
    sat = _buchberger(gens, p)
    out = GradedIdeal(amb, [GradedPoly(amb, b) for b in sat])
    out._gb = sat
    return out


def krull_dim(ideal: GradedIdeal) -> int:
    """Krull dimension of F_p[e0, X]/I via independent sets modulo leading terms."""
    nvars = ideal.ambient.d + 1
    gb = ideal.groebner_raw()
    if not gb:
        return nvars
    supports = [frozenset(i for i, a in enumerate(_lead(g)) if a) for g in gb]
    if frozenset() in supports:
        return -1  # the unit ideal: the zero ring
    best = 0
    for mask in range(1 << nvars):
        subset = frozenset(i for i in range(nvars) if mask >> i & 1)
        if len(subset) <= best:
            continue
        if all(not sup <= subset for sup in supports):
            best = len(subset)
    return best


def grade_cyclic(J: GradedIdeal, d: int):
    """(d+1) - krull_dim(saturate(J)); inf marks the zero quotient."""
    sat = saturate(J)
    dim = krull_dim(sat)
    if dim == -1:
        return inf
    return (d + 1) - dim
