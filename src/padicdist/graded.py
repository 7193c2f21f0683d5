"""Graded rings F_p[e0^{+-1}][X_1..X_d] and commutative Groebner machinery.

Monomials are exponent tuples (a_1, ..., a_d, e) with the e0 exponent last;
the monomial order is total degree, ties broken lexicographically with e0
least significant.  The Laurent variable is handled by saturating ideals at
e0 inside the polynomial ring.
"""

from __future__ import annotations

from fractions import Fraction
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
        for mon in sorted(self.terms, key=_deglex_key, reverse=True):
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


# -- monomial orders --------------------------------------------------------


def _deglex_key(mon):
    # total degree first, then lex on (X1..Xd, e0) with e0 least significant
    return (sum(mon), mon[:-1], mon[-1])


def _elim_last_key(mon):
    # block order eliminating the LAST variable of the tuple
    return (mon[-1], _deglex_key(mon[:-1]))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# -- raw polynomial engine (dict mon -> coeff in F_p) -----------------------


def _lead(poly, key):
    return max(poly, key=key)


def _reduce(poly, basis, p, key, want_cofactors=False):
    """Multivariate division: poly = sum q_i * basis_i + remainder."""
    work = dict(poly)
    rem = {}
    cof = [dict() for _ in basis] if want_cofactors else None
    leads = [(_lead(b, key), b) for b in basis]
    while work:
        m = _lead(work, key)
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


def _spoly(f, g, p, key):
    lf, lg = _lead(f, key), _lead(g, key)
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


def _buchberger(gens, p, key):
    basis = [dict(g) for g in gens if g]
    if not basis:
        return []
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        li, lj = _lead(basis[i], key), _lead(basis[j], key)
        if _mono_lcm(li, lj) == _mono_mul(li, lj):
            continue  # coprime leading monomials
        s = _spoly(basis[i], basis[j], p, key)
        r = _reduce(s, basis, p, key)
        if r:
            basis.append(r)
            k = len(basis) - 1
            pairs.extend((k, t) for t in range(k))
    return _reduce_basis(basis, p, key)


def _reduce_basis(basis, p, key):
    """Minimalize, then inter-reduce and make monic (the reduced basis)."""
    basis = [b for b in basis if b]
    leads = [_lead(b, key) for b in basis]
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
        r = _reduce(b, others, p, key) if others else dict(b)
        if not r:
            continue
        lm = _lead(r, key)
        f = pow(r[lm], -1, p)
        out.append({m: (c * f) % p for m, c in r.items()})
    out.sort(key=lambda b: key(_lead(b, key)))
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
            self._gb = _buchberger(self._raw_gens(), self.ambient.p, _deglex_key)
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
        return not _reduce(dict(poly.terms), gb, self.ambient.p, _deglex_key)

    def reduce(self, poly: GradedPoly):
        """Normal form and cofactors w.r.t. the Groebner basis:
        poly = sum cof_i * basis_i + remainder."""
        gb = self.groebner_raw()
        if not gb:
            return poly, []
        rem, cof = _reduce(dict(poly.terms), gb, self.ambient.p, _deglex_key,
                           want_cofactors=True)
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
    """I : e0^infinity, computed as one elimination (Rabinowitsch's trick):
    I : e0^infinity = (I + <1 - t*e0>) intersect F_p[e0, X], with t eliminated
    by a block order (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
    section 4.4, Theorem 14)."""
    amb = ideal.ambient
    p = amb.p
    # t takes a new last slot, the variable _elim_last_key eliminates
    ext = [{m + (0,): c for m, c in g.items()} for g in ideal._raw_gens()]
    ext.append({(0,) * (amb.d + 2): 1, (0,) * amb.d + (1, 1): p - 1})
    gb = _buchberger(ext, p, _elim_last_key)
    sat = _reduce_basis(
        [{m[:-1]: c for m, c in g.items()} for g in gb if all(m[-1] == 0 for m in g)],
        p, _deglex_key,
    )
    out = GradedIdeal(amb, [GradedPoly(amb, b) for b in sat])
    out._gb = sat
    return out


def krull_dim(ideal: GradedIdeal) -> int:
    """Krull dimension of F_p[e0, X]/I via independent sets modulo leading terms."""
    nvars = ideal.ambient.d + 1
    gb = ideal.groebner_raw()
    if not gb:
        return nvars
    key = _deglex_key
    supports = [frozenset(i for i, a in enumerate(_lead(g, key)) if a) for g in gb]
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
