"""Mahler transforms on Z_p^d, decay reports, the pairing with distributions,
and finite-level projection to group algebras of the quotients G/G_n.

Functions enter only as builtin FunctionSpecs with exact integer/rational
evaluators, so every Mahler table is reproducible and every pairing carries
a certified error bound.

Table entries and coset coefficients are (residue, prec, shift) int triples,
as in distribution heads, under the triple rules of ``padic``.  PadicScalars
are built only for values that leave the module (the two ``coeff`` methods,
``MahlerTable.evaluate`` and ``pair``) and to compare values in
``GroupAlgebraElement.__eq__``.  A caller's integers (indices, points, coset
keys, caps, precisions, levels) are read by ``padic.as_int`` and
``padic.int_tuple``, and refused with MahlerError unless integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .padic import (NormValue, PadicError, PadicScalar, _check_prime, add_triples, as_int,
                    as_items, as_rational, binomial_transform, int_binom, int_tuple, ppow,
                    require_triple, triple_exponent)
from .groupmodel import GroupModel, simplex
from .distalg import Distribution, _least_exponents, _merge_terms, _products, as_triple


class MahlerError(PadicError):
    pass


class FunctionSpec:
    """A builtin continuous function on Z_p^d with an exact evaluator."""

    __slots__ = ("kind", "d", "p", "params")

    KINDS = ("constant", "coordinate", "monomial", "power_series_1p", "indicator")

    def __init__(self, kind, d, p, **params):
        if kind not in self.KINDS:
            raise MahlerError(f"unknown builtin function {kind!r}")
        self.kind = kind
        self.d = as_int(d, MahlerError, "dimension d")
        self.p = _check_prime(p, MahlerError)
        self.params = params
        if "i" in params and not 0 <= params["i"] < self.d:
            raise MahlerError(f"coordinate index {params['i']} out of range")

    @classmethod
    def constant(cls, d, p, value=1):
        return cls("constant", d, p, value=as_int(value, MahlerError, "constant value"))

    @classmethod
    def coordinate(cls, d, p, i):
        return cls("coordinate", d, p, i=as_int(i, MahlerError, "coordinate index"))

    @classmethod
    def monomial(cls, d, p, alpha):
        alpha = int_tuple(alpha, d, MahlerError, "monomial exponent", nonnegative=True)
        return cls("monomial", d, p, alpha=alpha)

    @classmethod
    def power_series_1p(cls, d, p, i):
        return cls("power_series_1p", d, p, i=as_int(i, MahlerError, "coordinate index"))

    @classmethod
    def indicator(cls, d, p, a, n):
        a = int_tuple(a, d, MahlerError, "indicator residue")
        n = as_int(n, MahlerError, "indicator level")
        if n < 1:
            raise MahlerError("indicator needs level n >= 1")
        m = ppow(_check_prime(p, MahlerError), n)
        return cls("indicator", d, p, a=tuple(x % m for x in a), n=n)

    @classmethod
    def parse(cls, d, p, text: str) -> "FunctionSpec":
        parts = text.split(":")
        coords = lambda field: [int(x) for x in field.split(",")] if field else []
        if len(parts) not in {"constant": (1, 2), "indicator": (3,)}.get(parts[0], (2,)):
            raise MahlerError(f"bad function id {text!r}: wrong number of fields")
        try:
            if parts[0] == "constant":
                return cls.constant(d, p, int(parts[1]) if len(parts) > 1 else 1)
            if parts[0] == "coordinate":
                return cls.coordinate(d, p, int(parts[1]))
            if parts[0] == "monomial":
                return cls.monomial(d, p, coords(parts[1]))
            if parts[0] == "power1p":
                return cls.power_series_1p(d, p, int(parts[1]))
            if parts[0] == "indicator":
                return cls.indicator(d, p, coords(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise MahlerError(f"bad function id {text!r}: {exc}") from exc
        raise MahlerError(f"bad function id {text!r}")

    @property
    def id(self) -> str:
        k, pr = self.kind, self.params
        if k == "constant":
            return f"constant:{pr['value']}"
        if k == "coordinate":
            return f"coordinate:{pr['i']}"
        if k == "monomial":
            return "monomial:" + ",".join(str(a) for a in pr["alpha"])
        if k == "power_series_1p":
            return f"power1p:{pr['i']}"
        return "indicator:" + ",".join(str(x) for x in pr["a"]) + f":{pr['n']}"

    def evaluate(self, point) -> Fraction:
        """Exact value at an integer lattice point.  A point that is not d
        integers raises MahlerError."""
        point = int_tuple(point, self.d, MahlerError, "point")
        k, pr = self.kind, self.params
        if k == "constant":
            return Fraction(pr["value"])
        if k == "coordinate":
            return Fraction(point[pr["i"]])
        if k == "monomial":
            v = 1
            for x, a in zip(point, pr["alpha"]):
                v *= x ** a
            return Fraction(v)
        if k == "power_series_1p":
            x = point[pr["i"]]
            base = 1 + self.p
            return Fraction(base ** x) if x >= 0 else Fraction(1, base ** (-x))
        m = ppow(self.p, pr["n"])
        hit = all((x - a) % m == 0 for x, a in zip(point, pr["a"]))
        return Fraction(1 if hit else 0)

    def poly_degree(self):
        """Total degree when the function is polynomial, else None."""
        if self.kind == "constant":
            return 0
        if self.kind == "coordinate":
            return 1
        if self.kind == "monomial":
            return sum(self.params["alpha"])
        return None

    def decay_certificate(self):
        """(C, t) with |c_alpha| <= C * p^(-t |alpha|), when known analytically."""
        if self.kind == "power_series_1p":
            return NormValue.one(), Fraction(1)
        return None

    def __repr__(self):
        return f"FunctionSpec({self.id}, d={self.d}, p={self.p})"


class MahlerTable:
    """Finite differences c_alpha of a builtin function: every nonzero c_alpha
    with |alpha| <= cap is stored, so an unstored one there is zero.  Past the
    cap only ``decay`` speaks: |c_alpha| <= C p^(-t |alpha|) for a line (C, t),
    0 for the zero line (NormValue.zero(), 0) (``complete``), 1 for None."""

    __slots__ = ("d", "p", "prec", "cap", "coeffs", "decay")

    def __init__(self, d, p, prec, cap, coeffs, decay=None):
        self.d, self.p, self.prec, self.cap = self.check_header(d, p, prec, cap)
        self.coeffs = {int_tuple(a, self.d, MahlerError, "multi-index", nonnegative=True): c
                       for a, c in as_items(coeffs, MahlerError, "coefficient table")}
        for alpha, c in self.coeffs.items():
            require_triple(self.p, alpha, c, MahlerError)
        self.decay = decay

    @classmethod
    def _clean(cls, header, coeffs, decay) -> "MahlerTable":
        """Wrap parts already checked, with no checks: the (d, p, N, A) that
        ``check_header`` returns and a dict of stored triples at d
        nonnegative indices, as ``serialize`` checks the term lines."""
        out = object.__new__(cls)
        out.d, out.p, out.prec, out.cap = header
        out.coeffs, out.decay = coeffs, decay
        return out

    @property
    def complete(self) -> bool:
        return self.decay is not None and self.decay[0].is_zero

    @staticmethod
    def check_header(d, p, prec, cap) -> tuple:
        """(d, p, N, A) as ints; refuses any that is not an integer, a p that
        is not an odd prime, d < 0, N < 1 or A < 0."""
        p, d = _check_prime(p, MahlerError), as_int(d, MahlerError, "dimension d")
        if d < 0:
            raise MahlerError(f"dimension d must be >= 0, got {d}")
        prec, cap = as_int(prec, MahlerError, "precision N"), as_int(cap, MahlerError, "cap A")
        if prec < 1:
            raise MahlerError(f"precision N must be >= 1, got {prec}")
        if cap < 0:
            raise MahlerError(f"cap A must be >= 0, got {cap}")
        return d, p, prec, cap

    def coeff(self, alpha) -> PadicScalar:
        """c_alpha as a PadicScalar; zero at the table's precision where
        nothing is stored.  An alpha that is not d nonnegative integers
        raises MahlerError."""
        alpha = int_tuple(alpha, self.d, MahlerError, "multi-index", nonnegative=True)
        r, prec, shift = self.coeffs.get(alpha, (0, self.prec, 0))
        return PadicScalar(self.p, prec, r, shift)

    def sup_bound(self) -> NormValue:
        """Certified bound on sup |c_alpha| over ALL alpha."""
        # builtin functions are Z_p-valued, so |c_alpha| <= 1 without decay
        best = NormValue.one() if self.decay is None else self.decay[0]
        p = self.p
        return max(best, NormValue(min((triple_exponent(p, c) for c in self.coeffs.values()),
                                       default=inf)))

    def missing_bound(self, k: int) -> NormValue:
        """Bound on |c_alpha| for an unstored index of degree k: zero at
        k <= cap."""
        if k <= self.cap:
            return NormValue.zero()
        if self.decay is None:
            return NormValue.one()
        C, t = self.decay
        return C * NormValue(t * k)

    def evaluate(self, point) -> PadicScalar:
        """sum c_alpha C(point, alpha) over the stored head, mod p^prec.  A
        point that is not d integers raises MahlerError."""
        point = int_tuple(point, self.d, MahlerError, "point")
        total = (0, self.prec, 0)
        for alpha, (r, prec, shift) in self.coeffs.items():
            w = 1
            for m, k in zip(point, alpha):
                w *= int_binom(m, k)
            total = add_triples(self.p, total, (r * w, prec, shift))
        r, prec, shift = total
        return PadicScalar(self.p, prec, r, shift)

    def __repr__(self):
        return f"MahlerTable(d={self.d}, p={self.p}, cap={self.cap}, terms={len(self.coeffs)})"


def mahler_coeffs(f: FunctionSpec, A: int, prec: int = 12) -> MahlerTable:
    """c_alpha = sum_{beta <= alpha} (-1)^{|alpha - beta|} C(alpha, beta) f(beta)
    for all |alpha| <= A: the forward differences of ``binomial_transform``
    on the values of f on the simplex |beta| <= A, where every builtin
    function is integer-valued; O(d A^(d+1)) integer subtractions.  For a
    polynomial f of degree D every c_alpha with |alpha| > D is 0, and c_alpha
    reads f only at beta <= alpha, so the simplex stops at min(A, D)."""
    header = d, p, prec, A = MahlerTable.check_header(f.d, f.p, prec, A)
    deg = f.poly_degree()
    vals = {}
    for beta in simplex(d, A if deg is None else min(A, deg)):
        v = f.evaluate(beta)
        if v.denominator != 1:
            raise MahlerError(f"f({beta}) = {v} is not an integer")
        vals[beta] = v.numerator
    binomial_transform(vals)
    m = ppow(p, prec)
    coeffs = {alpha: (v % m, prec, 0) for alpha, v in vals.items() if v}
    complete = deg is not None and A >= deg
    return MahlerTable._clean(header, coeffs,
                              (NormValue.zero(), 0) if complete else f.decay_certificate())


def amice_report(table: MahlerTable, rho_exponents):
    """For each u (rho = p^u), the row max_{|alpha|=k} |c_alpha| rho^k and a
    non-increasing verdict on the tail half of the rows."""
    least = _least_exponents(table.p, table.coeffs)
    out = []
    for u in rho_exponents:
        u = as_rational(u, MahlerError, "Amice exponent u")
        if u <= 0:
            raise MahlerError("Amice radii must satisfy rho > 1 (u > 0)")
        # p^-e rho^k = p^-(e - u k), zero (e = +inf) for an empty row
        rows = [NormValue(least.get(k, inf) - u * k) for k in range(table.cap + 1)]
        half = rows[table.cap // 2:]
        verdict = all(half[i + 1] <= half[i] for i in range(len(half) - 1))
        out.append({"u": u, "rows": rows, "tail_nonincreasing": verdict})
    return out


def pair(lam: Distribution, table: MahlerTable):
    """(value, error): sum of d_alpha c_alpha over the shared head, with a
    certified bound on everything not summed."""
    model = lam.model
    if model.d != table.d or model.p != table.p:
        raise MahlerError("dimension/prime mismatch between distribution and table")
    if not lam.exact and table.decay is None:
        raise MahlerError("unbounded tail: no decay certificate and the "
                        "distribution is inexact")
    p = model.p
    total = (0, min(model.elem_prec, table.prec), 0)
    errors = [NormValue.zero()]
    missing = {}  # head entries the table does not store
    for alpha, x in lam.coeffs.items():
        c = table.coeffs.get(alpha)
        if c is None:
            missing[alpha] = x
        else:
            r, prec, shift = x
            total = add_triples(p, total, (r * c[0], min(prec, c[1]), shift + c[2]))
    # per degree k, the largest |d_alpha| times the bound on c_alpha there
    errors += [NormValue(e) * table.missing_bound(k)
               for k, e in _least_exponents(p, missing).items()]
    enc = lam.enclosure
    if not enc.stored.is_zero:
        errors.append(enc.stored * table.sup_bound())
    if not lam.exact:
        # table entries past the head, where the lines bound d_alpha; an
        # unstored d_alpha of degree <= T is within the stored error above
        unbounded = NormValue.unbounded()
        for k, e in _least_exponents(p, table.coeffs).items():
            if k > lam.T:
                bound = enc.bound(k)
                errors.append(unbounded if bound is None else bound * NormValue(e))
        # the lines of growth t <= t_t, times the decay C_t p^(-t_t k), at the
        # least degree k0 past head and table; 0 for the zero line, lines or not
        C_t, t_t = table.decay
        k0 = max(lam.T + 1, table.cap + 1)
        best = enc.bound(k0, t_t)
        errors.append(C_t * (unbounded if best is None else best * NormValue(t_t * k0)))
    r, prec, shift = total
    return PadicScalar(p, prec, r, shift), max(errors)


class GroupAlgebraElement:
    """Element of K[G/G_n]: ``coeffs`` maps coordinate residues mod p^n to
    coefficient triples, folded by ``distalg._merge_terms`` at the modulus
    p^n: keys that agree mod p^n summed, residues reduced, without the
    ``known_zero`` entries (0 on a window of at least N + 2).  The
    constructor reads each coefficient by ``as_triple``, as ``from_coeffs``
    does, and refuses what it does not take with MahlerError."""

    __slots__ = ("model", "n", "coeffs")

    def __init__(self, model: GroupModel, n: int, coeffs):
        terms = []
        for key, c in as_items(coeffs, MahlerError, "coefficient table"):
            c = as_triple(model, c, MahlerError)
            terms.append((c, int_tuple(key, model.d, MahlerError, "coset key"), False))
        self._set(model, n, terms)

    @classmethod
    def _clean(cls, model, n, terms) -> "GroupAlgebraElement":
        """The element of terms (triple, coords, exact) the library built."""
        out = object.__new__(cls)
        out._set(model, n, terms)
        return out

    def _set(self, model, n, terms):
        """Fill the slots of either constructor; both check the level here."""
        n = as_int(n, MahlerError, "level")
        if n < 1:
            raise MahlerError("projection level must be >= 1")
        self.model, self.n = model, n
        self.coeffs = {k: c for c, k, _ in _merge_terms(model, terms, ppow(model.p, n))}

    def coeff(self, key) -> PadicScalar:
        """The coefficient of the coset of key as a PadicScalar; zero at the
        working precision where nothing is stored.  A key that is not d
        integers raises MahlerError; negative entries reduce mod p^n."""
        m = ppow(self.model.p, self.n)
        key = int_tuple(key, self.model.d, MahlerError, "coset key")
        return self._scalar(tuple(x % m for x in key))

    def _scalar(self, key) -> PadicScalar:
        """coeff at a key already reduced mod p^n, unchecked."""
        r, prec, shift = self.coeffs.get(key, (0, self.model.elem_prec, 0))
        return PadicScalar(self.model.p, prec, r, shift)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        t1, t2 = ([(c, k, False) for k, c in x.coeffs.items()] for x in (self, other))
        return self._clean(self.model, self.n, _products(self.model, t1, t2))

    def _check(self, other):
        self.model._require_same(other.model)
        if self.n != other.n:
            raise MahlerError("mixed quotient levels")

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self._scalar(k).same_value(other._scalar(k)) for k in keys)

    __hash__ = None

    def __repr__(self):
        return f"GroupAlgebraElement(level {self.n}, {len(self.coeffs)} cosets)"


def finite_level_project(lam: Distribution, n: int) -> GroupAlgebraElement:
    """sum a_j [g_j mod G_n] from the Dirac witness of lam, folded into the
    cosets of G_n by ``_merge_terms``; a level below 1 or not an integer
    is refused with MahlerError."""
    terms = lam._exact_terms()
    if terms is None:
        raise MahlerError("finite-level projection needs an exact Dirac witness")
    return GroupAlgebraElement._clean(lam.model, n, ((a, g, False) for a, g, _ in terms))


def pair_with_indicator_crosscheck(lam: Distribution, a, n: int):
    """Compare the Mahler pairing against indicator(a, n), its table at the
    cap 3p, with the coset coefficient in the level-n projection; returns
    "true", "false" or "inconclusive"."""
    model = lam.model
    f = FunctionSpec.indicator(model.d, model.p, a, n)
    value, err = pair(lam, mahler_coeffs(f, 3 * model.p, prec=model.elem_prec))
    proj = finite_level_project(lam, n)
    expected = proj.coeff(a)
    diff = value - expected
    if diff.residue == 0:
        return "true"
    dv = diff.abs_val()
    if dv > err:
        return "false"
    return "true" if err < NormValue(0) else "inconclusive"
