"""Exact p-adic scalar arithmetic at capped absolute precision.

A scalar is stored as a residue modulo p**prec together with a denominator
exponent ``shift`` (value = p**-shift * residue).  The absolute precision
window is p**(prec - shift): two scalars with the same value agree on the
overlap of their windows, and arithmetic never claims more digits than the
inputs justify.  A norm value in p**Q is its rational exponent and nothing
else: an int when integral, else a Fraction (+inf for zero, -inf for an
unbounded estimate).

The rules for a sum, a valuation and a magnitude bound are written once, as
functions on the triple (residue, prec, shift) of ints: the form in which
distribution heads, Dirac witnesses, Mahler table entries and level-n coset
coefficients are stored.  A product takes the least prec and adds the
shifts.  PadicScalar applies the same rules to its own triple; it is the
form in which a value leaves the library.

A Dirac distribution is expanded in Mahler's binomial basis, one row of
binomial coefficients C(x, 0..kmax) per coordinate.  ``binom`` builds such
a row whole, by the exact recurrence in k, and caches it: one lookup per
row, not per entry.

Caller values are read by one rule each, and refused with the caller's module
error where it fails: integers (and each PadicScalar or triple field) by
``as_int`` and ``int_tuple``, rationals (T, s, u, coefficients and NormValue
exponents) by ``as_rational``, radius exponents s by ``radius_exponent``, and
containers of scalars by ``as_items`` (a table: a mapping) and ``as_pairs``
(a term list: an iterable of pairs).
"""

from __future__ import annotations

from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import comb, inf, isinf


class PadicError(Exception):
    pass


class PrecisionExhausted(PadicError):
    """Raised when an operation would leave no certified digits."""


@lru_cache(maxsize=4096)
def ppow(p: int, e: int) -> int:
    return p ** e


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(k: int, p: int) -> int:
    # Legendre's formula
    v = 0
    q = p
    while q <= k:
        v += k // q
        q *= p
    return v


def as_int(x, error, what) -> int:
    """x as an int when it is integral, else refused with ``error``."""
    if type(x) is int:
        return x
    try:
        n = int(x)
        if n == x:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} {x!r} is not an integer")


def as_rational(x, error, what):
    """x as an exact int or Fraction: an int or Fraction as it is, a float or
    Decimal at its exact value; anything else (a string, None, NaN, an
    infinity, a complex) is refused with ``error``."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction, float, Decimal)):
        try:
            return Fraction(x)
        except (ValueError, OverflowError):
            pass
    raise error(f"{what} must be a finite rational, got {x!r}")


def radius_exponent(s, error) -> Fraction:
    """s as a radius exponent (r = p^-s): a rational with 0 < s <= 1."""
    s = Fraction(as_rational(s, error, "radius exponent s"))
    if not 0 < s.numerator <= s.denominator:
        raise error(f"radius exponent s must satisfy 0 < s <= 1, got {s}")
    return s


def int_tuple(x, d, error, what, nonnegative=False) -> tuple:
    """x as a tuple of d ints, when it is an iterable of d integral entries
    (>= 0 where asked), else refused with ``error``."""
    # a tuple of d ints is read as it is
    if (type(x) is tuple and len(x) == d and {*map(type, x)} <= {int}
            and not (nonnegative and x and min(x) < 0)):
        return x
    try:
        x = tuple(x)
        ints = tuple(map(int, x))
        if len(ints) == d and ints == x and not (nonnegative and ints and min(ints) < 0):
            return ints
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} {x!r} is not {d} {'nonnegative ' * nonnegative}integers")


def as_items(x, error, what):
    """The (key, value) items of a caller's table, a mapping; anything else is
    refused with ``error``."""
    if type(x) is dict or isinstance(x, Mapping):
        return x.items()
    raise error(f"{what} {x!r} is not a mapping")


def as_pairs(x, error, what) -> list:
    """A caller's term list as a list of (a, b) pairs, when it is an iterable
    of two-item entries; anything else is refused with ``error``."""
    try:
        return [(a, b) for a, b in x]
    except (TypeError, ValueError):
        raise error(f"{what} {x!r} is not a list of pairs") from None


def _check_prime(p, error) -> int:
    """p as an int (``as_int``), refused with ``error`` unless an odd prime."""
    p = as_int(p, error, "prime p")
    if p < 3 or p % 2 == 0:
        raise error(f"prime must be odd and >= 3, got {p}")
    i = 3
    while i * i <= p:
        if p % i == 0:
            raise error(f"{p} is not prime")
        i += 2
    return p


class NormValue:
    """The value p**(-exponent), totally ordered, with product = exponent sum.

    ``exponent`` is an int when it is integral, else a Fraction, else +inf
    (the value zero) or -inf (an unbounded upper estimate): an integral
    Fraction is kept as its int, so equal values hold equal exponents.  The
    exponent is all a NormValue holds: whether a norm is known exactly is a
    property of its ``NormInterval`` (``collapsed``).
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent):
        # an int and a float infinity are kept as they are, and a Fraction
        # is tested first: comparing a Fraction with the infinities costs
        # more than the rest of the construction
        t = type(exponent)
        if t is Fraction:
            if exponent.denominator == 1:
                exponent = exponent.numerator
        elif t is not int and not (t is float and exponent in (inf, -inf)):
            if (isinstance(exponent, Decimal) and exponent.is_infinite()
                    or isinstance(exponent, float) and isinf(exponent)):
                exponent = float(exponent)  # the float infinity of that sign
            else:
                exponent = as_rational(exponent, PadicError, "norm exponent")
                if exponent.denominator == 1:
                    exponent = exponent.numerator
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, *a):
        raise AttributeError("NormValue is immutable")

    @classmethod
    def zero(cls) -> "NormValue":
        return cls(inf)

    @classmethod
    def one(cls) -> "NormValue":
        return cls(0)

    @classmethod
    def unbounded(cls) -> "NormValue":
        return cls(-inf)

    @property
    def is_zero(self) -> bool:
        return self.exponent == inf

    @property
    def is_unbounded(self) -> bool:
        return self.exponent == -inf

    def __eq__(self, other) -> bool:
        return isinstance(other, NormValue) and self.exponent == other.exponent

    def __lt__(self, other: "NormValue") -> bool:
        return self.exponent > other.exponent

    def __le__(self, other: "NormValue") -> bool:
        return self.exponent >= other.exponent

    def __gt__(self, other: "NormValue") -> bool:
        return self.exponent < other.exponent

    def __ge__(self, other: "NormValue") -> bool:
        return self.exponent <= other.exponent

    def __hash__(self):
        return hash(("NormValue", self.exponent))

    def __mul__(self, other: "NormValue") -> "NormValue":
        a, b = self.exponent, other.exponent
        if type(a) is float and type(b) is float and a != b:
            # 0 * unbounded, the one sum that is nan: treat as zero
            return NormValue(inf)
        return NormValue(a + b)

    def __repr__(self):
        return f"NormValue({self})"

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.is_unbounded:
            return "unbounded"
        return f"p^{-self.exponent}"


# -- the scalar rules on (residue, prec, shift) triples -----------------------


def add_triples(p: int, x, y):
    """x + y: the larger shift and the smaller window.  The prec is at least
    that of the operand with the smaller window, so it never drops below 1.
    The residue is returned unreduced."""
    r1, prec1, s1 = x
    r2, prec2, s2 = y
    if s1 == s2:
        return r1 + r2, min(prec1, prec2), s1
    shift = max(s1, s2)
    prec = min(prec1 - s1, prec2 - s2) + shift
    return r1 * ppow(p, shift - s1) + r2 * ppow(p, shift - s2), prec, shift


def require_triple(p: int, where, c, error) -> None:
    """Refuse with ``error`` a stored coefficient that is not a (residue,
    prec, shift) triple of ints in the form PadicScalar stores: prec >= 1,
    shift >= 0 and 0 <= residue < p**prec."""
    if not (type(c) is tuple and len(c) == 3 and type(c[0]) is type(c[1]) is type(c[2]) is int):
        raise error(f"coefficient at {where} is not a (residue, prec, shift) "
                    f"triple of ints: {c!r}")
    r, prec, shift = c
    if prec < 1 or shift < 0 or not 0 <= r < ppow(p, prec):
        raise error(f"coefficient at {where} is not a stored triple (prec >= 1, "
                    f"shift >= 0, 0 <= residue < p^prec): {c!r}")


def triple_valuation(p: int, x):
    """Exact valuation (int) when determined, else None ("v >= window");
    the residue must be reduced mod p**prec."""
    r, _, shift = x
    return vp_int(r, p) - shift if r else None


def triple_exponent(p: int, x) -> int:
    """The int e of the upper bound p**-e on |x|: the valuation v, else
    only the window."""
    v = triple_valuation(p, x)
    return x[1] - x[2] if v is None else v


def fraction_triple(p: int, x, prec: int):
    """The triple of a rational at prec, its denominator's p-power as the shift."""
    x = Fraction(x)
    shift = vp_int(x.denominator, p) if x.denominator != 1 else 0
    m = ppow(p, prec)
    return x.numerator * pow(x.denominator // ppow(p, shift), -1, m) % m, prec, shift


class PadicScalar:
    """An element of Q_p known modulo p**(prec - shift); value = p**-shift * residue."""

    __slots__ = ("p", "prec", "residue", "shift")

    def __init__(self, p: int, prec: int, residue: int, shift: int = 0):
        if not type(p) is type(prec) is type(residue) is type(shift) is int:
            # a float p or prec would key ppow's cache like the int, and poison it
            p, prec, residue, shift = (as_int(x, PadicError, what) for x, what in (
                (p, "prime p"), (prec, "prec"), (residue, "residue"), (shift, "shift")))
        if prec < 1:
            raise PrecisionExhausted(f"precision window exhausted (prec={prec})")
        if shift < 0:
            raise PadicError(f"shift must be >= 0, got {shift}")
        self.p = p
        self.prec = prec
        self.residue = residue % ppow(p, prec)
        self.shift = shift

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, p: int, n: int, prec: int) -> "PadicScalar":
        return cls(p, prec, n, 0)

    @classmethod
    def from_fraction(cls, p: int, x, prec: int) -> "PadicScalar":
        zero = cls(p, prec, 0)  # p and prec read before they reach ppow
        res, prec, shift = fraction_triple(zero.p, as_rational(x, PadicError, "value"), zero.prec)
        return cls(zero.p, prec, res, shift)

    @classmethod
    def zero(cls, p: int, prec: int) -> "PadicScalar":
        return cls(p, prec, 0, 0)

    @classmethod
    def one(cls, p: int, prec: int) -> "PadicScalar":
        return cls(p, prec, 1, 0)

    # -- structure ---------------------------------------------------------

    @property
    def window(self) -> int:
        """Exponent of the absolute precision: value is known mod p**window."""
        return self.prec - self.shift

    @property
    def triple(self):
        """(residue, prec, shift): the stored form of a distribution entry."""
        return self.residue, self.prec, self.shift

    @property
    def valuation(self):
        """Exact valuation (int) when determined, else None ("v >= window")."""
        return triple_valuation(self.p, self.triple)

    def canonical(self) -> "PadicScalar":
        """Fold powers of p in the residue into the denominator exponent."""
        if self.shift == 0:
            return self
        if self.residue == 0:
            if self.window < 1:
                raise PrecisionExhausted("window exhausted in canonicalization")
            return PadicScalar(self.p, self.window, 0, 0)
        k = min(self.shift, vp_int(self.residue, self.p))
        if k == 0:
            return self
        return PadicScalar(
            self.p, self.prec - k, self.residue // ppow(self.p, k), self.shift - k
        )

    # -- arithmetic --------------------------------------------------------

    def _require_compatible(self, other: "PadicScalar") -> None:
        if not isinstance(other, PadicScalar):
            raise TypeError(f"expected PadicScalar, got {type(other).__name__}")
        if self.p != other.p:
            raise PadicError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._require_compatible(other)
        r, prec, shift = add_triples(self.p, self.triple, other.triple)
        return PadicScalar(self.p, prec, r, shift)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __neg__(self) -> "PadicScalar":
        return PadicScalar(self.p, self.prec, -self.residue, self.shift)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._require_compatible(other)
        prec = min(self.prec, other.prec)
        return PadicScalar(self.p, prec, self.residue * other.residue, self.shift + other.shift)

    def abs_val(self) -> NormValue:
        return NormValue(triple_exponent(self.p, self.triple))

    # -- comparison --------------------------------------------------------

    def same_value(self, other: "PadicScalar") -> bool:
        """Equality of values on the common absolute window."""
        self._require_compatible(other)
        window = min(self.window, other.window)
        if window < 1:
            raise PrecisionExhausted("no common window to compare on")
        shift = max(self.shift, other.shift)
        m = ppow(self.p, window + shift)
        a = self.residue * ppow(self.p, shift - self.shift)
        b = other.residue * ppow(self.p, shift - other.shift)
        return (a - b) % m == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return self.same_value(other)

    __hash__ = None

    def __repr__(self):
        c = self.canonical()
        if c.shift:
            return f"PadicScalar(p={c.p}, p^-{c.shift}*{c.residue} mod p^{c.window})"
        return f"PadicScalar(p={c.p}, {c.residue} mod p^{c.prec})"


def int_binom(m: int, k: int) -> int:
    """C(m, k) for any integer m, natural k (exact)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if m >= 0:
        return comb(m, k)
    return (-1) ** k * comb(k - m - 1, k)


def binomial_transform(table: dict, transpose: bool = False) -> None:
    """Rewrite an int table on N^d in place, one axis at a time, by forward
    differences, c_alpha = sum_{beta <= alpha} (-1)^{|alpha - beta|}
    C(alpha, beta) v_beta, or by their transpose, the Taylor shift by -1,
    a_k = sum_{beta >= k} (-1)^{|beta - k|} C(beta, k) v_beta.  Each line of
    an axis runs from 0 to its largest index, absent entries read as 0: so
    the forward direction needs down-closed keys (and keeps their order),
    and the transpose of any table is that of its zero-filled closure."""
    step = 1 if transpose else -1
    for i in range(len(next(iter(table), ()))):
        lines = {}
        for key in table:
            rest = key[:i] + key[i + 1:]
            if key[i] >= lines.get(rest, 0):
                lines[rest] = key[i] + 1
        for rest, n in lines.items():
            head, tail = rest[:i], rest[i:]
            keys = [head + (k,) + tail for k in range(n)]
            row = [table.get(key, 0) for key in keys]
            for j in range(n - 1):
                for k in range(n - 2, j - 1, -1) if transpose else range(n - 1, j, -1):
                    row[k] -= row[k + step]
            table.update(zip(keys, row))


@lru_cache(maxsize=1 << 16)
def binom(p: int, prec: int, x: int, kmax: int) -> tuple:
    """The binomial row of an integer x known mod p**prec, as residues:
    (1, C(x, 1), ..., C(x, kmax)), entry k reduced mod p**(prec - v_p(k!)),
    the digits that x mod p**prec fixes.  Built by the exact recurrence
    C(x, k) = C(x, k - 1) (x - k + 1) / k, one cache entry per row; raises
    PrecisionExhausted at the first k with v_p(k!) >= prec."""
    row = [1]
    c = 1
    vkf = 0
    for k in range(1, kmax + 1):
        if k % p == 0:
            vkf += vp_int(k, p)
        if vkf >= prec:
            raise PrecisionExhausted(
                f"binomial coefficient needs {vkf} guard digits, window has {prec}"
            )
        c = c * (x - k + 1) // k
        row.append(c % ppow(p, prec - vkf))
    return tuple(row)
