"""Exact p-adic scalar arithmetic at capped absolute precision.

A scalar is stored as a residue modulo p**prec together with a denominator
exponent ``shift`` (value = p**-shift * residue).  The absolute precision
window is p**(prec - shift): two scalars with the same value agree on the
overlap of their windows, and arithmetic never claims more digits than the
inputs justify.  Norm values live in p**Q and are kept as exact rational
exponents.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, inf


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


def _check_prime(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ValueError(f"prime must be odd and >= 3, got {p}")
    i = 3
    while i * i <= p:
        if p % i == 0:
            raise ValueError(f"{p} is not prime")
        i += 2


class NormValue:
    """An exact value p**(-exponent), totally ordered, with product = exponent sum.

    ``exponent`` is a Fraction, +inf (the value zero) or -inf (an unbounded
    upper estimate).  ``exact`` marks whether the value is known exactly or
    is only an upper bound.
    """

    __slots__ = ("exponent", "exact")

    def __init__(self, exponent, exact: bool = True):
        if exponent not in (inf, -inf):
            exponent = Fraction(exponent)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "exact", exact)

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
        return cls(-inf, exact=False)

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
        if inf in (a, b) and -inf in (a, b):
            # 0 * unbounded: treat as zero
            return NormValue(inf, self.exact and other.exact)
        return NormValue(a + b, self.exact and other.exact)

    def __repr__(self):
        return f"NormValue({self})"

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.is_unbounded:
            return "unbounded"
        e = self.exponent
        return f"p^{-e}" if e <= 0 else f"p^-{e}"


class PadicScalar:
    """An element of Q_p known modulo p**(prec - shift); value = p**-shift * residue."""

    __slots__ = ("p", "prec", "residue", "shift")

    def __init__(self, p: int, prec: int, residue: int, shift: int = 0):
        if prec < 1:
            raise PrecisionExhausted(f"precision window exhausted (prec={prec})")
        if shift < 0:
            raise ValueError("denominator exponent must be >= 0")
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
        x = Fraction(x)
        den = x.denominator
        shift = vp_int(den, p) if den != 1 else 0
        den_unit = den // ppow(p, shift)
        m = ppow(p, prec)
        res = x.numerator % m
        if den_unit != 1:
            res = (res * pow(den_unit, -1, m)) % m
        return cls(p, prec, res, shift)

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
    def valuation(self):
        """Exact valuation (int) when determined, else None ("v >= window")."""
        if self.residue == 0:
            return None
        return vp_int(self.residue, self.p) - self.shift

    @property
    def is_integral(self) -> bool:
        v = self.valuation
        if v is None:
            return self.window >= 0
        return v >= 0

    def unit_part_mod_p(self) -> int:
        """Residue mod p of the unit cofactor p**-v * self; requires exact valuation."""
        if self.residue == 0:
            raise PadicError("no exact valuation: zero in window")
        v_int = vp_int(self.residue, self.p)
        return (self.residue // ppow(self.p, v_int)) % self.p

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
        # the prec is at least that of the operand with the smaller window,
        # so it never drops below 1
        shift = max(self.shift, other.shift)
        prec = min(self.window, other.window) + shift
        p = self.p
        r = (
            self.residue * ppow(p, shift - self.shift)
            + other.residue * ppow(p, shift - other.shift)
        )
        return PadicScalar(p, prec, r, shift)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __neg__(self) -> "PadicScalar":
        return PadicScalar(self.p, self.prec, -self.residue, self.shift)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._require_compatible(other)
        prec = min(self.prec, other.prec)
        return PadicScalar(self.p, prec, self.residue * other.residue, self.shift + other.shift)

    def mul_int(self, n: int) -> "PadicScalar":
        return PadicScalar(self.p, self.prec, self.residue * n, self.shift)

    def div_p(self, k: int) -> "PadicScalar":
        """Divide by p**k (raises the denominator exponent; narrows the window)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.window - k < 1:
            raise PrecisionExhausted("division by p**k exhausts the window")
        return PadicScalar(self.p, self.prec, self.residue, self.shift + k)

    def abs_val(self) -> NormValue:
        v = self.valuation
        if v is None:
            # only an upper bound p**-window, marked inexact
            return NormValue(self.window, exact=False)
        return NormValue(v)

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


@lru_cache(maxsize=1 << 18)
def _binom_residue(p: int, prec: int, rep: int, k: int):
    num = 1
    for j in range(k):
        num *= rep - j
    c = num // factorial(k)  # exact: k consecutive integers
    vkf = vp_factorial(k, p)
    prec_out = prec - vkf
    if prec_out < 1:
        raise PrecisionExhausted(
            f"binomial coefficient needs {vkf} guard digits, window has {prec}"
        )
    return prec_out, c % ppow(p, prec_out)


def binom(x: PadicScalar, k: int) -> PadicScalar:
    """Binomial coefficient x(x-1)...(x-k+1)/k! for integral x, natural k.

    Correct modulo p**(prec - v_p(k!)).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if x.shift != 0:
        raise PadicError("binomial coefficient requires an integral argument")
    if k == 0:
        return PadicScalar.one(x.p, x.prec)
    prec_out, res = _binom_residue(x.p, x.prec, x.residue, k)
    return PadicScalar(x.p, prec_out, res, 0)
