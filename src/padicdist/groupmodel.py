"""Builtin uniform pro-p group models with chart coordinates and p-valuation.

Three models are provided: abelian(d) = Z_p^d, the Heisenberg group of
unitriangular 3x3 matrices with off-diagonal entries in pZ_p, and the
non-uniform compact model Z_p |x {+-1} whose uniform part is Z_p.  Elements
are identified with their chart coordinates in Z_p^d, held as Python ints:
the coordinates themselves when the element is exact (built from integer
coordinates by the group law), else their residues mod p**elem_prec.

Each kind declares its group law once, in ``LAWS``, as product and power on
tuples of int coordinates.  ``gmul``, ``ginv`` and ``gpow`` are the checked
edge and build one GroupElement per result.  ``distalg``, ``mahler`` and
``basis_chart`` apply ``model.law`` to coordinate tuples: a Dirac witness is
a tuple of terms (triple, coords, exact), with no GroupElement in it.
"""

from __future__ import annotations

from functools import partial, reduce
from math import floor, inf
from typing import Callable, NamedTuple

from .padic import (PadicError, _check_prime, as_int, as_rational, int_tuple, ppow, vp_factorial,
                    vp_int)


class ModelError(PadicError):
    pass


class ModelMismatch(ModelError):
    pass


def truncation(T) -> int:
    """T as a degree cutoff: degrees are integers (every omega is 1), so a
    rational T >= 0 truncates like its floor, and anything else is refused."""
    if as_rational(T, ModelError, "truncation weight T") < 0:
        raise ModelError(f"truncation weight T must be >= 0, got {T}")
    return floor(T)


def simplex(d: int, T: int):
    """The multi-indices alpha in N^d with |alpha| <= T, in lex order."""

    def rec(i, prefix, left):
        if i == d:
            yield prefix
            return
        for k in range(left + 1):
            yield from rec(i + 1, prefix + (k,), left - k)

    return rec(0, (), T)


class Law(NamedTuple):
    """A kind's group law: product ``mul(p, a, b)`` and integer power
    ``pow(p, a, t)`` on int chart coordinate tuples, whose inverse is
    ``pow(p, a, -1)``; ``dim``, its one dimension (None: any d >= 0);
    ``sigma``, an order-2 coset acting by inversion."""

    dim: int | None
    commutative: bool
    mul: Callable
    pow: Callable
    sigma: bool = False


def _heisenberg_mul(p, a, b):
    (x1, y1, z1), (x2, y2, z2) = a, b
    return (x1 + x2, y1 + y2, z1 + z2 - p * x2 * y1)


_SUM = (lambda p, a, b: tuple(x + y for x, y in zip(a, b)),
        lambda p, a, t: tuple(t * x for x in a))
LAWS = {
    "abelian": Law(None, True, *_SUM),
    # psi(x, y, z)^t = psi(tx, ty, tz - p x y C(t, 2)); the inverse is t = -1
    "heisenberg": Law(3, False, _heisenberg_mul,
                      lambda p, a, t: (t * a[0], t * a[1],
                                       t * a[2] - p * a[0] * a[1] * (t * (t - 1) // 2))),
    # the uniform part is Z_p; the sigma coset acts by inversion
    "semidirect": Law(1, True, *_SUM, sigma=True),
}


class GroupModel:
    """A concrete group with ordered basis, chart and p-valuation data."""

    def __init__(self, kind: str, p: int, d: int, prec: int = 12, max_weight=12):
        # Every generator has omega = 1, so the degree tau(alpha) of b^alpha
        # is |alpha|, and omega > 1/(p-1) and (HYP) omega_i + omega_j >
        # p/(p-1) both reduce to p > 2.
        p = _check_prime(p, ModelError)
        prec = as_int(prec, ModelError, "precision N")
        if prec < 1:
            raise ModelError(f"precision N must be >= 1, got {prec}")
        law = LAWS.get(kind)
        if law is None:
            raise ModelError(f"unknown model kind {kind!r}")
        d = as_int(d, ModelError, f"{kind} model dimension")
        if d < 0 or law.dim not in (None, d):
            want = "an integer >= 0" if law.dim is None else law.dim
            raise ModelError(f"{kind} model dimension must be {want}, got {d!r}")
        self.kind = kind
        self.law = law
        self.p = p
        self.d = d
        self.prec = prec
        self.max_weight = truncation(max_weight)
        # the narrowest window of a binomial row up to the weight cap, and the
        # known-zero threshold; elem_prec adds the guard digits v_p(max_weight!)
        self.zero_window = prec + 2
        self.elem_prec = self.zero_window + vp_factorial(self.max_weight, p)
        # the structure-constant cores by (a, g, T), kept as long as the
        # model: filled and read by distalg._commutation_core
        self.commutation_cores = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def abelian(cls, d: int, p: int, **kw) -> "GroupModel":
        return cls("abelian", p, d, **kw)

    @classmethod
    def heisenberg(cls, p: int, **kw) -> "GroupModel":
        return cls("heisenberg", p, 3, **kw)

    @classmethod
    def semidirect(cls, p: int, **kw) -> "GroupModel":
        return cls("semidirect", p, 1, **kw)

    @classmethod
    def from_string(cls, spec: str, **kw) -> "GroupModel":
        """``kind:d:p`` for a kind of any dimension, else ``kind:p``."""
        kind, *nums = spec.split(":")
        law = LAWS.get(kind)
        if law is None or len(nums) != (2 if law.dim is None else 1):
            raise ModelError(f"bad group id {spec!r}")
        try:
            *dim, p = map(int, nums)
        except ValueError as exc:
            raise ModelError(f"bad group id {spec!r}: {exc}") from exc
        return cls(kind, p, dim[0] if dim else law.dim, **kw)

    @property
    def id(self) -> str:
        if self.law.dim is None:
            return f"{self.kind}:{self.d}:{self.p}"
        return f"{self.kind}:{self.p}"

    def __repr__(self):
        return f"GroupModel({self.id})"

    def same_as(self, other: "GroupModel") -> bool:
        return (self.kind, self.p, self.d) == (other.kind, other.p, other.d)

    def _require_same(self, other: "GroupModel") -> None:
        if not self.same_as(other):
            raise ModelMismatch(f"model mismatch: {self.id} vs {other.id}")

    def _require_elements(self, *gs: "GroupElement") -> None:
        """Refuse an element of another model, and an inexact one known to
        fewer digits than elem_prec here, to be read past its window."""
        for g in gs:
            self._require_same(g.model)
            if not g.exact and g.model.elem_prec < self.elem_prec:
                raise ModelMismatch(f"element known mod p^{g.model.elem_prec}, below "
                                    f"this model's p^{self.elem_prec}")

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> "GroupElement":
        """The exact element with the given integer chart coordinates."""
        return GroupElement(self, int_tuple(coords, self.d, ModelError, "chart coordinates"), True)

    def identity(self) -> "GroupElement":
        return self.element([0] * self.d)

    def random_element(self, rng) -> "GroupElement":
        m = ppow(self.p, self.elem_prec)
        return GroupElement(self, tuple(rng.randrange(m) for _ in range(self.d)), False)

    def _law_result(self, coords, exact: bool) -> "GroupElement":
        """The element with these law outputs, reduced unless every input was exact."""
        if not exact:
            m = ppow(self.p, self.elem_prec)
            coords = tuple(c % m for c in coords)
        return GroupElement(self, coords, exact)

    # -- group law ---------------------------------------------------------

    def gmul(self, g: "GroupElement", h: "GroupElement") -> "GroupElement":
        self._require_elements(g, h)
        return self._law_result(self.law.mul(self.p, g.coords, h.coords),
                                g.exact and h.exact)

    def ginv(self, g: "GroupElement") -> "GroupElement":
        self._require_elements(g)
        return self._law_result(self.law.pow(self.p, g.coords, -1), g.exact)

    def gpow(self, g: "GroupElement", t: int) -> "GroupElement":
        """g**t for an integer t (closed form on chart coordinates)."""
        self._require_elements(g)
        t = as_int(t, ModelError, "group power exponent")
        return self._law_result(self.law.pow(self.p, g.coords, t), g.exact)

    # -- valuation data ----------------------------------------------------

    def omega(self, g: "GroupElement"):
        """(value, exact): p-valuation of g; inf for the identity."""
        self._require_same(g.model)
        if g.exact and not any(g.coords):
            return inf, True
        vals = [vp_int(c, self.p) for c in g.key() if c]
        if not vals:
            # every coordinate vanishes mod p^elem_prec: only a lower bound
            return 1 + g.model.elem_prec, False
        return 1 + min(vals), True


class GroupElement:
    """Chart coordinates in Z_p^d as ints; the element is its coordinate tuple.

    With ``exact`` set, ``coords`` are the exact integer coordinates;
    otherwise they are residues mod p**elem_prec of the model.
    """

    __slots__ = ("model", "coords", "exact")

    def __init__(self, model: GroupModel, coords, exact: bool):
        self.model = model
        self.coords = coords
        self.exact = exact

    def key(self) -> tuple:
        """Hashable key: the coordinate residues mod p**elem_prec."""
        m = ppow(self.model.p, self.model.elem_prec)
        return tuple(c % m for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        self.model._require_same(other.model)
        m = ppow(self.model.p, min(self.model.elem_prec, other.model.elem_prec))
        return all((a - b) % m == 0 for a, b in zip(self.coords, other.coords))

    __hash__ = None

    def __repr__(self):
        cs = ", ".join(str(c) for c in self.key())
        return f"GroupElement({self.model.id}; {cs})"


# -- alternate ordered bases ------------------------------------------------


def validate_basis(model: GroupModel, basis):
    """Check that basis is an ordered basis of generators of omega 1, and
    return the inverse of its coordinate matrix mod p**elem_prec.

    Requires omega(b_i) == 1 exactly and the coordinate matrix of the basis
    to be invertible mod p, which is invertibility mod every power of p.
    """
    if len(basis) != model.d:
        raise ModelError(f"expected {model.d} basis elements, got {len(basis)}")
    for i, b in enumerate(basis):
        model._require_elements(b)
        val, exact = model.omega(b)
        if not exact or val != 1:
            raise ModelError(
                f"basis element {i} has omega {val} (exact={exact}), expected 1"
            )
    W = model.elem_prec
    try:
        return _matinv_mod(_basis_matrix(model, basis, W), model.p, W)
    except ModelError:
        raise ModelError("basis coordinate matrix is singular mod p") from None


def basis_chart(model: GroupModel, basis):
    """The chart of another ordered basis, as (point, solve) on int tuples.

    ``point(y)`` is b_1^{y_1} ... b_d^{y_d} under ``model.law``.
    ``solve(x)`` is the y, residues mod p**elem_prec, with point(y) = x mod
    p**elem_prec: a Hensel/Newton iteration on the coordinate linearization
    at the identity.  The basis is checked and its matrix inverted once.
    """
    ainv = validate_basis(model, basis)
    law, p, d, W = model.law, model.p, model.d, model.elem_prec
    m = ppow(p, W)
    gens = [b.coords for b in basis]

    def point(y):
        return reduce(partial(law.mul, p), map(partial(law.pow, p), gens, y), (0,) * d)

    def solve(x):
        y = (0,) * d
        for _ in range(W + 4):
            c = [e % m for e in law.mul(p, law.pow(p, point(y), -1), x)]
            if not any(c):
                return y
            y = tuple((yj + sum(a * ck for a, ck in zip(row, c))) % m
                      for yj, row in zip(y, ainv))
        raise ModelError("basis coordinate iteration did not converge")

    return point, solve


def _basis_matrix(model, basis, W):
    m = ppow(model.p, W)
    return [
        [basis[j].coords[i] % m for j in range(model.d)]
        for i in range(model.d)
    ]


def _matinv_mod(a, p, W):
    """Inverse of an integer matrix modulo p**W (unit pivots via mod-p choice)."""
    n = len(a)
    m = ppow(p, W)
    a = [[x % m for x in row] for row in a]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p != 0), None)
        if piv is None:
            raise ModelError("matrix not invertible mod p")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        f = pow(a[col][col], -1, m)
        a[col] = [(x * f) % m for x in a[col]]
        inv[col] = [(x * f) % m for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if f:
                a[r] = [(x - f * y) % m for x, y in zip(a[r], a[col])]
                inv[r] = [(x - f * y) % m for x, y in zip(inv[r], inv[col])]
    return inv
