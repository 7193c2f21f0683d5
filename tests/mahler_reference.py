"""Reference Mahler computations for the tests of ``padicdist.mahler``.

``padicdist.mahler`` stores table entries and coset coefficients as
(residue, prec, shift) int triples.  The functions here do the same work
with a PadicScalar per entry and per step, as the module once did:

- ``pair_scalars``: the pairing sum of d_alpha c_alpha and its error bound;
- ``evaluate_scalars``: sum c_alpha C(point, alpha) of a table;
- ``project_scalars`` and ``mul_scalars``: the level-n projection of a Dirac
  witness and the product in K[G/G_n], as {coset key: PadicScalar};
- ``binom_residue`` and ``binom``: one binomial coefficient by
  ``math.comb``, as (prec, residue) and as a PadicScalar, the reference for
  the cached rows of ``padic.binom``.

The tests require identical (p, prec, residue, shift) for every value and
coefficient, and the same error bound.
"""

from math import comb, factorial

from padicdist.mahler import MahlerError, int_binom
from padicdist.padic import NormValue, PadicError, PadicScalar, PrecisionExhausted, ppow

from enclosure_view import head_error, tail_certs


def binom_residue(p: int, prec: int, x: int, k: int):
    """(prec', C(x, k) mod p**prec') for an integer x known mod p**prec,
    prec' = prec - v_p(k!), by ``math.comb`` and the p-part of k!;
    PrecisionExhausted when prec' < 1."""
    f, vkf = factorial(k), 0
    while f % p == 0:
        f //= p
        vkf += 1
    prec_out = prec - vkf
    if prec_out < 1:
        raise PrecisionExhausted(
            f"binomial coefficient needs {vkf} guard digits, window has {prec}"
        )
    c = comb(x, k) if x >= 0 else (-1) ** k * comb(k - x - 1, k)
    return prec_out, c % ppow(p, prec_out)


def binom(x: PadicScalar, k: int) -> PadicScalar:
    """Binomial coefficient x(x-1)...(x-k+1)/k! for integral x, natural k,
    correct modulo p**(prec - v_p(k!))."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if x.shift != 0:
        raise PadicError("binomial coefficient requires an integral argument")
    if k == 0:
        return PadicScalar.one(x.p, x.prec)
    prec_out, res = binom_residue(x.p, x.prec, x.residue, k)
    return PadicScalar(x.p, prec_out, res, 0)


def table_scalars(table):
    return {alpha: table.coeff(alpha) for alpha in table.coeffs}


def sup_bound_scalars(table) -> NormValue:
    best = NormValue.zero()
    for c in table_scalars(table).values():
        best = max(best, c.abs_val())
    if not table.complete:
        if table.decay is not None:
            best = max(best, table.decay[0])
        else:
            best = max(best, NormValue.one())
    return best


def evaluate_scalars(table, point) -> PadicScalar:
    point = tuple(int(x) for x in point)
    total = PadicScalar.zero(table.p, table.prec)
    for alpha, c in table_scalars(table).items():
        w = 1
        for m, k in zip(point, alpha):
            w *= int_binom(m, k)
        total = total + c * PadicScalar.from_int(table.p, w, c.prec)
    return total


def _tail_bound_at(lam, k):
    best = None
    for cert in tail_certs(lam):
        cand = cert.bound * NormValue(-cert.growth * k)
        if best is None or cand < best:
            best = cand
    return NormValue.unbounded() if best is None else best


def pair_scalars(lam, table):
    model = lam.model
    if model.d != table.d or model.p != table.p:
        raise MahlerError("dimension/prime mismatch between distribution and table")
    if not lam.exact and table.decay is None and not table.complete:
        raise MahlerError("unbounded tail: no decay certificate and the "
                          "distribution is inexact")
    entries = table_scalars(table)
    total = PadicScalar.zero(model.p, min(model.elem_prec, table.prec))
    errors = [NormValue.zero()]
    for alpha in lam.coeffs:
        dcoef = lam.coeff(alpha)
        c = entries.get(alpha)
        if c is not None:
            total = total + dcoef * c
        else:
            errors.append(dcoef.abs_val() * table.missing_bound(alpha))
    if not head_error(lam).is_zero:
        errors.append(head_error(lam) * sup_bound_scalars(table))
    if not lam.exact:
        for alpha, c in entries.items():
            if alpha not in lam.coeffs:
                errors.append(_tail_bound_at(lam, sum(alpha)) * c.abs_val())
        if not table.complete:
            C_t, t_t = table.decay
            k0 = max(model.weight_above(lam.T), table.cap + 1)
            best = None
            for cert in tail_certs(lam):
                if t_t >= cert.growth:
                    cand = cert.bound * C_t * NormValue((t_t - cert.growth) * k0)
                    if best is None or cand < best:
                        best = cand
            errors.append(NormValue.unbounded() if best is None else best)
    return total, max(errors)


def _cosets(model, n, coeffs):
    """Keys reduced mod p^n, equal keys summed, the zeros on a window of at
    least N + 2 dropped; a zero on a narrower window stays."""
    m = ppow(model.p, n)
    clean = {}
    for key, c in coeffs.items():
        key = tuple(int(x) % m for x in key)
        clean[key] = clean[key] + c if key in clean else c
    return {k: c for k, c in clean.items()
            if c.residue != 0 or c.prec - c.shift < model.prec + 2}


def project_scalars(lam, n):
    terms = lam._exact_terms()
    if terms is None:
        raise MahlerError("finite-level projection needs an exact Dirac witness")
    p = lam.model.p
    m = ppow(p, n)
    coeffs = {}
    for (r, prec, shift), coords, _ in terms:
        a = PadicScalar(p, prec, r, shift)
        key = tuple(x % m for x in coords)
        coeffs[key] = coeffs[key] + a if key in coeffs else a
    return _cosets(lam.model, n, coeffs)


def mul_scalars(model, n, x, y):
    out = {}
    for k1, c1 in x.items():
        g1 = model.element(k1)
        for k2, c2 in y.items():
            g2 = model.element(k2)
            k = model.gmul(g1, g2).coords
            c = c1 * c2
            out[k] = out[k] + c if k in out else c
    return _cosets(model, n, out)
