"""Reference Dirac expansion and decomposition for the tests of
``padicdist.distalg``.

``distalg._expand_terms`` packs each binomial row of the last axis into one
int and folds it once per group of points that share their other rows.
``expand_terms`` here is the loop it replaced: one tuple and one dict
update per (point, alpha).  The tests require the same keys and the same
triples from both, and PrecisionExhausted from both on the same inputs.

``distalg._head_to_dirac`` takes each (prec, shift) class of a head to its
Dirac coefficients by ``padic.binomial_transform``.  ``head_to_dirac`` here
is the loop it replaced: one term per head entry beta and point k <= beta.
The tests require the same merged terms from both, as dicts keyed by the
point's coordinates, since only the order of the terms differs.
"""

from math import comb

from padicdist.distalg import _merge_terms
from padicdist.padic import add_triples, ppow

from mahler_reference import binom_residue


def expand_terms(model, terms, T):
    """Coefficient table of sum a_j delta_{g_j} up to degree T.

    The binomial rows come from ``mahler_reference.binom_residue`` as
    (prec, residue) pairs, one ``math.comb`` per entry; a product of a
    coefficient and row entries keeps the least prec, and sums are
    ``add_triples``.  Residues are reduced once, in the returned table:
    those rules keep an unreduced residue congruent mod p^prec."""
    p, d, W = model.p, model.d, model.elem_prec
    m = ppow(p, W)
    acc = {}
    row_of = {}
    for (ra, pa, sa), g in terms:
        level = [((), ra, pa, T)]
        for i in range(d):
            kmax = T
            if g.exact and g.coords[i] >= 0:
                # binom(x, k) vanishes exactly for integer x < k
                kmax = min(kmax, g.coords[i])
            x = g.coords[i] % m
            row = row_of.get((x, kmax))
            if row is None:
                row = row_of[x, kmax] = tuple(zip(
                    (W, 1), *(binom_residue(p, W, x, k) for k in range(1, kmax + 1))))
            row_precs, row_res = row
            level = [(alpha + (k,), r * row_res[k],
                      prec if prec <= row_precs[k] else row_precs[k], budget - k)
                     for alpha, r, prec, budget in level
                     for k in range(budget + 1 if budget < kmax else kmax + 1)]
        for alpha, r, prec, _ in level:
            e = acc.get(alpha)
            if e is None:
                acc[alpha] = (r, prec, sa)
            elif e[2] == sa:
                acc[alpha] = (e[0] + r, prec if prec <= e[1] else e[1], sa)
            else:
                acc[alpha] = add_triples(p, e, (r, prec, sa))
    return {alpha: (r % ppow(p, prec), prec, shift) for alpha, (r, prec, shift) in acc.items()}


def head_to_dirac(model, coeffs):
    """Exact Dirac decomposition of a finite b-polynomial:
    b^beta = sum_{k <= beta} (-1)^{|beta - k|} C(beta, k) delta_{psi(k)}.

    Every sign and binomial factor is an int product on the residue; the
    exact points psi(k) are merged by ``_merge_terms``."""

    def terms():
        for beta, (r0, prec, shift) in coeffs.items():
            level = [((), r0)]
            for b in beta:
                signed = [(-1) ** (b - k) * comb(b, k) for k in range(b + 1)]
                level = [(kappa + (k,), r * f) for kappa, r in level
                         for k, f in enumerate(signed)]
            for kappa, r in level:
                yield (r, prec, shift), kappa, True

    return _merge_terms(model, terms())
