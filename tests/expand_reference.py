"""Reference Dirac expansion for the tests of ``padicdist.distalg``.

``distalg._expand_terms`` packs each binomial row of the last axis into one
int and folds it once per group of points that share their other rows.  The
function here is the loop it replaced: one tuple and one dict update per
(point, alpha).  The tests require the same keys and the same triples from
both, and PrecisionExhausted from both on the same inputs.
"""

from padicdist.padic import _binom_residue, add_triples, ppow


def expand_terms(model, terms, T):
    """Coefficient table of sum a_j delta_{g_j} up to degree T.

    The binomial rows come from ``_binom_residue`` as (prec, residue)
    pairs, once per coordinate residue and length; a product of a
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
                    (W, 1), *(_binom_residue(p, W, x, k) for k in range(1, kmax + 1))))
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
