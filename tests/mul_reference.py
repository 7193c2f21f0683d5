"""Reference Dirac pair loop, merge and conjugation for the tests of
``padicdist.distalg``.

``Distribution.mul`` and ``Distribution.conjugate`` apply the model's
declared law to the coordinate tuples of the witness points, and
``_merge_terms`` merges (triple, coords, exact) terms into a witness of the
same form, building no GroupElement.  The functions here are the loops and
merge they replaced: one checked ``gmul`` and one GroupElement per pair or
point, and a merge keyed by ``GroupElement.key()`` that returns (triple,
GroupElement) terms.  The tests require the same merged terms (triple,
coordinates, exactness and order) from both.
"""

from padicdist.groupmodel import GroupElement
from padicdist.padic import add_triples, ppow


def elements(model, terms):
    """Witness terms (triple, coords, exact) as (triple, GroupElement)."""
    return [(a, GroupElement(model, coords, exact)) for a, coords, exact in terms]


def pair_products(model, t1, t2):
    """(triple, g h) for every pair of Dirac terms (triple, g) and (triple, h)."""
    prods = []
    for (ra, pa, sa), g in t1:
        for (rb, pb, sb), h in t2:
            prods.append(((ra * rb, min(pa, pb), sa + sb), model.gmul(g, h)))
    return prods


def merge_terms(model, terms):
    """Combine Dirac terms (triple, element) whose points share their key.
    The merged point is the exact one when exact points reach the key and
    all have the same coordinates; it is the inexact residue point when only
    inexact points do, or when two exact points differ, whatever comes
    after."""
    p = model.p
    acc = {}
    elems = {}
    for a, g in terms:
        k = g.key()
        if k in acc:
            acc[k] = add_triples(p, acc[k], a)
            e = elems[k]
            if g.exact and e is not None:
                if not e.exact:
                    elems[k] = g
                elif e.coords != g.coords:
                    elems[k] = None
        else:
            acc[k] = a
            elems[k] = g
    out = []
    for k, (r, prec, shift) in acc.items():
        # a coefficient 0 on a window of at least N + 2 leaves no term
        r %= ppow(p, prec)
        if r or prec - shift < model.prec + 2:
            out.append(((r, prec, shift), elems[k] or GroupElement(model, k, False)))
    return tuple(out)


def conjugate_terms(model, terms, g):
    """(triple, g h g^-1) for every Dirac term (triple, h); g "sigma" maps
    h to h^-1, the action of the order-2 coset."""
    if g == "sigma":
        return [(a, model.ginv(h)) for a, h in terms]
    return [(a, model.gmul(model.gmul(g, h), model.ginv(g))) for a, h in terms]
