"""Reference Dirac pair loop and merge for the tests of ``padicdist.distalg``.

``Distribution.mul`` applies the model's declared law to the coordinate
tuples of the witness points and ``_merge_terms`` merges (triple, coords,
exact) terms, building one GroupElement per returned point.  The functions
here are the loop and merge they replaced: one checked ``gmul`` and one
GroupElement per pair, and a merge keyed by ``GroupElement.key()``.  The
tests require the same merged terms (triple, coordinates, exactness and
order) from both.
"""

from padicdist.distalg import _nonzero_terms
from padicdist.groupmodel import GroupElement
from padicdist.padic import add_triples


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
    return _nonzero_terms(model, acc,
                          lambda k: elems[k] or GroupElement(model, k, False))
