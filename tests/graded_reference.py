"""Reference Groebner computations for the tests of ``padicdist.graded``.

A plain Groebner engine parameterised by its monomial order: monomials are
exponent tuples, the lead is ``max(poly, key=key)``, and Buchberger's
algorithm reduces every pair, with no pair criteria.  It runs in three
orders: the library's graded reverse lex (``_grevlex_key``), and the two
orders the library once used, total degree with lex ties (``_deglex_key``)
and a block order eliminating the last variable (``_elim_last_key``).

In the library's order, ``groebner_grevlex``, ``reduce_grevlex``,
``saturate_bayer`` and ``grade_grevlex`` redo ``graded``'s bases, division,
saturation and grade, so that the tests can require identical results.
Two independent ways of computing I : e0^infinity each return the reduced
deglex basis as a list of ``{monomial: coefficient}`` dicts:

- ``saturate_rabinowitsch``: one elimination of t from I + <1 - t*e0>;
- ``saturate_by_quotients``: the ideal quotient by e0, repeated until the
  ideal stops growing.

Both are slow on some inputs and exist only to check ``graded.saturate``.

Two of ``graded``'s own steps are kept here in the forms they replaced:
``reduce_basis_all_elements`` minimalizes a packed basis by testing every
pair of elements the pair loop made, and ``independent_dim_scan`` finds a
Krull dimension by trying every subset of the variables.
"""

import heapq
import itertools


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _grevlex_key(mon):
    # the library's order: total degree first, then the smaller exponent of
    # the last variable wins, so e0 (the last slot) is the least variable
    return (sum(mon), tuple(-x for x in reversed(mon)))


def _deglex_key(mon):
    # total degree first, then lex on (X1..Xd, e0) with e0 least significant
    return (sum(mon), mon[:-1], mon[-1])


def _elim_last_key(mon):
    # block order eliminating the LAST variable of the tuple
    return (mon[-1], _deglex_key(mon[:-1]))


def _lead(poly, key):
    return max(poly, key=key)


def _reduce(poly, basis, p, key, cof=None):
    """Remainder of multivariate division of poly by basis: the largest
    remaining term first, to the first element whose lead divides it.  cof,
    if given, is one dict per basis element and collects the quotients."""
    work = dict(poly)
    rem = {}
    leads = [(_lead(b, key), b) for b in basis]
    while work:
        m = _lead(work, key)
        c = work.pop(m)
        for i, (lm, b) in enumerate(leads):
            if _mono_divides(lm, m):
                q = _mono_div(m, lm)
                f = (c * pow(b[lm], -1, p)) % p
                if cof is not None:
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
    """Reduced basis with no pair criteria: every pair is reduced, smallest
    lcm first."""
    basis = [dict(g) for g in gens if g]
    pairs = []

    def add_pairs(k):
        lk = _lead(basis[k], key)
        for t in range(k):
            l = _mono_lcm(lk, _lead(basis[t], key))
            heapq.heappush(pairs, (key(l), k, t))

    for k in range(len(basis)):
        add_pairs(k)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        r = _reduce(_spoly(basis[i], basis[j], p, key), basis, p, key)
        if r:
            basis.append(r)
            add_pairs(len(basis) - 1)
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


def saturate_rabinowitsch(ideal):
    """I : e0^infinity = (I + <1 - t*e0>) intersect F_p[e0, X], with t
    eliminated by a block order (Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, section 4.4, Theorem 14)."""
    p, d = ideal.ambient.p, ideal.ambient.d
    # t takes a new last slot, the variable _elim_last_key eliminates
    ext = [{m + (0,): c for m, c in g.items()} for g in ideal._raw_gens()]
    ext.append({(0,) * (d + 2): 1, (0,) * d + (1, 1): p - 1})
    gb = _buchberger(ext, p, _elim_last_key)
    return _reduce_basis(
        [{m[:-1]: c for m, c in g.items()} for g in gb if all(m[-1] == 0 for m in g)],
        p, _deglex_key,
    )


def _quotient_by_e0(raw, d, p):
    """I : e0 as (I intersect <e0>) / e0; the intersection eliminates a tag
    variable t from t*I + (1 - t)*<e0>."""
    e0 = (0,) * d + (1,)
    ext = [{m + (1,): c for m, c in g.items()} for g in raw]
    ext.append({e0 + (0,): 1, e0 + (1,): p - 1})
    gb = _buchberger(ext, p, _elim_last_key)
    return [
        {m[:-2] + (m[-2] - 1,): c for m, c in g.items()}
        for g in gb
        if all(m[-1] == 0 for m in g)
    ]


def saturate_by_quotients(ideal):
    """I : e0^infinity, taking the ideal quotient by e0 until it stops
    growing."""
    p, d = ideal.ambient.p, ideal.ambient.d
    cur = _buchberger(ideal._raw_gens(), p, _deglex_key)
    while True:
        nxt = _buchberger(_quotient_by_e0(cur, d, p), p, _deglex_key)
        if nxt == cur:
            return cur
        cur = nxt


# -- the library's own algorithms, on this engine ------------------------------


def groebner_grevlex(gens, p):
    """Reduced basis in the library's order, every pair reduced."""
    return _buchberger(gens, p, _grevlex_key)


def reduce_grevlex(poly, basis, p):
    """(remainder, cofactors) of dividing poly by basis in the library's
    order."""
    cof = [{} for _ in basis]
    return _reduce(poly, basis, p, _grevlex_key, cof), cof


def saturate_bayer(ideal):
    """``graded.saturate``'s algorithm on this engine: homogenize with a new
    variable h before e0, divide each basis element by its largest power of
    e0, set h = 1 and take the reduced basis again."""
    p = ideal.ambient.p
    homog = []
    for g in ideal._raw_gens():
        top = max(sum(m) for m in g)
        homog.append({m[:-1] + (top - sum(m), m[-1]): c for m, c in g.items()})
    gens = []
    for b in groebner_grevlex(homog, p):
        k = min(m[-1] for m in b)
        gens.append({m[:-2] + (m[-1] - k,): c for m, c in b.items()})
    return groebner_grevlex(gens, p)


def grade_grevlex(sat, d):
    """(d+1) - dim F_p[e0, X]/<sat>, the dimension being the largest set of
    variables containing no lead monomial's support; None for the unit
    ideal."""
    supports = [{i for i, a in enumerate(_lead(g, _grevlex_key)) if a} for g in sat]
    if set() in supports:
        return None
    dim = max(
        len(subset)
        for n in range(d + 2)
        for subset in map(set, itertools.combinations(range(d + 1), n))
        if not any(sup <= subset for sup in supports)
    )
    return (d + 1) - dim


def krull_dim_frozensets(basis, nvars):
    """Krull dimension of F_p[e0, X]/<basis> for a reduced basis in the
    library's order, as ``graded.krull_dim`` once computed it: each lead's
    support a frozenset of slots, tried against every subset of the
    variables; -1 for the unit ideal."""
    if not basis:
        return nvars
    supports = [frozenset(i for i, a in enumerate(_lead(g, _grevlex_key)) if a) for g in basis]
    if frozenset() in supports:
        return -1
    best = 0
    for mask in range(1 << nvars):
        subset = frozenset(i for i in range(nvars) if mask >> i & 1)
        if len(subset) <= best:
            continue
        if all(not sup <= subset for sup in supports):
            best = len(subset)
    return best


# -- graded's steps in the forms they replaced ---------------------------------


def reduce_basis_all_elements(basis, divs, p, lay):
    """``graded._reduce_basis`` as it minimalized before it read the pair
    loop's ``active`` set: an element is dropped when any other element's
    lead divides its lead, unless the two leads are equal and it comes
    first; then inter-reduced and made monic, smallest lead first."""
    from padicdist.graded import _Basis, _divisor, _reduce

    low, guards = lay.low, lay.guards
    keep = [i for i, (lm, _, _, _) in enumerate(divs) if not any(
        j != i and (dj[1] - (lm & low)) & guards == guards and (dj[0] != lm or j < i)
        for j, dj in enumerate(divs))]
    out, kept = [], [divs[i] for i in keep]
    for i in keep:
        lead = divs[i][0]
        others = [d for d in kept if d[0] != lead]
        r = _reduce(dict(basis[i]), others, p, lay) if others else dict(basis[i])
        f = pow(r[lead], -1, p)
        out.append({m: c * f % p for m, c in r.items()})
    out.sort(key=max)
    return _Basis(lay, out, [_divisor(b, p, lay) for b in out])


def independent_dim_scan(supports, nvars):
    """Krull dimension of F_p[x_1..x_nvars]/M for the monomial ideal M whose
    generators have these supports (bitmasks), by trying every subset of the
    variables: the size of the largest that holds no support; -1 for the
    unit ideal."""
    if 0 in supports:
        return -1
    best = 0
    for subset in range(1 << nvars):
        size = subset.bit_count()
        if size > best and all(sup & ~subset for sup in supports):
            best = size
    return best
