"""Reference r-norm computations for the tests of ``padicdist.distalg``.

``Distribution.norm``, ``principal_symbol``, ``coeff_sup``, ``is_integral``
and ``r_threshold`` read one integer profile per distribution.  The functions
here do the same work as the module once did, per call: a valuation profile
of (tau, v, e) levels, the interval ends over a common denominator that
takes in s, the tail term in Fractions, and the symbol's head minimum and
floors from a walk over every stored entry.

The tests require the same interval ends, the same symbol or refusal and
the same threshold.
"""

from fractions import Fraction
from itertools import chain
from math import inf, lcm

from padicdist.distalg import DistError, NormInterval, RadiusParam
from padicdist.padic import NormValue, ppow, triple_bound, triple_valuation

from enclosure_view import head_error, tail_bound_at_growth, tail_certs


def valuation_profile(lam):
    """Per degree tau with a stored entry: (tau, v, e), v the least valuation
    of a certain entry and e the least magnitude exponent of the others,
    head_error's where that is less (None where there is no such entry)."""
    p = lam.model.p
    herr = head_error(lam)
    levels = {}
    for alpha, c in lam.coeffs.items():
        level = levels.setdefault(lam.model.tau(alpha), [None, None])
        v = triple_valuation(p, c)
        if v is not None and herr.exponent > v:
            if level[0] is None or v < level[0]:
                level[0] = v
            continue
        e = min(triple_bound(p, c).exponent, herr.exponent)
        if level[1] is None or e < level[1]:
            level[1] = e
    return tuple((tau, *level) for tau, level in sorted(levels.items()))


def tail_norm_bound(lam, s: Fraction):
    """The tightest tail term C p^-((s - t) tplus) over the certificates of
    growth t <= s; zero when exact, None when no certificate applies."""
    if lam.exact:
        return NormValue.zero()
    tplus = lam.model.weight_above(lam.T)
    best = None
    for cert in tail_certs(lam):
        C, t = cert.bound, cert.growth
        if s > t:
            cand = NormValue(C.exponent + (s - t) * tplus)
        elif s == t:
            cand = C
        else:
            continue
        if best is None or cand < best:
            best = cand
    return best


def norm(lam, r: RadiusParam) -> NormInterval:
    s = r.s
    profile = valuation_profile(lam)
    certs = [c for c in tail_certs(lam) if c.all_alpha]
    D = lcm(s.denominator, *(getattr(x, "denominator", 1) for x in chain(
        (c.growth for c in certs), (c.bound.exponent for c in certs),
        (e for _, _, e in profile))))

    def scaled(x):
        return x if isinstance(x, float) else int(x * D)

    def unscaled(x):
        return x if isinstance(x, float) else Fraction(x, D)

    S = scaled(s)
    caps = [(scaled(c.bound.exponent), scaled(s - c.growth)) for c in certs]
    lower = upper = inf
    for tau, v, e in profile:
        st = S * tau
        if v is not None and v * D + st < lower:
            lower = v * D + st
        if e is None:
            continue
        e = scaled(e) + st
        for C, slope in caps:
            e = max(e, C + slope * tau)
        upper = min(upper, e)
    lower, upper = NormValue(unscaled(lower)), NormValue(unscaled(min(upper, lower)))
    tail = tail_norm_bound(lam, s)
    if tail is None and not lam.exact:
        tail = NormValue.unbounded()
    if tail is not None and tail > upper:
        upper = tail
    return NormInterval(lower, upper)


def coeff_sup(lam):
    tail = tail_bound_at_growth(lam, 0)
    if tail is None:
        return None
    best = tail.exponent
    for _, v, e in valuation_profile(lam):
        for x in (v, e):
            if x is not None and x < best:
                best = x
    return NormValue(best)


def principal_symbol(lam, r: RadiusParam):
    from padicdist.graded import GradedAmbient, GradedPoly

    s = r.s
    if s >= 1:
        raise ValueError("principal symbols require 1/p < r < 1 (s < 1)")
    model = lam.model
    p = model.p
    best = None
    arg = []
    for alpha, c in lam.coeffs.items():
        v = triple_valuation(p, c)
        if v is None:
            continue
        deg = v + s * model.tau(alpha)
        if best is None or deg < best:
            best = deg
            arg = [(alpha, c, v)]
        elif deg == best:
            arg.append((alpha, c, v))
    if best is None:
        raise DistError("zero (or valuation-indeterminate) distribution has no symbol")
    floors = []
    for alpha, (res, prec, shift) in lam.coeffs.items():
        if res == 0:
            floors.append(prec - shift + s * model.tau(alpha))
    tail = tail_norm_bound(lam, s)
    if tail is None:
        floors.append(-inf)
    elif not tail.is_zero:
        floors.append(tail.exponent)
    if not head_error(lam).is_zero:
        floors.append(head_error(lam).exponent)
    if any(f <= best for f in floors):
        raise DistError(
            "insufficient truncation/precision for the principal symbol; "
            "increase T or the scalar window"
        )
    ambient = GradedAmbient(model.p, model.d, [1] * model.d, s)
    terms = {}
    for alpha, (res, _, shift), v in arg:
        terms[alpha + (v,)] = res // ppow(p, v + shift) % p
    return GradedPoly(ambient, terms), best


def is_integral(lam) -> bool:
    tail = tail_bound_at_growth(lam, 0)
    if tail is None or tail.exponent < 0:
        return False
    p = lam.model.p
    return all(triple_bound(p, c).exponent >= 0 for c in lam.coeffs.values()) and \
        head_error(lam).exponent >= 0


def r_threshold(lam) -> RadiusParam:
    if not lam.exact:
        raise DistError("radius threshold requires an exact distribution")
    if not is_integral(lam):
        raise DistError("radius threshold requires an integral distribution")
    model = lam.model
    p = model.p
    unit_taus = [model.tau(a) for a, c in lam.coeffs.items()
                 if triple_valuation(p, c) == 0]
    if not unit_taus:
        raise DistError("no unit coefficient: the reduction mod p vanishes")
    tau_beta = min(unit_taus)
    s = Fraction(1)
    for alpha, c in lam.coeffs.items():
        tau = model.tau(alpha)
        if tau < tau_beta:
            v = triple_valuation(p, c)
            s = min(s, Fraction(v) / (tau_beta - tau))
    return RadiusParam(s)
