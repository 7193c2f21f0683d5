"""Reference sum certificate for the tests of ``padicdist.distalg``.

``Distribution.__add__`` reads each operand once: its head as the least
magnitude exponent per degree, its lines by one sweep over the ascending
growths, and its least covers in ints.  The function here is the rule it
replaced, per growth: at every growth t of either operand's lines it reads
both enclosures again and bounds each head entry by a NormValue of its
own, in NormValue arithmetic.  The tests require the same stored error,
unstored lines and cap lines, as NormValues.
"""

from padicdist.distalg import Enclosure
from padicdist.padic import NormValue, triple_exponent


def triple_bound(p, c) -> NormValue:
    """The bound p^-e on |c| as a NormValue, e its ``triple_exponent``."""
    return NormValue(triple_exponent(p, c))


def least_line(enclosure, t):
    """The least C p^(g 0) over the lines of growth g <= t; None for none."""
    return min((C * NormValue(-g * 0) for C, g in enclosure.unstored + enclosure.cap if g <= t),
               default=None)


def least_cover(bounds, t) -> NormValue:
    """The least C with b <= C p^(t tau) for every (tau, b) in bounds."""
    return max((b * NormValue(t * tau) for tau, b in bounds), default=NormValue.zero())


def sum_enclosure(lam, mu) -> Enclosure:
    """The enclosure of lam + mu, growth by growth."""
    if lam.exact and mu.exact:
        return Enclosure.EXACT
    T = min(lam.T, mu.T)
    p = lam.model.p
    tau = sum
    e1, e2 = lam.enclosure, mu.enclosure

    def cap_at(x, t):
        if x.exact:
            return least_cover([(tau(a), triple_bound(p, c)) for a, c in x.coeffs.items()], t)
        return min((C for C, g in x.enclosure.cap if g <= t), default=None)

    cut = [(tau(a), triple_bound(p, c))
           for x in (lam, mu) for a, c in x.coeffs.items() if tau(a) > T]
    cut += [(k, x.enclosure.stored) for x in (lam, mu) if x.T > T for k in (T + 1, x.T)]
    unstored, cap = [], []
    for t in sorted({g for e in (e1, e2) for _, g in e.unstored + e.cap}):
        a = least_line(e1, t)
        b = least_line(e2, t)
        if a is None or b is None:
            continue
        aa = cap_at(lam, t)
        bb = cap_at(mu, t)
        if aa is not None and bb is not None:
            cap.append((max(aa, bb), t))
        unstored.append((max(a, b, least_cover(cut, t)), t))
    return Enclosure(max(e1.stored, e2.stored), unstored, cap)
