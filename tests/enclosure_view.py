"""A distribution's ``Enclosure`` read as the tail certificates and head
error that it replaced, for the reference computations of the tests.

The enclosure holds a stored error and lines (C, t), each saying |d_alpha| <=
C p^(t tau(alpha)): ``unstored`` lines hold at every unstored alpha and
``cap`` lines at every alpha.  Here each line is a certificate (bound,
growth, all_alpha), all_alpha set for a cap line, and an exact distribution
has none, as before: the references treat exactness on their own.  The
readers below derive their bounds from these certificates, not from the
enclosure's own readers.
"""

from typing import NamedTuple

from padicdist.padic import NormValue


class Cert(NamedTuple):
    bound: NormValue
    growth: object
    all_alpha: bool


def head_error(lam) -> NormValue:
    return lam.enclosure.stored


def tail_certs(lam) -> tuple:
    """The unstored lines, then the cap lines; none when lam is exact."""
    if lam.exact:
        return ()
    enc = lam.enclosure
    return (tuple(Cert(C, t, False) for C, t in enc.unstored)
            + tuple(Cert(C, t, True) for C, t in enc.cap))


def tail_bound_at_growth(lam, t):
    """The least bound of a certificate of growth at most t; zero when exact,
    None when no certificate applies."""
    if lam.exact:
        return NormValue.zero()
    best = None
    for c in tail_certs(lam):
        if c.growth <= t and (best is None or c.bound < best):
            best = c.bound
    return best
