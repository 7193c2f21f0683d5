"""Planted faults that the truth-based checks must catch.

Each row of ``FAULTS`` plants one fault by monkeypatching one library
function or property (no source edit, no subprocess) and names the checks
that must fail under it.  A check here is truth-based: it holds results to
an independent recomputation, never to a second statement of the same rule,
so a fault that passes every check it names is a certificate those checks
cannot see, and its row fails.  A new certificate path adds its fault here.

``complete heads: every producer`` is the recomputation of
``test_complete_heads.py`` (exact Fractions from ``math.comb`` up to degree
T + 4, with each result's ``parse . serialize``) over every producer there;
that module runs it unfaulted.  ``complete heads: witness producers`` runs
it over the producers whose results are built from a Dirac witness.
``sums: true coefficients`` is the check of sums of finite tables in
``test_witness_rule.py``.  A line of growth t >= 0 whose least cover drops
its t tau term is only looser, which no check of truth can see (the
ultrametric checks there do not); this check kills that fault through the
lines that decay (growth below 0) that its operands carry.
"""

from functools import partial
from math import inf
from typing import Callable, NamedTuple

import pytest

from padicdist import distalg
from padicdist.distalg import Distribution, Enclosure
from padicdist.padic import NormValue
from padicdist.serialize import parse_distribution, serialize_distribution

from test_complete_heads import KINDS, cases, violations
import test_witness_rule

WITNESS_PRODUCERS = ("dirac", "dirac inexact", "dirac_combination", "mul witness",
                     "conjugate", "conjugate sigma", "change_basis")


def complete_heads(producers=None):
    """The first (kind, p, producer), of the named producers or of every
    one, whose result, or its file, says something false of the recomputed
    truth; None for none."""
    for p in (3, 5, 7):
        for kind in KINDS:
            for name, lam, truth in cases(kind, p):
                if producers is not None and name not in producers:
                    continue
                back = parse_distribution(serialize_distribution(lam))
                if violations(lam, truth) or violations(back, truth):
                    return kind, p, name
    return None


def sums_over_tables():
    """The first (p, violation) of a sum of finite tables; None for none."""
    for p in (3, 5, 7):
        found = test_witness_rule.true_sum_violation(p)
        if found is not None:
            return p, found
    return None


CHECKS = {
    "complete heads: witness producers": partial(complete_heads, WITNESS_PRODUCERS),
    "complete heads: every producer": complete_heads,
    "sums: true coefficients": sums_over_tables,
}


class Fault(NamedTuple):
    name: str
    module: object  # the module, or the class, that holds attr
    attr: str
    plant: Callable  # the original function or property -> the faulty one
    checks: tuple  # names in CHECKS, each of which must fail under the fault


def witness_line_over_p(original):
    """``_from_witness`` with its growth-0 cap line divided by p."""
    def faulty(model, terms, T):
        out = original(model, terms, T)
        if out.exact:
            return out
        enc = out.enclosure
        cap = [(C * NormValue(1) if t == 0 else C, t) for C, t in enc.cap]
        return Distribution._clean(model, out.coeffs, T,
                                   Enclosure(enc.stored, enc.unstored, cap), out.dirac_terms)
    return faulty


def cover_without_growth(original):
    """``_least_cover`` with its t tau term dropped: p^-(min e) at every t."""
    return lambda bounds, t: original(bounds, 0)


def bound_without_growth(original):
    """``Enclosure.bound`` reading every t as +inf: the lines of every
    growth bound at each degree."""
    return lambda self, tau=0, t=inf: original(self, tau)


def gap_zero(original):
    """``Enclosure.gap`` zero: a head's Dirac decomposition leaves nothing
    out, so ``mul``'s and ``conjugate``'s head paths store no error."""
    return property(lambda self: NormValue.zero())


FAULTS = (
    Fault("witness growth-0 line divided by p", distalg, "_from_witness",
          witness_line_over_p, ("complete heads: witness producers",)),
    Fault("least cover without its t tau term", distalg, "_least_cover",
          cover_without_growth, ("sums: true coefficients",)),
    Fault("bound ignores its growth", Enclosure, "bound",
          bound_without_growth, ("complete heads: every producer",)),
    Fault("head-path stored error zero", Enclosure, "gap",
          gap_zero, ("complete heads: every producer",)),
)


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.name)
def test_every_planted_fault_is_caught(fault, monkeypatch):
    monkeypatch.setattr(fault.module, fault.attr, fault.plant(getattr(fault.module, fault.attr)))
    for check in fault.checks:
        assert CHECKS[check]() is not None, f"{fault.name!r} survives {check!r}"
