"""Named verification suites: each binds a library operation to a quantitative
claim and reports per-check verdicts.  All sampling is seeded; identical
parameters produce identical reports."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import inf
from typing import Callable

from .padic import NormValue, PadicScalar, ppow
from .groupmodel import GroupModel, ModelError, simplex, truncation
from .distalg import (
    DistError,
    Distribution,
    RadiusParam,
    lie_generator,
    q_norm,
    semidirect_mul,
    structure_constants,
)
from .graded import GradedAmbient, GradedIdeal, GradedPoly, grade_cyclic, krull_dim, saturate
from . import mahler as mh


@dataclass(frozen=True)
class SuiteParams:
    p: int = 5
    N: int = 12
    T: int = 12  # a rational T >= 0 is floored here, once
    seed: int = 0
    group: str | None = None
    samples: int | None = None  # None: each suite's own default

    def __post_init__(self):
        object.__setattr__(self, "T", truncation(self.T))
        if self.samples is not None and self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class SuiteCheck:
    check_id: str
    passed: bool
    witness: str


@dataclass
class SuiteReport:
    """A suite's checks; each is anchored in the claim the suite is named for."""

    suite: str
    anchor: str
    checks: list = field(default_factory=list)

    def add(self, check_id, passed, witness=""):
        self.checks.append(SuiteCheck(check_id, bool(passed), str(witness)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self, fmt="text") -> str:
        checks = sorted(self.checks, key=lambda c: c.check_id)
        if fmt == "tsv":
            lines = [
                "\t".join([self.suite, c.check_id, self.suite,
                           "PASS" if c.passed else "FAIL", c.witness])
                for c in checks
            ]
            return "\n".join(lines) + "\n"
        lines = [f"suite {self.suite} (anchors: {self.anchor})"]
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.check_id} ({self.suite}): {c.witness}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"suite {self.suite}: {verdict} ({len(checks)} checks)")
        return "\n".join(lines) + "\n"


class SuiteRefused(ModelError):
    """A suite asked to run on a model its claim is not stated for."""


@dataclass(frozen=True)
class Suite:
    """A verify suite: ``checks(report, params, rng)`` fills the report, and
    a model given by ``--group`` must have dimension ``min_d`` or more and,
    with ``sigma``, a law with the order-2 coset.  A suite whose ``min_d``
    is None takes no group model.  The rng is seeded by the seed and the
    suite's name."""

    name: str
    anchor: str
    checks: Callable
    min_d: int | None = 0
    sigma: bool = False

    def __call__(self, params: SuiteParams) -> SuiteReport:
        if params.group is not None:
            reason = self._refusal(params)
            if reason:
                raise SuiteRefused(f"{self.name} does not run on {params.group}: {reason}")
        rep = SuiteReport(self.name, self.anchor)
        self.checks(rep, params, random.Random(f"{params.seed}:{self.name}"))
        return rep

    def _refusal(self, params) -> str | None:
        if self.min_d is None:
            return "it takes no group model"
        model = GroupModel.from_string(params.group, prec=params.N)
        if self.sigma and not model.law.sigma:
            return "its law has no sigma coset"
        if model.d < self.min_d:
            return f"it needs a model of dimension >= {self.min_d}"
        return None


SUITES: dict[str, Suite] = {}  # in `verify all` order, the order declared below


def suite(name, anchor, **needs):
    """Declare the checks that follow as the suite ``name`` (see Suite)."""

    def declare(checks):
        SUITES[name] = Suite(name, anchor, checks, **needs)
        return SUITES[name]

    return declare


def _models(params, *ids, T=None):
    """The models a suite's checks run on: with ``--group``, that model
    alone; else each default id, a kind or kind:d, at the prime p.  T, if
    given, replaces the truncation weight."""
    ids = [params.group] if params.group is not None else [f"{i}:{params.p}" for i in ids]
    T = params.T if T is None else T
    return [GroupModel.from_string(i, prec=params.N, max_weight=T) for i in ids]


def _units(d):
    """e_1, ..., e_d: the coordinates of the generators h_1, ..., h_d, which
    are also the multi-indices of b_1, ..., b_d."""
    return [tuple(int(i == k) for i in range(d)) for k in range(d)]


S3 = (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
S4 = S3 + (Fraction(1),)


def _rand_unit(rng, p, maxpow=4) -> int:
    c = rng.randrange(1, ppow(p, maxpow))
    return c + 1 if c % p == 0 else c


def random_exact(model, rng, max_tau=3, nmax=4, valmax=2) -> Distribution:
    """Sparse exact integral distribution with at least one unit coefficient."""
    alphas = list(simplex(model.d, min(model.max_weight, max_tau)))
    k = rng.randint(1, min(nmax, len(alphas)))
    chosen = rng.sample(sorted(alphas), k)
    coeffs = {}
    unit_at = rng.randrange(k)
    for i, alpha in enumerate(chosen):
        c = _rand_unit(rng, model.p)
        if i != unit_at:
            c *= ppow(model.p, rng.randint(0, valmax))
        coeffs[alpha] = c
    return Distribution.from_coeffs(model, coeffs, model.max_weight)


def random_dirac(model, rng) -> Distribution:
    return Distribution.dirac(model.random_element(rng))


def random_combo(model, rng, nmax=3, coord_cap=None) -> Distribution:
    """Exact Dirac combination with small non-negative integer coordinates."""
    if coord_cap is None:
        coord_cap = model.max_weight // model.d
    terms = []
    for _ in range(rng.randint(1, nmax)):
        g = model.element([rng.randint(0, coord_cap) for _ in range(model.d)])
        coef = rng.randint(1, ppow(model.p, 2))
        terms.append((coef, g))
    return Distribution.dirac_combination(model, terms)


def _mixed(model, rng) -> Distribution:
    return random_dirac(model, rng) if rng.random() < 0.4 else random_exact(model, rng)


def _index(alpha) -> str:
    return f"({','.join(map(str, alpha))})"


def _p_word(n, p) -> str:
    """n as the reports write it, with p and -p by name."""
    return {p: "p", -p: "-p"}.get(n, str(n))


# -- suites -----------------------------------------------------------------


@suite("lemma41", "lemma41 structure-constant valuation bound", min_d=2)
def suite_lemma41(rep, params, rng):
    size_cap = 6
    [model] = _models(params, "heisenberg", T=size_cap)
    e = _units(model.d)
    pairs = entries = violations = 0
    for beta in simplex(model.d, size_cap):
        for gamma in simplex(model.d, size_cap - sum(beta)):
            pairs += 1
            _, verdicts = structure_constants(model, beta, gamma, size_cap)
            entries += len(verdicts)
            violations += sum(1 for ok in verdicts.values() if not ok)
    rep.add("bound-exhaustive", violations == 0,
            f"{pairs} monomial pairs, {entries} entries, {violations} violations")
    table, _ = structure_constants(model, e[1], e[0], size_cap)

    def entry_is(alpha, n):
        if alpha not in table:
            return n == 0
        r, prec, shift = table[alpha]
        return PadicScalar(model.p, prec, r, shift).same_value(
            PadicScalar.from_int(model.p, n, model.elem_prec))

    # b2 b1 = delta_{h2 h1} - delta_{h2} - delta_{h1} + 1, and delta_g has
    # coefficient C(g, alpha) at b^alpha: g_k at b_k, g_1 g_2 at b1 b2
    p, g = model.p, model.law.mul(model.p, e[1], e[0])
    e12 = tuple(map(sum, zip(e[0], e[1])))
    want = [(ek, gk - e12[k]) for k, (ek, gk) in enumerate(zip(e, g))] + [(e12, g[0] * g[1])]
    rep.add("b2b1-entries", all(entry_is(a, n) for a, n in want),
            " and ".join(f"c at {_index(a)} = {_p_word(n, p)}" for a, n in want if n))


@suite("prop42", "prop42 norm submultiplicativity")
def suite_prop42(rep, params, rng):
    n = params.samples or 200
    for model in _models(params, "abelian:2", "heisenberg", "semidirect"):
        comparisons = violations = 0
        for _ in range(n):
            lam, mu = _mixed(model, rng), _mixed(model, rng)
            prod = lam.mul(mu, s_work=S4)
            for s in S4:
                r = RadiusParam(s)
                comparisons += 1
                if prod.norm(r).upper > lam.norm(r).upper * mu.norm(r).upper:
                    violations += 1
        rep.add(f"submult-{model.kind}", violations == 0,
                f"{comparisons} comparisons, {violations} violations")


@suite("lemma44", "lemma44 commutator norm drop", min_d=2)
def suite_lemma44(rep, params, rng):
    [model] = _models(params, "heisenberg")
    e = _units(model.d)
    b = [Distribution.monomial(model, ek) for ek in e]
    for i in range(model.d):
        for j in range(i + 1, model.d):
            bij = b[i] * b[j]
            diff = bij - b[j] * b[i]
            ok = True
            detail = []
            for s in S3:
                r = RadiusParam(s)
                nb, nd = bij.norm(r), diff.norm(r)
                good = nb.collapsed and nd.collapsed and nd.upper < nb.lower
                ok = ok and good
                detail.append(f"s={s}: {nd.upper} < {nb.lower}")
            rep.add(f"strict-drop-{i+1}{j+1}", ok, "; ".join(detail))
    comm = b[0] * b[1] - b[1] * b[0]
    p, law = model.p, model.law
    # b1 b2 - b2 b1 = delta_{h1 h2} - delta_{h2 h1}: its coefficient at b_k
    # is coordinate k of h1 h2 less that of h2 h1
    want = [(ek, x - y) for ek, x, y in zip(e, law.mul(p, e[0], e[1]), law.mul(p, e[1], e[0]))]
    witness_ok = all(comm.coeff(a).same_value(PadicScalar.from_int(p, n, model.elem_prec))
                     for a, n in want)
    # beside p*b3 (norm p^-1 r) the Heisenberg commutator has a unit b3^p
    # term (norm r^p), which is the larger of the two below s = 1/(p-1)
    for s in S3:
        nd = comm.norm(RadiusParam(s))
        witness_ok = witness_ok and nd.upper <= NormValue(min(1 + s, p * s))
    bound = "p^-1 r" if min(S3) >= Fraction(1, p - 1) else "max(p^-1 r, r^p)"
    known = ", ".join(f"{_p_word(n, p)} at {_index(a)}" for a, n in want if n)
    rep.add("witness-p-at-e3", witness_ok,
            f"commutator coefficient {known or '0'}; norm <= {bound}")


@suite("thm45-mult", "thm45 multiplicative norm on exact heads")
def suite_thm45_mult(rep, params, rng):
    n = params.samples or 100
    checked = failures = skipped = 0
    models = _models(params, "abelian:2", "heisenberg")
    for k in range(n):
        model = models[k % len(models)]
        s = rng.choice(S3)
        r = RadiusParam(s)
        lam = random_exact(model, rng)
        mu = random_exact(model, rng)
        nl, nm = lam.norm(r), mu.norm(r)
        target = nl.lower * nm.lower
        if NormValue(s * model.weight_above(params.T)) >= target:
            skipped += 1
            continue
        prod = lam.mul(mu, s_work=s)
        np_ = prod.norm(r)
        checked += 1
        if not (nl.collapsed and nm.collapsed and np_.collapsed
                and np_.lower == target):
            failures += 1
    rep.add("collapse-equality", failures == 0 and checked > 0,
            f"{checked} pairs exactly multiplicative, {failures} failures, "
            f"{skipped} skipped (precondition)")


def _log_lead_power(p, s):
    """The m whose term b^(p^m) / p^m leads log(1 + b) at radius s: it
    maximises m - s*p^m, so it is the least m with s*p^m*(p-1) >= 1 (at
    equality m + 1 ties with it)."""
    m = 0
    while s * p ** m * (p - 1) < 1:
        m += 1
    return m


def _ambient(model, s) -> GradedAmbient:
    return GradedAmbient(model.p, model.d, [1] * model.d, s)


def _x1_e0(model, k, m):
    """The graded monomial X1^k e0^m of the model's dimension."""
    return (k,) + (0,) * (model.d - 1) + (m,)


@suite("thm45-graded", "thm45 graded-ring symbols", min_d=1)
def suite_thm45_graded(rep, params, rng):
    [model] = _models(params, "heisenberg")
    p = model.p
    s_half = Fraction(1, 2)
    r_half = RadiusParam(s_half)
    amb = _ambient(model, s_half)

    ok = True
    for i, ei in enumerate(_units(model.d)):
        sym, deg = Distribution.monomial(model, ei).principal_symbol(r_half)
        ok = ok and sym == GradedPoly.variable(amb, i + 1) and deg == s_half
    rep.add("symbol-bi", ok, "symbol of b_i is X_i, degree s")

    p1 = Distribution.one(model).scale(p)
    sym, deg = p1.principal_symbol(r_half)
    rep.add("symbol-p", sym == GradedPoly.variable(amb, 0) and deg == 1,
            "symbol of p is e0, degree 1")

    lg = lie_generator(model, 0)
    # a high radius lies above the tie radius 1/(p-1), where X1 alone leads
    s_high = next(s for s in (s_half, Fraction(3, 4)) if s > Fraction(1, p - 1))
    amb_high = _ambient(model, s_high)
    sym, deg = lg.principal_symbol(RadiusParam(s_high))
    rep.add("symbol-log-high-s", sym == GradedPoly.variable(amb_high, 1) and deg == s_high,
            f"log(1+b1) at s={s_high} has symbol X1")
    s_low = Fraction(1, 8)
    amb_low = _ambient(model, s_low)
    sym, deg = lg.principal_symbol(RadiusParam(s_low))
    m = _log_lead_power(p, s_low)
    k = p ** m
    deg_low = s_low * k - m
    want = GradedPoly(amb_low, {_x1_e0(model, k, -m): 1})
    rep.add("symbol-log-low-s", sym == want and deg == deg_low,
            f"log(1+b1) at s=1/8 has symbol e0^-{m}*X1^{k}, degree {deg_low}")
    s_tie = Fraction(1, p - 1)
    amb_tie = _ambient(model, s_tie)
    sym, deg = lg.principal_symbol(RadiusParam(s_tie))
    want = GradedPoly(amb_tie, {_x1_e0(model, 1, 0): 1, _x1_e0(model, p, -1): 1})
    rep.add("symbol-log-tie", sym == want,
            "at s=1/(p-1) the symbol is the genuine two-term sum")

    n = params.samples or 30
    checked = failures = skipped = 0
    for _ in range(n):
        lam = random_exact(model, rng)
        mu = random_exact(model, rng)
        prod = lam.mul(mu, s_work=s_half)
        try:
            sl, _ = lam.principal_symbol(r_half)
            sm, _ = mu.principal_symbol(r_half)
            sp, _ = prod.principal_symbol(r_half)
        except DistError:
            skipped += 1
            continue
        checked += 1
        if sp != sl * sm:
            failures += 1
    rep.add("symbol-homomorphism", failures == 0 and checked > 0,
            f"{checked} products, {failures} failures, {skipped} undefined")

    xs = [GradedPoly.variable(amb, i) for i in range(model.d + 1)]
    rep.add("symbol-commutative", all(x * y == y * x for x, y in combinations(xs, 2)),
            "graded product is order-independent")


def _second_basis(model):
    """h_1 h_d, h_2, ..., h_d: another ordered basis of generators of omega 1."""
    h = [model.element(e) for e in _units(model.d)]
    return [model.gmul(h[0], h[-1])] + h[1:]


def _same_norm(lam, mu, r) -> bool:
    """Whether the r-norms of lam and mu are both known exactly and equal."""
    n0, n1 = lam.norm(r), mu.norm(r)
    return n0.collapsed and n1.collapsed and n0.lower == n1.lower


@suite("basis-inv", "basis-independence of the r-norms", min_d=2)
def suite_basis_inv(rep, params, rng):
    s = Fraction(1, 2)
    r = RadiusParam(s)
    n = params.samples or 20
    for model in _models(params, "abelian:2", "heisenberg"):
        basis = _second_basis(model)
        failures = 0
        for _ in range(n // 2):
            lam = random_exact(model, rng)
            failures += not _same_norm(lam, lam.change_basis(basis), r)
        rep.add(f"norm-equal-{model.kind}", failures == 0,
                f"{n // 2} exact distributions, {failures} failures")

    [model] = _models(params, "abelian:2")
    d, e = model.d, _units(model.d)
    lam = random_exact(model, rng)
    same = lam.change_basis([model.element(ek) for ek in e])
    keys = set(lam.coeffs) | set(same.coeffs)
    rep.add("identity-basis", all(lam.coeff(a).same_value(same.coeff(a)) for a in keys),
            "re-expansion in the standard basis reproduces the head")

    # h_1 = (h_1 h_d) h_d^-1, so b1 = (1 + b'1)(1 + b'd)^-1 - 1
    out = Distribution.monomial(model, e[0]).change_basis(_second_basis(model))
    one = PadicScalar.one(model.p, model.elem_prec)
    want = [(e[0], one), (e[-1], -one), (tuple(map(sum, zip(e[0], e[-1]))), -one)]
    basis = ", ".join([f"h1h{d}"] + [f"h{i}" for i in range(2, d + 1)])
    rep.add("b1-reexpansion", all(out.coeff(a).same_value(c) for a, c in want),
            f"b1 in basis ({basis}): leading terms b'1 - b'{d} - b'1b'{d}")


@suite("sect5-qnorm", "sect5 q-norm on the semidirect model", sigma=True)
def suite_sect5_qnorm(rep, params, rng):
    [model] = _models(params, "semidirect")
    zero = Distribution.zero_dist(model)
    one = Distribution.one(model)
    ok = all(
        q_norm((zero, one), RadiusParam(s)) == (NormValue.one(), NormValue.one())
        for s in S3
    )
    rep.add("delta-sigma", ok, "q_r(delta_sigma) = 1")
    b = Distribution.monomial(model, (1,))
    mu = (b, one.scale(model.p))
    ok = all(
        q_norm(mu, RadiusParam(s)).lower == NormValue(min(s, Fraction(1)))
        and q_norm(mu, RadiusParam(s)).collapsed
        for s in S4
    )
    rep.add("b-plus-p-sigma", ok, "q_r(b + p delta_sigma) = max(r, 1/p)")

    n = params.samples or 100
    comparisons = violations = 0
    for _ in range(n):
        mu1 = (random_exact(model, rng), random_exact(model, rng))
        mu2 = (random_exact(model, rng), random_exact(model, rng))
        prod = semidirect_mul(mu1, mu2, s_work=S4)
        for s in S4:
            r = RadiusParam(s)
            comparisons += 1
            if q_norm(prod, r).upper > q_norm(mu1, r).upper * q_norm(mu2, r).upper:
                violations += 1
    rep.add("submultiplicative", violations == 0,
            f"{comparisons} comparisons, {violations} violations")


@suite("sect5-conj", "sect5 conjugation isometry")
def suite_sect5_conj(rep, params, rng):
    n = params.samples or 50
    s = Fraction(1, 2)
    r = RadiusParam(s)

    [model] = _models(params, "heisenberg")
    failures = 0
    for _ in range(n - n // 2):
        g = model.element([rng.randrange(ppow(model.p, 2)) for _ in range(model.d)])
        lam = random_exact(model, rng)
        failures += not _same_norm(lam, lam.conjugate(g), r)
    rep.add(f"inner-{model.kind}", failures == 0,
            f"{n - n // 2} samples, {failures} failures")

    [model] = _models(params, "semidirect")
    if not model.law.sigma:
        return
    failures = 0
    for _ in range(n // 2):
        lam = random_exact(model, rng)
        failures += not _same_norm(lam, lam.conjugate("sigma"), r)
    rep.add("sigma-semidirect", failures == 0,
            f"{n // 2} samples, {failures} failures")

    b = Distribution.monomial(model, (1,))
    out = b.conjugate("sigma")
    ok = all(
        out.coeff((k,)).same_value(
            PadicScalar.from_int(model.p, (-1) ** k, model.elem_prec))
        for k in range(1, params.T + 1)
    )
    rep.add("sigma-on-b", ok,
            "sigma b sigma^-1 = (1+b)^-1 - 1 with coefficients (-1)^k")


@suite("lemma412", "lemma412 radius threshold", min_d=1)
def suite_lemma412(rep, params, rng):
    n = params.samples or 100
    checked = failures = 0
    models = _models(params, "abelian:2", "heisenberg")
    for k in range(n):
        model = models[k % len(models)]
        a = random_exact(model, rng, max_tau=4, valmax=3)
        s_star = a.r_threshold().s
        tau_beta = min(model.tau(al) for al in a.coeffs
                       if a.coeff(al).valuation == 0)
        for i in range(1, 6):
            s_r = s_star * Fraction(i, 5)
            checked += 1
            if a.norm(RadiusParam(s_r)).upper > NormValue(s_r * tau_beta):
                failures += 1
    rep.add("filtration-bound", failures == 0,
            f"{checked} radius checks, {failures} failures")

    [model] = _models(params, "abelian:1")
    p, e1 = model.p, _units(model.d)[0]
    zero, e1_cubed = (0,) * model.d, tuple(3 * x for x in e1)
    cases = [
        ({zero: 1}, Fraction(1)),
        ({zero: p, e1: 1}, Fraction(1)),
        ({zero: p, e1_cubed: 1}, Fraction(1, 3)),
    ]
    ok = True
    for table, want in cases:
        a = Distribution.from_coeffs(model, table, model.max_weight)
        ok = ok and a.r_threshold().s == want
    rep.add("formula-oracles", ok,
            "thresholds for 1, p+b1, p+b1^3 are s = 1, 1, 1/3")


@suite("amice", "amice decay criterion", min_d=None)
def suite_amice(rep, params, rng):
    p = params.p
    f = mh.FunctionSpec.power_series_1p(1, p, 0)
    table = mh.mahler_coeffs(f, 24, prec=30)
    ok = all(
        table.coeff((k,)).same_value(PadicScalar.from_int(p, ppow(p, k), 30))
        for k in range(25)
    )
    rep.add("power1p-coeffs", ok, "c_k = p^k exactly for k <= 24")

    report = mh.amice_report(table, [Fraction(1, 2)])[0]
    rows_ok = all(
        report["rows"][k] == NormValue(k - Fraction(k, 2)) for k in range(25)
    )
    rep.add("power1p-decay", rows_ok and report["tail_nonincreasing"],
            "rows p^(-k/2), decaying tail verdict")

    const = mh.mahler_coeffs(mh.FunctionSpec.constant(1, p), 2 * p, prec=params.N)
    ok = set(const.coeffs) == {(0,)} and const.complete
    rep.add("constant-rows", ok, "all rows k >= 1 vanish")

    ind = mh.mahler_coeffs(mh.FunctionSpec.indicator(1, p, [0], 1), 3 * p,
                           prec=params.N)
    data = mh.amice_report(ind, [Fraction(1, p), Fraction(1, 2)])
    witness = "; ".join(
        f"u={d['u']}: tail_nonincreasing={d['tail_nonincreasing']}" for d in data
    )
    rep.add("indicator-data", True, "recorded, not asserted: " + witness)


@suite("mahler-dirac", "mahler pairing evaluates Diracs", min_d=1)
def suite_mahler_dirac(rep, params, rng):
    n = params.samples or 100
    [model1] = _models(params, "abelian:1")
    p = model1.p
    f = mh.FunctionSpec.power_series_1p(model1.d, p, 0)
    t1 = mh.mahler_coeffs(f, params.T + 8, prec=params.N)
    failures = 0
    for _ in range(n // 2):
        g = model1.random_element(rng)
        value, err = mh.pair(Distribution.dirac(g), t1)
        m = ppow(p, value.window)
        expected = pow(1 + p, g.coords[0], m)
        diff = value - PadicScalar.from_int(p, expected, value.window)
        if diff.residue != 0 and diff.abs_val() > err:
            failures += 1
    rep.add("power1p-eval", failures == 0,
            f"{n // 2} random g, {failures} failures")

    [model2] = _models(params, "abelian:2")
    d = model2.d
    specs = [
        mh.FunctionSpec.coordinate(d, p, d - 1),
        mh.FunctionSpec.monomial(d, p, range(1, d + 1)),
    ]
    failures = 0
    for spec in specs:
        t = mh.mahler_coeffs(spec, params.T + 4, prec=params.N)
        for _ in range(n // 4):
            g = model2.random_element(rng)
            value, err = mh.pair(Distribution.dirac(g), t)
            expected = PadicScalar.from_fraction(p, spec.evaluate(g.coords), value.window)
            diff = value - expected
            if diff.residue != 0 and diff.abs_val() > err:
                failures += 1
        ok_mono = True
        for alpha in list(t.coeffs)[:10]:
            if model2.tau(alpha) > params.T:
                continue
            v, e = mh.pair(Distribution.monomial(model2, alpha), t)
            ok_mono = ok_mono and e.is_zero and v.same_value(t.coeff(alpha))
        rep.add(f"monomial-pairing-{spec.kind}", ok_mono,
                "pair(b^alpha, t) = c_alpha exactly")
    rep.add("poly-eval", failures == 0,
            f"{n // 2} random g over polynomial functions, {failures} failures")

    t0 = mh.mahler_coeffs(mh.FunctionSpec.coordinate(model1.d, p, 0), 6, prec=params.N)
    v, e = mh.pair(lie_generator(model1, 0), t0)
    rep.add("derivative-at-0", e.is_zero and v.same_value(PadicScalar.one(p, v.prec)),
            "pair(log(1+b1), x) = 1 exactly")

    v, e = mh.pair(Distribution.one(model1), t1)
    rep.add("identity-pairing", v.same_value(t1.coeff((0,) * model1.d)),
            "pair(1, t) = c_0")


@suite("dsmooth-proj", "finite-level projection homomorphism", min_d=1)
def suite_dsmooth_proj(rep, params, rng):
    n = params.samples or 50
    for model in _models(params, "abelian:2", "heisenberg"):
        failures = 0
        for _ in range(n // 2):
            lam = random_combo(model, rng)
            mu = random_combo(model, rng)
            prod = lam * mu
            for level in (1, 2):
                left = mh.finite_level_project(prod, level)
                right = mh.finite_level_project(lam, level) * \
                    mh.finite_level_project(mu, level)
                if left != right:
                    failures += 1
        rep.add(f"multiplicative-{model.kind}", failures == 0,
                f"{n // 2} product pairs at levels 1,2, {failures} failures")

    [model] = _models(params, "abelian:2")
    counts = {"true": 0, "false": 0, "inconclusive": 0}
    trials = params.samples or 30
    for _ in range(trials):
        lam = random_combo(model, rng, nmax=2, coord_cap=4)
        coset = [rng.randrange(model.p) for _ in range(model.d)]
        verdict = mh.pair_with_indicator_crosscheck(lam, coset, 1)
        counts[verdict] += 1
    ok = counts["false"] == 0 and counts["true"] >= trials * 9 // 10
    rep.add("indicator-crosscheck", ok,
            f"true={counts['true']} inconclusive={counts['inconclusive']} "
            f"false={counts['false']} of {trials}")


@suite("prop814", "prop814 grade via Krull codimension", min_d=None)
def suite_prop814(rep, params, rng):
    p = params.p

    def amb(d):
        return GradedAmbient(p, d, [1] * d, Fraction(1, 2))

    a2, a3 = amb(2), amb(3)
    x = lambda a, i: GradedPoly.variable(a, i)

    cases = [
        ("grade-zero-ideal", GradedIdeal(a2, []), 2, 0),
        ("grade-x1-d2", GradedIdeal(a2, [x(a2, 1)]), 2, 1),
        ("grade-x1x2x3-d3", GradedIdeal(a3, [x(a3, 1), x(a3, 2), x(a3, 3)]), 3, 3),
        ("grade-e0sq-unit", GradedIdeal(a2, [x(a2, 0) * x(a2, 0)]), 2, inf),
    ]
    for cid, ideal, d, want in cases:
        got = grade_cyclic(ideal, d)
        rep.add(cid, got == want, f"grade = {got}, expected {want}")

    sat = saturate(GradedIdeal(a2, [x(a2, 0) * x(a2, 1)]))
    rep.add("saturate-e0x1", sat.same_ideal(GradedIdeal(a2, [x(a2, 1)]).groebner()),
            "e0*X1 saturates to X1")
    rep.add("krull-oracles", krull_dim(GradedIdeal(a2, [])) == 3
            and krull_dim(GradedIdeal(a2, [x(a2, 1)])) == 2
            and krull_dim(GradedIdeal(a3, [x(a3, 1), x(a3, 2), x(a3, 3)])) == 1
            and krull_dim(GradedIdeal(a2, [GradedPoly.constant(a2, 1)])) == -1,
            "dims 3, 2, 1, -1")

    gb = GradedIdeal(a2, [x(a2, 1) * x(a2, 1),
                          x(a2, 1) * x(a2, 2) - x(a2, 0) * x(a2, 0)]).groebner()
    has = any(g == x(a2, 0) * x(a2, 0) * x(a2, 1) for g in gb.gens)
    idem = gb.groebner().same_ideal(gb)
    rep.add("buchberger-oracle", has and idem,
            "basis contains e0^2*X1; groebner is idempotent")

    n = params.samples or 50
    failures = 0
    for _ in range(n):
        d = rng.randint(1, 3)
        a = amb(d)
        gens = [_random_poly(a, rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero] or [x(a, 1)]
        ideal = GradedIdeal(a, gens)
        member = GradedPoly.zero_poly(a)
        for g in gens:
            member = member + _random_poly(a, rng, deg=2) * g
        probe = rng.choice([member, _random_poly(a, rng)])
        rem, cof = ideal.reduce(probe)
        recon = rem
        for c, b in zip(cof, ideal.basis_polys()):
            recon = recon + c * b
        if recon != probe:
            failures += 1
        if ideal.contains(probe) != rem.is_zero:
            failures += 1
        if probe is member and not rem.is_zero:
            failures += 1
    rep.add("membership-certificates", failures == 0,
            f"{n} randomized instances, {failures} failures")


def _random_poly(ambient, rng, deg=4, nterms=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        mon = [0] * (ambient.d + 1)
        budget = rng.randint(0, deg)
        for _ in range(budget):
            mon[rng.randrange(ambient.d + 1)] += 1
        terms[tuple(mon)] = rng.randrange(1, ambient.p)
    return GradedPoly(ambient, terms)


@suite("thm812-smooth", "thm812 smooth-dual grade driver", min_d=1)
def suite_thm812_smooth(rep, params, rng):
    [model] = _models(params, "heisenberg")
    p = model.p
    for s in (Fraction(1, 2), Fraction(1, 8)):
        r = RadiusParam(s)
        amb = _ambient(model, s)
        gens = []
        degs = []
        for i in range(model.d):
            sym, deg = lie_generator(model, i).principal_symbol(r)
            shift = -sym.min_e0_exponent
            gens.append(sym.shift_e0(shift))  # e0 is a unit after saturation
            degs.append(deg)
        J = GradedIdeal(amb, gens)
        got = grade_cyclic(J, model.d)
        rep.add(f"grade-at-s-{s.numerator}-{s.denominator}", got == model.d,
                f"J = symbols of log(1+b_i): grade {got} = d, degrees {degs}")
    lg = lie_generator(model, 0)
    s_low = Fraction(1, 8)
    sym, deg = lg.principal_symbol(RadiusParam(s_low))
    amb = _ambient(model, s_low)
    m = _log_lead_power(p, s_low)
    k = p ** m
    rep.add("low-s-symbol", sym == GradedPoly(amb, {_x1_e0(model, k, -m): 1})
            and deg == s_low * k - m,
            f"at s=1/8 the symbol is e0^-{m}*X1^" + ("p" if m == 1 else f"(p^{m})"))


def run_suite(name: str, params: SuiteParams) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](params)
