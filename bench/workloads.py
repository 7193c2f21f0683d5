"""The benchmark's three workloads.

Each workload turns its seed into a fixed request list at set-up; the
library sees only these generated inputs.  A run makes PASSES passes over
the list (fewer where they would overrun ``--seconds``).  ``run`` executes one
request and returns its raw outputs; ``check`` compares them with ``oracle``
outside the timed region and classifies every operation as ok, refused or
failed.

Where a workload draws many inputs of one kind, it draws them balanced
(``balanced``): seeds then differ in which inputs meet, not in how many of
each kind the list holds, so that ``wall_s`` measures the library rather
than the draw.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import re
import shutil
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracle

OK, REFUSED, FAILED = "ok", "refused", "failed"

# Library refusals the CLI documents: exit 2 or 4 with one of these reasons.
REFUSAL_REASONS = (
    "needs an exact Dirac witness",
    "insufficient truncation/precision",
    "has no symbol",
    "unbounded tail",
    "precision exhausted",
)


def balanced(rng, values, n):
    """n items of ``values``, each equally often (to within one), in an order
    drawn from ``rng``."""
    values = list(values)
    start = rng.randrange(len(values))
    out = [values[k % len(values)] for k in range(start, start + n)]
    rng.shuffle(out)
    return out


def call_cli(cli, argv):
    """cli.main(argv) in-process: (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # an uncaught exception is a failed operation
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def classify_exit(rc, err):
    """Outcome of a CLI call that did not exit 0."""
    if rc in (2, 4) and any(r in err for r in REFUSAL_REASONS):
        return REFUSED
    return FAILED


# -- suites ----------------------------------------------------------------------


SUITE_VERDICT = re.compile(r"^suite (\S+): (PASS|FAIL) \(\d+ checks\)$", re.M)


class Suites:
    """`padicdist verify all` in-process: the ROADMAP's end-to-end run.

    One request is one suite, `verify <suite>` with the same seed and sample
    count, and the list holds every suite in `verify all`'s order: together
    they do `verify all`'s work and print its report.  A suite is one
    operation.  The latencies and ``ops_per_s`` count the whole list as one
    request, as a user of `verify all` sees it.  The sample count is fixed so
    both sides of a comparison run equal work.
    """

    name = "suites"
    SUITES = None  # every suite; the self-test runs one small suite instead
    SAMPLES = 4
    PASSES = 6
    ONE_REQUEST = True  # a user waits for the whole list, as for `verify all`

    def __init__(self, lib, seed, workdir):
        self.cli = lib.cli
        names = self.SUITES or list(lib.suites.SUITES)
        self.requests = [["verify", name, "--seed", str(seed), "--samples", str(self.SAMPLES)]
                         for name in names]

    def warm_up(self):
        call_cli(self.cli, ["verify", "lemma44"])

    def run(self, argv):
        return call_cli(self.cli, argv)

    def output(self, argv, raw):
        return raw[1]  # the suite's part of the report, whose sha256 the run prints

    def check(self, argv, raw):
        rc, text, err = raw
        verdicts = SUITE_VERDICT.findall(text)
        ops = [(OK if v == "PASS" else FAILED, f"suite {name}: {v}") for name, v in verdicts]
        if rc != 0 or [name for name, _ in verdicts] != [argv[1]]:
            ops.append((FAILED, f"{argv[1]}: exit {rc}, verdicts {verdicts}: {err[-300:]}"))
        return ops

    def close(self):
        pass


# -- cli-chain -------------------------------------------------------------------

# The d >= 2 models come twice per cycle: their sessions take about twice as
# long, and with the four models equally often the median latency would fall
# in the gap between the fast half and the slow half.
CHAIN_MODELS = (("heisenberg:5", "heisenberg", 3), ("abelian:2:5", "abelian", 2),
                ("semidirect:5", "semidirect", 1), ("abelian:1:5", "abelian", 1),
                ("heisenberg:5", "heisenberg", 3), ("abelian:2:5", "abelian", 2))
NORM_RADII = ("1/4", "1/2", "3/4", "1")


class CliChain:
    """User sessions of CLI calls sharing files: expand, mul, norm, symbol,
    project and (on abelian models) pair.  One request is one session."""

    name = "cli-chain"
    CHAINS = 200
    PASSES = 3
    COORD_MAX = 3

    def __init__(self, lib, seed, workdir):
        self.cli = lib.cli
        os.makedirs(workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="chain-", dir=workdir)
        rng = random.Random(f"cli-chain:{seed}")
        slots = {}  # (model, T) -> indices of the sessions that use it
        for i in range(self.CHAINS):
            key = (i % len(CHAIN_MODELS), i // len(CHAIN_MODELS) % 2)
            slots.setdefault(key, []).append(i)
        self.requests = [None] * self.CHAINS
        for (m, t), idx in slots.items():
            gid, kind, d = CHAIN_MODELS[m]
            # each of the 2d coordinates of (g, h), balanced within the slot
            cols = [balanced(rng, range(self.COORD_MAX + 1), len(idx)) for _ in range(2 * d)]
            for n, i in enumerate(idx):
                row = tuple(col[n] for col in cols)
                self.requests[i] = (gid, kind, (6, 8)[t], row[:d], row[d:])

    def _path(self, name):
        return os.path.join(self.dir, name)

    def steps(self, req):
        gid, kind, T, g, h = req
        a, b, c = self._path("a.dist"), self._path("b.dist"), self._path("c.dist")
        steps = [
            ("expand-a", ["expand", "--group", gid, "-T", str(T),
                          "--elem", ",".join(map(str, g)), "--out", a]),
            ("expand-b", ["expand", "--group", gid, "-T", str(T),
                          "--elem", ",".join(map(str, h)), "--out", b]),
            ("mul", ["mul", a, b, "--r", "1/2", "--out", c]),
        ]
        for k, s in enumerate(NORM_RADII):
            steps.append((f"norm-{s}", ["norm", "--in", c, "--r", s,
                                        "--out", self._path(f"norm{k}.txt")]))
        steps.append(("symbol", ["symbol", "--in", c, "--r", "1/2",
                                 "--out", self._path("symbol.txt")]))
        steps.append(("project", ["project", "--in", c, "--level", "1",
                                  "--out", self._path("project.txt")]))
        if kind == "abelian":
            steps.append(("pair", ["pair", "--in", c, "--fn", "coordinate:0",
                                   "--out", self._path("pair.txt")]))
        return steps

    def warm_up(self):
        # a fixed session, so that set-up does the same work for every seed
        req = ("heisenberg:5", "heisenberg", 6, (1, 1, 0), (0, 1, 1))
        self.check(req, self.run(req))

    def run(self, req):
        return [call_cli(self.cli, argv) for _, argv in self.steps(req)]

    @staticmethod
    def _read(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def output(self, req, raw):
        """Exit codes and every file the session wrote."""
        texts = []
        for (_, argv), (rc, _, _) in zip(self.steps(req), raw):
            texts.append(f"{argv[0]} exit {rc}\n")
            if rc == 0:
                texts.append(self._read(argv[-1]))
        return "".join(texts)

    def check(self, req, raw):
        gid, kind, T, g, h = req
        p = 5
        gh = oracle.group_mul(kind, p, g, h)
        ops = []
        product = head = None
        for (step, argv), (rc, _, err) in zip(self.steps(req), raw):
            if rc != 0:
                outcome = classify_exit(rc, err)
                if step == "project" and outcome == REFUSED and product and product.exact:
                    outcome = FAILED  # an exact product keeps its Dirac witness
                ops.append((outcome, f"{step}: exit {rc}: {err.strip()[-300:]}"))
                continue
            try:
                text = self._read(argv[-1])
                if step in ("expand-a", "expand-b"):
                    elem = g if step == "expand-a" else h
                    oracle.check_dirac_file(oracle.DistFile(text), elem, step)
                elif step == "mul":
                    product = oracle.DistFile(text)
                    head = oracle.check_dirac_file(product, gh, step)
                elif step.startswith("norm-"):
                    oracle.check_norm(text, head, product, Fraction(step[5:]), step)
                elif step == "symbol":
                    oracle.check_symbol(text, head, product, Fraction(1, 2), step)
                elif step == "project":
                    oracle.check_projection(text, gh, p, 1, step)
                elif step == "pair":
                    oracle.check_pairing(text, gh[0], p, step)
                ops.append((OK, step))
            except (oracle.OracleMismatch, AttributeError, KeyError, TypeError,
                    ValueError, OSError) as exc:
                ops.append((FAILED, f"{step} {req}: {type(exc).__name__}: {exc}"))
        return ops

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# -- groebner --------------------------------------------------------------------

P_GROEBNER = 5


def _quadrics(nvars):
    """Exponent tuples of the degree-2 monomials in nvars variables."""
    out = []
    for i in range(nvars):
        for j in range(i, nvars):
            m = [0] * nvars
            m[i] += 1
            m[j] += 1
            out.append(tuple(m))
    return out


def _random_poly(rng, nvars, deg, nterms):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        m = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            m[rng.randrange(nvars)] += 1
        terms[tuple(m)] = rng.randrange(1, P_GROEBNER)
    return terms


def _known_answer_ideals():
    """prop814's grade oracles: (d, generators, grade)."""
    def var(d, i):  # X_i for i >= 1, e0 for i = 0 (the last slot)
        m = [0] * (d + 1)
        m[i - 1 if i else d] = 1
        return {tuple(m): 1}

    e0sq = {(0, 0, 2): 1}
    return [
        (2, [], 0),
        (2, [var(2, 1)], 1),
        (3, [var(3, 1), var(3, 2), var(3, 3)], 3),
        (2, [e0sq], float("inf")),
    ]


class Groebner:
    """Grades and ideal-membership certificates of seeded ideals over F_5.

    Two families: three trinomial quadrics in F_5[X1,X2,e0] (d=2) and three
    binomial quadrics in X1, X2, X3 inside F_5[X1,X2,X3,e0] (d=3), after
    prop814's known-answer ideals.  Families with a heavy-tailed saturation
    cost are left out; README.md gives the measurements.  One request is one ideal: grade_cyclic, then
    GradedIdeal.reduce on a generated member and on a random probe."""

    name = "groebner"
    ROUNDS = 170  # of two d=2 ideals and one d=3 ideal
    PASSES = 4

    def __init__(self, lib, seed, workdir):
        self.graded = lib.graded
        rng = random.Random(f"groebner:{seed}")
        self.requests = []
        for d, gens, grade in _known_answer_ideals():
            self.requests.append(self._request(rng, d, gens, grade))
        # two d=2 ideals (quadrics in X1, X2 and e0) to one d=3 ideal (quadrics
        # in X1, X2, X3 only), so that the median latency lies inside one family
        d2 = (2, 3, tuple(_quadrics(3)))
        d3 = (3, 2, tuple(m + (0,) for m in _quadrics(3)))
        draws = {fam: self._balanced_generators(rng, *fam[1:], n_ideals * self.ROUNDS * 3)
                 for fam, n_ideals in ((d2, 2), (d3, 1))}
        for _ in range(self.ROUNDS):
            for fam in (d2, d2, d3):
                gens = [next(draws[fam]) for _ in range(3)]
                self.requests.append(self._request(rng, fam[0], gens, None))

    @staticmethod
    def _balanced_generators(rng, nterms, mons, count):
        """``count`` generators with ``nterms`` terms each; supports (the
        nterms-subsets of ``mons``) and coefficients (1..p-1) balanced."""
        supports = balanced(rng, itertools.combinations(mons, nterms), count)
        coeffs = iter(balanced(rng, range(1, P_GROEBNER), count * nterms))
        return iter([{m: next(coeffs) for m in support} for support in supports])

    @staticmethod
    def _request(rng, d, gens, grade):
        p = P_GROEBNER
        member = {}
        for g in gens:
            member = oracle.poly_add(member, oracle.poly_mul(
                _random_poly(rng, d + 1, 2, 3), g, p), p)
        probe = _random_poly(rng, d + 1, 4, 3)
        return d, gens, member, probe, grade

    def warm_up(self):
        self.run(self.requests[1])

    def run(self, req):
        d, gens, member, probe, _ = req
        G = self.graded
        amb = G.GradedAmbient(P_GROEBNER, d, [1] * d, Fraction(1, 2))
        ideal = G.GradedIdeal(amb, [G.GradedPoly(amb, t) for t in gens])
        grade = G.grade_cyclic(ideal, d)
        reduced = [ideal.reduce(G.GradedPoly(amb, t)) for t in (member, probe)]
        basis = [b.terms for b in ideal.basis_polys()]
        return grade, basis, [(rem.terms, [c.terms for c in cof]) for rem, cof in reduced]

    def check(self, req, raw):
        d, gens, member, probe, want = req
        grade, basis, reduced = raw
        try:
            if want is not None:
                oracle.check(grade == want, f"grade {grade}, expected {want}")
            else:
                oracle.check(grade == float("inf") or 0 <= grade <= d + 1,
                             f"grade {grade} outside 0..{d + 1}")
            for (rem, cof), poly, what in zip(reduced, (member, probe), ("member", "probe")):
                oracle.check_cofactors(poly, basis, cof, rem, P_GROEBNER, what)
            oracle.check(not reduced[0][0], "a generated member has a nonzero remainder")
        except oracle.OracleMismatch as exc:
            return [(FAILED, f"ideal {gens} (d={d}): {exc}")]
        return [(OK, "ideal")]

    def output(self, req, raw):
        return repr(raw)

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (Suites, CliChain, Groebner)}
