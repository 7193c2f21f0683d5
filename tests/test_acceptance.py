"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion lines.
"""

import random
from fractions import Fraction

from padicdist.distalg import Distribution
from padicdist.groupmodel import GroupModel, simplex
from padicdist.serialize import parse_distribution, serialize_distribution
from padicdist.suites import SUITES, SuiteParams, run_suite

MODELS = ("abelian:2:5", "heisenberg:5", "semidirect:5")


def _report(name, rep):
    line = f"criterion {name}: {'PASS' if rep.passed else 'FAIL'}"
    print(line)
    if not rep.passed:
        print(rep.to_text())
    assert rep.passed, line


def _suite(name, criterion, **kw):
    rep = run_suite(name, SuiteParams(**kw))
    _report(f"{criterion} [{name}]", rep)


def test_criterion_01_dirac_multiplicativity():
    rng = random.Random("acceptance:1")
    bad = 0
    for gid in MODELS:
        model = GroupModel.from_string(gid, prec=12, max_weight=Fraction(12))
        for _ in range(100):
            g = model.random_element(rng)
            h = model.random_element(rng)
            left = Distribution.dirac(g) * Distribution.dirac(h)
            right = Distribution.dirac(model.gmul(g, h))
            keys = set(left.coeffs) | set(right.coeffs)
            if not all(left.coeff(a).same_value(right.coeff(a)) for a in keys):
                bad += 1
    line = f"criterion 1 [dirac-mult]: {'PASS' if bad == 0 else 'FAIL'} ({bad} bad pairs)"
    print(line)
    assert bad == 0, line


def test_criterion_02_structure_constant_bound():
    _suite("lemma41", 2)


def test_criterion_03_norm_submultiplicative():
    _suite("prop42", 3, samples=200)


def test_criterion_04_norm_multiplicative_on_exact():
    _suite("thm45-mult", 4, samples=100)


def test_criterion_05_commutator_norm_drop():
    _suite("lemma44", 5)


def test_criterion_06_basis_invariance():
    _suite("basis-inv", 6, samples=20)


def test_criterion_07_conjugation_and_qnorm():
    _suite("sect5-conj", 7, samples=50)
    _suite("sect5-qnorm", 7, samples=100)


def test_criterion_08_radius_threshold():
    _suite("lemma412", 8, samples=100)


def test_criterion_09_mahler_amice_pairing():
    _suite("amice", 9)
    _suite("mahler-dirac", 9, samples=100)


def test_criterion_10_finite_level_projection():
    _suite("dsmooth-proj", 10, samples=50)


def test_criterion_11_grade_oracles_and_driver():
    _suite("prop814", 11, samples=50)
    _suite("thm812-smooth", 11)


def test_criterion_12_round_trip_and_determinism():
    rng = random.Random("acceptance:12")
    bad = 0
    for _ in range(100):
        gid = rng.choice(MODELS)
        model = GroupModel.from_string(gid, prec=12, max_weight=Fraction(12))
        if rng.random() < 0.5:
            d = Distribution.dirac(model.random_element(rng))
        else:
            alphas = list(simplex(model.d, 4))
            table = {
                a: rng.randint(1, 5**6)
                for a in rng.sample(sorted(alphas), rng.randint(1, 3))
            }
            d = Distribution.from_coeffs(model, table, model.max_weight)
        text = serialize_distribution(d)
        if serialize_distribution(parse_distribution(text)) != text:
            bad += 1
    nondet = []
    params = SuiteParams(seed=11, samples=8)
    for name in SUITES:
        a = run_suite(name, params).to_text()
        b = run_suite(name, params).to_text()
        if a != b:
            nondet.append(name)
    ok = bad == 0 and not nondet
    line = (
        f"criterion 12 [round-trip/determinism]: {'PASS' if ok else 'FAIL'} "
        f"({bad} round-trip failures; nondeterministic: {nondet or 'none'})"
    )
    print(line)
    assert ok, line
