"""Self-test of the benchmark: every workload at a tiny size, and every oracle
against a deliberately perturbed result.

Run from the root of a padicdist checkout:

    python3 -m pytest -q bench/test_bench.py

Results are perturbed here, in the test, never in the library.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

TINY = {
    (workloads.Suites, "SUITES"): ["lemma44"],
    (workloads.CliChain, "CHAINS"): 8,
    (workloads.Groebner, "ROUNDS"): 2,
}


class TinyRuns(unittest.TestCase):
    """Each workload end to end at a tiny size, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        cls.saved = {key: getattr(*key) for key in TINY}
        for (owner, attr), value in TINY.items():
            setattr(owner, attr, value)
        os.makedirs(run.OUT_DIR, exist_ok=True)
        cls.out_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
        cls.saved[(run, "OUT_DIR")] = run.OUT_DIR
        run.OUT_DIR = cls.out_dir

    @classmethod
    def tearDownClass(cls):
        for (owner, attr), value in cls.saved.items():
            setattr(owner, attr, value)
        shutil.rmtree(cls.out_dir, ignore_errors=True)

    def run_bench(self, workload, trace):
        args = SimpleNamespace(workload=workload, seed=7, seconds=0.01, trace=trace)
        buf = io.StringIO()
        with redirect_stdout(buf):
            self.assertEqual(run.run_workload(args, ROOT), 0)
        return json.loads(buf.getvalue().splitlines()[-1])

    def check_result(self, res, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        self.assertEqual(got, want)
        for m in res["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_emits_every_metric(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.check_result(self.run_bench(name, 0), SPEC["end_to_end"])
                self.check_result(self.run_bench(name, 1), SPEC["per_layer"])

    def test_traced_counts_repeat(self):
        first = self.run_bench("cli-chain", 1)["metrics"]
        second = self.run_bench("cli-chain", 1)["metrics"]
        for k, m in first.items():
            if m["unit"] != "s":
                self.assertEqual(m["value"], second[k]["value"], k)


class Perturbed(unittest.TestCase):
    """Each oracle must flag a wrong result."""

    @classmethod
    def setUpClass(cls):
        cls.lib = run.load_library(os.path.join(ROOT, "src"))
        os.makedirs(run.OUT_DIR, exist_ok=True)
        cls.work = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def outcomes(self, ops):
        return [o for o, _ in ops]

    # -- suites

    def test_suites_flags_a_failed_check_and_a_bad_exit(self):
        saved = workloads.Suites.SUITES
        workloads.Suites.SUITES = ["lemma44"]
        try:
            wl = workloads.Suites(self.lib, 1, self.work)
        finally:
            workloads.Suites.SUITES = saved
        rc, text, err = wl.run(wl.requests[0])
        ops = wl.check(wl.requests[0], (rc, text, err))
        self.assertEqual(self.outcomes(ops), [workloads.OK])
        bad = text.replace(": PASS (", ": FAIL (")
        self.assertIn(workloads.FAILED, self.outcomes(wl.check(wl.requests[0], (1, bad, err))))
        self.assertIn(workloads.FAILED, self.outcomes(wl.check(wl.requests[0], (1, text, err))))

    # -- cli-chain

    def chain(self, req):
        wl = workloads.CliChain(self.lib, 1, self.work)
        raw = wl.run(req)
        ops = wl.check(req, raw)
        self.assertNotIn(workloads.FAILED, self.outcomes(ops))
        return wl, raw

    def perturbed(self, wl, req, raw, name, old, new):
        path = wl._path(name)
        with open(path) as fh:
            text = fh.read()
        self.assertIn(old, text)
        with open(path, "w") as fh:
            fh.write(text.replace(old, new, 1))
        ops = wl.check(req, raw)
        return dict(zip([s for s, _ in wl.steps(req)], self.outcomes(ops)))

    def test_chain_flags_a_wrong_product_coefficient(self):
        req = ("abelian:2:5", "abelian", 8, (1, 2), (2, 1))
        wl, raw = self.chain(req)
        got = self.perturbed(wl, req, raw, "c.dist", "1,1 : 0:9:", "1,1 : 0:8:")
        self.assertEqual(got["mul"], workloads.FAILED)

    def test_chain_flags_a_heisenberg_group_law_error(self):
        # (0,1,0)(1,0,0) = (1,1,-p); a library multiplying in the other order
        # would write delta_(1,1,0) instead
        req = ("heisenberg:5", "heisenberg", 6, (0, 1, 0), (1, 0, 0))
        wl, raw = self.chain(req)
        rc, _, _ = workloads.call_cli(self.lib.cli, [
            "expand", "--group", "heisenberg:5", "-T", "6", "--elem", "1,1,0",
            "--out", wl._path("c.dist")])
        self.assertEqual(rc, 0)
        got = dict(zip([s for s, _ in wl.steps(req)], self.outcomes(wl.check(req, raw))))
        self.assertEqual(got["mul"], workloads.FAILED)

    def test_chain_flags_a_wrong_norm_symbol_projection_and_pairing(self):
        req = ("abelian:1:5", "abelian", 8, (1,), (2,))
        wl, raw = self.chain(req)
        # delta_3 = 1 + 3b + 3b^2 + b^3: the norm at s = 1/2 is p^0
        got = self.perturbed(wl, req, raw, "norm1.txt", "p^0 .. p^0", "p^-1 .. p^-1")
        self.assertEqual(got["norm-1/2"], workloads.FAILED)
        got = self.perturbed(wl, req, raw, "symbol.txt", "degree = 0", "degree = 1/2")
        self.assertEqual(got["symbol"], workloads.FAILED)
        got = self.perturbed(wl, req, raw, "project.txt", "3 : ", "4 : ")
        self.assertEqual(got["project"], workloads.FAILED)
        got = self.perturbed(wl, req, raw, "pair.txt", "value = 0:3:", "value = 0:4:")
        self.assertEqual(got["pair"], workloads.FAILED)

    def test_chain_counts_an_unexpected_refusal_as_failed(self):
        req = ("abelian:1:5", "abelian", 8, (1,), (2,))
        wl, raw = self.chain(req)
        steps = [s for s, _ in wl.steps(req)]
        raw = list(raw)
        raw[steps.index("project")] = (2, "", "error: finite-level projection needs "
                                              "an exact Dirac witness\n")
        raw[steps.index("norm-1")] = (2, "", "error: something undocumented\n")
        got = dict(zip(steps, self.outcomes(wl.check(req, raw))))
        self.assertEqual(got["project"], workloads.FAILED)
        self.assertEqual(got["norm-1"], workloads.FAILED)

    # -- groebner

    def test_groebner_flags_wrong_grades_and_certificates(self):
        wl = workloads.Groebner(self.lib, 1, self.work)
        for req in wl.requests[:6]:
            raw = wl.run(req)
            self.assertEqual(self.outcomes(wl.check(req, raw)), [workloads.OK])
        known = wl.requests[2]  # <X1, X2, X3> at d = 3 has grade 3
        grade, basis, reduced = wl.run(known)
        self.assertEqual(grade, 3)
        self.assertEqual(self.outcomes(wl.check(known, (2, basis, reduced))),
                         [workloads.FAILED])
        req = wl.requests[5]
        grade, basis, reduced = wl.run(req)
        (rem_m, cof_m), (rem_p, cof_p) = reduced
        bumped = dict(rem_p)
        mon = next(iter(bumped), (0,) * 4)
        bumped[mon] = (bumped.get(mon, 0) + 1) % 5 or 1
        bad = [(rem_m, cof_m), (bumped, cof_p)]
        self.assertEqual(self.outcomes(wl.check(req, (grade, basis, bad))),
                         [workloads.FAILED])
        nonzero_member = [({(0, 0, 0, 1): 1}, cof_m), (rem_p, cof_p)]
        self.assertEqual(self.outcomes(wl.check(req, (grade, basis, nonzero_member))),
                         [workloads.FAILED])

    def test_suites_requests_make_up_verify_all(self):
        wl = workloads.Suites(self.lib, 3, self.work)
        self.assertEqual([argv[1] for argv in wl.requests], list(self.lib.suites.SUITES))
        parts = [wl.run(argv) for argv in wl.requests]
        self.assertTrue(all(rc == 0 for rc, _, _ in parts))
        rc, whole, _ = wl.run(["verify", "all", *wl.requests[0][2:]])
        self.assertEqual(rc, 0)
        self.assertEqual("".join(text for _, text, _ in parts), whole)

    # -- bookkeeping

    def test_host_speed_scales_intervals_and_drops_probes(self):
        speed = hostspeed.HostSpeed()
        probe = 2 * hostspeed.REF_PROBE_S  # a host at half the reference speed
        for t in (0.0, 1.0, 2.0, 3.0):
            speed.record(t, t + probe)
        # [0.5, 2.5] holds the probes at 1.0 and 2.0
        self.assertAlmostEqual(speed.ref_s(0.5, 2.5), (2.0 - 2 * probe) / 2)
        self.assertAlmostEqual(speed.ref_s(1.5, 1.6), 0.1 / 2)
        speed.record(4.0, 4.0 + probe / 2)
        speed.record(5.0, 5.0 + probe / 2)
        self.assertAlmostEqual(speed.ref_s(4.5, 4.6), 0.1)

    def test_changed_counts_are_reported(self):
        path = os.path.join(self.work, "counts.json")
        problems = []
        run.check_counts_repeat(path, {"a.calls": 1}, problems)
        run.check_counts_repeat(path, {"a.calls": 1}, problems)
        self.assertEqual(problems, [])
        run.check_counts_repeat(path, {"a.calls": 2}, problems)
        self.assertEqual(len(problems), 1)


if __name__ == "__main__":
    unittest.main()
