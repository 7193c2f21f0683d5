"""padicdist benchmark: seeded closed-loop workloads, checked by oracles.

Run from the root of a padicdist checkout:

    python3 bench/run.py --workload suites --seed 1 --seconds 35 --trace 0

One client sends the next request only after the previous one returns, in a
single thread of a single process.  ``--trace 0`` measures the end-to-end
metrics with tracing off, in reference seconds (see hostspeed.py).
``--trace 1`` runs the request list untraced and with spans around each
module's entry points, twice each in turn, checks that all passes give
identical outputs, and reports per-layer counts and self times.
``--workload all`` runs every workload in turn, each in its own process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter

import hostspeed
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
LIB_MODULES = ("padic", "groupmodel", "distalg", "graded", "mahler", "serialize",
               "cli", "suites")
SUITE_NAMES = ("lemma41", "prop42", "lemma44", "thm45-mult", "thm45-graded",
               "basis-inv", "sect5-qnorm", "sect5-conj", "lemma412", "amice",
               "mahler-dirac", "dsmooth-proj", "prop814", "thm812-smooth")
SETUPS_PER_PASS = 2
TRACE_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    return "count"


# -- the library under test --------------------------------------------------------


def load_library(src: str):
    """Import padicdist afresh from ``src``; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "padicdist" or m.startswith("padicdist.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(**{
        m: importlib.import_module(f"padicdist.{m}") for m in LIB_MODULES})
    if not os.path.abspath(lib.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"padicdist was imported from {lib.cli.__file__}, not {src}")
    return lib


def clear_caches(lib) -> None:
    """Empty the library's module-level caches, as a fresh process has them."""
    for mod in vars(lib).values():
        for obj in list(vars(mod).values()):
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                obj.cache_clear()


def binom_cache_info(lib):
    cached = getattr(lib.padic, "_binom_residue", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


# -- passes --------------------------------------------------------------------------


class Pass:
    """One run through the request list."""

    def __init__(self):
        self.intervals = []  # (start, end) of each request
        self.outcomes = Counter()
        self.failures = []
        self.digest = hashlib.sha256()

    @property
    def latencies(self):
        return [t1 - t0 for t0, t1 in self.intervals]


def run_pass(lib, wl, checked, tracer=None) -> Pass:
    """One pass over the request list.  ``checked`` maps a request's index to
    its output and verdicts; an output already checked is not checked again."""
    clear_caches(lib)
    out = Pass()
    clock = time.perf_counter
    for i, req in enumerate(wl.requests):
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        raw = wl.run(req)
        out.intervals.append((t0, clock()))
        if tracer is not None:
            tracer.request = None
        text = wl.output(req, raw)
        out.digest.update(text.encode())
        if i not in checked or checked[i][0] != text:
            checked[i] = (text, wl.check(req, raw))
        for outcome, detail in checked[i][1]:
            out.outcomes[outcome] += 1
            if outcome == workloads.FAILED:
                out.failures.append(detail)
    out.digest = out.digest.hexdigest()
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- provenance ------------------------------------------------------------------------


def git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def code_sha(root: str) -> str:
    """sha256 over the library and benchmark sources, for telling builds apart."""
    h = hashlib.sha256()
    for top in (os.path.join(root, "src", "padicdist"), BENCH_DIR):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# -- one workload --------------------------------------------------------------------


def set_up(cls, src, seed, intervals=None):
    """Import padicdist afresh, generate the inputs and warm up; appends the
    interval taken to ``intervals``.  Garbage left by earlier passes is
    collected first, outside the timing."""
    gc.collect()
    t0 = time.perf_counter()
    lib = load_library(src)
    wl = cls(lib, seed, OUT_DIR)
    wl.warm_up()
    if intervals is not None:
        intervals.append((t0, time.perf_counter()))
    return lib, wl


def measure(cls, src, seed, seconds):
    """Passes over the request list until the next would overrun
    ``seconds``: at least one, at most the workload's PASSES.

    Set-up is repeated SETUPS_PER_PASS times before every pass and once more
    at the end, so that its median samples the whole run and not only its
    first second.  The host is probed throughout (hostspeed.py)."""
    setups, passes, checked = [], [], {}
    start = time.perf_counter()
    with hostspeed.HostSpeed() as speed:
        while len(passes) < cls.PASSES:
            t0 = time.perf_counter()
            for _ in range(SETUPS_PER_PASS - 1):
                set_up(cls, src, seed, setups)[1].close()
            lib, wl = set_up(cls, src, seed, setups)
            passes.append(run_pass(lib, wl, checked))
            wl.close()
            took = time.perf_counter() - t0
            if time.perf_counter() - start + took > seconds:
                break
        set_up(cls, src, seed, setups)[1].close()
    return setups, passes, wl, speed


def end_to_end(wl, setups, passes, speed):
    """Timings in reference seconds (hostspeed.py).  A request's latency is
    the median over the passes, and ``wall_s`` their sum; a workload whose
    list is ONE_REQUEST has ``wall_s`` as its one latency."""
    lat = [statistics.median(speed.ref_s(*iv) for iv in ivs)
           for ivs in zip(*(p.intervals for p in passes))]
    wall = sum(lat)
    if getattr(wl, "ONE_REQUEST", False):
        lat = [wall]
    return {
        "setup_s": statistics.median(speed.ref_s(*iv) for iv in setups),
        "wall_s": wall,
        "ops_per_s": len(lat) / wall,
        "latency_p50_ms": 1000 * percentile(lat, 0.50),
        "latency_p95_ms": 1000 * percentile(lat, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def best_wall(passes) -> float:
    """Sum over requests of each request's best latency over the passes, in
    seconds as measured."""
    return sum(min(lat) for lat in zip(*(p.latencies for p in passes)))


def traced_run(lib, wl):
    """Untraced and traced passes, alternated TRACE_ROUNDS times; the layer
    metrics come from the last traced pass."""
    checked, untraced, traced = {}, [], []
    for _ in range(TRACE_ROUNDS):
        untraced.append(run_pass(lib, wl, checked))
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            traced.append(run_pass(lib, wl, checked, tracer))
        finally:
            tracer.uninstall()
    info = binom_cache_info(lib)
    metrics = tracer.layer_metrics(SUITE_NAMES)
    hits, misses = (info.hits, info.misses) if info else (0, 0)
    metrics["padic.binom_cache.hits"] = hits
    metrics["padic.binom_cache.misses"] = misses
    metrics["padic.binom_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.untraced_wall_s"] = best_wall(untraced)
    metrics["trace.traced_wall_s"] = best_wall(traced)
    return untraced + traced, tracer, metrics


def check_counts_repeat(path, counts, problems):
    """Counts must repeat exactly across runs of the same code and seed."""
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        changed = sorted(k for k in counts if before.get(k) != counts[k])
        if changed:
            problems.append("deterministic counts differ from an earlier run of this "
                            "code and seed: " + ", ".join(changed[:10]))
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)


def run_workload(args, root) -> int:
    src = os.path.join(root, "src")
    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(root), "code_sha256": code_sha(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "load": "closed loop, 1 client, 1 thread",
    }
    problems = []
    if args.trace:
        lib, wl = set_up(cls, src, args.seed)
        try:
            passes, tracer, metrics = traced_run(lib, wl)
        finally:
            wl.close()
        tag = f"{args.workload}-seed{args.seed}"
        tracer.write(os.path.join(OUT_DIR, f"trace-{tag}.csv.gz"))
        counts = {k: v for k, v in metrics.items() if layer_unit(k) != "s"}
        inputs = hashlib.sha256(repr(wl.requests).encode()).hexdigest()
        check_counts_repeat(
            os.path.join(OUT_DIR, f"counts-{tag}-{meta['code_sha256'][:12]}"
                                  f"-{inputs[:12]}.json"),
            counts, problems)
        meta["trace_overhead"] = (metrics["trace.traced_wall_s"]
                                  / metrics["trace.untraced_wall_s"] - 1)
        units = {k: layer_unit(k) for k in metrics}
    else:
        setups, passes, wl, speed = measure(cls, src, args.seed, args.seconds)
        metrics = end_to_end(wl, setups, passes, speed)
        units = END_TO_END
        meta["setup_samples_s"] = [t1 - t0 for t0, t1 in setups]
        meta["measured_wall_s"] = statistics.median(sum(p.latencies) for p in passes)
        meta.update(speed.summary())

    if len({p.digest for p in passes}) != 1:
        problems.append("passes over the same request list gave different outputs"
                        + (" (traced and untraced)" if args.trace else ""))
    outcomes = sum((p.outcomes for p in passes), Counter())
    attempted = sum(outcomes.values())
    failed = outcomes[workloads.FAILED]
    failures = [f for p in passes for f in p.failures]
    meta.update({
        "passes": len(passes),
        "requests_per_pass": len(wl.requests),
        "latency_samples": sum(len(p.latencies) for p in passes),
        "output_sha256": passes[0].digest,
        "failed_ratio": failed / attempted,
        "refused_ratio": outcomes[workloads.REFUSED] / attempted,
        "problems": problems,
    })
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"meta": meta, "failures": failures[:50], **result}, fh, indent=1)

    for f in failures[:5]:
        print(f"FAILED: {f}", file=sys.stderr)
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in meta.items() if k not in ("problems",)))
    for k, m in result["metrics"].items():
        print(f"{args.workload:10s} {k:45s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a child process, so peak RSS is the workload's own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "padicdist", "__init__.py")):
        print("error: no src/padicdist here; run from the root of a padicdist checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
