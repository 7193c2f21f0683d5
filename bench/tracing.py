"""Spans around padicdist's public entry points, installed from outside.

The library is not edited.  Each boundary is patched where its callers look
it up: a method on its class, a module global, or a name another module
imported with ``from ... import``.  A span is recorded as
``[name, start, end, parent index, request id, tag]`` in memory and written
out only when the run ends.  A layer's self time is its span time minus the
time of its direct child spans.
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); a dotted attribute names a class member.
# The same span name appears once per place a caller looks the function up.
BOUNDARIES = [
    ("padic", "binom", "padic.binom"),
    ("distalg", "binom", "padic.binom"),
    ("groupmodel", "GroupModel.gmul", "groupmodel.gmul"),
    ("groupmodel", "GroupModel.from_string", "groupmodel.from_string"),
    ("distalg", "Distribution.dirac_combination", "distalg.dirac_combination"),
    ("distalg", "Distribution.mul", "distalg.mul"),
    ("distalg", "Distribution.norm", "distalg.norm"),
    ("distalg", "Distribution.principal_symbol", "distalg.principal_symbol"),
    ("distalg", "Distribution.change_basis", "distalg.change_basis"),
    ("distalg", "Distribution.conjugate", "distalg.conjugate"),
    ("distalg", "structure_constants", "distalg.structure_constants"),
    ("suites", "structure_constants", "distalg.structure_constants"),
    ("distalg", "lie_generator", "distalg.lie_generator"),
    ("suites", "lie_generator", "distalg.lie_generator"),
    ("graded", "grade_cyclic", "graded.grade_cyclic"),
    ("cli", "grade_cyclic", "graded.grade_cyclic"),
    ("suites", "grade_cyclic", "graded.grade_cyclic"),
    ("graded", "saturate", "graded.saturate"),
    ("suites", "saturate", "graded.saturate"),
    ("graded", "krull_dim", "graded.krull_dim"),
    ("suites", "krull_dim", "graded.krull_dim"),
    ("graded", "GradedIdeal.reduce", "graded.reduce"),
    ("graded", "_buchberger", "graded.buchberger"),
    ("mahler", "mahler_coeffs", "mahler.mahler_coeffs"),
    ("cli", "mahler_coeffs", "mahler.mahler_coeffs"),
    ("mahler", "pair", "mahler.pair"),
    ("cli", "pair", "mahler.pair"),
    ("mahler", "finite_level_project", "mahler.finite_level_project"),
    ("cli", "finite_level_project", "mahler.finite_level_project"),
    ("serialize", "serialize_distribution", "serialize.serialize_distribution"),
    ("cli", "serialize_distribution", "serialize.serialize_distribution"),
    ("serialize", "parse_distribution", "serialize.parse_distribution"),
    ("cli", "parse_distribution", "serialize.parse_distribution"),
    ("cli", "main", "cli.main"),
]

# spans whose self time is also split by the model kind they ran on
KIND_SPLIT = ("distalg.mul", "distalg.norm", "distalg.dirac_combination")
MODEL_KINDS = ("abelian", "heisenberg", "semidirect")
EXIT_CODES = (0, 1, 2, 3, 4)


def _model_kind(name, args):
    if name == "distalg.dirac_combination":
        model = args[1] if len(args) > 1 else None  # (cls, model, terms, T)
    else:
        model = getattr(args[0], "model", None) if args else None
    return getattr(model, "kind", None)


class Tracer:
    """Installs span wrappers into the library and removes them again."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.stack = []
        self.request = None
        self.sizes = Counter()
        self.exits = Counter()
        self.missing = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = self._after

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            after(name, span, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _after(self, name, span, args, result):
        """Size counts, taken where the work happens."""
        if name in KIND_SPLIT:
            span[5] = _model_kind(name, args)
        if name.startswith("distalg.") and hasattr(result, "coeffs"):
            self.sizes["distalg.coeffs_out"] += len(result.coeffs)
            self.sizes["distalg.terms_out"] += len(getattr(result, "dirac_terms", None) or ())
        elif name == "graded.buchberger":
            self.sizes["graded.basis_size"] += len(result)
        elif name == "serialize.serialize_distribution":
            self.sizes["serialize.serialize_distribution.bytes"] += len(result.encode())
        elif name == "serialize.parse_distribution":
            self.sizes["serialize.parse_distribution.bytes"] += len(args[0].encode())
        elif name == "cli.main":
            self.exits[result] += 1

    # -- install / remove ---------------------------------------------------------

    def install(self):
        for mod_name, attr, name in BOUNDARIES:
            owner = getattr(self.lib, mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(leaf) if path else getattr(owner, leaf, None)
            if raw is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            setattr(owner, leaf, new)
            self._undo.append((owner, leaf, raw))
        suites = self.lib.suites.SUITES
        for key, fn in list(suites.items()):
            suites[key] = self._wrap(f"suites.{key}", fn)
            self._undo.append((suites, key, fn))
        if self.missing:
            print("trace: boundaries not found: " + ", ".join(self.missing),
                  file=sys.stderr)

    def uninstall(self):
        for owner, leaf, raw in reversed(self._undo):
            if isinstance(owner, dict):
                owner[leaf] = raw
            else:
                setattr(owner, leaf, raw)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def layer_metrics(self, suite_names):
        """Per-layer counts and self times from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        by_kind = defaultdict(float)
        inclusive = defaultdict(float)
        norm_in_mul = 0
        for i, (name, start, end, parent, _, tag) in enumerate(spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            inclusive[name] += end - start
            if tag is not None:
                by_kind[(name, tag)] += own
            if name == "distalg.norm" and parent >= 0 and spans[parent][0] == "distalg.mul":
                norm_in_mul += 1
        out = {}
        for name in dict.fromkeys(n for _, _, n in BOUNDARIES):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in KIND_SPLIT:
            for kind in MODEL_KINDS:
                out[f"{name}.self_s.{kind}"] = by_kind[(name, kind)]
        out["distalg.mul.norm_calls"] = norm_in_mul
        for key in ("distalg.terms_out", "distalg.coeffs_out", "graded.basis_size",
                    "serialize.serialize_distribution.bytes",
                    "serialize.parse_distribution.bytes"):
            out[key] = self.sizes[key]
        for code in EXIT_CODES:
            out[f"cli.exit.{code}"] = self.exits[code]
        for suite in suite_names:
            out[f"suites.{suite}_s"] = inclusive[f"suites.{suite}"]
        return out

    def write(self, path):
        """All spans as gzipped CSV: index, request, name, start, end, parent."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "request", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent, req, _) in enumerate(self.spans):
                w.writerow([i, req, name, f"{start:.9f}", f"{end:.9f}", parent])
