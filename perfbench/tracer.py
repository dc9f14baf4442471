"""Spans and counters for the traced benchmark run.

The tracer wraps public ncgl2 functions from outside the package: every
module-level binding of a wrapped function, in every loaded ``ncgl2.*``
module, is replaced by the wrapper, because many modules hold their own
``from .ncalg import ...`` binding of the same object.  Spans are kept in
memory as ``[name, parent, start, end]`` and reduced to self and total
times when the pass ends.

``normal_form_word`` is only counted, never spanned: it is called close to
a million times per workload and a span per call would swamp the trace.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# module -> functions that get a span; every call is also counted
SPANNED = {
    "ncalg": ("coproduct", "coproduct_leg", "multiply_legs", "antipode", "antipode_inv"),
    "linalg": ("nullspace_sparse", "rref"),
    "comodules": ("tensor", "left_dual", "hom_space", "image", "generated_subcomodule"),
    "standard": ("build_delta", "build_nabla", "canonical_map"),
    "borel": ("induced_truncated", "semi_invariants"),
    "simples": ("classify", "sl2_rank_oracle"),
    "weights": ("enumerate_lambda", "pi_below"),
    "cli": ("main",),
    "checks": ("run_check_suite",),
}

SUITE_SPAN = "checks.suite."

# counters that must repeat exactly between two traced passes of one seed
EXACT_COUNTS = (
    "ncalg.nf_calls",
    "ncalg.nf_cache_entries",
    "ncalg.antipode_inv_calls",
    "ncalg.coproduct_calls",
    "linalg.equations",
    "linalg.unknowns",
    "linalg.distinct_equations",
)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the part its children cover.

    ``spans`` is a sequence of ``(name, parent, start, end)`` where
    ``parent`` is the index of the enclosing span or None.  Child intervals
    are clipped to the parent and merged, so overlapping children are
    counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for index, (name, parent, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def total_times(spans) -> dict[str, float]:
    """Wall time per span name, counting only spans with no same-name ancestor."""
    out: dict[str, float] = {}
    for name, parent, start, end in spans:
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent is None:
            out[name] = out.get(name, 0.0) + end - start
    return out


class Tracer:
    """Collects spans, call counts and work counters for one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.nf_cache: dict = {}

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else None, time.perf_counter(), 0.0])
        self.stack.append(index)
        self.counts[name + "_calls"] += 1
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        def spanned(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return spanned

    def _nullspace(self, name: str, fn):
        spanned = self.wrap(name, fn)
        counts = self.counts

        def nullspace_sparse(equations, nvars):
            equations = list(equations)
            rows = [frozenset((k, v) for k, v in eq.items() if v) for eq in equations]
            counts["linalg.equations"] += len(rows)
            counts["linalg.distinct_equations"] += len(set(rows))
            counts["linalg.nonzeros"] += sum(map(len, rows))
            counts["linalg.unknowns"] += nvars
            basis = spanned(equations, nvars)
            counts["linalg.rank"] += nvars - len(basis)
            return basis

        return nullspace_sparse

    def _tensor(self, name: str, fn):
        spanned = self.wrap(name, fn)
        counts = self.counts

        def tensor(X, Y):
            out = spanned(X, Y)
            counts["comodules.tensor_out_terms"] += sum(
                len(entry.items()) for row in out.coaction for entry in row
            )
            return out

        return tensor

    def _suites(self, name: str, fn):
        """run_check_suite, split into one run_check_suite([suite]) call per suite."""
        suites = tuple(sys.modules["ncgl2.checks"].SUITES)

        def run_check_suite(names, bounds=None):
            index = self._open(name)
            try:
                names = [names] if isinstance(names, str) else list(names)
                results = []
                for suite in (s for n in names for s in (suites if n == "all" else (n,))):
                    results.extend(self.wrap(SUITE_SPAN + suite, fn)([suite], bounds))
                return results
            finally:
                self._close(index)

        return run_check_suite

    def _count_nf(self, fn, cache):
        counts = self.counts

        def normal_form_word(word):
            counts["ncalg.nf_calls"] += 1
            if tuple(word) in cache:
                counts["ncalg.nf_cache_hits"] += 1
            return fn(word)

        return normal_form_word

    def install(self) -> None:
        """Wrap the SPANNED functions and count normal_form_word calls."""
        special = {
            "linalg.nullspace_sparse": self._nullspace,
            "comodules.tensor": self._tensor,
            "checks.run_check_suite": self._suites,
        }
        replace = {}
        for module_name, names in SPANNED.items():
            module = sys.modules["ncgl2." + module_name]
            for name in names:
                fn = getattr(module, name)
                full = f"{module_name}.{name}"
                replace[id(fn)] = (fn, special.get(full, self.wrap)(full, fn))
        ncalg = sys.modules["ncgl2.ncalg"]
        self.nf_cache = ncalg._NF_CACHE
        nf = ncalg.normal_form_word
        replace[id(nf)] = (nf, self._count_nf(nf, self.nf_cache))
        for module_name, module in list(sys.modules.items()):
            if module_name != "ncgl2" and not module_name.startswith("ncgl2."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of this pass, by name."""
        own = self_times(self.spans)
        total = total_times(self.spans)
        c = self.counts
        nf_calls = c["ncalg.nf_calls"]
        out = {
            "ncalg.antipode_inv_calls": c["ncalg.antipode_inv_calls"],
            "ncalg.antipode_inv_self_s": own.get("ncalg.antipode_inv", 0.0),
            "ncalg.coproduct_calls": c["ncalg.coproduct_calls"],
            "ncalg.coproduct_self_s": own.get("ncalg.coproduct", 0.0),
            "ncalg.coproduct_leg_self_s": own.get("ncalg.coproduct_leg", 0.0),
            "ncalg.multiply_legs_self_s": own.get("ncalg.multiply_legs", 0.0),
            "ncalg.antipode_self_s": own.get("ncalg.antipode", 0.0),
            "ncalg.nf_calls": nf_calls,
            "ncalg.nf_cache_hit_ratio": c["ncalg.nf_cache_hits"] / nf_calls if nf_calls else 0.0,
            "ncalg.nf_cache_entries": len(self.nf_cache),
            "linalg.nullspace_calls": c["linalg.nullspace_sparse_calls"],
            "linalg.nullspace_self_s": own.get("linalg.nullspace_sparse", 0.0),
            "linalg.equations": c["linalg.equations"],
            "linalg.distinct_equations": c["linalg.distinct_equations"],
            "linalg.distinct_equation_ratio": (
                c["linalg.distinct_equations"] / c["linalg.equations"] if c["linalg.equations"] else 0.0
            ),
            "linalg.unknowns": c["linalg.unknowns"],
            "linalg.nonzeros": c["linalg.nonzeros"],
            "linalg.rank": c["linalg.rank"],
            "linalg.rref_self_s": own.get("linalg.rref", 0.0),
            "comodules.tensor_self_s": own.get("comodules.tensor", 0.0),
            "comodules.tensor_out_terms": c["comodules.tensor_out_terms"],
            "comodules.left_dual_self_s": own.get("comodules.left_dual", 0.0),
            "comodules.hom_space_self_s": own.get("comodules.hom_space", 0.0),
            "comodules.image_self_s": own.get("comodules.image", 0.0),
            "comodules.generated_subcomodule_self_s": own.get("comodules.generated_subcomodule", 0.0),
            "standard.build_delta_s": total.get("standard.build_delta", 0.0),
            "standard.build_nabla_s": total.get("standard.build_nabla", 0.0),
            "standard.canonical_map_s": total.get("standard.canonical_map", 0.0),
            "standard.canonical_map_calls": c["standard.canonical_map_calls"],
            "borel.induced_truncated_self_s": own.get("borel.induced_truncated", 0.0),
            "borel.semi_invariants_self_s": own.get("borel.semi_invariants", 0.0),
            "simples.classify_self_s": own.get("simples.classify", 0.0),
            "simples.sl2_rank_oracle_self_s": own.get("simples.sl2_rank_oracle", 0.0),
            "weights.enumerate_lambda_s": total.get("weights.enumerate_lambda", 0.0),
            "weights.pi_below_self_s": own.get("weights.pi_below", 0.0),
            "cli.self_s": own.get("cli.main", 0.0),
        }
        for suite in sys.modules["ncgl2.checks"].SUITES:
            out["checks.suite_s." + suite] = total.get(SUITE_SPAN + suite, 0.0)
        return out
