"""Per-layer tracing of the package from outside it.

`Tracer.install` replaces each public function named in `TARGETS` with a
timing wrapper in every package namespace that binds it (a function imported
into another module is called through that module's globals), and patches
`AbelianGroup.iter_coords` on the class to count the coordinate tuples it
yields.  `uninstall` restores the originals.  A name the package no longer
defines is recorded as absent instead of failing the run.

Spans are aggregated in memory per name: calls, total time, and self time
(total minus the time of wrapped calls made inside it).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "recipro"

TARGETS = {
    "reciprocity_pipeline": (
        "verify_pair",
        "build_transversal",
        "verify_transversal",
        "product_over_transversal",
        "closed_form_product",
        "qr_identity",
    ),
    "residue_arith": ("is_prime", "legendre_euler", "factorial_mod", "euler_criterion_check"),
    "quotient_rank": ("rank2_quotient_enumerated", "corollary_rank_for_primes"),
    "abelian_core": ("sum_all_elements", "two_torsion_subgroup"),
    "suites": (
        "run_suite",
        "random_factor_lists",
        "random_even_factor_lists",
        "random_euler_cases",
        "random_prime_pairs",
    ),
    "cli_report": ("main", "render_csv"),
    "budget": ("effective_cap",),
}

# The suites' case generators are reported together as one span name.
GENERATE = "suites.generate"
_GENERATORS = {"random_factor_lists", "random_even_factor_lists", "random_euler_cases",
               "random_prime_pairs"}
RANK_ENUM = "quotient_rank.rank2_quotient_enumerated"


class Tracer:
    def __init__(self) -> None:
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh tally: spans[name] = [calls, total_s, self_s]."""
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for short, names in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{short}")
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    self.absent.append(f"{short}.{fname}")
                    continue
                wrapper = self._wrap(short, fname, original)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, attr, wrapper)
        group_cls = getattr(sys.modules.get(f"{PACKAGE}.abelian_core"), "AbelianGroup", None)
        if group_cls is None or not hasattr(group_cls, "iter_coords"):
            self.absent.append("abelian_core.AbelianGroup.iter_coords")
        else:
            self._patch(group_cls, "iter_coords", self._wrap_iter_coords(group_cls.iter_coords))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _name_of(self, short: str, fname: str):
        if fname in _GENERATORS:
            return lambda args, kwargs: GENERATE
        if fname == "run_suite":
            return lambda args, kwargs: f"suites.run_suite.{args[0] if args else kwargs.get('which')}"
        name = f"{short}.{fname}"
        return lambda args, kwargs: name

    def _wrap(self, short: str, fname: str, fn):
        name_of = self._name_of(short, fname)
        on_return = {"verify_pair": self._on_verify_pair,
                     "render_csv": self._on_render_csv}.get(fname)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                span = self.spans[name]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[1]
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _on_verify_pair(self, args, kwargs, verdict) -> None:
        p, q = verdict.p, verdict.q
        self.counts["reciprocity_pipeline.ksteps"] += p * q // 2
        if "transversal_valid" in verdict.checks:
            self.counts["reciprocity_pipeline.transversal_checked"] += 1

    def _on_render_csv(self, args, kwargs, report) -> None:
        self.counts["cli_report.report_bytes"] += len(report.encode("utf-8"))

    def _wrap_iter_coords(self, method):
        tracer = self

        @functools.wraps(method)
        def iter_coords(group):
            inner = method(group)
            in_rank_enum = any(frame[0] == RANK_ENUM for frame in tracer._stack)
            return tracer._counted(inner, in_rank_enum)

        return iter_coords

    def _counted(self, inner, in_rank_enum: bool):
        n = 0
        try:
            for coords in inner:
                n += 1
                yield coords
        finally:
            self.counts["abelian_core.iter_coords.elements"] += n
            if in_rank_enum:
                self.counts["quotient_rank.enumerated_elements"] += n
