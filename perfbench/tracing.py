"""Spans and counts around the public functions of each autalg module.

The wrappers are installed from the benchmark's side, on every name that
refers to a wrapped function in any autalg module: ``autscheme`` binds
``eta_matrix`` by name, ``compare_locus`` calls ``oracle.locus_points``,
``generic_image`` recurses through its own module global, and the CLI binds
``parse_file``, ``format_poly`` and ``check_point`` by name.  Nothing inside
``src/`` is changed.

A span is ``[name, start, end, parent, item]``; ``parent`` is the index of
the enclosing span (-1 for the round itself) and ``item`` the presentation
the round was working on.  A layer's self time is the time of its spans
minus the part covered by their child spans, so the self times of all
layers plus the benchmark's own (``bench``) add up to the traced round.
"""

from __future__ import annotations

import time
from collections import Counter

LAYERS = ("presentation", "words", "freealg", "linalg", "poly", "autscheme",
          "oracle", "cli")
MODULES = ("autalg",) + tuple(f"autalg.{name}" for name in LAYERS)


def gl_order(n: int, p: int) -> int:
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


class Tracer:
    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.item = -1
        self._depth: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.now(), 0.0, parent, self.item])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = self.now()

    def wrap(self, fn, name: str, inspect=None, mode: str = "span"):
        """mode "span": a span per call; "outer": a span only for calls not
        nested in another call of the same function; "count": no span."""
        tracer = self
        calls = f"{name}.calls"

        if mode == "count":
            def counted(*args, **kwargs):
                tracer.counts[calls] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            tracer.counts[calls] += 1
            if mode == "outer" and tracer._depth[name]:
                return fn(*args, **kwargs)
            tracer._depth[name] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer._depth[name] -= 1
            if inspect is not None:
                idx = tracer.open("bench.inspect")
                inspect(tracer, args, kwargs, result)
                tracer.close(idx)
            return result
        return spanned

    def install(self) -> None:
        """Replace every binding of the traced functions in autalg's modules."""
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        for owner, attr, name, inspect, mode in _targets():
            orig = getattr(owner, attr)
            wrapper = self.wrap(orig, name, inspect, mode)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    # -- results -----------------------------------------------------------

    def span_seconds(self) -> Counter:
        total: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
        return total

    def self_seconds(self) -> Counter:
        """Self time per layer (the part of a span's name before the dot)."""
        child: Counter = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[idx]
        return out


def _inspect_words(tracer, args, kwargs, table):
    tracer.counts["words.table_words"] += sum(len(level) for level in table.by_length)


def _inspect_kernel(tracer, args, kwargs, kb):
    tracer.counts["autscheme.kernel_dim"] += len(kb.vectors)


def _inspect_ideal(tracer, args, kwargs, system):
    pres = args[0]
    gens = system.generators
    tracer.counts["autscheme.generators"] += len(gens)
    tracer.counts["autscheme.monomials"] += sum(len(g.terms) for g in gens)
    tracer.counts["words.universe_nodes"] += len(pres.universe._nodes)
    top = max((g.total_degree() for g in gens), default=0)
    tracer.maxima["autscheme.max_degree"] = max(
        top, tracer.maxima.get("autscheme.max_degree", 0))


def _inspect_locus(tracer, args, kwargs, points):
    system = args[0]
    n, p = system.n, system.ring.p
    tracer.counts["autscheme.points_scanned"] += p ** (n * n)
    tracer.counts["autscheme.points_invertible"] += gl_order(n, p)
    tracer.counts["autscheme.locus_points"] += len(points)


def _inspect_oracle(tracer, args, kwargs, autos):
    tracer.counts["oracle.autos"] += len(autos.autos)


def _targets():
    """(owner, attribute, span name, inspector, mode) for each traced function."""
    from autalg import (autscheme, cli, freealg, linalg, oracle, poly,
                        presentation, words)

    return [
        (cli, "main", "cli.main", None, "span"),
        (presentation, "parse_file", "presentation.parse_file", None, "span"),
        (presentation, "parse", "presentation.parse", None, "span"),
        (presentation, "generation_closure", "presentation.generation_closure", None, "span"),
        (presentation, "base_change", "presentation.base_change", None, "span"),
        (presentation, "format_presentation", "presentation.format_presentation", None, "span"),
        (words, "enumerate_words", "words.enumerate_words", _inspect_words, "span"),
        (freealg, "eta_matrix", "freealg.eta_matrix", None, "span"),
        (linalg, "rref", "linalg.rref", None, "span"),
        (linalg, "det", "linalg.det", None, "span"),
        (linalg, "inverse", "linalg.inverse", None, "span"),
        (autscheme, "ideal_generators", "autscheme.ideal_generators", _inspect_ideal, "span"),
        (autscheme, "kernel_basis", "autscheme.kernel_basis", _inspect_kernel, "span"),
        (autscheme, "generic_image", "autscheme.generic_image", None, "outer"),
        (autscheme, "locus_points", "autscheme.locus_points", _inspect_locus, "span"),
        (autscheme, "check_point", "autscheme.check_point", None, "span"),
        (poly.Polynomial, "mul", "poly.mul", None, "count"),
        (poly.Polynomial, "substitute", "poly.substitute", None, "span"),
        (poly, "format_poly", "poly.format_poly", None, "span"),
        (oracle, "enumerate_automorphisms", "oracle.enumerate_automorphisms", _inspect_oracle, "span"),
        (oracle, "compare_locus", "oracle.compare_locus", None, "span"),
    ]


def layer_metrics(tracer: Tracer) -> dict:
    """The traced per-layer metrics of one round, by metric name."""
    secs = tracer.span_seconds()
    counts = tracer.counts
    own = tracer.self_seconds()
    invertible = counts["autscheme.points_invertible"]
    out = {
        "presentation.parse_s": secs["presentation.parse"],
        "presentation.closure_s": secs["presentation.generation_closure"],
        "presentation.base_change_s": secs["presentation.base_change"],
        "words.enumerate_s": secs["words.enumerate_words"],
        "words.table_words": counts["words.table_words"],
        "words.universe_nodes": counts["words.universe_nodes"],
        "freealg.eta_matrix_s": secs["freealg.eta_matrix"],
        "linalg.rref_s": secs["linalg.rref"],
        "linalg.rref_calls": counts["linalg.rref.calls"],
        "linalg.det_s": secs["linalg.det"],
        "linalg.det_calls": counts["linalg.det.calls"],
        "autscheme.kernel_basis_s": secs["autscheme.kernel_basis"],
        "autscheme.kernel_dim": counts["autscheme.kernel_dim"],
        "autscheme.generic_image_s": secs["autscheme.generic_image"],
        "autscheme.generic_image_calls": counts["autscheme.generic_image.calls"],
        "autscheme.generators": counts["autscheme.generators"],
        "autscheme.monomials": counts["autscheme.monomials"],
        "autscheme.max_degree": tracer.maxima.get("autscheme.max_degree", 0),
        "autscheme.points_scanned": counts["autscheme.points_scanned"],
        "autscheme.points_invertible": invertible,
        "autscheme.locus_hit_ratio": (counts["autscheme.locus_points"] / invertible
                                      if invertible else 0.0),
        "autscheme.check_point_s": secs["autscheme.check_point"],
        "autscheme.check_point_calls": counts["autscheme.check_point.calls"],
        "poly.mul_calls": counts["poly.mul.calls"],
        "poly.substitute_s": secs["poly.substitute"],
        "poly.format_s": secs["poly.format_poly"],
        "oracle.enumerate_s": secs["oracle.enumerate_automorphisms"],
        "oracle.autos": counts["oracle.autos"],
    }
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = own[layer]
    return out
