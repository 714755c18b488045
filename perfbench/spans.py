"""Spans and counts around ximod's public functions, installed from outside.

A Tracer replaces each traced function in every ximod module namespace that
holds it (cli imports names directly) and restores the originals on
uninstall.  Spans record (command, name, parent span, start, end,
exception name) and stay in memory until the run writes them out; the hot
polynomial operations are only counted.  Targets missing from a later
version of ximod are skipped and their metrics read 0.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# span name -> (module, attribute path) of the function to wrap
SPANNED = {
    "cli.main": ("cli", "main"),
    "polymatrix.smith_normal_form": ("polymatrix", "smith_normal_form"),
    "polymatrix.charpoly": ("polymatrix", "charpoly"),
    "polymatrix.determinant": ("polymatrix", "PolyMatrix.determinant"),
    "matrix.rref": ("matrix", "rref"),
    "matrix.poly_eval_operator": ("matrix", "poly_eval_operator"),
    "tensor.relation_subspace": ("tensor", "relation_subspace"),
    "tensor.induced_operator": ("tensor", "induced_operator"),
    "tensor.project_to_quotient": ("tensor", "project_to_quotient"),
    "tensor.apply_left": ("tensor", "apply_left"),
    "tensor.apply_right": ("tensor", "apply_right"),
    "factor.factor_irreducible": ("factor", "factor_irreducible"),
    "factor.squarefree_decomposition": ("factor", "squarefree_decomposition"),
    "modules.decompose_operator_module": ("modules", "decompose_operator_module"),
    "modules.decompose_presented_module": ("modules", "decompose_presented_module"),
    "modules.primary_decomposition": ("modules", "primary_decomposition"),
    "modules.recombine_invariant_factors": ("modules", "recombine_invariant_factors"),
    "rewrite.parse_expression": ("rewrite", "parse_expression"),
    "rewrite.decide_equiv": ("rewrite", "decide_equiv"),
}
JSONIO_PARSE = ("parse_field_name", "parse_field_declaration", "parse_matrix_json",
                "parse_polymatrix_json", "parse_poly_json", "parse_vector_json")
JSONIO_RENDER = ("field_to_json", "matrix_to_json", "poly_to_json", "polymatrix_to_json",
                 "scalar_to_json", "vector_to_json")
SPANNED.update({f"jsonio.{f}": ("jsonio", f) for f in JSONIO_PARSE + JSONIO_RENDER})

COUNTED = {
    "poly.mul": ("poly", "Poly.__mul__"),
    "poly.divmod": ("poly", "Poly.__divmod__"),
    "poly.gcd": ("poly", "poly_gcd"),
}

# calls the CLI makes itself to re-verify a result before printing it
SELF_CHECKS = {"polymatrix.charpoly", "polymatrix.determinant", "matrix.poly_eval_operator",
               "tensor.project_to_quotient", "tensor.apply_left", "tensor.apply_right",
               "modules.recombine_invariant_factors"}

# metric -> span names whose outermost spans (no ancestor in the set) sum to it
GROUPS = {
    "polymatrix": {"polymatrix.smith_normal_form", "polymatrix.charpoly",
                   "polymatrix.determinant"},
    "factor": {"factor.factor_irreducible", "factor.squarefree_decomposition"},
    "modules.decompose": {"modules.decompose_operator_module",
                          "modules.decompose_presented_module"},
    "jsonio.parse": {f"jsonio.{f}" for f in JSONIO_PARSE},
    "jsonio.render": {f"jsonio.{f}" for f in JSONIO_RENDER},
}

# (metric, unit); per-command values are averages over the traced commands
PER_LAYER = [
    ("polymatrix.smith_normal_form.calls", "calls/op"),
    ("polymatrix.smith_normal_form.self_ms", "ms/op"),
    ("polymatrix.smith_normal_form.max_coeff_bits", "bits"),
    ("polymatrix.charpoly.ms", "ms/op"),
    ("polymatrix.determinant.calls", "calls/op"),
    ("polymatrix.determinant.self_ms", "ms/op"),
    ("polymatrix.share", "1"),
    ("cli.selfcheck.ms", "ms/op"),
    ("matrix.rref.calls", "calls/op"),
    ("matrix.rref.self_ms", "ms/op"),
    ("matrix.rref.cells", "cells/op"),
    ("matrix.rref.self_share", "1"),
    ("matrix.poly_eval_operator.self_ms", "ms/op"),
    ("tensor.relation_subspace.ms", "ms/op"),
    ("tensor.induced_operator.self_ms", "ms/op"),
    ("tensor.project_to_quotient.calls", "calls/op"),
    ("tensor.project_to_quotient.self_ms", "ms/op"),
    ("factor.factor_irreducible.calls", "calls/op"),
    ("factor.factor_irreducible.self_ms", "ms/op"),
    ("factor.squarefree_decomposition.self_ms", "ms/op"),
    ("factor.incomplete", "calls/op"),
    ("factor.share", "1"),
    ("poly.mul.calls", "calls/op"),
    ("poly.divmod.calls", "calls/op"),
    ("poly.gcd.calls", "calls/op"),
    ("modules.decompose.ms", "ms/op"),
    ("modules.primary_decomposition.ms", "ms/op"),
    ("fields.max_coeff_bits", "bits"),
    ("jsonio.parse.ms", "ms/op"),
    ("jsonio.render.ms", "ms/op"),
    ("cli.main.ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"),
    ("rewrite.parse_expression.self_ms", "ms/op"),
    ("rewrite.decide_equiv.ms", "ms/op"),
    ("trace.overhead_ratio", "1"),
    ("cli.cold_start_ms", "ms"),
]


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return owner, attr, getattr(owner, attr, None)


def value_bits(x) -> int:
    """Largest numerator or denominator bit length inside a ximod value
    (matrix entries, polynomial coefficients, scalar values)."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, (tuple, list)):
        return max((value_bits(v) for v in x), default=0)
    for attr in ("entries", "coeffs", "value"):
        if hasattr(x, attr):
            return value_bits(getattr(x, attr))
    return 0


def coeff_bits(doc) -> int:
    """Largest numerator or denominator bit length among the scalar strings
    of a JSON document."""
    if isinstance(doc, dict):
        return max((coeff_bits(v) for v in doc.values()), default=0)
    if isinstance(doc, list):
        return max((coeff_bits(v) for v in doc), default=0)
    if isinstance(doc, str):
        try:
            return max(abs(int(part)).bit_length() for part in doc.split("/"))
        except ValueError:
            return 0
    return 0


class Tracer:
    def __init__(self):
        self.spans = []  # (command, name, parent, start, end, exception name)
        self.counts = Counter()
        self.rref_cells = 0
        self.smith_results = []
        self.command = -1
        self._stack = []
        self._patches = []

    # installation --------------------------------------------------------
    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ximod" or n.startswith("ximod.")) and m is not None]
        for targets, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for name, (mod, path) in targets.items():
                owner, attr, fn = _resolve(sys.modules.get(f"ximod.{mod}"), path)
                if fn is None:
                    continue
                wrapper = make(name, fn)
                if "." in path:  # a method: patch the class
                    self._patch(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            exc_name = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.command, name, parent, start, end, exc_name)
            if name == "polymatrix.smith_normal_form":
                self.smith_results.append(result)
            elif name == "matrix.rref":
                self.rref_cells += args[0].rows * args[0].cols
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # results ---------------------------------------------------------------
    def metrics(self, factors: list, output_bits: int, overhead_ratio: float) -> dict:
        """Per-layer metrics; factors[c] calibrates the durations of command c."""
        spans = self.spans
        commands = len(factors)
        child = defaultdict(float)
        for cmd, _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += (end - start) * factors[cmd]
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        group_s = defaultdict(float)
        selfcheck = 0.0
        incomplete = 0
        for sid, (cmd, name, parent, start, end, exc) in enumerate(spans):
            dur = (end - start) * factors[cmd]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[sid]
            if name in SELF_CHECKS and parent >= 0 and spans[parent][1] == "cli.main":
                selfcheck += dur
            if exc == "FactorizationIncomplete" and name == "factor.factor_irreducible":
                incomplete += 1
            for group, names in GROUPS.items():
                if name in names and not self._has_ancestor(parent, names):
                    group_s[group] += dur

        def ms(seconds):
            return 1000.0 * seconds / commands

        def per(count):
            return count / commands

        main = incl["cli.main"] or float("inf")
        values = {
            "polymatrix.smith_normal_form.calls": per(calls["polymatrix.smith_normal_form"]),
            "polymatrix.smith_normal_form.self_ms": ms(self_s["polymatrix.smith_normal_form"]),
            "polymatrix.smith_normal_form.max_coeff_bits": max(
                (value_bits([getattr(s, k, None) for k in "UDV"]) for s in self.smith_results),
                default=0),
            "polymatrix.charpoly.ms": ms(incl["polymatrix.charpoly"]),
            "polymatrix.determinant.calls": per(calls["polymatrix.determinant"]),
            "polymatrix.determinant.self_ms": ms(self_s["polymatrix.determinant"]),
            "polymatrix.share": group_s["polymatrix"] / main,
            "cli.selfcheck.ms": ms(selfcheck),
            "matrix.rref.calls": per(calls["matrix.rref"]),
            "matrix.rref.self_ms": ms(self_s["matrix.rref"]),
            "matrix.rref.cells": per(self.rref_cells),
            "matrix.rref.self_share": self_s["matrix.rref"] / main,
            "matrix.poly_eval_operator.self_ms": ms(self_s["matrix.poly_eval_operator"]),
            "tensor.relation_subspace.ms": ms(incl["tensor.relation_subspace"]),
            "tensor.induced_operator.self_ms": ms(self_s["tensor.induced_operator"]),
            "tensor.project_to_quotient.calls": per(calls["tensor.project_to_quotient"]),
            "tensor.project_to_quotient.self_ms": ms(self_s["tensor.project_to_quotient"]),
            "factor.factor_irreducible.calls": per(calls["factor.factor_irreducible"]),
            "factor.factor_irreducible.self_ms": ms(self_s["factor.factor_irreducible"]),
            "factor.squarefree_decomposition.self_ms":
                ms(self_s["factor.squarefree_decomposition"]),
            "factor.incomplete": per(incomplete),
            "factor.share": group_s["factor"] / main,
            "poly.mul.calls": per(self.counts["poly.mul"]),
            "poly.divmod.calls": per(self.counts["poly.divmod"]),
            "poly.gcd.calls": per(self.counts["poly.gcd"]),
            "modules.decompose.ms": ms(group_s["modules.decompose"]),
            "modules.primary_decomposition.ms": ms(incl["modules.primary_decomposition"]),
            "fields.max_coeff_bits": output_bits,
            "jsonio.parse.ms": ms(group_s["jsonio.parse"]),
            "jsonio.render.ms": ms(group_s["jsonio.render"]),
            "cli.main.ms": ms(incl["cli.main"]),
            "cli.main.self_ms": ms(self_s["cli.main"]),
            "rewrite.parse_expression.self_ms": ms(self_s["rewrite.parse_expression"]),
            "rewrite.decide_equiv.ms": ms(incl["rewrite.decide_equiv"]),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER if name in values}

    def _has_ancestor(self, sid, names) -> bool:
        while sid >= 0:
            _, name, parent, _, _, _ = self.spans[sid]
            if name in names:
                return True
            sid = parent
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (cmd, name, parent, start, end, exc) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "command": cmd, "name": name, "parent": parent,
                                     "start": start, "end": end, "exception": exc}) + "\n")
