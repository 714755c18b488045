"""Formal pair sequences, their rewriting rules, and equivalence decisions.

A formal sequence is a nonempty list of (x, y) pairs; concatenation is list
concatenation and is deliberately not commutative.  The rewriting rules are

  * permute the pairs,
  * split (x + x', y) into (x, y)(x', y), and the mirror image on y,
  * move a coefficient across the pair: (c x, y) <-> (x, c y), where c
    ranges over the scalars (standard rules) or over polynomial actions
    (operator, subring, branching rules).

Equivalence is decided by linearising both sequences into tensor
coordinates and testing membership of the difference in the relation
subspace of the rule set.  A breadth-first closure search over prime
fields provides an independent finite-scale oracle for that decision
procedure: everything the rules can reach must be accepted by the decider.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    ExpressionSyntaxError,
    InputValidationError,
    NoSolution,
    TagMismatch,
)
from .fields import Field, GaussianRationals, PrimeField, Scalar
from .jsonio import parse_scalar_json
from .matrix import (
    Matrix,
    Vector,
    kernel_basis,
    poly_eval_operator,
    solve_linear,
    vec_add,
    vec_sub,
)
from .poly import Poly
from .tensor import (
    TensorElement,
    TensorKind,
    relation_subspace,
    tensor_coordinates,
)


@dataclass(frozen=True)
class FormalPair:
    """One (x, y) entry of a formal sequence."""

    x: Vector
    y: Vector


@dataclass(frozen=True)
class FormalSequence:
    """A nonempty sequence of pairs with uniform shapes and field."""

    pairs: tuple[FormalPair, ...]

    def __post_init__(self):
        if not self.pairs:
            raise DimensionMismatch("a formal sequence has at least one pair")
        first = self.pairs[0]
        if not first.x or not first.y:
            raise DimensionMismatch("pair components must be nonempty")
        field = first.x[0].field
        n, m = len(first.x), len(first.y)
        for p in self.pairs:
            if len(p.x) != n or len(p.y) != m:
                raise DimensionMismatch("pairs have inconsistent component sizes")
            for c in p.x + p.y:
                if c.field != field:
                    raise TagMismatch("pair entries over different fields")

    @property
    def n(self) -> int:
        return len(self.pairs[0].x)

    @property
    def m(self) -> int:
        return len(self.pairs[0].y)

    @property
    def field(self) -> Field:
        return self.pairs[0].x[0].field

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class RuleSet:
    """A rule family: the tensor kind plus the polynomial degree admitted in
    a single move (the bound matters to the search oracle only)."""

    kind: TensorKind
    degree_bound: int = 1


@dataclass(frozen=True)
class OracleBudget:
    """Resource bounds for the closure search.  max_applications bounds the
    search depth; max_states aborts via BudgetExceeded."""

    max_length: int
    max_degree: int
    max_states: int
    max_applications: int | None = None


def concatenate(s: FormalSequence, t: FormalSequence) -> FormalSequence:
    """Join two sequences; order is preserved and significant."""
    if (s.n, s.m) != (t.n, t.m) or s.field != t.field:
        raise DimensionMismatch("cannot concatenate sequences of different shapes")
    return FormalSequence(s.pairs + t.pairs)


def linearize(s: FormalSequence) -> TensorElement:
    """Sum of the simple-tensor coordinates of the pairs."""
    acc = TensorElement.zero(s.field, s.n, s.m)
    for p in s.pairs:
        acc = acc + tensor_coordinates(p.x, p.y)
    return acc


def decide_equiv(
    s: FormalSequence, t: FormalSequence, rules: RuleSet
) -> tuple[bool, TensorElement]:
    """(verdict, difference): the linearised difference of s and t, and
    whether it lies in the rule set's relation subspace (which is zero for
    the standard rules)."""
    if (s.n, s.m) != (t.n, t.m) or s.field != t.field:
        raise DimensionMismatch("sequences of different shapes")
    W = relation_subspace(rules.kind, s.n, s.m)
    if W.field != s.field:
        raise TagMismatch("rule set field does not match the sequences")
    diff = linearize(s) - linearize(t)
    return W.contains(diff.coords), diff


# ---------------------------------------------------------------------------
# breadth-first closure oracle (prime fields only)
# ---------------------------------------------------------------------------

def _all_vectors(field: PrimeField, n: int) -> list[Vector]:
    elements = field.elements()
    return [tuple(v) for v in product(elements, repeat=n)]


def _all_polys(field: PrimeField, max_degree: int) -> list[Poly]:
    out = set()
    elements = field.elements()
    for coeffs in product(elements, repeat=max_degree + 1):
        out.add(Poly(field, coeffs))
    return sorted(out, key=Poly.sort_key)


def _action_pairs(rules: RuleSet, field: PrimeField, n: int, m: int, max_degree: int):
    """All (left matrix, right matrix) pairs a single move may use: the
    (pi(M), pi(N)) for the kind's operator pair (M, N) and every pi up to
    the degree bound.  For the standard kind pi(I) = pi(1) I, so these are
    exactly the scalar moves (c I, c I)."""
    degree = min(rules.degree_bound, max_degree)
    M, N = rules.kind.operators(n, m)
    pairs = {
        (poly_eval_operator(pi, M), poly_eval_operator(pi, N))
        for pi in _all_polys(field, degree)
    }
    return sorted(
        pairs,
        key=lambda mn: tuple(
            tuple(c for row in X.values for c in row) for X in mn
        ),
    )


class _SolutionCache:
    """All solutions of M v = u over a prime field, memoised per matrix."""

    def __init__(self, field: PrimeField):
        self.field = field
        self.kernels: dict[Matrix, list[Vector]] = {}
        self.solutions: dict[tuple[Matrix, Vector], list[Vector]] = {}

    def all_solutions(self, M: Matrix, u: Vector) -> list[Vector]:
        key = (M, u)
        hit = self.solutions.get(key)
        if hit is not None:
            return hit
        if M not in self.kernels:
            self.kernels[M] = kernel_basis(M)
        try:
            base = solve_linear(M, u)
        except NoSolution:
            self.solutions[key] = []
            return []
        kernel = self.kernels[M]
        sols = []
        for coeffs in product(self.field.elements(), repeat=len(kernel)):
            v = base
            for c, k in zip(coeffs, kernel):
                v = vec_add(v, tuple(c * e for e in k))
            sols.append(v)
        self.solutions[key] = sols
        return sols


def closure_oracle(
    s: FormalSequence, rules: RuleSet, budget: OracleBudget
) -> set[FormalSequence]:
    """Everything reachable from s by rule applications within the budget.

    The rules are applied in both directions, so the result is a subset of
    the equivalence class of s, exhaustive up to the stated bounds.  Used
    as an independent check of decide_equiv over prime fields.
    """
    field = s.field
    if not isinstance(field, PrimeField):
        raise ValueError("the closure oracle enumerates prime fields only")
    n, m = s.n, s.m
    vectors_x = _all_vectors(field, n)
    vectors_y = _all_vectors(field, m)
    actions = _action_pairs(rules, field, n, m, budget.max_degree)
    cache = _SolutionCache(field)

    def neighbors(seq: FormalSequence):
        pairs = seq.pairs
        L = len(pairs)
        out = []
        # permutations: transpositions generate them all
        for i in range(L):
            for j in range(i + 1, L):
                p = list(pairs)
                p[i], p[j] = p[j], p[i]
                out.append(tuple(p))
        # splits grow the sequence by one pair
        if L + 1 <= budget.max_length:
            for idx, pair in enumerate(pairs):
                for x1 in vectors_x:
                    x2 = vec_sub(pair.x, x1)
                    out.append(
                        pairs[:idx]
                        + (FormalPair(x1, pair.y), FormalPair(x2, pair.y))
                        + pairs[idx + 1 :]
                    )
                for y1 in vectors_y:
                    y2 = vec_sub(pair.y, y1)
                    out.append(
                        pairs[:idx]
                        + (FormalPair(pair.x, y1), FormalPair(pair.x, y2))
                        + pairs[idx + 1 :]
                    )
        # merges are the reverse of splits (adjacent pairs sharing a side)
        for idx in range(L - 1):
            p1, p2 = pairs[idx], pairs[idx + 1]
            if L - 1 >= 1:
                if p1.y == p2.y:
                    out.append(
                        pairs[:idx]
                        + (FormalPair(vec_add(p1.x, p2.x), p1.y),)
                        + pairs[idx + 2 :]
                    )
                if p1.x == p2.x:
                    out.append(
                        pairs[:idx]
                        + (FormalPair(p1.x, vec_add(p1.y, p2.y)),)
                        + pairs[idx + 2 :]
                    )
        # coefficient moves, both directions
        for idx, pair in enumerate(pairs):
            for ME, MF in actions:
                for x in cache.all_solutions(ME, pair.x):
                    out.append(
                        pairs[:idx]
                        + (FormalPair(x, MF.matvec(pair.y)),)
                        + pairs[idx + 1 :]
                    )
                for y in cache.all_solutions(MF, pair.y):
                    out.append(
                        pairs[:idx]
                        + (FormalPair(ME.matvec(pair.x), y),)
                        + pairs[idx + 1 :]
                    )
        return [FormalSequence(p) for p in out]

    seen = {s}
    frontier = [s]
    applications = 0
    while frontier:
        if budget.max_applications is not None and applications >= budget.max_applications:
            break
        applications += 1
        nxt = []
        for state in frontier:
            for nb in neighbors(state):
                if nb in seen:
                    continue
                if len(seen) >= budget.max_states:
                    raise BudgetExceeded(
                        f"closure exceeded {budget.max_states} states"
                    )
                seen.add(nb)
                nxt.append(nb)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# expression text format
# ---------------------------------------------------------------------------

class _ExpressionParser:
    """Recursive-descent parser for pair-sequence expressions.

    Grammar: sequence := pair (";" pair)*; pair := "(" vector "," vector ")";
    vector := "[" scalar ("," scalar)* "]".  Scalars follow the field's text
    encoding; gaussian values may also be spelled as {"re": ..., "im": ...}.
    """

    def __init__(self, text: str, field: Field):
        self.text = text
        self.field = field
        self.pos = 0

    def _location(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        column = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, column

    def _fail(self, message: str, pos: int | None = None):
        line, column = self._location(self.pos if pos is None else pos)
        raise ExpressionSyntaxError(message, line, column)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _expect(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            self._fail(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> FormalSequence:
        pairs = [self._parse_pair()]
        while self._peek() == ";":
            self.pos += 1
            pairs.append(self._parse_pair())
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail(f"unexpected trailing input {self.text[self.pos]!r}")
        return FormalSequence(tuple(pairs))

    def _parse_pair(self) -> FormalPair:
        self._expect("(")
        x = self._parse_vector()
        self._expect(",")
        y = self._parse_vector()
        self._expect(")")
        return FormalPair(x, y)

    def _parse_vector(self) -> Vector:
        self._expect("[")
        entries = [self._parse_scalar()]
        while self._peek() == ",":
            self.pos += 1
            entries.append(self._parse_scalar())
        self._expect("]")
        return tuple(entries)

    def _parse_scalar(self) -> Scalar:
        self._skip_ws()
        start = self.pos
        if self._peek() == "{":
            return self._parse_object_scalar(start)
        while self.pos < len(self.text) and self.text[self.pos] not in ",];)":
            self.pos += 1
        atom = self.text[start : self.pos].strip()
        if not atom:
            self._fail("expected a scalar", start)
        try:
            return self.field.parse(atom)
        except (ValueError, TypeError, ZeroDivisionError):
            self._fail(f"not a valid {self.field.describe()} scalar: {atom!r}", start)

    def _parse_object_scalar(self, start: int) -> Scalar:
        depth = 0
        end = self.pos
        while end < len(self.text):
            if self.text[end] == "{":
                depth += 1
            elif self.text[end] == "}":
                depth -= 1
                if depth == 0:
                    end += 1
                    break
            end += 1
        else:
            self._fail("unterminated scalar object", start)
        blob = self.text[start:end]
        self.pos = end
        if not isinstance(self.field, GaussianRationals):
            self._fail("object scalars are only valid over the gaussian rationals", start)
        try:
            return parse_scalar_json(self.field, json.loads(blob), "scalar")
        except (ValueError, InputValidationError):
            self._fail(f"not a valid gaussian scalar object: {blob!r}", start)
        except RecursionError:
            self._fail("gaussian scalar object nested too deeply", start)


def parse_expression(text: str, field: Field) -> FormalSequence:
    """Parse a pair-sequence expression; errors carry line and column."""
    return _ExpressionParser(text, field).parse()


def format_sequence(seq: FormalSequence) -> str:
    """Render a sequence so that parsing it back is the identity."""

    def vector(v: Vector) -> str:
        return "[" + ", ".join(str(c) for c in v) + "]"

    return "; ".join(f"({vector(p.x)}, {vector(p.y)})" for p in seq.pairs)
