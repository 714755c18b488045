"""Self-tests of the benchmark: reproducible inputs, answers that agree with
independent routes, and the growth-exponent fit.

Run with the repository's test command (ximod importable from src/).
"""
from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import algebra as al  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import (  # noqa: E402
    exhaustive_irreducible_fp,
    krylov_minimal_polynomial,
    naive_charpoly,
)
from ximod import Poly, PrimeField  # noqa: E402
from ximod.jsonio import parse_matrix_json, poly_to_json  # noqa: E402


def _dump(rounds):
    return json.dumps([[(c.argv, c.payload, c.expect, c.group, c.size) for c in rnd]
                       for rnd in rounds])


def test_seed_gives_identical_inputs_and_answers():
    for name, build in workloads.WORKLOADS.items():
        first, again, other = build(11, rounds=1), build(11, rounds=1), build(12, rounds=1)
        assert _dump(first) == _dump(again), name
        assert _dump(first) != _dump(other), name


def _operator_commands():
    cmds = [c for rnd in workloads.decompose_operator(3, rounds=1) for c in rnd]
    cmds += [c for rnd in workloads.cli_small(3, rounds=3) for c in rnd]
    return [c for c in cmds if isinstance(c.payload, dict) and "operator" in c.payload
            and c.expect["exit"] == 0 and c.payload["operator"]["rows"] <= 4]


def test_invariant_factors_match_naive_charpoly_and_krylov_minimal_polynomial():
    cmds = _operator_commands()
    assert len(cmds) > 20
    for cmd in cmds:
        A = parse_matrix_json(cmd.payload["operator"], "$")
        expected = cmd.expect["json"]["invariant_factors"]
        product = Poly.one(A.field)
        for f in expected:
            product = product * Poly(A.field, [A.field.parse(c) if isinstance(c, str)
                                               else A.field.scalar((c["re"], c["im"]))
                                               for c in f])
        assert poly_to_json(product) == poly_to_json(naive_charpoly(A))
        assert expected[-1] == poly_to_json(krylov_minimal_polynomial(A))


def test_prime_field_pieces_are_irreducible_by_trial_division():
    rng = random.Random(5)
    for p, max_degree in ((2, 6), (101, 3)):
        F = al.FP(p)
        pool = workloads._fp_pool(F, rng, max_degree=max_degree)
        field = PrimeField(p)
        for piece in pool:
            poly = Poly(field, [field.from_int(c) for c in piece])
            assert exhaustive_irreducible_fp(poly), (p, piece)
    F = al.FP(2)  # and the test rejects a reducible polynomial
    assert not al.irreducible_fp(F, al.pmul(F, [1, 1], [1, 1, 1]))


def test_growth_exponent_recovers_a_known_slope():
    points = [(g, n, c * n**3.2) for g, c in (("q", 2.0), ("fp", 0.1)) for n in (4, 6, 8, 10)]
    assert math.isclose(run.growth_exponent(points), 3.2, rel_tol=1e-9)


def test_reject_floor_takes_the_per_call_cost_off_the_slope():
    def sample(group, size, seconds, exit_code=0):
        cmd = workloads.Command([], None, {"exit": exit_code}, group, size)
        return run.Sample(cmd, seconds, exit_code, True)

    per_call = 0.0014
    samples = [sample("q", None, per_call, exit_code=2) for _ in range(3)]
    samples += [sample(g, n, per_call + c * n**1.5) for g, c in (("q", 2e-4), ("fp:101", 1e-4))
                for n in (1, 2, 3)]
    floor = run.reject_floor(samples)
    assert floor == per_call
    assert math.isclose(run.growth_exponent(run.rung_medians(samples, floor)), 1.5,
                        rel_tol=1e-9)
