"""Compare one command's exit code and printed JSON with its expected answer."""
from __future__ import annotations

import json
from fractions import Fraction


def _get(doc, path):
    for key in path.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def _example61(doc):
    # A = diag(a, b), B = diag(c, d): one quotient dimension per equal pair
    for inst in doc["instances"]:
        equal = sum(inst[s] == inst[t] for s in ("a", "b") for t in ("c", "d"))
        if not (inst["classes_equal"] and inst["difference_in_relations"]
                and inst["quotient_dim"] == equal):
            return False
    return bool(doc["instances"])


def _branching_table(doc):
    # relations c - a*c: a one-dimensional quotient survives only for a = 1
    for row in doc["table"]:
        a = Fraction(row["a"])
        if (row["quotient_dim"], row["relation_rank"]) != ((1, 0) if a == 1 else (0, 1)):
            return False
        if (row["caveat"] is None) != (a in (0, 1)):
            return False
    return len(doc["table"]) == 5


RULES = {
    "basis_len": lambda d: len(d["canonical_basis"]) == d["quotient_dim"],
    "incomplete": lambda d: "factorization_incomplete" in d.get("warning", {}),
    "caveat_on": lambda d: d["caveat"] is not None,
    "caveat_off": lambda d: d["caveat"] is None,
    "example61": _example61,
    "branching_table": _branching_table,
}


def check(expect: dict, code: int, stdout: str) -> bool:
    """True when the outcome is the one the input was built to produce."""
    if code != expect["exit"]:
        return False
    if code != 0:
        return stdout == ""
    try:
        doc = json.loads(stdout)
        if doc.get("self_check") != "ok":
            return False
        for path, want in expect["json"].items():
            got = _get(doc, path)
            if path in expect["unordered"]:
                got, want = sorted(map(json.dumps, got)), sorted(map(json.dumps, want))
            if got != want:
                return False
        return all(RULES[name](doc) for name in expect["rules"])
    except (ValueError, KeyError, IndexError, TypeError):
        return False
