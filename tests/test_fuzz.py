"""Fuzzing `cli.main` in-process: every call ends with exit code 0, 2 or 3.

Payloads are drawn from the JSON grammar of each command (fields q, qi and
fp, small matrices and polynomials, malformed scalars, booleans where
integers belong) and from mutations of golden payloads, as text in a file
or as bytes on stdin.  No exception may leave `main`, and each call stays
within a process-time bound.  The example counts are fixed and
derandomized, so a run is reproducible and short.
"""
import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ximod.cli import main

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)
CALL_BOUND_S = 2.0  # process time; the slowest drawn call takes about 0.1 s

FIELDS = {"q": {"field": "q"}, "qi": {"field": "qi"},
          "fp:2": {"field": "fp", "p": 2}, "fp:101": {"field": "fp", "p": 101}}
# values put where they do not belong: booleans and other non-integers,
# malformed or oversized scalars, bad field declarations
BAD_VALUES = [True, False, None, 0, -1, 10**9, 10**30, 2.5, [], {}, [[]], "", " ", "x",
              "1/0", "1/", "--1", "nan", "0x10", "1e5000", "1e-5i", "9" * 5000,
              "1e100000000", {"field": "fp", "p": 4}, {"field": []}, {"re": "1"}]
BAD_FLAGS = ["--field", "fp:4", "z", "--nope", "", "1e5000"]

small = st.integers(-9, 9)
rational = st.one_of(small, small.map(str), st.builds("{}/{}".format, small, st.integers(1, 9)))


def scalar_text(flag):
    """Scalars as they are written in an expression."""
    if flag == "qi":
        return st.one_of(rational.map(str), st.builds("{}{:+d}i".format, small, small))
    return rational.map(str) if flag == "q" else small.map(str)


def scalar_json(flag):
    if flag == "qi":
        return st.one_of(scalar_text(flag), st.builds(lambda re, im: {"re": re, "im": im},
                                                      rational.map(str), rational.map(str)))
    return st.one_of(scalar_text(flag), small)


def poly_json(flag):
    return st.lists(scalar_json(flag), max_size=3)


@st.composite
def grid(draw, flag, entry, rows, cols):
    return {**FIELDS[flag], "rows": rows, "cols": cols,
            "entries": [[draw(entry) for _ in range(cols)] for _ in range(rows)]}


@st.composite
def well_formed_command(draw):
    """(argv, payload) of one command, valid over a drawn field; payload is
    None for commands that read no input."""
    flag = draw(st.sampled_from(sorted(FIELDS)))
    field_flag = draw(st.sampled_from([[], ["--field", flag]]))
    s, n, m = scalar_json(flag), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pair = {"A": draw(grid(flag, s, n, n)), "B": draw(grid(flag, s, m, m))}

    def expression():  # a qi scalar may be a {"re", "im"} object
        def vector(k):
            scalar = scalar_json(flag) if flag == "qi" else scalar_text(flag)
            text = scalar.map(lambda e: e if isinstance(e, str) else json.dumps(e))
            return "[" + ",".join(draw(text) for _ in range(k)) + "]"
        return "; ".join(f"({vector(n)},{vector(m)})" for _ in range(draw(st.integers(1, 3))))

    name = draw(st.sampled_from(["snf", "operator", "presentation", "standard", "opair",
                                 "subring", "branching", "scalar-a", "equiv", "equiv-opair",
                                 "schmidt", "demo"]))
    decompose = draw(st.sampled_from([[], ["--primary"]]))
    if name == "snf":
        return ["snf", *field_flag], draw(grid(flag, poly_json(flag), n, m))
    if name == "operator":
        return ["decompose", *decompose], {"operator": pair["A"]}
    if name == "presentation":
        payload = {"presentation": draw(grid(flag, poly_json(flag), n, m))}
        if draw(st.booleans()):
            payload["generators"] = n
        return ["decompose", *decompose, *field_flag], payload
    if name == "standard":
        return ["tensor", "--kind", name, *field_flag], {**FIELDS[flag], "n": n, "m": m}
    if name in ("opair", "subring", "branching"):
        polys = {"opair": (), "subring": ("p",), "branching": ("phi", "psi")}[name]
        pair.update((key, draw(poly_json(flag))) for key in polys)
        if name == "opair" and decompose:
            field_flag.append("--decompose")
        return ["tensor", "--kind", name, *field_flag], pair
    if name == "scalar-a":
        a = draw(scalar_text(flag))
        return ["tensor", "--kind", "branching", "--field", flag, "--scalar-a", a], None
    if name == "equiv":
        return ["equiv", "--rules", "standard", "--field", flag,
                "--lhs", expression(), "--rhs", expression()], None
    if name == "equiv-opair":
        return ["equiv", "--rules", "opair", *field_flag,
                "--lhs", expression(), "--rhs", expression()], pair
    if name == "schmidt":
        coords = [draw(s) for _ in range(n * m)]
        return ["schmidt", *field_flag], {**FIELDS[flag], "n": n, "m": m, "coords": coords}
    extra = draw(st.sampled_from([[], ["--random"], ["--random", "--seed", "5"]]))
    return ["demo", draw(st.sampled_from(["example61", "branching", "register"])), *extra], None


# payloads of the CLI goldens and README examples, to be mutated
GOLDENS = [
    (["snf"], {"field": "q", "rows": 2, "cols": 2,
               "entries": [[["0", "1"], ["0"]], [["0"], ["0", "0", "1"]]]}),
    (["decompose", "--primary"], {"operator": {"field": "q", "rows": 2, "cols": 2,
                                               "entries": [["1", "0"], ["0", "1"]]}}),
    (["decompose"], {"presentation": {"field": "q", "rows": 2, "cols": 1,
                                      "entries": [[["0", "1"]], [["0", "1"]]]}}),
    (["tensor", "--kind", "standard"], {"field": "q", "n": 2, "m": 2}),
    (["tensor", "--kind", "opair", "--decompose"],
     {"A": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "2"]]},
      "B": {"field": "q", "rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "3"]]}}),
    (["tensor", "--kind", "subring"],
     {"A": {"field": "fp", "p": 5, "rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "2"]]},
      "B": {"field": "fp", "p": 5, "rows": 1, "cols": 1, "entries": [["3"]]},
      "p": ["0", "0", "1"]}),
    (["tensor", "--kind", "branching"],
     {"A": {"field": "qi", "rows": 1, "cols": 1, "entries": [[{"re": "1", "im": "1/2"}]]},
      "B": {"field": "qi", "rows": 2, "cols": 2, "entries": [["0", "i"], ["1", "0"]]},
      "phi": ["0", "1"], "psi": [{"re": "0", "im": "1"}, "1"]}),
    (["equiv", "--rules", "opair", "--lhs", "([2,3],[1,1])", "--rhs", "([1,1],[2,5])"],
     {"A": {"field": "q", "rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "3"]]},
      "B": {"field": "q", "rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "5"]]}}),
    (["schmidt"], {"field": "q", "n": 2, "m": 2, "coords": ["1", "0", "0", "1"]}),
]


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def faulty(draw, argv, payload):
    """(argv, payload) with one fault: a payload value replaced or a key
    dropped, the JSON text cut short or spliced, or an argument replaced."""
    payload = json.loads(json.dumps(payload))  # a copy to edit
    how = draw(st.sampled_from(["replace", "replace", "drop", "text", "argv"]))
    if how == "argv" or payload is None:
        k = draw(st.integers(1, len(argv) - 1)) if len(argv) > 1 else 0
        return [*argv[:k], draw(st.sampled_from(BAD_FLAGS)), *argv[k + 1:]], payload
    if how == "text":
        text = json.dumps(payload)
        k = draw(st.integers(0, len(text)))
        return argv, text[:k] + draw(st.sampled_from(["", "[", "}", ",", "true", '"1e5000"']))
    path = draw(st.sampled_from(list(_paths(payload))[1:]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return argv, payload


@pytest.fixture(scope="module")
def payload_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "payload.json"


def _call(argv, payload, payload_file, stdin=None) -> int:
    """Run `main`, with the payload in a file, or else on stdin if given;
    check the exit code, the streams and the time bound."""
    if payload is not None and stdin is None:
        payload_file.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = [*argv, "--input", str(payload_file)]
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = stdin
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    elapsed = time.process_time() - start
    assert code in (0, 2, 3), (argv, payload, code, err.getvalue())
    assert elapsed < CALL_BOUND_S, (argv, payload, elapsed)
    # a report on stdout exactly on success, a message on stderr otherwise
    assert (bool(out.getvalue()), bool(err.getvalue())) == (code == 0, code != 0), (argv, payload)
    return code


@FUZZ
@given(data=st.data(), json_flag=st.sampled_from([[], ["--json"]]))
def test_drawn_commands_exit_cleanly(payload_file, data, json_flag):
    argv, payload = data.draw(well_formed_command())
    assert _call([*argv, *json_flag], payload, payload_file) == 0, (argv, payload)
    argv, payload = data.draw(faulty(argv, payload))
    _call([*argv, *json_flag], payload, payload_file)


@FUZZ
@given(case=st.sampled_from(sorted(FIELDS)).flatmap(
    lambda flag: st.tuples(st.just(flag), scalar_text(flag))))
@example(case=("q", "-1/2"))
@example(case=("qi", "-i"))
@example(case=("qi", "-2+3i"))
def test_branching_shortcut_takes_any_scalar_a(payload_file, case):
    # a value that starts with '-' and is not a plain integer is the one that
    # argparse would read as an option; the examples make sure it is drawn
    flag, a = case
    argv = ["tensor", "--kind", "branching", "--field", flag, "--scalar-a", a]
    assert _call(argv, None, payload_file) == 0, argv


@pytest.mark.parametrize("scalar", ['{"re":"1/0"}', '{"re":' * 3000 + '"1"' + "}" * 3000],
                         ids=["zero-denominator", "nested-3000-deep"])
def test_bad_object_scalars_in_expressions_exit_2(payload_file, scalar):
    lhs = f"([{scalar}], [1])"
    argv = ["equiv", "--field", "qi", "--rules", "standard", "--lhs", lhs, "--rhs", "([1],[1])"]
    assert _call(argv, None, payload_file) == 2


@FUZZ
@given(data=st.data(), json_flag=st.sampled_from([[], ["--json"]]))
def test_mutated_goldens_exit_cleanly(payload_file, data, json_flag):
    argv, payload = data.draw(faulty(*data.draw(st.sampled_from(GOLDENS))))
    _call([*argv, *json_flag], payload, payload_file)


# bytes that are not UTF-8 or not JSON: a stray continuation byte, a lead
# byte without its continuation, an encoded surrogate, an overlong form, a
# byte-order mark, NUL and a well-formed two-byte character
BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xef\xbb\xbf",
             b"\x00", "\u00e9".encode()]


@st.composite
def mutated_bytes(draw, payload):
    """The UTF-8 JSON text of payload with one byte-level fault: bad bytes
    inserted or put in place of one byte, one bit flipped, the text cut
    inside a two-byte character, or the whole text in UTF-16."""
    data = json.dumps(payload).encode()
    how = draw(st.sampled_from(["insert", "replace", "flip", "cut", "utf-16"]))
    k = draw(st.integers(0, len(data) - 1))
    if how == "insert":
        return data[:k] + draw(st.sampled_from(BAD_BYTES)) + data[k:]
    if how == "replace":
        return data[:k] + draw(st.sampled_from(BAD_BYTES)) + data[k + 1:]
    if how == "flip":
        return data[:k] + bytes([data[k] ^ 1 << draw(st.integers(0, 7))]) + data[k + 1:]
    if how == "cut":
        return data[:k] + "\u00e9".encode()[:1]
    return json.dumps(payload).encode("utf-16")


@FUZZ
@given(data=st.data(), json_flag=st.sampled_from([[], ["--json"]]))
def test_byte_mutated_goldens_on_stdin_exit_cleanly(payload_file, data, json_flag):
    argv, payload = data.draw(st.sampled_from(GOLDENS))
    raw = data.draw(mutated_bytes(payload))
    stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    _call([*argv, *json_flag], raw, payload_file, stdin)
