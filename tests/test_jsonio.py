import random
import sys
from fractions import Fraction

import pytest

from ximod import QI, QQ, InputValidationError, Matrix, Poly, PrimeField
from ximod.jsonio import (
    field_to_json,
    matrix_to_json,
    parse_field_declaration,
    parse_field_name,
    parse_matrix_json,
    parse_poly_json,
    parse_polymatrix_json,
    parse_vector_json,
    poly_to_json,
    polymatrix_to_json,
    scalar_to_json,
    parse_scalar_json,
)
from oracles import rand_matrix, rand_poly, rand_polymatrix, rand_scalar

F5 = PrimeField(5)
ALL_FIELDS = [QQ, QI, F5]


def test_field_declarations_round_trip():
    for field in ALL_FIELDS:
        decl = field_to_json(field)
        assert parse_field_declaration(decl, "$") == field


def test_parse_field_name():
    assert parse_field_name("q") == QQ
    assert parse_field_name("qi") == QI
    assert parse_field_name("fp:7") == PrimeField(7)
    with pytest.raises(InputValidationError):
        parse_field_name("fp:6")
    with pytest.raises(InputValidationError):
        parse_field_name("r")


def test_scalar_round_trip():
    rng = random.Random(101)
    for field in ALL_FIELDS:
        for _ in range(25):
            s = rand_scalar(field, rng)
            assert parse_scalar_json(field, scalar_to_json(s), "$") == s


def test_gaussian_scalar_is_object():
    s = QI.scalar((1, -2))
    assert scalar_to_json(s) == {"re": "1", "im": "-2"}


def test_poly_round_trip():
    rng = random.Random(102)
    for field in ALL_FIELDS:
        for _ in range(15):
            p = rand_poly(field, 4, rng)
            assert parse_poly_json(field, poly_to_json(p), "$") == p


def test_matrix_round_trip():
    rng = random.Random(103)
    for field in ALL_FIELDS:
        M = rand_matrix(field, 3, 2, rng)
        assert parse_matrix_json(matrix_to_json(M), "$") == M


def test_polymatrix_round_trip():
    rng = random.Random(104)
    for field in ALL_FIELDS:
        P = rand_polymatrix(field, 2, 3, 2, rng)
        assert parse_polymatrix_json(polymatrix_to_json(P), "$") == P


def test_validation_paths():
    with pytest.raises(InputValidationError) as exc:
        parse_matrix_json({"field": "q", "rows": 2, "cols": 2, "entries": [["1", "2"]]}, "$")
    assert "$.entries" in str(exc.value)

    with pytest.raises(InputValidationError) as exc:
        parse_matrix_json(
            {"field": "q", "rows": 1, "cols": 2, "entries": [["1", "x"]]}, "$"
        )
    assert "$.entries[0][1]" in str(exc.value)

    with pytest.raises(InputValidationError) as exc:
        parse_field_declaration({"field": "fp"}, "$")
    assert "$.p" in str(exc.value)


def test_ambient_field_conflict():
    payload = {"field": "q", "rows": 1, "cols": 1, "entries": [["1"]]}
    parse_matrix_json(payload, "$", QQ)
    with pytest.raises(InputValidationError):
        parse_matrix_json(payload, "$", F5)


def test_prime_field_scalars_as_strings():
    payload = {"field": "fp", "p": 5, "rows": 1, "cols": 2, "entries": [["4", "7"]]}
    M = parse_matrix_json(payload, "$")
    assert M.entries[0] == (F5.from_int(4), F5.from_int(2))


# -- scalars decode straight to raw values ----------------------------------------------

INT_LIMIT = ("Exceeds the limit (4300 digits) for integer string conversion: value has "
             "4301 digits; use sys.set_int_max_str_digits() to increase the limit")
INVALID = "Invalid literal for Fraction: {!r}"
UNDERSCORES = sys.version_info >= (3, 11)  # Fraction reads "1_000" from 3.11 on

# text -> its value, or the message after "bad scalar <text>: " over q and over qi
SCALAR_TEXTS = {
    **{sign + "7" * 4300: int(sign + "7" * 4300) for sign in ("", "+", "-")},
    **{sign + "7" * 4301: (INT_LIMIT, INT_LIMIT) for sign in ("", "+", "-")},
    "1/0": ("Fraction(1, 0)", "Fraction(1, 0)"),
    "3/-4": (INVALID.format("3/-4"), INVALID.format("3/-4")),
    "-0": 0,
    "007": 7,
    "1_000": 1000 if UNDERSCORES else (INVALID.format("1_000"), INVALID.format("1_000")),
    "+": (INVALID.format("+"), INVALID.format("+")),
    "": (INVALID.format(""), "empty scalar"),
    "1e5000": ("literal expands past 4300 digits", "literal expands past 4300 digits"),
}


@pytest.mark.parametrize("text", SCALAR_TEXTS, ids=lambda t: repr(t) if len(t) < 9 else f"{len(t)}-digits")
def test_scalar_literal_values_and_messages_are_pinned(text):
    expected = SCALAR_TEXTS[text]
    for field, k in ((QQ, 0), (QI, 1)):
        if isinstance(expected, int):
            assert parse_scalar_json(field, text, "$.s") == field.scalar(Fraction(expected))
            continue
        with pytest.raises(InputValidationError) as exc:
            parse_scalar_json(field, text, "$.s")
        assert (exc.value.path, str(exc.value)) == ("$.s", f"$.s: bad scalar {text!r}: {expected[k]}")


@pytest.mark.parametrize("part", [10000000000000000000000.5, 1.0, True, None, [1], {"re": "1"}],
                         ids=["float", "integral-float", "bool", "null", "list", "object"])
@pytest.mark.parametrize("key", ["re", "im"])
def test_a_gaussian_part_that_is_not_a_string_or_int_is_refused(part, key):
    with pytest.raises(InputValidationError) as exc:
        parse_scalar_json(QI, {key: part}, "$.s")
    assert (exc.value.path, str(exc.value)) == (f"$.s.{key}", f"$.s.{key}: bad scalar {part!r}")


def test_a_gaussian_part_may_be_a_string_or_an_int():
    expected = QI.scalar((Fraction(10**22), Fraction(-1, 2)))
    for obj in ({"re": 10**22, "im": "-1/2"}, {"re": str(10**22), "im": "-1/2"}):
        assert parse_scalar_json(QI, obj, "$") == expected
    assert parse_scalar_json(QI, {"im": 3}, "$") == QI.scalar((0, 3))
    with pytest.raises(InputValidationError) as exc:  # a bad string part is read as before
        parse_scalar_json(QI, {"re": "x"}, "$.s")
    assert str(exc.value) == "$.s: bad scalar {'re': 'x'}: Invalid literal for Fraction: 'x'"


def test_decoders_build_what_the_scalar_constructors_build():
    for field, entries in ((QQ, ["-3/6", 4, "٣"]), (QI, [{"re": "1/2", "im": 2}, "i", 5]),
                           (F5, ["7", -1, "3"])):
        scalars = [parse_scalar_json(field, e, "$") for e in entries]
        M = parse_matrix_json({**field_to_json(field), "rows": 1, "cols": 3,
                               "entries": [entries]}, "$")
        assert M == Matrix(field, [scalars])
        assert parse_poly_json(field, entries, "$") == Poly(field, scalars)
        assert parse_vector_json(field, entries, "$") == tuple(scalars)
