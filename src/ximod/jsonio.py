"""JSON encodings for fields, scalars, polynomials, and matrices.

Scalar text forms: rationals as "-3/4" or "7"; prime-field residues as "4"
with the modulus carried by the ambient field declaration; gaussian
rationals as {"re": "1/2", "im": "-3"}.  Polynomials are coefficient
arrays, index = degree.  Matrices carry their own field declaration next
to "rows", "cols" and a row-major "entries" array.

Decoders validate as they walk the payload and report the JSON path of the
first offending value.  Each scalar is decoded once, straight to the raw
value a `Matrix` or `Poly` stores (`_parse_value`); no `Scalar` is built
for an entry of a matrix or a polynomial.  A Q(i) part is a string or an
int: a JSON float would be read through a binary double.
"""
from __future__ import annotations

from .errors import InputValidationError
from .fields import Field, GaussianRationals, PrimeField, Rationals, Scalar
from .matrix import Matrix
from .poly import Poly, _poly
from .polymatrix import PolyMatrix

_FIELD_NAMES = {"q": Rationals, "qi": GaussianRationals, "fp": PrimeField}


def field_to_json(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"field": "fp", "p": field.p}
    return {"field": field.kind}


def parse_field_name(name: str) -> Field:
    """Parse the CLI field flag: q, qi, or fp:<p>."""
    name = name.strip()
    if name == "q":
        return Rationals()
    if name == "qi":
        return GaussianRationals()
    if name.startswith("fp:"):
        try:
            return PrimeField(int(name[3:]))
        except ValueError as exc:
            raise InputValidationError("--field", str(exc))
    raise InputValidationError("--field", f"unknown field {name!r} (use q, qi, fp:<p>)")


def json_int(obj: dict, key: str, path: str, message: str, least: int | None = None) -> int:
    """obj[key] as an int (at least `least`), else an input error at
    path.key.  JSON true and false are refused, though Python's bool is int."""
    value = obj.get(key)
    bad_type = isinstance(value, bool) or not isinstance(value, int)
    if bad_type or (least is not None and value < least):
        raise InputValidationError(f"{path}.{key}", message)
    return value


def parse_field_declaration(obj: dict, path: str) -> Field:
    name = obj.get("field")
    if not isinstance(name, str) or name not in _FIELD_NAMES:
        raise InputValidationError(f"{path}.field", f"unknown field kind {name!r}")
    if name == "fp":
        p = json_int(obj, "p", path, "prime-field payloads need an integer p")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise InputValidationError(f"{path}.p", str(exc))
    return _FIELD_NAMES[name]()


def scalar_to_json(s: Scalar):
    if isinstance(s.field, GaussianRationals):
        re, im = s.value
        return {"re": str(re), "im": str(im)}
    return str(s)


def _parse_value(field: Field, obj, path: str):
    """The raw value of the JSON scalar obj, as `field.canon` gives it: a
    string or an int; over Q(i) also an object whose "re" and "im" parts
    (each "0" when absent) are each a string or an int.  `field.canon`
    reads each literal once, and an integer or "a/b" literal skips
    `Fraction`'s regex (`fields._parse_fraction`).  Anything else is a
    "bad scalar" at path, or at path.re or path.im for a part."""
    try:
        if isinstance(obj, dict):
            if not isinstance(field, GaussianRationals):
                raise InputValidationError(
                    path, "object scalars are only valid over the gaussian rationals"
                )
            return field.canon((_part(obj, "re", path), _part(obj, "im", path)))
        if isinstance(obj, (str, int)) and not isinstance(obj, bool):
            return field.canon(obj)
    except InputValidationError:
        raise
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputValidationError(path, f"bad scalar {obj!r}: {exc}")
    raise InputValidationError(path, f"bad scalar {obj!r}")


def _part(obj: dict, key: str, path: str):
    """The "re" or "im" part of a Q(i) object scalar, a string or an int."""
    part = obj.get(key, "0")
    if isinstance(part, bool) or not isinstance(part, (str, int)):
        raise InputValidationError(f"{path}.{key}", f"bad scalar {part!r}")
    return part


def parse_scalar_json(field: Field, obj, path: str) -> Scalar:
    return Scalar(field, _parse_value(field, obj, path))


def poly_to_json(p: Poly) -> list:
    return [scalar_to_json(c) for c in p.coeffs]


def parse_poly_json(field: Field, arr, path: str) -> Poly:
    if not isinstance(arr, list):
        raise InputValidationError(path, "a polynomial is an array of scalars")
    return _poly(field, [_parse_value(field, c, f"{path}[{k}]") for k, c in enumerate(arr)])


def _grid_to_json(M, entry_to_json) -> dict:
    out = field_to_json(M.field)
    out.update(
        rows=M.rows,
        cols=M.cols,
        entries=[[entry_to_json(e) for e in row] for row in M.entries],
    )
    return out


def _parse_grid(obj, path: str, field: Field | None, cls, parse_entry, what: str):
    """Decode a matrix object into `cls`, each entry the value that
    parse_entry gives, stored as it is (`DenseMatrix._checked`)."""
    if not isinstance(obj, dict):
        raise InputValidationError(path, f"a {what} is an object")
    declared = parse_field_declaration(obj, path) if "field" in obj else None
    if declared is not None and field is not None and declared != field:
        raise InputValidationError(
            f"{path}.field", "payload field conflicts with the ambient field"
        )
    use = declared or field
    if use is None:
        raise InputValidationError(f"{path}.field", "no field declared")
    rows = json_int(obj, "rows", path, "rows must be a nonnegative integer", 0)
    cols = json_int(obj, "cols", path, "cols must be a nonnegative integer", 0)
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != rows:
        raise InputValidationError(f"{path}.entries", f"expected {rows} rows")
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise InputValidationError(f"{path}.entries[{i}]", f"expected {cols} entries")
    return cls._checked(
        use,
        (
            [parse_entry(use, e, f"{path}.entries[{i}][{j}]") for j, e in enumerate(row)]
            for i, row in enumerate(entries)
        ),
        (rows, cols),
    )


def matrix_to_json(M: Matrix) -> dict:
    return _grid_to_json(M, scalar_to_json)


def parse_matrix_json(obj, path: str, field: Field | None = None) -> Matrix:
    return _parse_grid(obj, path, field, Matrix, _parse_value, "matrix")


def polymatrix_to_json(P: PolyMatrix) -> dict:
    return _grid_to_json(P, poly_to_json)


def parse_polymatrix_json(obj, path: str, field: Field | None = None) -> PolyMatrix:
    return _parse_grid(obj, path, field, PolyMatrix, parse_poly_json, "polynomial matrix")


def vector_to_json(v) -> list:
    return [scalar_to_json(c) for c in v]


def parse_vector_json(field: Field, arr, path: str):
    if not isinstance(arr, list):
        raise InputValidationError(path, "a vector is an array of scalars")
    return tuple(Scalar(field, _parse_value(field, c, f"{path}[{k}]")) for k, c in enumerate(arr))
