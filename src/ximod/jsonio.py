"""JSON encodings for fields, scalars, polynomials, and matrices.

Scalar text forms: rationals as "-3/4" or "7"; prime-field residues as "4"
with the modulus carried by the ambient field declaration; gaussian
rationals as {"re": "1/2", "im": "-3"}.  Polynomials are coefficient
arrays, index = degree.  Matrices carry their own field declaration next
to "rows", "cols" and a row-major "entries" array.

Decoders validate as they walk the payload and report the JSON path of the
first offending value.
"""
from __future__ import annotations

from .errors import InputValidationError
from .fields import Field, GaussianRationals, PrimeField, Rationals, Scalar
from .matrix import Matrix
from .poly import Poly
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


def parse_scalar_json(field: Field, obj, path: str) -> Scalar:
    try:
        if isinstance(obj, dict):
            if not isinstance(field, GaussianRationals):
                raise InputValidationError(
                    path, "object scalars are only valid over the gaussian rationals"
                )
            return field.scalar((str(obj.get("re", "0")), str(obj.get("im", "0"))))
        if isinstance(obj, bool):
            raise TypeError("booleans are not scalars")
        if isinstance(obj, int):
            return field.from_int(obj)
        if isinstance(obj, str):
            return field.parse(obj)
    except InputValidationError:
        raise
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputValidationError(path, f"bad scalar {obj!r}: {exc}")
    raise InputValidationError(path, f"bad scalar {obj!r}")


def poly_to_json(p: Poly) -> list:
    return [scalar_to_json(c) for c in p.coeffs]


def parse_poly_json(field: Field, arr, path: str) -> Poly:
    if not isinstance(arr, list):
        raise InputValidationError(path, "a polynomial is an array of scalars")
    return Poly(
        field, (parse_scalar_json(field, c, f"{path}[{k}]") for k, c in enumerate(arr))
    )


def _grid_to_json(M, entry_to_json) -> dict:
    out = field_to_json(M.field)
    out.update(
        rows=M.rows,
        cols=M.cols,
        entries=[[entry_to_json(e) for e in row] for row in M.entries],
    )
    return out


def _parse_grid(obj, path: str, field: Field | None, cls, parse_entry, what: str):
    """Decode a matrix object into `cls`, each entry via parse_entry."""
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
    return cls(
        use,
        (
            (parse_entry(use, e, f"{path}.entries[{i}][{j}]") for j, e in enumerate(row))
            for i, row in enumerate(entries)
        ),
        (rows, cols),
    )


def matrix_to_json(M: Matrix) -> dict:
    return _grid_to_json(M, scalar_to_json)


def parse_matrix_json(obj, path: str, field: Field | None = None) -> Matrix:
    return _parse_grid(obj, path, field, Matrix, parse_scalar_json, "matrix")


def polymatrix_to_json(P: PolyMatrix) -> dict:
    return _grid_to_json(P, poly_to_json)


def parse_polymatrix_json(obj, path: str, field: Field | None = None) -> PolyMatrix:
    return _parse_grid(obj, path, field, PolyMatrix, parse_poly_json, "polynomial matrix")


def vector_to_json(v) -> list:
    return [scalar_to_json(c) for c in v]


def parse_vector_json(field: Field, arr, path: str):
    if not isinstance(arr, list):
        raise InputValidationError(path, "a vector is an array of scalars")
    return tuple(
        parse_scalar_json(field, c, f"{path}[{k}]") for k, c in enumerate(arr)
    )
