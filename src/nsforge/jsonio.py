"""JSON encodings of the wire types.

All encoders are deterministic (sorted keys, no whitespace) so that equal
values serialize to identical bytes.
"""

import json
from fractions import Fraction

from ._gaussian import QQi
from .errors import DimensionMismatch, RangeError
from .exterior import TwoForm
from .riemann import EXACT, FLOAT, PeriodMatrix, RelationSet, tau_var_pairs


def dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def two_form_to_json(eta):
    coeffs = [{"i": i + 1, "j": j + 1, "a": a} for (i, j), a in sorted(eta.coeffs().items())]
    return {"n": eta.n, "coeffs": coeffs}


def _int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DimensionMismatch(f"{what} must be an integer, got {value!r}")
    return value


def _rows(value, what):
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise DimensionMismatch(f"{what} must be a list of rows")
    return value


def two_form_from_json(obj):
    if not isinstance(obj, dict):
        raise DimensionMismatch("2-form JSON must be an object")
    if "n" not in obj:
        raise DimensionMismatch("2-form JSON needs the field 'n'")
    n = _int(obj["n"], "'n'")
    from_coeffs = None
    from_matrix = None
    if "coeffs" in obj:
        items = obj["coeffs"]
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise DimensionMismatch("'coeffs' must be a list of {i, j, a} objects")
        pairs = {}
        for item in items:
            i, j, a = (_int(item.get(k), f"coefficient field {k!r}") for k in "ija")
            if not 1 <= i < j <= 2 * n:
                raise DimensionMismatch(f"coefficient index ({i},{j}) out of range")
            pairs[(i - 1, j - 1)] = pairs.get((i - 1, j - 1), 0) + a
        from_coeffs = TwoForm.from_coeffs(n, pairs)
    if "matrix" in obj:
        rows = _rows(obj["matrix"], "'matrix'")
        from_matrix = TwoForm.from_matrix(n, [[_int(x, "a matrix entry") for x in row]
                                              for row in rows])
    if from_coeffs is None and from_matrix is None:
        raise DimensionMismatch("2-form JSON needs 'coeffs' or 'matrix'")
    if from_coeffs is not None and from_matrix is not None and from_coeffs != from_matrix:
        raise DimensionMismatch("'coeffs' and 'matrix' disagree")
    return from_coeffs or from_matrix


def _scalar_to_json(value, backend):
    if backend == EXACT:
        return [str(value.re), str(value.im)]
    return [value.real, value.imag]


def _scalar_from_json(entry, backend):
    if not isinstance(entry, list) or len(entry) != 2:
        raise DimensionMismatch(f"a period-matrix entry is a [re, im] pair, got {entry!r}")
    re, im = entry
    try:
        if backend == EXACT:
            return QQi(Fraction(str(re)), Fraction(str(im)))
        return complex(float(re), float(im))
    except ZeroDivisionError:
        raise RangeError(f"entry {entry!r} has a zero denominator") from None
    except (TypeError, ValueError):
        raise DimensionMismatch(f"entry {entry!r} is not a pair of numbers") from None


def period_matrix_to_json(tau):
    return {
        "n": tau.n,
        "backend": tau.backend,
        "entries": [[_scalar_to_json(e, tau.backend) for e in row] for row in tau.rows],
    }


def period_matrix_from_json(obj):
    if not isinstance(obj, dict):
        raise DimensionMismatch("period-matrix JSON must be an object")
    backend = obj.get("backend", EXACT)
    if backend not in (EXACT, FLOAT):
        raise RangeError(f"unknown backend {backend!r}")
    entries = _rows(obj.get("entries"), "'entries'")
    size = obj.get("n", len(entries))
    if not entries or size != len(entries) or any(len(row) != size for row in entries):
        raise DimensionMismatch("'entries' must be a non-empty n x n matrix")
    rows = [[_scalar_from_json(e, backend) for e in row] for row in entries]
    if backend == EXACT:
        return PeriodMatrix.exact(rows)
    return PeriodMatrix.from_float(rows)


def complex_matrix_to_json(rows, backend):
    return [[_scalar_to_json(e, backend) for e in row] for row in rows]


def norm_to_json(norm):
    return {"n": norm.n, "N": [list(r) for r in norm.mat], "u": norm.u, "d": norm.d}


def lattice_to_json(lat):
    return [list(b) for b in lat.basis]


def report_to_json(rep):
    return {
        "class": two_form_to_json(rep.eta),
        "u": rep.u,
        "d": rep.d,
        "type": list(rep.type_divisors),
        "image_basis": lattice_to_json(rep.image_lattice),
        "kernel_basis": lattice_to_json(rep.kernel_lattice),
        "complement": two_form_to_json(rep.complement),
    }


def _poly_to_json(poly, n):
    pairs = tau_var_pairs(n)
    monomials = []
    for mono, c in poly.sorted_terms():
        monomials.append({"vars": [list(pairs[v]) for v in mono], "c": c})
    return {"monomials": monomials}


def relation_set_to_json(rel):
    return {"n": rel.n, "polynomials": [_poly_to_json(p, rel.n) for p in rel.polynomials]}


def singular_to_json(s):
    return {"a": s.a, "b": s.b, "c": s.c, "d": s.d_rel, "e": s.e, "m": s.m}


def singular_from_json(obj):
    from .humbert import SingularDatum

    return SingularDatum(int(obj["a"]), int(obj["b"]), int(obj["c"]),
                         int(obj["d"]), int(obj["e"]), int(obj["m"]))
