"""JSON encodings of the wire types.

All encoders are deterministic (sorted keys, no whitespace) so that equal
values serialize to identical bytes.  Every decoder is strict: a document
of the wrong shape, a value of the wrong type or a missing field raises
DimensionMismatch, and a JSON number must be an integer where the wire
type holds one.
"""

import json
from fractions import Fraction

from ._gaussian import QQi
from .construct import GluingSpec, PolarizedFactor, complementary_type
from .errors import DimensionMismatch, RangeError
from .exterior import TwoForm
from .humbert import SingularDatum
from .riemann import EXACT, FLOAT, PeriodMatrix, RelationSet, tau_var_pairs
from .scan import EnumerationSpec


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


def _ints(value, what):
    if not isinstance(value, list):
        raise DimensionMismatch(f"{what} must be a list")
    return [_int(x, f"an entry of {what}") for x in value]


def _square(value, what):
    """An integer matrix: a list of equally long rows, as many as there are columns."""
    rows = _rows(value, what)
    if any(len(row) != len(rows) for row in rows):
        raise DimensionMismatch(f"{what} must be a square matrix")
    return [_ints(row, what) for row in rows]


def _field(obj, key, what):
    if not isinstance(obj, dict):
        raise DimensionMismatch(f"{what} JSON must be an object")
    if key not in obj:
        raise DimensionMismatch(f"{what} JSON needs the field {key!r}")
    return obj[key]


def two_form_from_json(obj):
    n = _int(_field(obj, "n", "2-form"), "'n'")
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
        from_matrix = TwoForm.from_matrix(n, _square(obj["matrix"], "'matrix'"))
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
    size = _int(obj.get("n", len(entries)), "'n'")
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
    return SingularDatum(*(_int(_field(obj, k, "singular datum"), repr(k)) for k in "abcdem"))


def humbert_from_json(obj):
    """A ``humbert`` document: a singular datum when it has 'a' and 'b', else a 2-form."""
    if isinstance(obj, dict) and "a" in obj and "b" in obj:
        return singular_from_json(obj)
    return two_form_from_json(obj)


def enumeration_spec_from_json(obj):
    """An ``enum`` document {n, u, d, bound}, with optional require_idempotent and require_type."""
    n, u, d, bound = (_int(_field(obj, k, "enumeration"), repr(k))
                      for k in ("n", "u", "d", "bound"))
    idempotent = obj.get("require_idempotent", False)
    if not isinstance(idempotent, bool):
        raise DimensionMismatch(f"'require_idempotent' must be true or false, got {idempotent!r}")
    typ = obj.get("require_type")
    typ = None if typ is None else tuple(_ints(typ, "'require_type'")) or None
    return EnumerationSpec(n, u, d, bound, require_idempotent=idempotent, require_type=typ)


def gluing_from_json(obj):
    """A ``glue`` document {u, type, tauX, tauY, f, g}: the two factors and the markings."""
    u = _int(_field(obj, "u", "gluing"), "'u'")
    divisors = tuple(_ints(_field(obj, "type", "gluing"), "'type'"))
    tau_x, tau_y = (period_matrix_from_json(_field(obj, k, "gluing")) for k in ("tauX", "tauY"))
    n = tau_x.n + tau_y.n
    factors = (PolarizedFactor(u, divisors, tau_x),
               PolarizedFactor(n - u, complementary_type(n, u, divisors), tau_y))
    markings = (tuple(map(tuple, _square(_field(obj, k, "gluing"), repr(k)))) for k in "fg")
    return factors + (GluingSpec(*markings),)


def act_from_json(obj):
    """An ``act`` document, a 2-form or {eta, S} with S optional: (eta, S or None)."""
    if not (isinstance(obj, dict) and "eta" in obj):
        return two_form_from_json(obj), None
    s_rows = obj.get("S")
    return two_form_from_json(obj["eta"]), None if s_rows is None else _square(s_rows, "'S'")


def act_matrix_from_json(obj):
    """The ``--s`` document of ``act``: {S}, an integer matrix."""
    return _square(_field(obj, "S", "matrix"), "'S'")
