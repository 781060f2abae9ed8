"""Surface (n = 2) and elliptic-curve specializations.

A singular datum (a, b, c, d_rel, e) with b^2 - 4(a c + d_rel e) = m^2
encodes an elliptic class of exponent m on an abelian surface.  The datum
slot historically written "d" is renamed d_rel here: it is a coefficient of
the singular relation and has nothing to do with the exponent d.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from ._poly import IntPoly
from .errors import (
    DiscriminantError,
    NotEllipticClass,
    NotPrimitive,
    ParityError,
    RangeError,
)
from .exterior import TwoForm, check_class
from .riemann import RelationSet, tau_var_index


@dataclass(frozen=True)
class SingularDatum:
    a: int
    b: int
    c: int
    d_rel: int
    e: int
    m: int

    def __post_init__(self):
        if gcd(self.a, self.b, self.c, self.d_rel, self.e) != 1:
            raise NotPrimitive("singular datum must be a primitive vector")
        if self.m < 1:
            raise RangeError("m must be a positive integer")
        disc = self.b ** 2 - 4 * (self.a * self.c + self.d_rel * self.e)
        if disc != self.m ** 2:
            raise DiscriminantError(f"b^2 - 4(ac + de) = {disc} != m^2 = {self.m ** 2}")
        if (self.b - self.m) % 2 != 0:
            raise ParityError("b and m must have the same parity")


def singular_datum(a, b, c, d_rel, e):
    """Datum with m derived from the discriminant; rejects non-squares."""
    disc = b ** 2 - 4 * (a * c + d_rel * e)
    if disc <= 0:
        raise DiscriminantError(f"discriminant {disc} is not a positive square")
    m = isqrt(disc)
    if m * m != disc:
        raise DiscriminantError(f"discriminant {disc} is not a perfect square")
    return SingularDatum(a, b, c, d_rel, e, m)


def eta_from_singular(s):
    """The n = 2 class encoded by a singular datum.

    Coefficients follow the classical display: -d_rel on dx1^dx2,
    (b-m)/2 on dx1^dx3, -a on dx1^dx4, c on dx2^dx3, -(b+m)/2 on dx2^dx4,
    e on dx3^dx4.  The result always satisfies eta^eta = 0 and certifies as
    an elliptic class of exponent m.
    """
    half_minus = (s.b - s.m) // 2
    half_plus = (s.b + s.m) // 2
    eta = TwoForm.from_coeffs(2, {
        (0, 1): -s.d_rel,
        (0, 2): half_minus,
        (0, 3): -s.a,
        (1, 2): s.c,
        (1, 3): -half_plus,
        (2, 3): s.e,
    })
    got = check_class(eta)
    assert got == (1, s.m), f"internal: datum produced class {got}, expected (1, {s.m})"
    return eta


def singular_from_eta(eta):
    """Inverse coefficient extraction; n = 2 elliptic classes only.

    The exponent is taken from the profile certification and then checked
    against the discriminant, which catches sign slips in the extraction.
    """
    if eta.n != 2:
        raise NotEllipticClass("singular data live on abelian surfaces")
    got = check_class(eta)
    if got is None or got[0] != 1:
        raise NotEllipticClass("class is not an elliptic (u = 1) class")
    m = got[1]
    a = -eta.coeff(0, 3)
    b = eta.coeff(0, 2) - eta.coeff(1, 3)
    c = eta.coeff(1, 2)
    d_rel = -eta.coeff(0, 1)
    e = eta.coeff(2, 3)
    s = SingularDatum(a, b, c, d_rel, e, m)
    assert eta_from_singular(s) == eta, "internal: datum round trip failed"
    return s


def elliptic_class(m, n):
    """The standard elliptic class of exponent m in dimension n >= 2."""
    if m < 1 or n < 2:
        raise RangeError("need m >= 1 and n >= 2")
    eta = TwoForm.from_coeffs(n, {(0, n): -m, (1, n): 1})
    return eta


def humbert_relation(s):
    """The classical singular relation attached to a datum, as a RelationSet.

    Returns {a tau_11 + b tau_12 + c tau_22 + d_rel (tau_11 tau_22 - tau_12^2) + e}.
    Note: the vanishing locus of eta_from_singular(s) is the relation of the
    partner datum (c, -b, a, -e, d_rel); the two cut out the same surface in
    the quotient by the integral symplectic group but differ pointwise on
    the half space.  ``symbolic_relations`` always gives the pointwise locus.
    """
    v11 = tau_var_index(2, 1, 1)
    v12 = tau_var_index(2, 1, 2)
    v22 = tau_var_index(2, 2, 2)
    poly = (IntPoly.var(v11, s.a) + IntPoly.var(v12, s.b) + IntPoly.var(v22, s.c)
            + s.d_rel * (IntPoly.var(v11) * IntPoly.var(v22) - IntPoly.var(v12) * IntPoly.var(v12))
            + IntPoly.const(s.e))
    return RelationSet(2, (poly,) if poly else ())
