"""Norm-endomorphism extraction and subvariety certification.

A certified class eta yields the integer matrix N = J M_eta, which must be
idempotent up to its exponent, have even rank twice the dimension, and trace
twice dimension times exponent.  From N we read the image and kernel
lattices, the polarization type on the image, and the complementary class.

``analyze`` is ``norm_from_class`` followed by ``_report``, and certifies
once.  Since J theta = I, Pf(t M + theta)^2 = det(I + t N), so a verified
N^2 = d N of rank 2u (d >= 1) already fixes the (u, d) profile, and
d I - N certifies d theta - eta as the (n - u, d) complement.  Callers that
know (u, d) pass it and skip ``check_class`` (``is_realizable``, ``nsforge norm
--u --d``); ``scan_ppav`` makes no call, its walker's leaf having proven N^2 = d N
and the trace.  ``complementary_class`` is the oracle.

The norm matrix fixes the whole certificate.  Only ``is_realizable``
builds the Frobenius frame of theta on the image (``_image_type``), which it
uses as a basis.  ``_report`` (behind ``analyze`` and ``scan_ppav``; it adds
the image and kernel lattices and the complement), typed ``enumerate_classes``,
``orbit_equivalent`` and ``glue``'s check read the type off the Smith
invariants of M (``_smith_type``); ``tangent_and_lattice`` reads ``_image``.
"""

from dataclasses import dataclass
from math import comb, factorial, gcd, prod

from . import _intlinalg as la
from .errors import (
    NotIdempotent,
    NotSymmetricForJ,
    NsforgeError,
    RangeError,
    RankMismatch,
    TraceMismatch,
    TypeExponentMismatch,
    WrongDimensions,
    ZeroForm,
)
from .exterior import TwoForm, check_class, mixed_intersection, theta
from .symplectic import IntegerLattice, frobenius_basis, gram_matrix


@dataclass(frozen=True)
class NormMatrix:
    n: int
    mat: tuple  # 2n x 2n integer matrix
    u: int
    d: int


@dataclass(frozen=True)
class SubvarietyReport:
    eta: TwoForm
    u: int
    d: int
    type_divisors: tuple
    image_lattice: IntegerLattice
    kernel_lattice: IntegerLattice
    complement: TwoForm


def norm_from_class(eta, u=None, d=None):
    """Build and verify the norm matrix of a certified class.

    When (u, d) is not supplied it is taken from check_class, whose profile
    fixes I_1 = (n-1)! u d and so trace(N) = 2ud; a supplied one needs
    1 <= u <= n, d >= 1 and antidiagonal sum -u d (trace(N) is -2 times it).
    N^2 = d N with that trace and d >= 1 forces rank N = tr N / d = 2u, so the
    rank is computed only to name a failure (``RankMismatch``).
    """
    if eta.is_zero():
        raise ZeroForm("zero class has no norm matrix")
    n = eta.n
    if u is None or d is None:
        found = check_class(eta)
        if found is None:
            raise NotIdempotent("class fails the intersection-number profile")
        u, d = found
    elif not 1 <= u <= n:
        raise RangeError("need 1 <= u <= n")
    elif d < 1:
        raise RangeError("need d >= 1")
    elif (anti := sum(eta.mat[i][n + i] for i in range(n))) != -u * d:
        raise TraceMismatch(f"antidiagonal sum {anti} != -u*d = {-u * d}")
    nmat = la.j_times(eta.mat)
    if not la.mat_eq(la.mat_mul(nmat, nmat), la.mat_scale(d, nmat)):
        if la.rank_int(nmat) != 2 * u:
            raise RankMismatch(f"rank(N) != {2 * u}")
        raise NotIdempotent("N^2 != d N")
    return NormMatrix(n, la.mat_freeze(nmat), u, d)


def class_from_norm(norm):
    """Invert the norm construction: M = -J N, which must be antisymmetric."""
    mat = norm.mat if isinstance(norm, NormMatrix) else norm
    m = la.mat_scale(-1, la.j_times(mat))
    if not la.is_antisymmetric(m):
        raise NotSymmetricForJ("norm matrix is not symmetric for the pairing")
    return TwoForm.from_matrix(len(mat) // 2, m)


def complementary_class(eta, u=None, d=None):
    """The class d * theta - eta of the complementary abelian subvariety.

    The complement of the full class (u = n) is the zero form; otherwise the
    result is certified to be a class of dimension n - u with the same
    exponent, which is forced by the complementary norm identity.
    """
    if u is None or d is None:
        found = check_class(eta)
        if found is None:
            raise NotIdempotent("class fails the intersection-number profile")
        u, d = found
    n = eta.n
    comp = d * theta(n) - eta
    if u == n:
        if not comp.is_zero():
            # the principal class is the only genuine full-dimension class
            raise NotIdempotent("full-dimension profile without the principal class")
        return comp
    try:
        back = check_class(comp)
    except NsforgeError:
        back = None
    if back != (n - u, d):
        # forced for endomorphism-consistent classes by the complementary
        # norm identity; failure means the input only looked like a class
        raise NotIdempotent(f"complement certifies as {back}, expected {(n - u, d)}")
    return comp


def analyze(eta):
    """Full certificate: dimension, exponent, type, lattices, complement."""
    return _report(eta, norm_from_class(eta))


def _image(norm):
    """The saturated image lattice of a verified norm matrix.

    N^2 = d N with d >= 1 makes the saturated image of N the lattice
    ker(N - d I) in Z^2n, whose canonical basis is one kernel computation.
    """
    shifted = la.mat_sub(norm.mat, la.mat_scale(norm.d, la.identity(2 * norm.n)))
    return IntegerLattice(2 * norm.n, tuple(tuple(v) for v in la.kernel_basis(shifted)))


def _image_type(norm):
    """The saturated image lattice (``_image``) and theta's Frobenius frame on it.

    The frame is ``frobenius_basis`` of the Gram of theta's matrix -J on
    the image basis; its divisors are the polarization type.
    """
    image = _image(norm)
    frame = frobenius_basis(gram_matrix(theta(norm.n).mat, image.basis))
    if frame.divisors[-1] != norm.d:
        raise TypeExponentMismatch(f"largest divisor {frame.divisors[-1]} != exponent {norm.d}")
    return image, frame


def _smith_type(mat, u, d):
    """The type D of a class with verified (u, d), off the Smith invariants of M or N = J M.

    They are d / D_i, each twice (see the README), and s_1 = gcd(M) suffices
    for u = 1.  A non-primitive class has s_1 > 1 and raises, as ``_image_type`` does.
    """
    s = [gcd(*(x for row in mat for x in row))] if u == 1 else la.smith_invariants(mat)[::2]
    if s[0] != 1:
        raise TypeExponentMismatch(f"largest divisor {d // s[0]} != exponent {d}")
    return tuple(d // x for x in reversed(s))


def _report(eta, norm):
    """The certificate of a class whose norm matrix has already been verified."""
    n, u, d = norm.n, norm.u, norm.d
    image, divisors = _image(norm), _smith_type(norm.mat, u, d)
    if u < n:
        kernel = la.kernel_basis([list(r) for r in norm.mat])
        kernel_lat = IntegerLattice(2 * n, tuple(tuple(v) for v in kernel))
    else:
        kernel_lat = IntegerLattice(2 * n, ())
    # index of image (+) kernel in the full lattice equals the squared type product,
    # a cross-check of the type read off the Smith invariants
    combined = [list(b) for b in image.basis] + [list(b) for b in kernel_lat.basis]
    assert len(combined) == 2 * n, "internal: image and kernel do not fill the space"
    idx = abs(la.det_bareiss(la.transpose(combined)))
    assert idx == prod(divisors) ** 2, f"internal: lattice index {idx} != (type product)^2"
    # d theta - eta has norm matrix d I - N, which the verified identity
    # N^2 = d N already certifies as an (n - u, d) class: no second profile
    return SubvarietyReport(eta, u, d, divisors, image, kernel_lat, d * theta(n) - eta)


def polynomial_certificate(norm):
    """Check the characteristic and minimal polynomial identities of N.

    ``char_ok`` compares the coefficients of det(t I - N), from one
    Faddeev--LeVerrier run (``_intlinalg.charpoly``), with those of
    t^(2n-2u) (t - d)^(2u) from t^(2n) down; ``min_ok`` checks N^2 = d N,
    with N neither zero nor d I when 0 < u < n.
    """
    n, u, d = norm.n, norm.u, norm.d
    size = 2 * n
    nmat = [list(r) for r in norm.mat]
    expected = [comb(2 * u, k) * (-d) ** k for k in range(2 * u + 1)] + [0] * (size - 2 * u)
    char_ok = la.charpoly(nmat, size) == expected
    sq = la.mat_mul(nmat, nmat)
    idem = la.mat_eq(sq, la.mat_scale(d, nmat))
    nonzero = any(any(row) for row in nmat)
    scalar = la.mat_eq(nmat, la.mat_scale(d, la.identity(size)))
    if u in (0, n):
        min_ok = idem
    else:
        min_ok = idem and nonzero and not scalar
    return {"char_ok": char_ok, "min_ok": min_ok}


def elliptic_in_divisor(delta_e, delta_z):
    """Containment test of an elliptic class inside a codimension-1 class.

    True iff the triple intersection with n - 2 copies of the principal
    class equals d_E d_Z (n-2)! (n-2); needs n >= 3 so that the two
    dimensions 1 and n - 1 are distinct.
    """
    n = delta_e.n
    if delta_z.n != n:
        raise WrongDimensions("classes live in different dimensions")
    if n < 3:
        raise WrongDimensions("containment test needs n >= 3")
    ce = check_class(delta_e)
    cz = check_class(delta_z)
    if ce is None or ce[0] != 1:
        raise WrongDimensions("first argument must be an elliptic class")
    if cz is None or cz[0] != n - 1:
        raise WrongDimensions("second argument must have codimension 1")
    d_e, d_z = ce[1], cz[1]
    inter = mixed_intersection([(delta_e, 1), (delta_z, 1), (theta(n), n - 2)])
    return inter == d_e * d_z * factorial(n - 2) * (n - 2)
