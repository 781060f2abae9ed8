"""Analytic side: period matrices, the wedge-vanishing test, and the
polynomial relations a class imposes on the Siegel upper half space.

Two numeric backends coexist: an exact one over Gaussian rationals for
golden tests and certificates, and a binary64 one for scanning.  A class
vanishes for tau when eta ^ dz_1 ^ ... ^ dz_n = 0, equivalently when the
residual R = P M P^T with P = (I | -tau), the restriction to the kernel of
(tau | I), is zero.  As a map of the coefficients of eta, R has the 2 x 2
minors of P as coefficients, and every vanishing question reads them:
exact decisions test q^2 R over the integers, as the congruence by the
integer period block of q P; the float test and the float scan take each
entry from the minors of P in binary64 and bound it by tol times the size
of its terms; the symbolic relations are the same minors over Z[tau].
An exact tau = (A + iB) / q is stored as its integer block (q, A, B) in
lowest terms, which the tangent, the Moebius action and the Siegel test read;
QQi exists only at the boundary (``rows``, ``residual_matrix``, the tangent,
JSON).  Every solved exact tau (``moebius``, ``glue``, ``is_realizable``) is
one integer Cramer solve of F X = E for an integer period block (E | F), in
``_normalized_periods``.  The wedge expansion is the test reference
(``tests/oracle.py``); both ``scan_ppav`` backends search with ``scan._walk``,
the exact one over the vanishing lattice, the float one over the box (the
identity lattice) like ``enumerate_classes``, its residual rows bounding a slot.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isfinite, lcm
from operator import add, sub

from . import _intlinalg as la
from . import scan
from ._gaussian import QQi
from ._poly import IntPoly
from .errors import (
    DimensionMismatch,
    NotAlternating,
    NotAnalytic,
    NotInSiegel,
    RangeError,
)
from .exterior import TwoForm
from .normend import _image, _report, norm_from_class
from .scan import _check_box_budget, _pairs
from .symplectic import is_symplectic

EXACT = "exact"
FLOAT = "float"
DEFAULT_TOL = 1e-9
_CHOL_TOL = 1e-12


@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric n x n tau = (re + i im) / q with positive-definite imaginary part.

    Exact: integer re, im and q > 0 in lowest terms, so ``==`` is value equality.
    Float: binary64 re, im and q = 1.  Built by ``exact`` and ``from_float``.
    """

    n: int
    backend: str
    q: int
    re: tuple  # tuple of tuples of int (exact) or float
    im: tuple

    def __post_init__(self):
        if self.backend not in (EXACT, FLOAT):
            raise RangeError(f"unknown backend {self.backend!r}")
        parts = (self.re, self.im)
        if any(len(part) != self.n or any(len(r) != self.n for r in part) for part in parts):
            raise DimensionMismatch("period matrix must be n x n")
        if self.backend == FLOAT and not all(isfinite(x) for p in parts for r in p for x in r):
            raise NotInSiegel("period matrix entries must be finite")
        if any(tuple(zip(*part)) != part for part in parts):
            raise NotInSiegel("period matrix must be symmetric")
        if not (_int_pd if self.backend == EXACT else _float_pd)(self.im):
            raise NotInSiegel("imaginary part is not positive definite")

    @classmethod
    def exact(cls, entries):
        """From entries in Q(i): QQi, or anything ``QQi`` takes, such as int and Fraction."""
        rows = [[e if isinstance(e, QQi) else QQi(e) for e in row] for row in entries]
        q = lcm(*(x.denominator for row in rows for e in row for x in (e.re, e.im)))
        re = tuple(tuple(e.re.numerator * (q // e.re.denominator) for e in row) for row in rows)
        im = tuple(tuple(e.im.numerator * (q // e.im.denominator) for e in row) for row in rows)
        return cls(len(rows), EXACT, q, re, im)

    @classmethod
    def from_float(cls, entries):
        rows = [[complex(e) for e in row] for row in entries]
        return cls(len(rows), FLOAT, 1, tuple(tuple(e.real for e in row) for row in rows),
                   tuple(tuple(e.imag for e in row) for row in rows))

    @property
    def rows(self):
        """The entries: QQi for an exact tau, complex for a float one."""
        if self.backend == EXACT:
            return la.mat_freeze(_gaussian(self.q, self.re, self.im))
        return tuple(tuple(map(complex, *rows)) for rows in zip(self.re, self.im))

    def entry(self, i, j):
        return self.rows[i][j]

    def to_float(self):
        """The float tau: int / int is correctly rounded, as ``float(Fraction)`` is."""
        if self.backend == FLOAT:
            return self
        q = self.q
        try:
            re, im = (tuple(tuple(x / q for x in r) for r in part) for part in (self.re, self.im))
        except OverflowError:
            raise RangeError("period matrix entries too large for binary64") from None
        return PeriodMatrix(self.n, FLOAT, 1, re, im)


def _gaussian(q, re, im):
    """The Q(i) matrix (re + i im) / q of integer matrices re, im: the boundary form."""
    return [[QQi(Fraction(x, q), Fraction(y, q)) for x, y in zip(*rows)] for rows in zip(re, im)]


def _int_pd(sym):
    """Positive definiteness of a symmetric integer matrix: with no row swap, the pivots of
    one ``la._bareiss`` pass are its leading principal minors, and all are positive."""
    m = la.mat_copy(sym)
    return la._bareiss(m, len(m)) == 0 and all(m[k][k] > 0 for k in range(len(m)))


def _check_tol(tol):
    """A float tolerance is finite and >= 0; ``--tol`` reaches the analytic calls unchecked."""
    if not (tol >= 0 and isfinite(tol)):
        raise RangeError(f"tol must be finite and >= 0, got {tol!r}")


def _float_pd(sym):
    """Cholesky with a small pivot tolerance."""
    n = len(sym)
    m = [list(map(float, row)) for row in sym]
    for k in range(n):
        pivot = m[k][k]
        if pivot <= _CHOL_TOL:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True


@dataclass(frozen=True)
class RelationSet:
    """Integer polynomial relations on the entries tau_kl (1-based, k <= l)."""

    n: int
    polynomials: tuple  # tuple of IntPoly over the packed tau variables

    def __post_init__(self):
        for p in self.polynomials:
            if p.degree() > 2:
                raise RangeError("relations have degree at most 2")


def tau_var_index(n, k, l):
    """Variable index of tau_kl, 1-based with k <= l, packed row-major."""
    if not 1 <= k <= l <= n:
        raise RangeError("need 1 <= k <= l <= n")
    k0 = k - 1
    return k0 * n - k0 * (k0 - 1) // 2 + (l - k)


def tau_var_pairs(n):
    return [(k, l) for k in range(1, n + 1) for l in range(k, n + 1)]


def wedge_vanishes(eta, tau, tol=DEFAULT_TOL):
    """Test of the holomorphic vanishing condition eta ^ dz_1 ^ ... ^ dz_n = 0.

    Exact backend: every integer entry of q^2 R is zero (``residual_matrix``).
    Float backend: every strictly-upper entry of R, the minors m of P applied
    to the coefficients a of eta (``_float_rows``), is within tol * sum |a m|,
    the size of its own terms.
    """
    _check_tol(tol)
    if tau.backend == EXACT:
        _, re, im = _int_residual(eta, tau)
        return not any(map(any, re + im))
    if eta.n != tau.n:
        raise DimensionMismatch("form and period matrix sizes differ")
    return _within(_float_rows(tau), eta.coefficient_vector(), tol)


def _within(rows, vec, tol):
    """Every residual entry row . vec is within tol times the sum of its terms' sizes.

    A NaN entry never is; an entry whose terms overflow binary64 is a RangeError.
    """
    try:
        for row in rows:
            acc, size = 0j, 0.0
            for coef, a in zip(row, vec):
                if a:
                    term = a * coef
                    acc += term
                    size += abs(term)
            if size == inf:
                raise OverflowError
            if not abs(acc) <= tol * size:
                return False
    except OverflowError:
        raise RangeError("residual terms too large to scale the float tolerance") from None
    return True


def _residual(eta, t):
    """R = M11 - t M21 - M12 t + t M22 t over the ring of the entries of t.

    The float ``residual_matrix`` keeps it for the rounding the CLI prints.
    """
    n = len(t)
    if eta.n != n:
        raise DimensionMismatch("form and period matrix sizes differ")
    top, bottom = eta.mat[:n], eta.mat[n:]
    term2 = la.mat_mul(t, [r[:n] for r in bottom])
    term3 = la.mat_mul([r[n:] for r in top], t)
    term4 = la.mat_mul(la.mat_mul(t, [r[n:] for r in bottom]), t)
    return [[a - b - c + d for a, b, c, d in zip(*rows)]
            for rows in zip((r[:n] for r in top), term2, term3, term4)]


def _period_block(tau):
    """Q = [[qI, -A], [0, -B]] for an exact tau = (A + iB) / q.

    The rows of Q are the real and imaginary parts of q (I | -tau).
    """
    n, q = tau.n, tau.q
    top = [[q if i == k else 0 for i in range(n)] + [-x for x in row]
           for k, row in enumerate(tau.re)]
    return top + [[0] * n + [-x for x in row] for row in tau.im]


def _real_form(re, im):
    """The real matrix [[Re, -Im], [Im, Re]] of the complex matrix Re + i Im."""
    return [r + [-x for x in i] for r, i in zip(re, im)] + [i + r for r, i in zip(re, im)]


def _normalized_periods(z_re, z_im):
    """The period matrix X with F X = E for an integer complex n x 2n matrix Z = (E | F).

    One ``la.solve_bareiss`` of the real form of F: each entry is a Cramer numerator
    over det, and one gcd brings them all to lowest terms with q > 0.  A singular
    F raises ZeroDivisionError, an X off the Siegel space NotInSiegel.
    """
    n = len(z_re)
    f = _real_form([r[n:] for r in z_re], [r[n:] for r in z_im])
    det, cols = la.solve_bareiss(f, list(zip(*(r[:n] for r in z_re + z_im))))
    g = gcd(det, *(x for c in cols for x in c)) * (1 if det > 0 else -1)
    re, im = (tuple(tuple(c[h + k] // g for c in cols) for k in range(n)) for h in (0, n))
    return PeriodMatrix(n, EXACT, det // g, re, im)


def _minors(p, r, s, pairs):
    """Minors of rows r, s of p on the column pairs: (p M p^T)_rs on the basis 2-forms."""
    pr, ps = p[r], p[s]
    return [pr[i] * ps[j] - pr[j] * ps[i] for i, j in pairs]


def _int_rows(tau, pairs):
    """The entries k < l of q^2 R as integer rows on the basis 2-forms ``pairs``: Re, then Im.

    Entry (r, s) of S = Q M Q^T, Q the period block, is the minor [r, s] on M's coefficients;
    Re = S11 - S22 is [k, l] - [n+k, n+l] and Im = S12 + S21 is [k, n+l] + [n+k, l].
    """
    n, block = tau.n, _period_block(tau)
    return [list(map(op, _minors(block, k, s, pairs), _minors(block, n + k, t, pairs)))
            for k in range(n) for l in range(k + 1, n)
            for op, s, t in ((sub, l, n + l), (add, n + l, l))]


def _int_residual(eta, tau):
    """q^2 and the integer matrices Re, Im of q^2 R for an exact tau, from eta's nonzero slots."""
    n = tau.n
    if eta.n != n:
        raise DimensionMismatch("form and period matrix sizes differ")
    slots = [(p, a) for p, a in zip(_pairs(n), eta.coefficient_vector()) if a]
    rows = iter(_int_rows(tau, [p for p, _ in slots]))
    re, im = la.zeros(n, n), la.zeros(n, n)
    for k in range(n):
        for l in range(k + 1, n):
            for part in (re, im):
                part[k][l] = sum(a * m for (_, a), m in zip(slots, next(rows)))
                part[l][k] = -part[k][l]
    return tau.q * tau.q, re, im


def residual_matrix(eta, tau):
    """Restriction of the complexified form to the kernel of (tau | I).

    Returns the antisymmetric n x n matrix
    R = M11 - tau M21 - M12 tau + tau M22 tau
    (block decomposition of the coefficient matrix), on an exact tau from q^2 R
    over the integers.  The tests check R = 0 against the wedge expansion.
    """
    if tau.backend == EXACT:
        return _gaussian(*_int_residual(eta, tau))
    return _residual(eta, tau.rows)


def residual_polynomials(eta):
    """The residual matrix with symbolic tau entries, as integer polynomials.

    Entry (k, l) is the exact polynomial whose value at a concrete tau is
    residual_matrix(eta, tau)[k][l]; no normalization is applied.  It sums
    the minors of rows k, l of the symbolic P = (I | -T) on the nonzero
    coefficients of eta.
    """
    n = eta.n
    p = [[int(i == k) for i in range(n)]
         + [IntPoly.var(tau_var_index(n, min(k, l) + 1, max(k, l) + 1), -1) for l in range(n)]
         for k in range(n)]
    terms = eta.coeffs()
    polys = [[IntPoly()] * n for _ in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            entry = IntPoly()
            for a, minor in zip(terms.values(), _minors(p, k, l, terms)):
                entry = entry + a * minor
            polys[k][l], polys[l][k] = entry, -entry
    return polys


def _canonical_poly(p):
    """Divide by the content and make the leading coefficient positive.

    The leading term is the highest-degree, lexicographically-first monomial.
    """
    c = p.content()
    if c == 0:
        return p
    terms = {m: v // c for m, v in p.terms.items()}
    lead = min(terms, key=lambda m: (-len(m), m))
    if terms[lead] < 0:
        terms = {m: -v for m, v in terms.items()}
    return IntPoly(terms)


def symbolic_relations(eta):
    """Canonical polynomial relations cutting out the vanishing locus.

    The strictly-upper-triangular residual entries, content-normalized with
    positive leading coefficient, duplicates removed, in row-major order of
    first appearance.
    """
    n = eta.n
    polys = residual_polynomials(eta)
    seen = []
    for k in range(n):
        for l in range(k + 1, n):
            p = polys[k][l]
            if not p:
                continue
            canon = _canonical_poly(p)
            if canon not in seen:
                seen.append(canon)
    return RelationSet(n, tuple(seen))


def tangent_and_lattice(eta, tau, tol=DEFAULT_TOL):
    """Complex tangent and period data of the subvariety a class detects.

    Both matrices are (tau | I) applied to the saturated image basis of the
    norm matrix: the column span over C is the u-dimensional tangent space,
    and the integer span of the columns is the period lattice.
    """
    if not wedge_vanishes(eta, tau, tol=tol):
        raise NotAnalytic("class does not vanish for this period matrix")
    norm = norm_from_class(eta)
    n, u = eta.n, norm.u
    basis = _image(norm).basis  # 2u columns
    if tau.backend == EXACT:
        # q (tau | I) b = q (I | -tau) (b_bottom; -b_top): the period block on swapped columns
        swapped = la.transpose([list(b[n:]) + [-x for x in b[:n]] for b in basis])
        re_im = la.mat_mul(_period_block(tau), swapped)
        re, im = re_im[:n], re_im[n:]
        mat = _gaussian(tau.q, re, im)
        rank = la.rank_int(_real_form(re, im)) // 2
    else:
        periods = [list(row) + [int(i == k) for i in range(n)] for k, row in enumerate(tau.rows)]
        mat = la.mat_mul(periods, la.transpose(basis))
        rank = _float_rank(mat, tol)
    assert rank == u, f"internal: tangent rank {rank} != u = {u}"
    return {"tangent": mat, "lattice": mat}


def _float_rank(mat, tol):
    rows = [list(r) for r in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    r = 0
    for c in range(ncols):
        cand = max(range(r, len(rows)), key=lambda i: abs(rows[i][c]), default=None)
        piv = cand if cand is not None and abs(rows[cand][c]) > tol else None
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / inv
                for j in range(c, ncols):
                    rows[i][j] = rows[i][j] - f * rows[r][j]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def _coefficient_lattice(tau):
    """Saturated integer lattice of 2-forms vanishing at an exact tau: the kernel of
    ``_int_rows`` on every slot, which ignores q^2 (n = 1: no rows, every form vanishes)."""
    pairs = _pairs(tau.n)
    return pairs, la.kernel_basis(_int_rows(tau, pairs) or [[0] * len(pairs)])


def scan_ppav(tau, u, d, bound, tol=DEFAULT_TOL, jobs=1):
    """All certified classes with bounded coefficients detected on tau.

    Returns the analyze report of every primitive 2-form with coefficients
    in [-bound, bound] that has a valid norm matrix at (u, d), which implies
    the (u, d) profile, and vanishes for tau, in lexicographic coefficient order.
    Both backends walk with ``scan._walk``, testing M J M = d M and the
    trace at the step that fixes them: the exact one over the vanishing
    lattice, the float one over the box, the identity lattice, where a window
    per residual row (``scan._residual_windows``: tol plus a proven binary64
    margin) bounds one slot and ``_within`` decides each leaf.  The float
    walk is ``enumerate_classes``'s ``scan._walk_chunks``: one walk for
    jobs <= 1, else one chunk per value of slot 0 in worker processes.
    """
    if bound < 1:
        raise RangeError("bound must be >= 1")
    _check_tol(tol)
    n = tau.n
    if not 1 <= u <= n:
        raise RangeError("need 1 <= u <= n")
    if tau.backend == FLOAT:
        _check_box_budget(n, bound, "scan")
    if d < 1:  # no class has a profile with exponent below 1
        return []
    if tau.backend == EXACT:
        hits = scan._walk(n, u, d, bound, True, _coefficient_lattice(tau)[1])
    else:
        rows = _float_rows(tau)
        hits = [hit for hit in scan._walk_chunks(n, u, d, bound, True, jobs, (rows, tol))
                if _within(rows, hit[0], tol)]
    reports = []
    for _, mat in sorted(hits):
        eta = TwoForm(n, mat)
        if tau.backend == EXACT:
            assert wedge_vanishes(eta, tau), "internal: kernel member fails the wedge test"
        reports.append(_report(eta, norm_from_class(eta, u, d)))
    return reports


def _float_rows(tau):
    """The float residual map: row (k, l) holds the minors of rows k, l of P = (I | -tau).

    A minor that overflows binary64 is a RangeError: no tolerance decides against it.
    """
    n = tau.n
    pairs = _pairs(n)
    p = [[complex(i == k) for i in range(n)] + [-e for e in row] for k, row in enumerate(tau.rows)]
    rows = [_minors(p, k, l, pairs) for k in range(n) for l in range(k + 1, n)]
    if not all(cmath.isfinite(m) for row in rows for m in row):
        raise RangeError("period matrix entries too large to scale the float tolerance")
    return rows


def moebius(s, tau):
    """Action (alpha tau + beta)(gamma tau + delta)^{-1}; exact backend only.

    S must be a 2n x 2n symplectic matrix, which keeps gamma tau + delta
    invertible on the Siegel space.
    """
    if tau.backend != EXACT:
        raise RangeError("the fractional action is implemented for the exact backend")
    mat = s.mat if hasattr(s, "mat") else s
    n = tau.n
    if len(mat) != 2 * n:
        raise DimensionMismatch("matrix size does not match the period matrix")
    if not is_symplectic(mat):
        raise NotAlternating("matrix is not symplectic")
    # with tau = (A + iB) / q, q (num; den) = S (A; qI) + i S (B; 0), and the
    # X solving den^T X = num^T is (num den^{-1})^T, which is symmetric
    parts = (list(tau.re) + la.mat_scale(tau.q, la.identity(n)), list(tau.im) + la.zeros(n, n))
    return _normalized_periods(*(la.transpose(la.mat_mul(mat, part)) for part in parts))

