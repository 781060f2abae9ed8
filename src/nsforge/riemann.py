"""Analytic side: period matrices, the wedge-vanishing test, and the
polynomial relations a class imposes on the Siegel upper half space.

Two numeric backends coexist: an exact one over Gaussian rationals for
golden tests and certificates, and a binary64 one for scanning.  A class
vanishes for tau when eta ^ dz_1 ^ ... ^ dz_n = 0, equivalently when the
residual R = P M P^T with P = (I | -tau), the restriction to the kernel of
(tau | I), is zero.  As a map of the coefficients of eta, R has the 2 x 2
minors of P as coefficients.  Exact decisions test q^2 R over the integers,
as the congruence by the integer period block of q P; the float scan
filters with the minors of P.  The wedge expansion
(``wedge_coefficients``) is the test reference.  Both backends of
``scan_ppav`` search with ``scan._walk``.
"""

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import _intlinalg as la
from . import scan
from ._gaussian import QQi
from ._poly import IntPoly
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotAnalytic,
    NotInSiegel,
    RangeError,
)
from .normend import _report, analyze, norm_from_class
from .scan import _budget, _form, _map_first_entries, _pairs, _walk_block

EXACT = "exact"
FLOAT = "float"
DEFAULT_TOL = 1e-9
_CHOL_TOL = 1e-12


@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric n x n matrix with positive-definite imaginary part."""

    n: int
    backend: str
    rows: tuple  # tuple of tuples of QQi (exact) or complex (float)

    def __post_init__(self):
        if self.backend not in (EXACT, FLOAT):
            raise RangeError(f"unknown backend {self.backend!r}")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise DimensionMismatch("period matrix must be n x n")
        if self.backend == FLOAT and not all(cmath.isfinite(e) for row in self.rows for e in row):
            raise NotInSiegel("period matrix entries must be finite")
        for i in range(self.n):
            for j in range(self.n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise NotInSiegel("period matrix must be symmetric")
        if self.backend == EXACT:
            imag = [[e.im for e in row] for row in self.rows]
            if not _fraction_pd(imag):
                raise NotInSiegel("imaginary part is not positive definite")
        else:
            imag = [[e.imag for e in row] for row in self.rows]
            if not _float_pd(imag):
                raise NotInSiegel("imaginary part is not positive definite")

    @classmethod
    def exact(cls, entries):
        rows = tuple(tuple(e if isinstance(e, QQi) else QQi(e) for e in row) for row in entries)
        return cls(len(rows), EXACT, rows)

    @classmethod
    def from_float(cls, entries):
        rows = tuple(tuple(complex(e) for e in row) for row in entries)
        return cls(len(rows), FLOAT, rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def max_abs(self):
        if self.backend == EXACT:
            return max(max(abs(e.re), abs(e.im)) for row in self.rows for e in row)
        return max(abs(e) for row in self.rows for e in row)

    def to_float(self):
        if self.backend == FLOAT:
            return self
        return PeriodMatrix.from_float([[e.to_complex() for e in row] for row in self.rows])


def _fraction_pd(sym):
    """Positive definiteness of a symmetric Fraction matrix via leading minors."""
    n = len(sym)
    for k in range(1, n + 1):
        minor = [[sym[i][j] for j in range(k)] for i in range(k)]
        if la.det_fraction(minor) <= 0:
            return False
    return True


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


def _zero(backend):
    return QQi(0) if backend == EXACT else 0j


def _one_like_backend(backend):
    return QQi(1) if backend == EXACT else 1 + 0j


def _dz_coefficients(tau):
    """Expansion of dz_1 ^ ... ^ dz_n over n-subsets of the 2n coordinates.

    With z = (tau | I) x, the coefficient on dx_S is the minor of (tau | I)
    on columns S.
    """
    n = tau.n
    m = 2 * n
    one, zero = _one_like_backend(tau.backend), _zero(tau.backend)
    pi = [list(tau.rows[k]) + [one if i == k else zero for i in range(n)] for k in range(n)]
    coeffs = {}
    for subset in itertools.combinations(range(m), n):
        sub = [[pi[r][c] for c in subset] for r in range(n)]
        det = _det_generic(sub, tau.backend)
        if _nonzero(det, tau.backend):
            coeffs[subset] = det
    return coeffs


def _nonzero(x, backend):
    return bool(x) if backend == EXACT else x != 0


def _det_generic(mat, backend):
    """Determinant over QQi (exact division) or complex (partial pivoting)."""
    n = len(mat)
    m = [list(row) for row in mat]
    det = _one_like_backend(backend)
    for k in range(n):
        if backend == EXACT:
            piv = next((i for i in range(k, n) if m[i][k]), None)
        else:
            piv = max(range(k, n), key=lambda i: abs(m[i][k]))
            if abs(m[piv][k]) == 0.0:
                piv = None
        if piv is None:
            return _zero(backend)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k]
        inv = m[k][k]
        for i in range(k + 1, n):
            if _nonzero(m[i][k], backend):
                f = m[i][k] / inv
                for j in range(k, n):
                    m[i][j] = m[i][j] - f * m[k][j]
    return det


def _merge_sign(pair, subset):
    """Sign of sorting (i, j) + subset into increasing order; None if not disjoint."""
    i, j = pair
    if i in subset or j in subset:
        return None
    c_i = sum(1 for s in subset if s < i)
    c_j = sum(1 for s in subset if s < j)
    return -1 if (c_i + c_j) % 2 else 1


def wedge_coefficients(eta, tau):
    """Coefficients of eta ^ dz_1 ^ ... ^ dz_n on the (n+2)-form basis."""
    if eta.n != tau.n:
        raise DimensionMismatch("form and period matrix sizes differ")
    dz = _dz_coefficients(tau)
    out = {}
    for (i, j), a in eta.coeffs().items():
        for subset, det in dz.items():
            sign = _merge_sign((i, j), subset)
            if sign is None:
                continue
            key = tuple(sorted((i, j) + subset))
            val = out.get(key, _zero(tau.backend)) + (sign * a) * det
            if _nonzero(val, tau.backend):
                out[key] = val
            else:
                out.pop(key, None)
    return out


def wedge_vanishes(eta, tau, tol=DEFAULT_TOL):
    """Test of the holomorphic vanishing condition eta ^ dz_1 ^ ... ^ dz_n = 0.

    Exact backend: every integer entry of q^2 R is zero (``residual_matrix``).
    Float backend: every expanded coefficient is within tol * (1 + max |tau_kl|)^2.
    """
    if tau.backend == EXACT:
        return _exact_vanishes(eta, tau)
    bound = tol * (1 + tau.max_abs()) ** 2
    return all(abs(v) <= bound for v in wedge_coefficients(eta, tau).values())


def _residual(eta, t):
    """R = M11 - t M21 - M12 t + t M22 t over the ring of the entries of t."""
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
    """q, the lcm of the denominators of an exact tau = (A + iB) / q, and Q = [[qI, -A], [0, -B]].

    The rows of Q are the real and imaginary parts of q (I | -tau).
    """
    n = tau.n
    q = lcm(*(x.denominator for row in tau.rows for e in row for x in (e.re, e.im)))
    top = [[q if i == k else 0 for i in range(n)]
           + [-e.re.numerator * (q // e.re.denominator) for e in row]
           for k, row in enumerate(tau.rows)]
    bottom = [[0] * n + [-e.im.numerator * (q // e.im.denominator) for e in row]
              for row in tau.rows]
    return q, top + bottom


def _minors(p, r, s, pairs):
    """Minors of rows r, s of p on the column pairs: (p M p^T)_rs on the basis 2-forms."""
    pr, ps = p[r], p[s]
    return [pr[i] * ps[j] - pr[j] * ps[i] for i, j in pairs]


def _int_residual(eta, tau):
    """q^2 and the integer matrices Re, Im of q^2 R for an exact tau.

    With the period block Q and S = Q M Q^T: Re = S11 - S22, Im = S12 + S21.
    """
    n = tau.n
    if eta.n != n:
        raise DimensionMismatch("form and period matrix sizes differ")
    q, block = _period_block(tau)
    s = la.mat_mul(la.mat_mul(block, eta.mat), la.transpose(block))
    re = [[s[k][l] - s[n + k][n + l] for l in range(n)] for k in range(n)]
    im = [[s[k][n + l] + s[n + k][l] for l in range(n)] for k in range(n)]
    return q * q, re, im


def _exact_vanishes(eta, tau):
    _, re, im = _int_residual(eta, tau)
    return not any(map(any, re + im))


def residual_matrix(eta, tau):
    """Restriction of the complexified form to the kernel of (tau | I).

    Returns the antisymmetric n x n matrix
    R = M11 - tau M21 - M12 tau + tau M22 tau
    (block decomposition of the coefficient matrix), on an exact tau from q^2 R
    over the integers.  The tests check R = 0 against the wedge expansion.
    """
    if tau.backend == EXACT:
        q2, re, im = _int_residual(eta, tau)
        return [[QQi(Fraction(x, q2), Fraction(y, q2)) for x, y in zip(*rows)]
                for rows in zip(re, im)]
    return _residual(eta, tau.rows)


def residual_is_zero(eta, tau, tol=DEFAULT_TOL):
    """R = 0: exactly (every integer of q^2 R is 0) or within the float tolerance."""
    if tau.backend == EXACT:
        return _exact_vanishes(eta, tau)
    bound = tol * (1 + tau.max_abs()) ** 2
    return all(abs(x) <= bound for row in residual_matrix(eta, tau) for x in row)


def residual_polynomials(eta):
    """The residual matrix with symbolic tau entries, as integer polynomials.

    Entry (k, l) is the exact polynomial whose value at a concrete tau is
    residual_matrix(eta, tau)[k][l]; no normalization is applied.
    """
    n = eta.n
    tsym = [[IntPoly.var(tau_var_index(n, min(k, l) + 1, max(k, l) + 1))
             for l in range(n)] for k in range(n)]
    return _residual(eta, tsym)


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
    report = analyze(eta)
    n, u = eta.n, report.u
    basis = report.image_lattice.basis  # 2u columns
    pi_cols = []
    for b in basis:
        col = []
        for k in range(n):
            acc = _zero(tau.backend)
            for i in range(n):
                acc = acc + tau.rows[k][i] * b[i]
            acc = acc + b[n + k]
            col.append(acc)
        pi_cols.append(col)
    mat = [[pi_cols[c][r] for c in range(len(pi_cols))] for r in range(n)]
    rank = _rank_generic(mat, tau.backend, tol)
    assert rank == u, f"internal: tangent rank {rank} != u = {u}"
    return {"tangent": mat, "lattice": mat}


def _rank_generic(mat, backend, tol=DEFAULT_TOL):
    rows = [list(r) for r in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    r = 0
    for c in range(ncols):
        if backend == EXACT:
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        else:
            cand = max(range(r, len(rows)), key=lambda i: abs(rows[i][c]), default=None)
            piv = cand if cand is not None and abs(rows[cand][c]) > tol else None
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        for i in range(r + 1, len(rows)):
            if _nonzero(rows[i][c], backend):
                f = rows[i][c] / inv
                for j in range(c, ncols):
                    rows[i][j] = rows[i][j] - f * rows[r][j]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def _coefficient_lattice(tau):
    """Saturated integer lattice of 2-forms vanishing at an exact tau.

    The map sends the packed coefficients to Re and Im of the strictly-upper
    entries (k, l) of q^2 R; in the minors [r, s] of the period block they are
    [k, l] - [n+k, n+l] and [k, n+l] + [n+k, l].  The kernel ignores q^2.
    """
    n = tau.n
    pairs = _pairs(n)
    upper = [(k, l) for k in range(n) for l in range(k + 1, n)]
    if not upper:
        return pairs, [list(c) for c in zip(*la.identity(len(pairs)))]
    _, block = _period_block(tau)
    rows = []
    for k, l in upper:
        rows.append([x - y for x, y in zip(_minors(block, k, l, pairs),
                                           _minors(block, n + k, n + l, pairs))])
        rows.append([x + y for x, y in zip(_minors(block, k, n + l, pairs),
                                           _minors(block, n + k, l, pairs))])
    return pairs, la.kernel_basis(rows)


def scan_ppav(tau, u, d, bound, tol=DEFAULT_TOL, jobs=1):
    """All certified classes with bounded coefficients detected on tau.

    Returns the analyze report of every primitive 2-form with coefficients
    in [-bound, bound] that has a valid norm matrix at (u, d), which implies
    the (u, d) profile, and vanishes for tau, in lexicographic coefficient order.
    Both backends walk with ``scan._walk``, pruning on M J M = d M and the
    trace: the exact one the box points of the vanishing lattice, the float
    one the box, keeping the classes within the residual tolerance.
    """
    if bound < 1:
        raise RangeError("bound must be >= 1")
    n = tau.n
    if not 1 <= u <= n:
        raise RangeError("need 1 <= u <= n")
    if tau.backend == FLOAT:
        est = (2 * bound + 1) ** (n * (2 * n - 1))
        if est > _budget():
            raise BudgetExceeded(f"scan space {est} exceeds budget {_budget()}")
    if d < 1:  # no class has a profile with exponent below 1
        return []
    if tau.backend == EXACT:
        vectors = scan._walk(n, u, d, bound, True, _coefficient_lattice(tau)[1])
    else:
        vectors = _float_scan_vectors(tau, u, d, bound, tol, jobs)
    reports = []
    for vec in sorted(vectors):
        eta = _form(n, vec)
        if tau.backend == EXACT:
            assert wedge_vanishes(eta, tau), "internal: kernel member fails the wedge test"
        elif not wedge_vanishes(eta, tau, tol=tol):
            continue
        reports.append(_report(eta, norm_from_class(eta, u, d)))
    return reports


def _float_scan_vectors(tau, u, d, bound, tol, jobs):
    """Certified (u, d) coefficient vectors whose float residual entries are within the limit."""
    rows = _float_rows(tau)
    limit = tol * (1 + tau.max_abs()) ** 2
    hits = []
    for vec in _map_first_entries(_walk_block, (tau.n, u, d, bound, True, None), bound, jobs):
        for row in rows:
            acc = 0j
            for coef, a in zip(row, vec):
                if a:
                    acc += a * coef
            if abs(acc) > limit:
                break
        else:
            hits.append(vec)
    return hits


def _float_rows(tau):
    """The float residual map: row (k, l) holds the minors of rows k, l of P = (I | -tau)."""
    n = tau.n
    pairs = _pairs(n)
    p = [[complex(i == k) for i in range(n)] + [-e for e in row] for k, row in enumerate(tau.rows)]
    return [_minors(p, k, l, pairs) for k in range(n) for l in range(k + 1, n)]


def moebius(s, tau):
    """Action (alpha tau + beta)(gamma tau + delta)^{-1}; exact backend only."""
    if tau.backend != EXACT:
        raise RangeError("the fractional action is implemented for the exact backend")
    mat = s.mat if hasattr(s, "mat") else s
    n = tau.n
    alpha = [row[:n] for row in mat[:n]]
    beta = [row[n:] for row in mat[:n]]
    gamma = [row[:n] for row in mat[n:]]
    delta = [row[n:] for row in mat[n:]]
    num = la.mat_add(la.mat_mul(alpha, tau.rows), beta)
    den = la.mat_add(la.mat_mul(gamma, tau.rows), delta)
    # num den^{-1} is the transpose of X solving den^T X = num^T
    res = la.transpose(la.solve_fraction(la.transpose(den), num))
    return PeriodMatrix.exact(res)

