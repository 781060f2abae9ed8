"""Integer symplectic machinery: the group action on 2-forms, lattice
saturation, and the normal form of an integer alternating pairing.
"""

import random
from dataclasses import dataclass
from itertools import combinations

from . import _intlinalg as la
from .errors import (
    Degenerate,
    DimensionMismatch,
    NotAlternating,
    OddDimension,
    ZeroInput,
)
from .exterior import TwoForm


@dataclass(frozen=True)
class SymplecticMatrix:
    n: int
    mat: tuple

    def __post_init__(self):
        if not is_symplectic(self.mat):
            raise NotAlternating("matrix does not preserve the standard pairing")


@dataclass(frozen=True)
class IntegerLattice:
    """Sublattice of Z^dim given by an integer column basis."""

    dim: int
    basis: tuple  # tuple of column vectors

    @property
    def rank(self):
        return len(self.basis)

    def __contains__(self, vector):
        if not self.basis:
            return not any(vector)
        cols = la.transpose([list(b) for b in self.basis])
        return la.solve_integer(cols, list(vector)) is not None


@dataclass(frozen=True)
class FrobeniusData:
    """Change of basis putting an alternating Gram matrix into type form."""

    u_matrix: tuple  # 2k x 2k unimodular; columns are the new basis
    divisors: tuple  # (d_1, ..., d_k) with d_i | d_{i+1}


def is_symplectic(s):
    """True iff S (J S^T) = J for the standard pairing J."""
    m = len(s)
    if m % 2 != 0:
        raise OddDimension("symplectic matrices have even size")
    if any(len(row) != m for row in s):
        raise DimensionMismatch("matrix must be square")
    return la.mat_eq(la.mat_mul(s, la.j_times(la.transpose(s))), la.standard_j(m // 2))


def act(s, eta):
    """Push a 2-form forward by a symplectic S: the matrix transforms as S M S^T."""
    mat = s.mat if isinstance(s, SymplecticMatrix) else s
    if len(mat) != 2 * eta.n:
        raise DimensionMismatch("matrix size does not match the form")
    if not isinstance(s, SymplecticMatrix) and not is_symplectic(mat):  # checked when built
        raise NotAlternating("matrix is not symplectic")
    m = la.mat_mul(la.mat_mul([list(r) for r in mat], [list(r) for r in eta.mat]),
                   la.transpose([list(r) for r in mat]))
    return TwoForm.from_matrix(eta.n, m)


def _transvection(n, v, c):
    """x -> x + c * (x^T J v) v, a symplectic transvection."""
    m = 2 * n
    j = la.standard_j(n)
    jv = la.mat_vec(j, v)
    out = la.identity(m)
    for k in range(m):
        # image of basis vector e_k
        pairing = jv[k]
        if pairing:
            for r in range(m):
                out[r][k] += c * pairing * v[r]
    return out


def random_symplectic(n, seed, word_length):
    """Deterministic product of standard symplectic generators.

    Generators are transvections along standard basis vectors and their
    pairwise sums, plus the block swap; every output satisfies
    ``is_symplectic`` by construction.
    """
    if word_length < 0:
        raise DimensionMismatch("word_length must be >= 0")
    rng = random.Random((seed, n, word_length).__repr__())
    m = 2 * n
    result = la.identity(m)
    for _ in range(word_length):
        kind = rng.randrange(3)
        if kind == 0:
            v = [0] * m
            v[rng.randrange(m)] = 1
            gen = _transvection(n, v, rng.choice((1, -1)))
        elif kind == 1:
            i = rng.randrange(m)
            k = rng.randrange(m - 1)
            if k >= i:
                k += 1
            v = [0] * m
            v[i] = 1
            v[k] = rng.choice((1, -1))
            gen = _transvection(n, v, rng.choice((1, -1)))
        else:
            gen = la.standard_j(n)
        result = la.mat_mul(result, gen)
    s = SymplecticMatrix(n, la.mat_freeze(result))
    return s


def saturate(vectors):
    """Saturation of the span of the given column vectors in Z^dim.

    The result is the set of integer points of the rational span, with a
    canonical Hermite-form basis, so the quotient lattice is torsion free.
    """
    cols = [list(v) for v in vectors]
    cols = [c for c in cols if any(c)]
    if not cols:
        raise ZeroInput("cannot saturate the zero span")
    dim = len(cols[0])
    basis = la.saturation_basis(cols)
    return IntegerLattice(dim, tuple(tuple(b) for b in basis))


def gram_matrix(pairing, basis_columns):
    """B^T G B for a list of basis column vectors."""
    b = la.transpose([list(c) for c in basis_columns])
    return la.mat_mul(la.mat_mul(la.transpose(b), [list(r) for r in pairing]), b)


def frobenius_basis(gram):
    """Symplectic normal form of a nondegenerate integer alternating matrix.

    Returns FrobeniusData(U, divisors) with U^T G U = [[0, D], [-D, 0]],
    D = diag(divisors), divisors positive with d_i | d_{i+1}.  Pivots are
    chosen as the lexicographically first entry of minimal absolute value,
    which makes the output deterministic.  U starts as the identity below G:
    each basis change b_dst += q b_src is one column pass over [G; U] and a
    row pass over G, and U is the lower half's columns, in pair order.
    """
    size = len(gram)
    if size % 2 != 0:
        raise Degenerate("alternating forms of odd rank are degenerate")
    g = [list(r) for r in gram]
    if any(len(r) != size for r in g):
        raise NotAlternating("Gram matrix must be square")
    if not la.is_antisymmetric(g):
        raise NotAlternating("Gram matrix must be alternating")
    if size and abs(la.det_bareiss(g)) == 0:
        raise Degenerate("alternating form is degenerate")

    g += la.identity(size)  # U, below G

    def add_col(dst, src, q):
        # basis op b_dst += q b_src: a column pass over [G; U], then G's row pass
        if q == 0:
            return
        for r in g:
            r[dst] += q * r[src]
        gd, gs = g[dst], g[src]
        for c in range(size):
            gd[c] += q * gs[c]

    active = list(range(size))
    pairs = []
    while active:
        best = min(((i, j, g[i][j]) for i, j in combinations(active, 2) if g[i][j]),
                   key=lambda t: abs(t[2]), default=None)
        if best is None:
            raise Degenerate("form vanishes on a nonzero sublattice")
        i, j, v = best
        if v < 0:
            i, j = j, i
        while True:
            d = g[i][j]
            clean = True
            for l in active:
                if l in (i, j):
                    continue
                q = g[i][l] // d
                add_col(l, j, -q)
                if g[i][l]:
                    clean = False
                q = g[j][l] // d
                add_col(l, i, q)
                if g[j][l]:
                    clean = False
            if not clean:
                break
            others = [l for l in active if l not in (i, j)]
            stray = next((l for l, l2 in combinations(others, 2) if g[l][l2] % d), None)
            if stray is None:
                pairs.append((i, j, d))
                active = others
                break
            add_col(j, stray, 1)
        # not clean: restart the pivot search (minimum strictly decreased)

    order = [p[0] for p in pairs] + [p[1] for p in pairs]
    divisors = tuple(p[2] for p in pairs)
    u_final = [[r[k] for k in order] for r in g[size:]]
    # exact verification of the normal form
    check = la.mat_mul(la.mat_mul(la.transpose(u_final), [list(r) for r in gram]), u_final)
    target = la.mat_scale(-1, la.type_form(divisors))
    assert la.mat_eq(check, target), "internal: normal form verification failed"
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0, "internal: divisor chain broken"
    return FrobeniusData(la.mat_freeze(u_final), divisors)
