"""The integer kernels of ``_intlinalg`` checked against sympy, an implementation that shares
no code with them.

On generated integer matrices up to 6 x 6 (drawn entries within 30, a third of the
matrices sparse, so that eliminations meet zero pivots; some rows replaced by combinations of
earlier rows, so some matrices are rank-deficient):

- ``det_bareiss``, ``rank_int``, ``charpoly`` and ``smith_invariants`` equal sympy's
  determinant (Berkowitz), rank, characteristic polynomial and invariant factors;
- ``solve_bareiss`` equals det(a) times sympy's rational solve, and refuses exactly the
  singular systems;
- ``column_hnf`` returns (h, u) with a u = h, |det u| = 1 and h in the column echelon form
  its docstring states;
- ``kernel_basis`` spans the rational null space that sympy finds, and its lattice is
  saturated (every invariant factor of the basis is 1);
- ``riemann._int_pd`` agrees with sympy's ``is_positive_definite``.

The runs are derandomized, so the suite sees the same inputs every time.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy import ZZ, Matrix, symbols  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from nsforge import _intlinalg as la  # noqa: E402
from nsforge.riemann import _int_pd  # noqa: E402

ORACLE = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])


@st.composite
def integer_matrices(draw, square=False):
    """Entries within 30, about half of them 0 in a sparse one; with some probability a
    row becomes a combination of earlier rows."""
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    entries = st.integers(-30, 30)
    if draw(st.integers(0, 2)) == 0:
        entries = st.one_of(st.just(0), entries)
    a = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for r in range(1, rows):
        if draw(st.integers(0, 3)) == 0:
            coefs = [draw(st.integers(-1, 1)) for _ in range(r)]
            a[r] = [sum(c * row[j] for c, row in zip(coefs, a)) for j in range(cols)]
    return a


@ORACLE
@given(integer_matrices(square=True))
def test_determinant_rank_and_characteristic_polynomial(a):
    m = Matrix(a)
    assert la.det_bareiss(a) == m.det(method="berkowitz")
    assert la.rank_int(a) == m.rank()
    assert la.charpoly(a, len(a)) == m.charpoly(symbols("s")).all_coeffs()


@ORACLE
@given(integer_matrices())
def test_smith_invariants_are_the_nonzero_invariant_factors(a):
    assert la.smith_invariants(a) == [x for x in invariant_factors(Matrix(a), domain=ZZ) if x]


@ORACLE
@given(integer_matrices(square=True), st.data())
def test_solve_bareiss_is_det_times_the_rational_solve(a, data):
    n = len(a)
    rhs = [[data.draw(st.integers(-30, 30)) for _ in range(n)] for _ in range(data.draw(st.integers(1, 3)))]
    m = Matrix(a)
    if m.det(method="berkowitz") == 0:
        with pytest.raises(ZeroDivisionError):
            la.solve_bareiss(a, rhs)
        return
    det, cols = la.solve_bareiss(a, rhs)
    assert det == m.det(method="berkowitz")
    assert Matrix(cols).T == det * m.LUsolve(Matrix(rhs).T)


def is_column_echelon(h):
    """The form ``column_hnf`` documents, checked row by row."""
    rows, cols = len(h), len(h[0])
    pivot_col = 0
    for r in range(rows):
        right = [h[r][c] for c in range(pivot_col, cols)]
        if not any(right):
            continue
        if h[r][pivot_col] <= 0 or any(right[1:]):
            return False
        if not all(0 <= h[r][c] < h[r][pivot_col] for c in range(pivot_col)):
            return False
        pivot_col += 1
    return all(not h[r][c] for r in range(rows) for c in range(pivot_col, cols))


@ORACLE
@given(integer_matrices())
def test_column_hnf_is_a_unimodular_echelon_form(a):
    h, u = la.column_hnf(a)
    assert la.mat_mul(a, u) == h
    assert abs(Matrix(u).det(method="berkowitz")) == 1
    assert is_column_echelon(h)


@ORACLE
@given(integer_matrices())
def test_kernel_basis_spans_the_null_space_and_is_saturated(a):
    ker = la.kernel_basis(a)
    null = Matrix(a).nullspace()
    assert len(ker) == len(null)
    if ker:
        basis = Matrix(ker).T
        assert Matrix(a) * basis == sympy.zeros(len(a), len(ker))
        assert basis.row_join(Matrix.hstack(*null)).rank() == len(ker)
        assert set(invariant_factors(basis, domain=ZZ)) == {1}


@ORACLE
@given(integer_matrices(square=True))
def test_int_pd_is_positive_definiteness(a):
    sym = [[a[i][j] + a[j][i] for j in range(len(a))] for i in range(len(a))]
    gram = la.mat_mul(a, la.transpose(a))  # semidefinite, definite at full rank
    for s in (sym, gram):
        assert _int_pd(s) == Matrix(s).is_positive_definite
