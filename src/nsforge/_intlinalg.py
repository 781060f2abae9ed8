"""Linear algebra on small dense matrices, exact by default.

Matrices are lists (or tuples) of rows.  The lattice routines take Python
ints; the ring-generic helpers (``mat_mul``, ``mat_add``, ``mat_sub``,
``mat_scale``, ``mat_vec``) take any ring that mixes with ints -- int,
Fraction, QQi, complex, IntPoly -- and ``solve_fraction`` any exact field.
One Bareiss pass (``_bareiss``) serves the determinant, the integer solve and
``riemann``'s positive-definiteness test; ``rank_int`` stays division-free,
which is faster on its inputs.  ``column_hnf`` carries U as rows below the
matrix it reduces, so one column operation moves both.  ``type_form`` builds
every standard alternating form, theta and J = -theta among them, and
``j_times`` is J A as a reindexing of A's rows.  Sizes stay at desk scale
(<= 12 or so), so the simple cubic algorithms below are the right tool.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from .errors import ZeroInput


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def mat_copy(a):
    return [list(row) for row in a]


def mat_freeze(a):
    return tuple(tuple(row) for row in a)


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    # sums start from their first term: a start of int 0 would cost every
    # QQi or complex entry one more coercion and addition
    bt = [(col[0], col[1:]) for col in zip(*b)]
    out = []
    for row in a:
        rest = row[1:]
        out.append([sum(map(mul, rest, tail), row[0] * y0) for y0, tail in bt])
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_eq(a, b):
    return [list(r) for r in a] == [list(r) for r in b]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def type_form(divisors):
    """The standard alternating form [[0, -D], [D, 0]] of type D; theta is type 1^n."""
    u = len(divisors)
    g = zeros(2 * u, 2 * u)
    for i, d in enumerate(divisors):
        g[i][u + i] = -d
        g[u + i][i] = d
    return g


def standard_j(n):
    """J = [[0, I], [-I, 0]] = -theta, 2n x 2n."""
    return mat_scale(-1, type_form((1,) * n))


def j_times(a):
    """J A as an index map: A's lower half of rows, then its upper half negated."""
    n = len(a) // 2
    return [list(row) for row in a[n:]] + [[-x for x in row] for row in a[:n]]


def is_antisymmetric(a):
    m = len(a)
    if any(len(row) != m for row in a):
        return False
    for i, row in enumerate(a):  # row i against column i, from the diagonal on
        for j in range(i, m):
            if row[j] != -a[j][i]:
                return False
    return True


def _bareiss(m, n):
    """Fraction-free (Bareiss) elimination of the leading n columns of the n rows of m, in place.

    Afterwards row k, from column k on, is the k-th pivot row: pivot m[k][k]
    is the leading (k + 1) x (k + 1) minor of the row-swapped input, and each
    later entry of the row is a minor too, so each division is exact.  The
    entries left of a pivot in later rows are left as they were: nothing
    reads them.  Returns the number of row swaps, or None when those n
    columns are singular.
    """
    swaps, prev = 0, 1
    for k in range(n):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return None
            m[k], m[piv] = m[piv], m[k]
            swaps += 1
        row = m[k]
        p = row[k]
        cols = range(k + 1, len(row))
        for i in range(k + 1, n):
            r = m[i]
            f = r[k]
            for j in cols:
                r[j] = (r[j] * p - f * row[j]) // prev
        prev = p
    return swaps


def det_bareiss(a):
    """Exact determinant by fraction-free elimination (``_bareiss``)."""
    if not a:
        return 1
    m = mat_copy(a)
    swaps = _bareiss(m, len(m))
    return 0 if swaps is None else (-1) ** swaps * m[-1][-1]


def solve_bareiss(a, rhs_cols):
    """Solve a X = B over Z; B given as columns.  Returns (det a, the columns of det(a) X).

    Bareiss elimination of (a | B), then back substitution: det(a) X is
    integral by Cramer's rule, so each division is exact.  A singular ``a``
    raises ZeroDivisionError.
    """
    n = len(a)
    m = [list(row) + [col[i] for col in rhs_cols] for i, row in enumerate(a)]
    swaps = _bareiss(m, n)
    if swaps is None:
        raise ZeroDivisionError("singular system")
    det = (-1) ** swaps * m[n - 1][n - 1] if n else 1
    out = []
    for c in range(n, n + len(rhs_cols)):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            x[i], rem = divmod(det * row[c] - sum(row[j] * x[j] for j in range(i + 1, n)), row[i])
            assert not rem, "internal: a Bareiss back-substitution division is not exact"
        out.append(x)
    return det, out


def charpoly(a, k):
    """The leading coefficients 1, c_1, ..., c_k of det(s I - a) = s^m + c_1 s^(m-1) + ... + c_m.

    Faddeev--LeVerrier over Z: M_1 = I, c_j = -tr(a M_j) / j and
    M_(j+1) = a M_j + c_j I; for an integer matrix every c_j is an integer, so
    each division is exact.  The products a M_j combine rows of M_j over the
    nonzero entries of a only: symplectic images of small classes are sparse,
    and on them a dense product is slower than the Pfaffian it replaces.
    """
    m = len(a)
    terms = [[(col, x) for col, x in enumerate(row) if x] for row in a]
    coeffs = [1]
    mj = identity(m)
    for j in range(1, k + 1):
        c, rem = divmod(-sum(x * mj[col][i] for i, row in enumerate(terms) for col, x in row), j)
        assert not rem, "internal: a Faddeev-LeVerrier division over Z is not exact"
        coeffs.append(c)
        if j < k:
            mj = [list(r) for r in a] if j == 1 else [_row_combination(t, mj, m) for t in terms]
            for i in range(m):
                mj[i][i] += c
    return coeffs


def _row_combination(terms, rows, width):
    """sum(x * rows[col] for col, x in terms) as a list of the given width."""
    if not terms:
        return [0] * width
    (col, x), rest = terms[0], terms[1:]
    out = [x * y for y in rows[col]]
    for col, x in rest:
        out = [o + x * y for o, y in zip(out, rows[col])]
    return out


def rank_int(a):
    """Exact rank by division-free row elimination: row i becomes g row i - f (pivot row).

    A ``_bareiss`` pass would keep the entries smaller, but on the small
    matrices that reach it its exact divisions made a rank more than twice as slow.
    """
    if not a or not a[0]:
        return 0
    m = mat_copy(a)
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        for pivot in range(rank, rows):
            if m[pivot][c] != 0:
                break
        else:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, rows):
            if m[i][c] != 0:
                f = m[i][c]
                g = m[rank][c]
                for j in range(c, cols):
                    m[i][j] = m[i][j] * g - m[rank][j] * f
        rank += 1
        if rank == rows:
            break
    return rank


def smith_invariants(a):
    """The nonzero invariant factors s_1 | s_2 | ... of an integer matrix, no transforms.

    Pivots of least size clear their rows and columns; (gcd, lcm) pairs then chain the diagonal.
    """
    rows, diag = [list(r) for r in a], []
    while entries := [(abs(x), i, j) for i, r in enumerate(rows) for j, x in enumerate(r) if x]:
        _, i, j = min(entries)
        prow, p = rows[i], rows[i][j]
        for k, r in enumerate(rows):
            if k != i and r[j]:
                q = r[j] // p
                rows[k] = [x - q * y for x, y in zip(r, prow)]
        for c, x in enumerate(prow):
            if c != j and x:
                q = x // p
                for r in rows:
                    r[c] -= q * r[j]
        if sum(map(bool, prow)) + sum(bool(r[j]) for r in rows) == 2:  # only the pivot is left
            diag.append(abs(p))
            del rows[i]
            for r in rows:
                del r[j]
    for i, k in combinations(range(len(diag)), 2):
        g = gcd(diag[i], diag[k])
        diag[i], diag[k] = g, diag[i] // g * diag[k]
    return diag


def column_hnf(a):
    """Column-style Hermite normal form.

    Returns (h, u) with a @ u == h, u unimodular, h in column echelon form:
    scanning rows top to bottom, each nonzero column has its topmost nonzero
    entry (the pivot) positive, pivots appear in strictly increasing rows on
    consecutive columns, entries to the right of a pivot in its row are zero
    and entries to the left are reduced into [0, pivot).  Zero columns are
    pushed to the right.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    hu = mat_copy(a) + identity(cols)  # [h; u]: each column operation moves both

    def addmul(dst, src, q):
        # column dst += q * column src
        for r in hu:
            r[dst] += q * r[src]

    h = hu[:rows]
    pivot_col = 0
    for r in range(rows):
        if pivot_col == cols:
            break
        # gcd-reduce row r across columns pivot_col..cols-1
        while True:
            nonzero = [c for c in range(pivot_col, cols) if h[r][c] != 0]
            if len(nonzero) <= 1:
                break
            c0 = min(nonzero, key=lambda c: abs(h[r][c]))
            for c in nonzero:
                if c != c0:
                    q = h[r][c] // h[r][c0]
                    if q:
                        addmul(c, c0, -q)
        nonzero = [c for c in range(pivot_col, cols) if h[r][c] != 0]
        if not nonzero:
            continue
        c0 = nonzero[0]
        if c0 != pivot_col:
            for row in hu:
                row[c0], row[pivot_col] = row[pivot_col], row[c0]
        if h[r][pivot_col] < 0:
            for row in hu:
                row[pivot_col] = -row[pivot_col]
        p = h[r][pivot_col]
        for c in range(pivot_col):
            q = h[r][c] // p  # floor: leaves residue in [0, p)
            if q:
                addmul(c, pivot_col, -q)
        pivot_col += 1
    return h, hu[rows:]


def kernel_basis(a):
    """Canonical basis (list of column vectors) of the integer kernel of a.

    The basis spans {x in Z^cols : a x = 0} exactly; it is saturated because
    kernels of integer maps are saturated.
    """
    h, u = column_hnf(a)
    ker = [list(col) for col, h_col in zip(zip(*u), zip(*h)) if not any(h_col)]
    return lattice_basis(ker)  # canonicalize through a second HNF


def lattice_basis(columns):
    """Canonical (HNF) basis of the Z-span of the given column vectors."""
    if not columns:
        return []
    dim = len(columns[0])
    h, _ = column_hnf(transpose([list(c) for c in columns]))
    out = []
    for c in range(len(columns)):
        col = [h[r][c] for r in range(dim)]
        if any(col):
            out.append(col)
    return out


def saturation_basis(columns):
    """Canonical basis of span_Q(columns) intersected with Z^dim."""
    cols = [list(c) for c in columns if any(c)]
    if not cols:
        raise ZeroInput("saturation of the zero lattice")
    dim = len(cols[0])
    mat = transpose(cols)  # dim x k
    ann = kernel_basis(transpose(mat))  # vectors y with y^T A = 0
    return kernel_basis(ann or [[0] * dim])  # no annihilator: a zero row keeps the width


def solve_integer(a, b):
    """One integer solution x of a x = b, or None if none exists."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h, u = column_hnf(a)
    x = [0] * cols
    residue = list(b)
    for c in range(cols):
        pivot_row = next((r for r in range(rows) if h[r][c] != 0), None)
        if pivot_row is None:
            break  # remaining columns of h are zero
        q, rem = divmod(residue[pivot_row], h[pivot_row][c])
        if rem != 0:
            return None
        if q:
            for i in range(rows):
                residue[i] -= q * h[i][c]
        x[c] = q
    if any(residue):
        return None
    return mat_vec(u, x)


def det_fraction(a):
    """Determinant of a matrix of Fractions (Gaussian elimination)."""
    n = len(a)
    m = [list(row) for row in a]
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / inv
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return det


def solve_fraction(a, rhs_cols):
    """Solve a X = B over an exact field; B given as columns, X returned so.

    The entries of ``a`` must be field elements (Fraction, QQi): int entries
    would divide in binary64.  A singular ``a`` raises ZeroDivisionError.
    """
    n = len(a)
    k = len(rhs_cols)
    m = [list(a[i]) + [rhs_cols[c][i] for c in range(k)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [[m[i][n + c] for i in range(n)] for c in range(k)]
