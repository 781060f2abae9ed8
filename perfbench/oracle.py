"""Independent exact checks for benchmark outputs.

Nothing here imports nsforge.  Classes, period matrices and relations are
read through the documented wire formats (1-based coefficient lists,
"p/q" strings, monomials over tau_kl), and every fact is recomputed with
plain integer and Fraction arithmetic:

- the norm matrix N = J M with J = [[0, I], [-I, 0]], and the identities
  N^2 = d N, trace 2ud and rank 2u that certify a class;
- the profile test, through Pf(t M - J)^2 = det(I + t N): the profile of a
  class matches dimension u and exponent d exactly when the characteristic
  polynomial of N is t^(2n-2u) (t - d)^(2u);
- the analytic condition on an exact period matrix, as the residual
  M11 - tau M21 - M12 tau + tau M22 tau = 0 over Q(i);
- the Siegel conditions on a period matrix, and that each symbolic
  relation vanishes at it.
"""

from fractions import Fraction
from math import comb, gcd


def matrix_from_json(obj):
    """Antisymmetric integer matrix of a 2-form in the wire format."""
    n = int(obj["n"])
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for item in obj["coeffs"]:
        i, j, a = int(item["i"]) - 1, int(item["j"]) - 1, int(item["a"])
        m[i][j] += a
        m[j][i] -= a
    return n, m


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def congruent(s, m):
    """S M S^T, the symplectic action on a coefficient matrix."""
    return mat_mul(mat_mul(s, m), [list(r) for r in zip(*s)])


def is_symplectic(s):
    n = len(s) // 2
    return congruent(s, j_matrix(n)) == j_matrix(n)


def j_matrix(n):
    j = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        j[i][n + i] = 1
        j[n + i][i] = -1
    return j


def norm_matrix(n, m):
    return mat_mul(j_matrix(n), m)


def rank(mat):
    rows = [[Fraction(x) for x in r] for r in mat]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def det(a):
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    rows = [list(r) for r in a]
    size, sign, prev = len(rows), 1, 1
    for c in range(size):
        piv = next((i for i in range(c, size) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        for i in range(c + 1, size):
            rows[i] = [(rows[c][c] * rows[i][j] - rows[i][c] * rows[c][j]) // prev
                       for j in range(size)]
        prev = rows[c][c]
    return sign * rows[-1][-1]


def fails_profile_by_det(m):
    """A sufficient test for profile failure, cheaper than the characteristic polynomial.

    det M = det N is the product of the eigenvalues of N; a certified class
    has det 0 (u < n) or d^(2n) (u = n).
    """
    value, power = det(m), len(m)
    if value <= 0:
        return value != 0
    root = round(value ** (1.0 / power))
    return all((root + k) ** power != value for k in (-1, 0, 1) if root + k >= 1)


def char_poly(a):
    """Coefficients of det(t I - a), highest degree first (Faddeev-LeVerrier)."""
    size = len(a)
    coeffs = [1]
    mk = [[0] * size for _ in range(size)]
    for k in range(1, size + 1):
        c_prev = coeffs[-1]
        mk = [[x + (c_prev if i == j else 0) for j, x in enumerate(row)]
              for i, row in enumerate(mat_mul(a, mk))]
        am = mat_mul(a, mk)
        tr = sum(am[i][i] for i in range(size))
        assert tr % k == 0
        coeffs.append(-tr // k)
    return coeffs


def profile_class(n, m):
    """(u, d) when the profile of the class certifies, else None."""
    cp = char_poly(norm_matrix(n, m))
    size = 2 * n
    zeros = 0
    while zeros < size and cp[size - zeros] == 0:
        zeros += 1
    twice_u = size - zeros
    if twice_u == 0 or twice_u % 2:
        return None
    # trace = -cp[1] = 2u d
    if (-cp[1]) % twice_u:
        return None
    d = -cp[1] // twice_u
    if d < 1:
        return None
    expected = [comb(twice_u, k) * (-d) ** k for k in range(twice_u + 1)] + [0] * zeros
    return (twice_u // 2, d) if cp == expected else None


def norm_certifies(n, m, u, d):
    """N^2 = d N, trace 2ud and rank 2u for N = J M."""
    nm = norm_matrix(n, m)
    if sum(nm[i][i] for i in range(2 * n)) != 2 * u * d:
        return False
    if mat_mul(nm, nm) != [[d * x for x in row] for row in nm]:
        return False
    return rank(nm) == 2 * u


def is_primitive(m):
    g = 0
    for row in m:
        for x in row:
            g = gcd(g, x)
    return g == 1


def is_primitive_mod_theta(n, m):
    """Primitivity after removing the multiple of theta = -J at slot (1, n+1)."""
    k = m[0][n]
    g = 0
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if j == n + i:
                x -= k
            elif i == n + j:
                x += k
            g = gcd(g, x)
    return g == 1


# --- exact period matrices over Q(i), entries as (re, im) Fraction pairs ---

def tau_from_json(obj):
    assert obj["backend"] == "exact"
    return [[(Fraction(re), Fraction(im)) for re, im in row] for row in obj["entries"]]


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cmat_mul(a, b):
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            acc = (Fraction(0), Fraction(0))
            for x, y in zip(row, col):
                if y[0] or y[1]:
                    acc = _cadd(acc, _cmul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def residual(n, m, tau):
    """M11 - tau M21 - M12 tau + tau M22 tau, exactly."""
    lift = lambda rows: [[(Fraction(x), Fraction(0)) for x in r] for r in rows]
    m11 = lift([r[:n] for r in m[:n]])
    m12 = lift([r[n:] for r in m[:n]])
    m21 = lift([r[:n] for r in m[n:]])
    m22 = lift([r[n:] for r in m[n:]])
    t2 = _cmat_mul(tau, m21)
    t3 = _cmat_mul(m12, tau)
    t4 = _cmat_mul(_cmat_mul(tau, m22), tau)
    return [[(m11[i][j][0] - t2[i][j][0] - t3[i][j][0] + t4[i][j][0],
              m11[i][j][1] - t2[i][j][1] - t3[i][j][1] + t4[i][j][1])
             for j in range(n)] for i in range(n)]


def residual_vanishes(n, m, tau):
    return all(not x[0] and not x[1] for row in residual(n, m, tau) for x in row)


def in_siegel(tau):
    """Symmetric with positive-definite imaginary part (leading minors > 0)."""
    n = len(tau)
    if any(tau[i][j] != tau[j][i] for i in range(n) for j in range(n)):
        return False
    a = [[tau[i][j][1] for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return True


def relation_vanishes(poly_json, tau):
    """Evaluate one wire-format relation polynomial at an exact tau."""
    total = (Fraction(0), Fraction(0))
    for mono in poly_json["monomials"]:
        val = (Fraction(mono["c"]), Fraction(0))
        for k, l in mono["vars"]:
            val = _cmul(val, tau[k - 1][l - 1])
        total = _cadd(total, val)
    return not total[0] and not total[1]


def complex_rank(cols_json):
    """Rank over Q(i) of a matrix given as wire-format [re, im] string pairs."""
    rows = [[(Fraction(re), Fraction(im)) for re, im in row] for row in cols_json]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != (0, 0)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr, pi = rows[r][c]
        den = pr * pr + pi * pi
        inv = (pr / den, -pi / den)
        for i in range(r + 1, len(rows)):
            if rows[i][c] != (0, 0):
                f = _cmul(rows[i][c], inv)
                rows[i] = [(x[0] - _cmul(f, y)[0], x[1] - _cmul(f, y)[1])
                           for x, y in zip(rows[i], rows[r])]
        r += 1
    return r
