"""Brute-force exterior algebra oracle, independent of the package engine.

Forms are dicts mapping sorted index tuples to integer coefficients; wedge
products are expanded term by term with explicit permutation signs.  Slow
and simple on purpose: this is the reference the fast paths are measured
against.  The reference invariants below are the symbolic
Pfaffian pencil, the point-by-point characteristic polynomial and the
saturated image; the reference vanishing test is the expansion of
eta ^ dz_1 ^ ... ^ dz_n on the (n + 2)-form basis, on both backends;
the reference searches are the plain walker, the row pairing of
M J M = d M, the lattice walk,
the full-box float scan and the trace-coset exact scan that the search
paths are checked against; the references at the end are the integer parts
of a Gaussian-rational tau, the Gaussian-rational and Fraction versions of the
period-matrix solves, the tangent rank, the torsion pairing and the
positive-definiteness test, the glued class from
its norm matrix, and the witness of ``is_realizable`` derived from the full
report.
"""


def two_form_dict(eta):
    out = {}
    m = 2 * eta.n
    for i in range(m):
        for j in range(i + 1, m):
            if eta.mat[i][j]:
                out[(i, j)] = eta.mat[i][j]
    return out


def merge_sign(a, b):
    """Sign of concatenating two sorted index tuples, or None on overlap."""
    joint = set(a) & set(b)
    if joint:
        return None
    inversions = 0
    for x in a:
        inversions += sum(1 for y in b if y < x)
    return -1 if inversions % 2 else 1


def wedge(f, g):
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            sign = merge_sign(a, b)
            if sign is None:
                continue
            key = tuple(sorted(a + b))
            val = out.get(key, 0) + sign * ca * cb
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def wedge_power(f, r):
    if r == 0:
        return {(): 1}
    acc = dict(f)
    for _ in range(r - 1):
        acc = wedge(acc, f)
    return acc


def volume_sign(n):
    return -1 if (n * (n + 1) // 2) % 2 else 1


def mixed_intersection_oracle(factors):
    """Intersection number in volume units by full expansion."""
    n = factors[0][0].n
    acc = {(): 1}
    for eta, r in factors:
        acc = wedge(acc, wedge_power(two_form_dict(eta), r))
    top = tuple(range(2 * n))
    return volume_sign(n) * acc.get(top, 0)


# ------------------------------------------------------------------------
# Reference invariants: the symbolic Pfaffian pencil, the point-by-point
# characteristic polynomial and the saturated image, which the package's
# characteristic-polynomial and kernel paths are checked against.


def reference_pencil_numbers(eta):
    """eta^r . theta^(n-r), r = 0..n, read off one symbolic Pfaffian of x eta + y theta."""
    from math import factorial

    from nsforge._poly import IntPoly
    from nsforge.exterior import pfaffian, theta

    n = eta.n
    pencil = [[IntPoly.var(0, x) + IntPoly.var(1, y) for x, y in zip(row, theta_row)]
              for row, theta_row in zip(eta.mat, theta(n).mat)]
    pf = IntPoly() + pfaffian(pencil)
    return [volume_sign(n) * factorial(r) * factorial(n - r)
            * pf.coefficient((0,) * r + (1,) * (n - r)) for r in range(n + 1)]


def reference_char_ok(norm):
    """det(t I - N) == t^(2n-2u) (t - d)^(2u), decided at the 2n + 1 points t = 0..2n."""
    from nsforge import _intlinalg as la

    size, u, d = 2 * norm.n, norm.u, norm.d
    return all(
        la.det_bareiss([[(t if i == k else 0) - x for k, x in enumerate(row)]
                        for i, row in enumerate(norm.mat)])
        == t ** (size - 2 * u) * (t - d) ** (2 * u)
        for t in range(size + 1))


def reference_image_basis(norm):
    """Basis of the saturated span of the columns of N, by ``saturate``."""
    from nsforge import _intlinalg as la
    from nsforge.symplectic import saturate

    columns = la.transpose([list(r) for r in norm.mat])
    return saturate([c for c in columns if any(c)]).basis


# ------------------------------------------------------------------------
# Reference vanishing test: eta ^ dz_1 ^ ... ^ dz_n expanded on the
# (n + 2)-form basis, over Q(i) or in binary64, which the residual minors of
# ``nsforge.riemann`` replaced on both backends.


def _reference_det(mat, one):
    """Determinant by elimination: first nonzero pivot over Q(i), partial pivoting over C."""
    n = len(mat)
    m = [list(row) for row in mat]
    exact = not isinstance(one, complex)
    det = one
    for k in range(n):
        if exact:
            piv = next((i for i in range(k, n) if m[i][k]), None)
        else:
            piv = max(range(k, n), key=lambda i: abs(m[i][k]))
            if abs(m[piv][k]) == 0.0:
                piv = None
        if piv is None:
            return one * 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] = m[i][j] - f * m[k][j]
    return det


def reference_wedge_coefficients(eta, tau):
    """The nonzero coefficients of eta ^ dz_1 ^ ... ^ dz_n.

    With z = (tau | I) x, dz_1 ^ ... ^ dz_n has the minor of (tau | I) on
    columns S as its coefficient on dx_S.
    """
    import itertools

    from nsforge._gaussian import QQi

    n = tau.n
    one = QQi(1) if tau.backend == "exact" else 1 + 0j
    pi = [list(tau.rows[k]) + [one if i == k else one * 0 for i in range(n)] for k in range(n)]
    dz = {}
    for subset in itertools.combinations(range(2 * n), n):
        det = _reference_det([[pi[r][c] for c in subset] for r in range(n)], one)
        if det:
            dz[subset] = det
    return wedge(two_form_dict(eta), dz)


def reference_wedge_vanishes(eta, tau, tol=1e-9):
    """No coefficient of the expansion: exactly, or each within tol * (1 + max |tau_kl|)^2."""
    coeffs = reference_wedge_coefficients(eta, tau)
    if tau.backend == "exact":
        return not coeffs
    limit = reference_float_limit(tau, tol)
    return all(abs(v) <= limit for v in coeffs.values())


def reference_float_limit(tau, tol):
    """The zero limit tol * (1 + max |tau_kl|)^2 of the reference float decisions."""
    return tol * (1 + max(abs(e) for row in tau.rows for e in row)) ** 2


# ------------------------------------------------------------------------
# Reference searches: the straightforward walker, the full-box float scan and
# the exact scan over the trace coset of the vanishing lattice, which the
# idempotence-first walker of ``nsforge.scan`` replaced.  They share the
# certification calls with the package, but none of its search code: their
# residual map and vanishing lattice are built basis 2-form by basis 2-form
# through the public ``residual_matrix``.


def reference_enumerate(spec, prune=True):
    """``enumerate_classes`` by trace and per-row rank prunes, then per-leaf certification.

    The rank prune runs where a passing leaf has rank 2u: in the idempotent
    and typed modes, and in profile-only mode when n - u <= 1.  With
    ``prune`` false it certifies every point of the box.
    """
    from nsforge import _intlinalg as la
    from nsforge.errors import NsforgeError
    from nsforge.exterior import TwoForm, check_class, is_primitive
    from nsforge.normend import _image_type, norm_from_class

    n, u, d, bound = spec.n, spec.u, spec.d, spec.bound
    m = 2 * n
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    anti_slots = {pairs.index((i, n + i)) for i in range(n)}
    target_trace = -u * d
    span = list(range(-bound, bound + 1))
    row_end = {}
    for idx, (i, j) in enumerate(pairs):
        row_end[i] = idx
    results = []
    vec = [0] * len(pairs)
    prune_rank = prune and (
        spec.require_idempotent or spec.require_type is not None or n - u <= 1)

    def rank_prune(upto_row):
        mat = la.zeros(m, m)
        for idx2, (i, j) in enumerate(pairs):
            mat[i][j] = vec[idx2]
            mat[j][i] = -vec[idx2]
        return la.rank_int([mat[r] for r in range(upto_row + 1)]) <= 2 * u

    def dfs(idx, anti_sum, anti_left):
        if idx == len(pairs):
            eta = TwoForm.from_coeffs(n, {p: a for p, a in zip(pairs, vec) if a})
            if eta.is_zero() or not is_primitive(eta):
                return
            if spec.require_idempotent or spec.require_type is not None:
                try:
                    norm = norm_from_class(eta, u, d)
                except NsforgeError:
                    return
                if spec.require_type is not None:
                    if _image_type(norm)[1].divisors != tuple(spec.require_type):
                        return
            elif check_class(eta) != (u, d):
                return
            results.append(eta)
            return
        for a in span:
            vec[idx] = a
            new_sum, new_left = anti_sum, anti_left
            if prune and idx in anti_slots:
                new_sum, new_left = anti_sum + a, anti_left - 1
                if (new_sum - bound * new_left > target_trace
                        or new_sum + bound * new_left < target_trace):
                    vec[idx] = 0
                    continue
            if prune_rank:
                row_done = [r for r, e in row_end.items() if e == idx]
                if row_done and not rank_prune(max(row_done)):
                    vec[idx] = 0
                    continue
            dfs(idx + 1, new_sum, new_left)
            vec[idx] = 0

    dfs(0, 0, n)
    del dfs
    results.sort(key=lambda e: e.coefficient_vector())
    return results


def reference_residual_rows(tau):
    """The residual map basis 2-form by basis 2-form, through the public ``residual_matrix``.

    Returns (pairs, rows): pairs are the upper-triangle coefficient slots of a
    2-form, and rows[e] lists, for each strictly-upper residual entry e in
    row-major order, the backend scalar multiplying each coefficient.
    """
    from nsforge.exterior import TwoForm
    from nsforge.riemann import residual_matrix

    n = tau.n
    pairs = [(i, j) for i in range(2 * n) for j in range(i + 1, 2 * n)]
    columns = []
    for p in pairs:
        r = residual_matrix(TwoForm.from_coeffs(n, {p: 1}), tau)
        columns.append([r[k][l] for k in range(n) for l in range(k + 1, n)])
    return pairs, [list(row) for row in zip(*columns)]


def reference_coefficient_lattice(tau):
    """The vanishing lattice of an exact tau: the kernel of the Gaussian-rational residual rows.

    The real and imaginary part of each row are cleared by their own lcm.
    """
    from math import lcm

    from nsforge import _intlinalg as la

    pairs, rows = reference_residual_rows(tau)
    integer_rows = []
    for row in rows:
        for comp in ([x.re for x in row], [x.im for x in row]):
            denom = lcm(*(f.denominator for f in comp))
            integer_rows.append([int(f * denom) for f in comp])
    if not integer_rows:
        return pairs, [list(c) for c in zip(*la.identity(len(pairs)))]
    return pairs, la.kernel_basis(integer_rows)


def reference_float_scan(tau, u, d, bound, tol):
    """Float ``scan_ppav`` over every box point: the size-scaled decision on the reference
    residual rows, then certification."""
    import itertools

    from nsforge.errors import NsforgeError
    from nsforge.exterior import TwoForm, is_primitive
    from nsforge.normend import _report, norm_from_class

    n = tau.n
    pairs, rows = reference_residual_rows(tau)
    reports = []
    for vec in itertools.product(range(-bound, bound + 1), repeat=len(pairs)):
        if not any(vec) or not reference_scaled_vanishes(rows, vec, tol):
            continue
        eta = TwoForm.from_coeffs(n, {p: a for p, a in zip(pairs, vec) if a})
        if not is_primitive(eta):
            continue
        try:
            norm = norm_from_class(eta, u, d)
        except NsforgeError:
            continue
        reports.append(_report(eta, norm))
    return reports


def reference_scaled_vanishes(rows, vec, tol):
    """Every residual entry |sum a m| is at most tol * sum |a m|, its terms a m taken in
    coefficient order: the float decision of the package, written out independently."""
    for row in rows:
        total, size = 0j, 0.0
        for m, a in zip(row, vec):
            if a:
                term = a * m
                total += term
                size += abs(term)
        if not abs(total) <= tol * size:
            return False
    return True


def reference_within_scan(tau, u, d, candidates, tol):
    """Float ``scan_ppav`` with no walk: the idempotent ``reference_enumerate`` candidates
    that ``riemann._within``, the float scan's decision, keeps on the reference residual rows."""
    from nsforge.normend import _report, norm_from_class
    from nsforge.riemann import _within

    rows = reference_residual_rows(tau)[1]
    return [_report(eta, norm_from_class(eta, u, d)) for eta in candidates
            if _within(rows, eta.coefficient_vector(), tol)]


def _box_lattice_points(basis_cols, bound, offset):
    """All vectors offset + (lattice point) with sup-norm <= bound.

    The basis is put in column echelon form, so each successive coefficient
    is constrained exactly through its pivot row; a coordinate is checked as
    soon as the last column touching it has been chosen.
    """
    from nsforge import _intlinalg as la

    dim = len(offset)
    cols = la.lattice_basis(basis_cols)
    pivots = [next(r for r in range(dim) if col[r]) for col in cols]
    finalize = [[] for _ in cols]
    for r in range(dim):
        touching = [ci for ci, col in enumerate(cols) if col[r]]
        if touching:
            finalize[touching[-1]].append(r)
    fixed_rows = [r for r in range(dim) if all(col[r] == 0 for col in cols)]
    partial = list(offset)
    if any(abs(partial[r]) > bound for r in fixed_rows):
        return []
    results = []

    def dfs(ci):
        if ci == len(cols):
            results.append(tuple(partial))
            return
        col = cols[ci]
        support = [r for r in range(dim) if col[r]]
        p = pivots[ci]
        base, pv = partial[p], col[p]  # pivots are positive
        for c in range(-((bound + base) // pv), (bound - base) // pv + 1):
            for r in support:
                partial[r] += c * col[r]
            if all(abs(partial[r]) <= bound for r in finalize[ci]):
                dfs(ci + 1)
            for r in support:
                partial[r] -= c * col[r]

    dfs(0)
    del dfs
    return sorted(results)


def pairing(ri, rk, n):
    """(r_i J) . r_k for rows of a 2n x 2n matrix M and J = [[0, I], [-I, 0]].

    Row identity (i, k) of M J M = d M is pairing(M[i], M[k], n) + d M[i][k] = 0.
    """
    return sum(x * y for x, y in zip(ri[:n], rk[n:])) - sum(x * y for x, y in zip(ri[n:], rk[:n]))


def reference_lattice_walk(n, u, d, bound, idempotent, basis):
    """``scan._walk`` over the lattice spanned by ``basis``: every box point, certified alone.

    Profile-only mode keeps the primitive points with ``check_class`` (u, d),
    idempotent mode those with a norm matrix at (u, d).  Sorted.
    """
    from math import gcd

    from nsforge.errors import NsforgeError
    from nsforge.exterior import TwoForm, check_class
    from nsforge.normend import norm_from_class

    pairs = [(i, j) for i in range(2 * n) for j in range(i + 1, 2 * n)]
    hits = []
    for vec in _box_lattice_points(basis, bound, [0] * len(pairs)):
        if gcd(*vec) != 1:
            continue
        eta = TwoForm.from_coeffs(n, {p: a for p, a in zip(pairs, vec) if a})
        if idempotent:
            try:
                norm_from_class(eta, u, d)
            except NsforgeError:
                continue
        elif check_class(eta) != (u, d):
            continue
        hits.append(vec)
    return hits


def _exact_scan_vectors(n, pairs, kernel, u, d, bound):
    """Box points of the vanishing lattice on the coset of antidiagonal sum -u d."""
    from nsforge import _intlinalg as la

    if not kernel:
        return []
    trace_row = [1 if j == i + n else 0 for (i, j) in pairs]
    lin = [sum(t * col[r] for r, t in enumerate(trace_row) if t) for col in kernel]
    particular = la.solve_integer([lin], [-u * d])
    if particular is None:
        return []
    dim = len(pairs)
    offset = [sum(c * kernel[k][r] for k, c in enumerate(particular)) for r in range(dim)]
    sub_basis = [[sum(c * kernel[k][r] for k, c in enumerate(combo)) for r in range(dim)]
                 for combo in la.kernel_basis([lin])]
    # the constrained antidiagonal coordinates first, for early pruning
    anti = [idx for idx, (i, j) in enumerate(pairs) if j == i + n]
    order = anti + [idx for idx in range(dim) if idx not in anti]
    points = _box_lattice_points([[col[r] for r in order] for col in sub_basis], bound,
                                 [offset[r] for r in order])
    inv = {r: pos for pos, r in enumerate(order)}
    return sorted(tuple(p[inv[r]] for r in range(dim)) for p in points)


def reference_exact_scan(tau, u, d, bound):
    """Exact ``scan_ppav``: the trace coset of the vanishing lattice in the box, then M J M = d M."""
    from math import gcd

    from nsforge import _intlinalg as la
    from nsforge.exterior import TwoForm
    from nsforge.normend import _report, norm_from_class

    n = tau.n
    pairs, kernel = reference_coefficient_lattice(tau)
    j = la.standard_j(n)
    reports = []
    for vec in _exact_scan_vectors(n, pairs, kernel, u, d, bound):
        if gcd(*vec) != 1:
            continue
        eta = TwoForm.from_coeffs(n, {p: a for p, a in zip(pairs, vec) if a})
        m = [list(r) for r in eta.mat]
        if la.mat_mul(la.mat_mul(m, j), m) == la.mat_scale(d, m):
            reports.append(_report(eta, norm_from_class(eta, u, d)))
    return reports


# ------------------------------------------------------------------------
# Reference exact solves: Gauss-Jordan over Q(i) and Fraction arithmetic, which
# the fraction-free integer paths of ``construct`` and ``riemann`` replaced.


def frac_mat(a):
    """The integer matrix a with Fraction entries, for ``_intlinalg.solve_fraction``."""
    from fractions import Fraction

    return [[Fraction(x) for x in row] for row in a]


def reference_int_parts(rows):
    """q, the lcm of the denominators of a Gaussian-rational matrix Z, and Re, Im of q Z."""
    from math import lcm

    q = lcm(*(x.denominator for row in rows for e in row for x in (e.re, e.im)))
    return (q, [[e.re.numerator * (q // e.re.denominator) for e in row] for row in rows],
            [[e.im.numerator * (q // e.im.denominator) for e in row] for row in rows])


def reference_tau_from_basis(p_complex, c_num):
    """The period matrix solving F tau = E for (E | F) = P C, over Q(i)."""
    from nsforge import _intlinalg as la
    from nsforge.errors import NotInSiegel
    from nsforge.riemann import PeriodMatrix

    n = len(p_complex)
    z_cols = la.transpose(la.mat_mul(p_complex, c_num))
    try:
        tau_cols = la.solve_fraction(la.transpose(z_cols[n:]), z_cols[:n])
    except ZeroDivisionError:
        raise NotInSiegel("internal: degenerate half-basis") from None
    return PeriodMatrix.exact(la.transpose(tau_cols))


def reference_glued_class(c_num, u, d):
    """The class of the first factor of a gluing, from its norm matrix.

    ``c_num`` holds integer multiples of the glued basis C in product
    coordinates (the scale cancels).  The norm endomorphism d pi_X of the
    first factor is diag(d I_2u, 0) on the product, so its matrix on the
    glued lattice is rho = C^-1 diag(d I_2u, 0) C, solved over Q, and
    ``class_from_norm`` inverts the norm construction.
    """
    from nsforge import _intlinalg as la
    from nsforge.normend import class_from_norm

    m = len(c_num)
    rho0 = [[d if i == j < 2 * u else 0 for j in range(m)] for i in range(m)]
    rho = la.transpose(la.solve_fraction(frac_mat(c_num), la.transpose(la.mat_mul(rho0, c_num))))
    assert all(x.denominator == 1 for row in rho for x in row), "norm matrix is not integral"
    return class_from_norm([[int(x) for x in row] for row in rho])


def reference_moebius(s, tau):
    """(alpha tau + beta)(gamma tau + delta)^{-1} over Q(i)."""
    from nsforge import _intlinalg as la
    from nsforge.riemann import PeriodMatrix

    mat = s.mat if hasattr(s, "mat") else s
    n = tau.n
    num = la.mat_add(la.mat_mul([row[:n] for row in mat[:n]], tau.rows),
                     [row[n:] for row in mat[:n]])
    den = la.mat_add(la.mat_mul([row[:n] for row in mat[n:]], tau.rows),
                     [row[n:] for row in mat[n:]])
    return PeriodMatrix.exact(la.transpose(la.solve_fraction(la.transpose(den), num)))


def reference_tangent(eta, tau):
    """(tau | I) on the image basis of an exact tau over Q(i), and its rank by elimination."""
    from nsforge._gaussian import QQi
    from nsforge.normend import analyze

    n = eta.n
    basis = analyze(eta).image_lattice.basis
    mat = [[sum((tau.rows[k][i] * b[i] for i in range(n)), QQi(0)) + b[n + k] for b in basis]
           for k in range(n)]
    rows = [list(r) for r in mat]
    rank = 0
    for c in range(len(basis)):
        piv = next((i for i in range(rank, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, n):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return mat, rank


def reference_kd_symplectic(h, divisors):
    """h is well defined on K(D) and preserves the torsion pairing, taken in Q / Z."""
    from fractions import Fraction

    u = len(divisors)
    moduli = list(divisors) * 2
    m = 2 * u
    if any(h[i][j] * moduli[j] % moduli[i] for i in range(m) for j in range(m)):
        return False

    def pairing(s, t):
        return sum((Fraction(-s[i] * t[u + i] + s[u + i] * t[i], divisors[i]) for i in range(u)),
                   Fraction(0))

    cols = [[h[i][a] for i in range(m)] for a in range(m)]
    units = [[int(i == a) for i in range(m)] for a in range(m)]
    return all((pairing(cols[a], cols[b]) - pairing(units[a], units[b])).denominator == 1
               for a in range(m) for b in range(m))


def reference_pd(sym):
    """Positive definiteness of a symmetric rational matrix by its leading minors over Q."""
    from fractions import Fraction

    from nsforge import _intlinalg as la

    return all(la.det_fraction([[Fraction(x) for x in row[:k]] for row in sym[:k]]) > 0
               for k in range(1, len(sym) + 1))


def reference_witness(eta):
    """The witness of ``is_realizable`` from the full report, solved over Q(i).

    ``_report`` gives the image and kernel lattices; each is put in the
    Frobenius basis of its Gram under -J, columns in (f | e) order, and is
    the factor (i I | diag(D)) of its type.  The period matrix of the
    standard basis in those factor coordinates comes from the inverse of the
    frame by Fraction elimination.
    """
    from nsforge import _intlinalg as la
    from nsforge._gaussian import QQi
    from nsforge.normend import _report, norm_from_class
    from nsforge.symplectic import frobenius_basis, gram_matrix

    n = eta.n
    report = _report(eta, norm_from_class(eta))
    minus_j = la.mat_scale(-1, la.standard_j(n))
    cols, blocks = [], []
    for lattice in (report.image_lattice, report.kernel_lattice):
        basis = [list(b) for b in lattice.basis]
        if not basis:
            continue
        frob = frobenius_basis(gram_matrix(minus_j, basis))
        moved = la.transpose(la.mat_mul(la.transpose(basis), [list(r) for r in frob.u_matrix]))
        k = len(frob.divisors)
        cols += moved[k:] + moved[:k]
        blocks.append(frob.divisors)
    p_complex = [[QQi(0)] * (2 * n) for _ in range(n)]
    row = 0
    for divisors in blocks:
        k = len(divisors)
        for i, dv in enumerate(divisors):
            p_complex[row + i][2 * row + i] = QQi(0, 1)
            p_complex[row + i][2 * row + k + i] = QQi(dv)
        row += k
    inverse = la.solve_fraction(frac_mat(la.transpose(cols)), frac_mat(la.identity(2 * n)))
    return reference_tau_from_basis(p_complex, la.transpose(inverse))
