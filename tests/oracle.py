"""Brute-force exterior algebra oracle, independent of the package engine.

Forms are dicts mapping sorted index tuples to integer coefficients; wedge
products are expanded term by term with explicit permutation signs.  Slow
and simple on purpose: this is the reference the fast paths are measured
against.  The reference invariants below are the symbolic
Pfaffian pencil, the point-by-point characteristic polynomial and the
saturated image; the reference searches at the end are the plain walker,
the full-box float scan and the trace-coset exact scan that the search
paths are checked against.
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
# Reference searches: the straightforward walker, the full-box float scan and
# the exact scan over the trace coset of the vanishing lattice, which the
# idempotence-first walker of ``nsforge.scan`` replaced.  They share the
# certification calls with the package, but none of its search code: their
# residual map and vanishing lattice are built basis 2-form by basis 2-form
# through the public ``residual_matrix``.


def reference_enumerate(spec, first_entry_values=None):
    """``enumerate_classes`` by trace and per-row rank prunes, then per-leaf certification."""
    from nsforge import _intlinalg as la
    from nsforge.errors import NsforgeError
    from nsforge.exterior import TwoForm, check_class, is_primitive
    from nsforge.normend import _report, norm_from_class

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
                    if _report(eta, norm).type_divisors != tuple(spec.require_type):
                        return
            elif check_class(eta) != (u, d):
                return
            results.append(eta)
            return
        values = first_entry_values if idx == 0 and first_entry_values is not None else span
        for a in sorted(values):
            vec[idx] = a
            new_sum, new_left = anti_sum, anti_left
            if spec.use_prefilters and idx in anti_slots:
                new_sum, new_left = anti_sum + a, anti_left - 1
                if (new_sum - bound * new_left > target_trace
                        or new_sum + bound * new_left < target_trace):
                    vec[idx] = 0
                    continue
            if spec.use_prefilters:
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
    """Float ``scan_ppav``: the residual filter over every box point, then certification."""
    import itertools

    from nsforge.errors import NsforgeError
    from nsforge.exterior import TwoForm, is_primitive
    from nsforge.normend import _report, norm_from_class
    from nsforge.riemann import wedge_vanishes

    n = tau.n
    pairs, rows = reference_residual_rows(tau)
    limit = tol * (1 + tau.max_abs()) ** 2
    reports = []
    for vec in itertools.product(range(-bound, bound + 1), repeat=len(pairs)):
        if not any(vec):
            continue
        ok = True
        for row in rows:
            acc = 0j
            for coef, a in zip(row, vec):
                if a:
                    acc += a * coef
            if abs(acc) > limit:
                ok = False
                break
        if not ok:
            continue
        eta = TwoForm.from_coeffs(n, {p: a for p, a in zip(pairs, vec) if a})
        if not is_primitive(eta):
            continue
        try:
            norm = norm_from_class(eta, u, d)
        except NsforgeError:
            continue
        if wedge_vanishes(eta, tau, tol=tol):
            reports.append(_report(eta, norm))
    return reports


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
