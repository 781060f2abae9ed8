"""Bounded enumeration of candidate classes, period-matrix free.

One walker, ``_walk``, serves ``enumerate_classes`` and both ``scan_ppav``
backends.  It fills the antisymmetric coefficient matrix M in place, slot by
slot in row-major order of the upper triangle, so row r of M is complete
once its last slot (r, 2n - 1) is set.  It walks the whole box, or the box
points of a lattice (the exact scan's vanishing lattice, ``_lattice_steps``).
Each test runs at the first node where its inputs are fixed:

- the trace: certified (u, d) classes have antidiagonal sum -u d, a linear
  constraint that bounds each antidiagonal slot and fixes the last one;
- the rank: M has rank at most 2u.  Idempotent and typed modes test the
  complete rows with ``rank_int`` once there are more than 2u of them,
  except at the last slot, where the row identity decides.  Profile-only
  mode prunes only for u = n - 1, where the bound is Pf(M) = 0, affine in
  the last slot x: Pf(M) = x Pf(M[:2n-2, :2n-2]) + Pf(M)|x=0 is solved for x;
- the row identity (idempotent and typed modes, and both scans): N = J M
  satisfies N^2 = d N iff M J M = d M, that is (r_r J) . r_k = -d M_rk for
  all rows k < r.  It is checked as soon as row r is complete, and where the
  row's last entry enters it with a nonzero coefficient it is solved for
  that entry instead of trying every value.  A lattice walk also runs each
  identity (r, k), and the trace, at the pivot of the last basis column
  touching their slots, which writes the forced slots it completes into M;
- the residual (float scan): ``riemann._within`` keeps a leaf only if each
  residual row has |b + c1 x1 + c2 x2| <= (tol + eps) S, where x1, x2 are
  the last two slots the trace does not force, b holds the other slots with
  the forced one substituted, and S = bound * sum |c|.  The real 2 x 2
  system then puts x1 within |c2| (tol + eps) S / |D| of Im(conj(c2) b) / D,
  D = Im(conj(c1) c2), so slot x1 tries only those integers (the radius
  taken 1 + eps larger), and ``_within`` still decides each leaf.
  eps = 2^-30 bounds the binary64 rounding of ``_within``, of b and of the
  solve where |D| >= 2^-16 |c1| |c2| and |D| >= 2^-900; other rows get no
  window, and none does when some S >= 2^1000, where ``_within`` may
  overflow (``_residual_windows``).

With d >= 1, M J M = d M and the trace -u d certify the class (the rank is
then 2u), and so fix its (u, d) profile.  The default profile-only mode
accepts such leaves without computing a profile and runs ``check_class``
only on the rest, since the profile alone does not imply idempotence; at
(n, u) = (2, 1) the profile forces the identity, so that walk prunes on it.
Typed mode reads the type of its certified, primitive hits off the Smith
invariants of M (``normend._smith_type``): no norm matrix, basis or frame.

``enumerate_classes`` and the float scan walk the whole box through
``_walk_chunks``: one walk for jobs <= 1, else one walk per first
coefficient in worker processes, with the same result.  The raw box grows
as (2 bound + 1)^(n (2n - 1)), so both refuse one above a hard budget
instead of hanging (raise it with the integer NSFORGE_BUDGET environment variable).
A lattice walk counts its nodes instead and fails past
``_LATTICE_NODE_BUDGET``.
"""

import os
from dataclasses import dataclass
from functools import partial
from math import ceil, floor, gcd, inf, isfinite
from operator import mul

from . import _intlinalg as la
from .errors import BudgetExceeded, RangeError
from .exterior import TwoForm, _sub_pfaffian, check_class
from .normend import _smith_type, norm_from_class


@dataclass(frozen=True)
class EnumerationSpec:
    n: int
    u: int
    d: int
    bound: int
    require_idempotent: bool = False
    require_type: tuple = None

    def __post_init__(self):
        if not 1 <= self.u <= self.n:
            raise RangeError("need 1 <= u <= n")
        if self.d < 1 or self.bound < 1:
            raise RangeError("need d >= 1 and bound >= 1")
        typ = self.require_type
        if typ is not None and (len(typ) != self.u or any(a < 1 for a in typ) or typ[-1] != self.d
                                or any(b % a for a, b in zip(typ, typ[1:]))):
            raise RangeError(f"require_type must be u = {self.u} positive divisors, "
                             f"each dividing the next, ending in d = {self.d}")


_LATTICE_NODE_BUDGET = 20_000_000  # nodes of one lattice walk (the exact scan)


def _check_box_budget(n, bound, noun):
    """Refuse a raw box of (2 bound + 1)^(n (2n - 1)) points above the budget."""
    text = os.environ.get("NSFORGE_BUDGET", "2000000")
    try:
        budget = int(text)
    except ValueError:
        raise RangeError(f"NSFORGE_BUDGET must be an integer, not {text!r}") from None
    est = (2 * bound + 1) ** (n * (2 * n - 1))
    if est > budget:
        raise BudgetExceeded(f"{noun} space {est} exceeds budget {budget}")


def _pairs(n):
    """Upper-triangle slots (i, j) of a 2n x 2n matrix, row-major."""
    return [(i, j) for i in range(2 * n) for j in range(i + 1, 2 * n)]


def _form(n, vec):
    """The 2-form with upper-triangle coefficient vector vec."""
    mat = la.zeros(2 * n, 2 * n)
    for (i, j), a in zip(_pairs(n), vec):
        mat[i][j], mat[j][i] = a, -a
    return TwoForm.from_matrix(n, mat)


def _pairing(ri, rk, n):
    """(r_i J) . r_k for rows of a 2n x 2n matrix and J = [[0, I], [-I, 0]]."""
    return sum(map(mul, ri[:n], rk[n:])) - sum(map(mul, ri[n:], rk[:n]))


def _row_holds(mat, i, n, d):
    """Row i's share of M J M = d M: (r_i J) . r_k = -d M_ik for every k < i."""
    ri = mat[i]
    return all(_pairing(ri, mat[k], n) + d * ri[k] == 0 for k in range(i))


def _lattice_steps(n, cols):
    """Per slot, how a walk over the lattice with echelon basis ``cols`` fills it.

    Column pivots (first nonzero entries) are positive and in increasing
    slots, as in ``la.kernel_basis``.  A pivot slot gets (pivot, the later
    entries of its column, the later slots that column is the last to touch,
    the row pairs (i, k), k < i, of M J M = d M and whether the trace, whose
    slots it is the last column to touch).  Any other slot gets pivot 0: the
    chosen columns force its value.
    """
    m, dim = 2 * n, n * (2 * n - 1)
    slot = {p: r for r, p in enumerate(_pairs(n))}
    last_col = {r: k for k, col in enumerate(cols) for r in range(dim) if col[r]}
    row_fix = [max(last_col.get(slot[min(i, j), max(i, j)], -1) for j in range(m) if j != i)
               for i in range(m)]
    trace_fix = max(last_col.get(slot[i, i + n], -1) for i in range(n))
    steps = [(0, (), (), (), False)] * dim
    for k, col in enumerate(cols):
        p = next(r for r in range(dim) if col[r])
        steps[p] = (col[p], [(r, col[r]) for r in range(p + 1, dim) if col[r]],
                    [r for r in range(p + 1, dim) if last_col.get(r) == k],
                    [(i, h) for i in range(m) for h in range(i) if max(row_fix[i], row_fix[h]) == k],
                    k == trace_fix)
    return steps


def _residual_windows(n, rows, tol, bound):
    """The float scan's second-to-last free slot x1 and, per residual row that bounds it
    (see the module docstring), (row, its entry at the forced slot, conj(c2) / D, radius)."""
    eps = 2.0 ** -30
    forced = _pairs(n).index((n - 1, 2 * n - 1))
    free1, free2 = [r for r in range(n * (2 * n - 1)) if r != forced][-2:] if rows else (-1, -1)
    sizes = [bound * sum(map(abs, row)) for row in rows]
    windows = []
    for row, size in zip(rows, sizes if max(sizes, default=0) < 2.0 ** 1000 else ()):
        c1, c2 = row[free1], row[free2]
        det = (c1.conjugate() * c2).imag
        if isfinite(det) and abs(det) >= max(2.0 ** -900, abs(c1) * abs(c2) * 2.0 ** -16):
            radius = abs(c2) / abs(det) * (tol + eps) * size * (1 + eps)
            windows.append((row, row[forced] if forced > free1 else 0, c2.conjugate() / det, radius))
    return free1, windows


def _walk(n, u, d, bound, idempotent, lattice=None, first_values=None, residual=None):
    """Coefficient vectors of the primitive classes in the box, in walk order.

    Profile-only mode (``idempotent`` false) keeps the leaves whose profile
    is (u, d); idempotent mode keeps those whose norm matrix certifies at
    (u, d).  ``lattice``, an echelon basis in slot order (``_lattice_steps``),
    restricts the walk to its points; such a walk counts its nodes and
    raises ``BudgetExceeded`` past ``_LATTICE_NODE_BUDGET``.
    ``first_values`` restricts the first coefficient of a box walk.
    ``residual``, the float scan's (``riemann._float_rows``, tol), restricts
    a box walk's second-to-last free slot to ``_residual_windows``.
    """
    m = 2 * n
    pairs = _pairs(n)
    last = len(pairs) - 1
    target = -u * d
    span = range(-bound, bound + 1)
    anti = [j == i + n for i, j in pairs]
    anti_after = [sum(anti[k + 1:]) for k in range(len(pairs))]
    # rows 0..i are complete at the last slot of row i.  A profile bounds
    # rank(M) by 2u only when n - u <= 1: N = J M is skew-Hamiltonian, so its
    # Jordan blocks come in pairs, and a 0-eigenvalue of multiplicity
    # 2n - 2u >= 4 can carry two blocks of size 2 (u = n bounds nothing)
    rank_rows = [i + 1 if idempotent and j == m - 1 and i + 1 > 2 * u
                 and idx < last else 0 for idx, (i, j) in enumerate(pairs)]
    solve_pf = not idempotent and u == n - 1
    head, whole = tuple(range(m - 2)), tuple(range(m))
    steps = [None] * len(pairs) if lattice is None else _lattice_steps(n, lattice)
    budget, nodes = _LATTICE_NODE_BUDGET, 0
    mat = la.zeros(m, m)
    vec = [0] * len(pairs)
    partial = [0] * len(pairs)  # each slot's sum over the lattice columns chosen so far
    found = []
    free1, windows = _residual_windows(n, *residual, bound) if residual else (-1, ())

    def window(trace):
        """The values of slot free1 that leave each windowed residual row a completion."""
        lo, hi = -bound, bound
        for row, c_forced, w, radius in windows:
            x = (w * (sum(map(mul, vec, row)) + (target - trace) * c_forced)).imag
            if abs(x) + radius < inf:
                lo, hi = max(lo, ceil(x - radius)), min(hi, floor(x + radius))
        return range(lo, hi + 1)

    def row_solutions(i, values):
        """The values of M[i][m-1] (now 0) for which row i meets its identities."""
        ri = mat[i]
        x = None
        for k in range(i):
            rk = mat[k]
            rest = _pairing(ri, rk, n) + d * ri[k]  # the identity is rest - x * rk[n-1] = 0
            coef = rk[n - 1]
            if not coef:
                if rest:
                    return ()
            elif rest % coef or (x is not None and rest // coef != x):
                return ()
            else:
                x = rest // coef
        if x is None:
            return values
        return (x,) if x in values else ()

    def pf_solutions(values):
        """The values of M[m-2][m-1] (now 0) for which Pf(M) = x * coef + rest vanishes."""
        coef = _sub_pfaffian(mat, head, {})
        rest = _sub_pfaffian(mat, whole, {})
        if not coef:
            return () if rest else values
        x, r = divmod(-rest, coef)
        return (x,) if not r and x in values else ()

    def leaf(trace, holds):
        key = tuple(vec)
        if gcd(*key) != 1:  # zero or not primitive
            return
        if holds and trace == target and _row_holds(mat, m - 1, n, d):
            found.append(key)  # M J M = d M and trace -u d certify it, so the profile is (u, d)
        elif not idempotent and check_class(_form(n, key)) == (u, d):
            found.append(key)

    def fixes(finals, checked, trace_fixed):
        """Write the slots the chosen column completes into M, then run the tests it fixes."""
        for r in finals:
            x = partial[r]
            if not -bound <= x <= bound:
                return False
            i, j = pairs[r]
            mat[i][j], mat[j][i] = x, -x
        if trace_fixed and sum(mat[k][n + k] for k in range(n)) != target:
            return False
        return not idempotent or all(_pairing(mat[i], mat[k], n) + d * mat[i][k] == 0
                                     for i, k in checked)

    def dfs(idx, trace, holds):
        nonlocal nodes
        if idx > last:
            leaf(trace, holds)
            return
        i, j = pairs[idx]
        ri, rj = mat[i], mat[j]
        step = steps[idx]
        piv = 0
        if step is None:  # a box slot
            values = first_values if idx == 0 and first_values is not None else span
            if idx == free1 and windows:
                values = window(trace)
        else:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"lattice walk exceeded its budget of {budget} nodes")
            piv, tail, finals, checked, trace_fixed = step
            base = partial[idx]
            if not piv:  # forced by the columns already chosen; M holds it since the last one
                values = (base,)
                ri[j] = rj[i] = 0  # the solves below read the open slot as 0
            else:  # the pivot's residue class in [-bound, bound]
                values = span if piv == 1 else range(base - (base + bound) // piv * piv, bound + 1, piv)
        if anti[idx]:
            slack = bound * anti_after[idx]
            lo, hi = target - trace - slack, target - trace + slack
            values = [a for a in values if lo <= a <= hi]
        if solve_pf and idx == last:
            values = pf_solutions(values)
        row_ok = values
        if j == m - 1 and i:  # row i completes here
            row_ok = row_solutions(i, values)
            if idempotent:
                values = row_ok
        for a in values:
            ri[j], rj[i] = a, -a
            vec[idx] = a
            if rank_rows[idx] and la.rank_int(mat[:rank_rows[idx]]) > 2 * u:
                continue
            if piv:  # add the column's multiple to the later slots, then run what it fixes
                c = (a - base) // piv
                for r, x in tail:
                    partial[r] += c * x
                if (finals or checked or trace_fixed) and not fixes(finals, checked, trace_fixed):
                    for r, x in tail:
                        partial[r] -= c * x
                    continue
            dfs(idx + 1, trace + a if anti[idx] else trace, holds and a in row_ok)
            if piv:
                for r, x in tail:
                    partial[r] -= c * x
        ri[j] = rj[i] = vec[idx] = 0
        if step and not piv:  # the value the slot's last column wrote
            ri[j], rj[i] = base, -base

    dfs(0, 0, True)
    del dfs  # a recursive closure is a reference cycle: free its state without the collector
    return found


def _walk_chunks(n, u, d, bound, idempotent, jobs, residual=None):
    """``_walk`` over the box: one walk for jobs <= 1, else one chunk per first coefficient.

    The 2 bound + 1 chunks run in min(jobs, 2 bound + 1) worker processes
    and come back in ascending first coefficient, so the result is the walk's.
    """
    if jobs <= 1:
        return _walk(n, u, d, bound, idempotent, residual=residual)
    import concurrent.futures

    firsts = [(a,) for a in range(-bound, bound + 1)]
    chunk = partial(_walk, n, u, d, bound, idempotent, None, residual=residual)
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(firsts))) as ex:
        return [vec for vectors in ex.map(chunk, firsts) for vec in vectors]


def enumerate_classes(spec, jobs=1):
    """All primitive classes with bounded coefficients certifying at (u, d).

    Deterministic lexicographic order on the upper-triangle coefficient
    vector, for every ``jobs`` (see ``_walk_chunks``).
    """
    n, u, d, bound = spec.n, spec.u, spec.d, spec.bound
    if n > 4 or bound > 3:
        raise RangeError("enumeration is desk scale: n <= 4, bound <= 3")
    _check_box_budget(n, bound, "candidate")
    idempotent = spec.require_idempotent or spec.require_type is not None or (n, u) == (2, 1)
    vectors = _walk_chunks(n, u, d, bound, idempotent, jobs)
    classes = [_form(n, vec) for vec in sorted(vectors)]
    if spec.require_type is not None:
        typ = tuple(spec.require_type)
        classes = [eta for eta in classes if _smith_type(eta.mat, u, d) == typ]
    return classes


def orbit_equivalent(eta, omega):
    """Equivalence under the integral symplectic action, decided by type.

    Two certified classes are equivalent iff their (n, u, d, type) data
    agree: on one Z^2n the type is a complete orbit invariant.  The type is
    read off the Smith invariants of the verified N (``normend._smith_type``).
    """
    def data(form):
        norm = norm_from_class(form)
        return norm.n, norm.u, norm.d, _smith_type(norm.mat, norm.u, norm.d)

    return data(eta) == data(omega)
