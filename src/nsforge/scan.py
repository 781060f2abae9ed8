"""Bounded enumeration of candidate classes, period-matrix free.

One walker, ``_walk``, serves ``enumerate_classes`` and both ``scan_ppav``
backends on one schedule, ``_lattice_steps``.  It walks the box points of a
lattice with an echelon basis: the exact scan's vanishing lattice, or the
identity basis, whose points are the whole box.  It fills the antisymmetric
coefficient matrix M in place, slot by slot in row-major order of the upper
triangle: a column's pivot slot tries the pivot's residue class, and then
the slots the column is the last to touch are complete.  Beside M it keeps
the rows r_i J of M J (the transpose of N = J M), written wherever a slot of
M is.  Each test runs at the step that fixes its inputs, as an interval on
the step's value where it is one:

- the trace: certified (u, d) classes have antidiagonal sum -u d.  Its
  slack bounds each antidiagonal slot and fixes the last one; a column that
  completes the trace before that slot tests it at its pivot;
- the rank: M has rank at most 2u, and no step tests it.  Idempotent and
  typed modes need no test: at the leaf the row identities and the trace
  force rank N = tr N / d = 2u, and the identities cut the subtrees a rank
  test would, a few slots later.  Profile-only mode prunes only for
  u = n - 1, where Pf(M) = 0 is solved for the last slot;
- the row identity: N = J M satisfies N^2 = d N iff M J M = d M, that is
  (r_i J) . r_k = -d M_ik for all rows k < i, one dot product against M J
  (``_identity``).  Identity (i, k) runs once, at the pivot of the last
  column touching rows i and k.  Where that column sets only its slot
  (always, in the box) and the identity is linear in it, it is solved for
  the slot's value (``_slope``); otherwise it is tested once the step
  writes the slots it completes.  Profile-only mode evaluates no
  identity: ``check_class`` decides each of its leaves;
- the residual (float scan): ``riemann._within`` keeps a leaf only if each
  residual row has |b + c1 x1 + c2 x2| <= (tol + eps) S, where x1, x2 are
  the last two slots the trace does not force, b sums the other slots with
  the forced one substituted, and S = bound * sum |c|.  The real 2 x 2
  system then puts x1 within |c2| (tol + eps) S / |D| of Im(conj(c2) b) / D,
  D = Im(conj(c1) c2) (the radius taken 1 + eps larger), and ``_within``
  still decides each leaf.  eps = 2^-30 bounds the binary64 rounding of
  ``_within``, of b and of the solve where |D| >= 2^-16 |c1| |c2| and
  |D| >= 2^-900; other rows get no window, and none does when some
  S >= 2^1000, where ``_within`` may overflow (``_residual_windows``).

With d >= 1, M J M = d M and the trace -u d certify the class (the rank is
then 2u), and so fix its (u, d) profile: idempotent mode keeps every
primitive leaf.  The profile alone does not imply idempotence, so
profile-only mode runs ``check_class`` on every primitive leaf; each leaf
has trace -u d, so one that satisfies the identities passes it.  At
(n, u) = (2, 1) the profile forces the identity, so that walk is idempotent.
Each primitive leaf builds its ``TwoForm`` once, from M; ``check_class``,
``enumerate_classes`` and ``scan_ppav`` read that one.  Typed mode reads the
type of its hits off the Smith invariants of M (``normend._smith_type``).

``enumerate_classes`` and the float scan walk the box through
``_walk_chunks``: one walk for jobs <= 1, else one walk per value of slot 0
in worker processes, with the same result.  Both refuse a raw box of
(2 bound + 1)^(n (2n - 1)) points above a hard budget (the integer
NSFORGE_BUDGET environment variable).  Every walk counts its nodes and fails
past ``_LATTICE_NODE_BUDGET``.
"""

import os
from dataclasses import dataclass
from functools import cache, partial
from math import ceil, floor, gcd, inf, isfinite
from operator import mul

from . import _intlinalg as la
from .errors import BudgetExceeded, RangeError
from .exterior import TwoForm, _pairs, _sub_pfaffian, check_class
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


_LATTICE_NODE_BUDGET = 20_000_000  # nodes of one walk, over the box or a lattice


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


def _identity(mat, mj, i, k, d):
    """Row identity (i, k) of M J M = d M, (r_i J) . r_k + d M_ik, where mj[i] = r_i J."""
    return sum(map(mul, mj[i], mat[k])) + d * mat[i][k]


def _lattice_steps(n, cols):
    """Per slot, how a walk over the lattice with echelon basis ``cols`` fills and tests it.

    Column pivots (first nonzero entries) are positive and in increasing
    slots, as in ``la.kernel_basis``.  A pivot slot gets (pivot, the later
    entries of its column, the later slots that column is the last to touch,
    the row pairs (i, k), k < i, of M J M = d M and whether the trace, whose
    slots it is the last column to touch, and the pairs' ``_slope``s if the
    column has no later entry and each pair is linear in the slot, else None).
    Any other slot gets pivot 0: the chosen columns force its value.
    """
    m, dim = 2 * n, n * (2 * n - 1)
    pairs = _pairs(n)
    slot = {p: r for r, p in enumerate(pairs)}
    last_col = {r: k for k, col in enumerate(cols) for r in range(dim) if col[r]}
    row_fix = [max(last_col.get(slot[min(i, j), max(i, j)], -1) for j in range(m) if j != i)
               for i in range(m)]
    trace_fix = max(last_col.get(slot[i, i + n], -1) for i in range(n))
    steps = [(0, (), (), (), False, None)] * dim
    for k, col in enumerate(cols):
        p = next(r for r in range(dim) if col[r])
        tail = [(r, col[r]) for r in range(p + 1, dim) if col[r]]
        checked = [(i, h) for i in range(m) for h in range(i) if max(row_fix[i], row_fix[h]) == k]
        slopes = None if tail else [_slope(n, i, h, *pairs[p]) for i, h in checked]
        steps[p] = (col[p], tail, [r for r in range(p + 1, dim) if last_col.get(r) == k], checked,
                    k == trace_fix, None if slopes is None or None in slopes else slopes)
    return steps


@cache
def _box_steps(n):
    """``_lattice_steps`` of the identity basis, whose points are the whole box."""
    dim = n * (2 * n - 1)
    return _lattice_steps(n, [[int(r == k) for r in range(dim)] for k in range(dim)])


def _slope(n, i, k, p, q):
    """Identity (i, k), (r_i J) . r_k + d M_ik, as rest + slope x in x = M_pq = -M_qp.

    Returns (i, k, terms, times): slope = times * d + sum(sign * MJ[row][col]
    for row, col, sign in terms), read off M J with the slot at 0.  Row i of
    M J moves by x (e_q J) if i = p and by -x (e_p J) if i = q, and
    (e_q J) . r_k = -(r_k J)_q; row k of M moves by x e_q or -x e_p.  None if
    (i, k) = (q, p), q = p + n: x^2 enters.
    """
    if (i, k, q) == (q, p, p + n):
        return None
    terms = [term for term, moves in (((k, q, -1), i == p), ((k, p, 1), i == q),
                                      ((i, q, 1), k == p), ((i, p, -1), k == q)) if moves]
    return i, k, terms, ((i, k) == (p, q)) - ((i, k) == (q, p))


def _roots(coef, rest, values):
    """The values x with coef x + rest = 0."""
    if not coef:
        return () if rest else values
    x, r = divmod(-rest, coef)
    return (x,) if not r and x in values else ()


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


def _walk(n, u, d, bound, idempotent, lattice=None, first=None, residual=None):
    """(coefficient vector, TwoForm) of each primitive class in the box, in walk order.

    Profile-only mode (``idempotent`` false) keeps the leaves whose profile
    is (u, d); idempotent mode keeps those whose norm matrix certifies at
    (u, d).  ``lattice``, an echelon basis in slot order, restricts the walk
    to its points; by default it is the identity basis, the whole box.
    ``first`` fixes slot 0.  ``residual``, the float scan's
    (``riemann._float_rows``, tol), bounds one slot (``_residual_windows``).
    M J is kept beside M (``_identity``), and each hit's TwoForm is built at its leaf.
    """
    m = 2 * n
    pairs = _pairs(n)
    last = len(pairs) - 1
    target = -u * d
    anti = [j == i + n for i, j in pairs]
    slack = [bound * sum(anti[k + 1:]) for k in range(len(pairs))]
    # a profile bounds rank(M) by 2u only when n - u <= 1 (N = J M is skew-Hamiltonian: a
    # 0-eigenvalue of multiplicity 2n - 2u >= 4 can carry two 2-blocks): solve Pf(M) = 0
    solve_pf = not idempotent and u == n - 1
    steps = _box_steps(n) if lattice is None else _lattice_steps(n, lattice)
    budget, nodes = _LATTICE_NODE_BUDGET, 0
    # M and the rows r J of M J, (r J)_c = r_(c-n) for c >= n, else -r_(c+n): slot (i, j) = x
    # writes M_ij = x, M_ji = -x, (r_i J)_ci = si x and (r_j J)_cj = sj x
    mat, mj = la.zeros(m, m), la.zeros(m, m)
    at = [(mat[i], mat[j], mj[i], mj[j], i, j, (j + n) % m, (i + n) % m, 1 if j < n else -1,
           -1 if i < n else 1) for i, j in pairs]
    vec = [0] * len(pairs)
    partial = [0] * len(pairs)  # each slot's sum over the lattice columns chosen so far
    found = []
    free1, windows = _residual_windows(n, *residual, bound) if residual else (-1, ())

    def solutions(slopes, values):
        """The values of the step's slot (now 0) that satisfy each identity it fixes."""
        for i, k, terms, coef in slopes:
            coef *= d
            for r, c, s in terms:
                coef += s * mj[r][c]
            values = _roots(coef, _identity(mat, mj, i, k, d), values)
            if not values:
                break
        return values

    def fixes(finals, trace_fixed):
        """Write the slots the chosen column completes into M: are they in the box, the trace -u d?"""
        for r in finals:
            x = partial[r]
            if not -bound <= x <= bound:
                return False
            ri, rj, qi, qj, i, j, ci, cj, si, sj = at[r]
            ri[j], rj[i], qi[ci], qj[cj] = x, -x, si * x, sj * x
        return not trace_fixed or sum(mat[k][n + k] for k in range(n)) == target

    def dfs(idx, trace):
        nonlocal nodes
        if idx > last:
            key = tuple(vec)
            # an idempotent walk's leaf has M J M = d M and trace -u d: its profile is (u, d)
            if gcd(*key) == 1:
                eta = TwoForm(n, tuple(map(tuple, mat)))
                if idempotent or check_class(eta) == (u, d):
                    found.append((key, eta))
            return
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"lattice walk exceeded its budget of {budget} nodes")
        ri, rj, qi, qj, i, j, ci, cj, si, sj = at[idx]
        piv, tail, finals, checked, trace_fixed, slopes = steps[idx]
        trace_fixed = trace_fixed and slack[idx]  # at zero slack, the slack forces the trace
        base = partial[idx]
        lo, hi = (first, first) if idx == 0 and first is not None else (-bound, bound)
        if anti[idx]:  # no min and max calls: this runs at every antidiagonal node
            t, s = target - trace, slack[idx]
            lo, hi = t - s if t - s > lo else lo, t + s if t + s < hi else hi
        if idx == free1:  # each windowed residual row must keep a completion
            for row, c_forced, w, radius in windows:
                x = (w * (sum(map(mul, vec, row)) + (target - trace) * c_forced)).imag
                if abs(x) + radius < inf:
                    lo, hi = max(lo, ceil(x - radius)), min(hi, floor(x + radius))
        if piv:  # the pivot's residue class
            values = range(lo + (base - lo) % piv, hi + 1, piv)
        else:  # forced by the columns already chosen; M has it since the last one
            values = (base,) if lo <= base <= hi else ()
            ri[j] = rj[i] = 0  # the solves below read the open slot as 0
        if solve_pf and idx == last:  # Pf(M) = x Pf(M[:2n-2, :2n-2]) + Pf(M)|x=0
            values = _roots(_sub_pfaffian(mat, tuple(range(m - 2)), {}),
                            _sub_pfaffian(mat, tuple(range(m)), {}), values)
        if idempotent and slopes:
            values = solutions(slopes, values)
        after = checked if idempotent and slopes is None else ()
        tests = tail or trace_fixed or after  # the column's tests of each value
        for a in values:
            ri[j], rj[i], qi[ci], qj[cj] = a, -a, si * a, sj * a
            vec[idx] = a
            if not tests:
                dfs(idx + 1, trace + a if anti[idx] else trace)
                continue
            c = (a - base) // piv  # add the column's multiple to the later slots
            for r, x in tail:
                partial[r] += c * x
            if fixes(finals, trace_fixed) and all(_identity(mat, mj, h, k, d) == 0 for h, k in after):
                dfs(idx + 1, trace + a if anti[idx] else trace)
            for r, x in tail:
                partial[r] -= c * x
        ri[j] = rj[i] = qi[ci] = qj[cj] = vec[idx] = 0
        if not piv:  # the value the slot's last column wrote
            ri[j], rj[i], qi[ci], qj[cj] = base, -base, si * base, sj * base

    dfs(0, 0)
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

    chunk = partial(_walk, n, u, d, bound, idempotent, None, residual=residual)
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, 2 * bound + 1)) as ex:
        return [hit for hits in ex.map(chunk, range(-bound, bound + 1)) for hit in hits]


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
    classes = [eta for _, eta in sorted(_walk_chunks(n, u, d, bound, idempotent, jobs))]
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
