"""Bounded enumeration of candidate classes, period-matrix free.

The search walks the upper-triangle coefficients directly with a linear
trace pre-filter and an incremental rank bound; the raw space grows as
(2 bound + 1)^(n (2n - 1)), so a hard budget fails loudly instead of
hanging.  Override the ceiling with the NSFORGE_BUDGET environment
variable when a larger run is intended.
"""

import os
from dataclasses import dataclass

from . import _intlinalg as la
from .errors import BudgetExceeded, NsforgeError, RangeError
from .exterior import TwoForm, check_class, is_primitive
from .normend import _report, analyze, norm_from_class


@dataclass(frozen=True)
class EnumerationSpec:
    n: int
    u: int
    d: int
    bound: int
    require_idempotent: bool = False
    require_type: tuple = None
    use_prefilters: bool = True
    allow_large: bool = False

    def __post_init__(self):
        if not 1 <= self.u <= self.n:
            raise RangeError("need 1 <= u <= n")
        if self.d < 1 or self.bound < 1:
            raise RangeError("need d >= 1 and bound >= 1")


def _budget():
    try:
        return int(os.environ.get("NSFORGE_BUDGET", "2000000"))
    except ValueError:
        return 2_000_000


def enumerate_classes(spec, first_entry_values=None):
    """All primitive classes with bounded coefficients certifying at (u, d).

    Deterministic lexicographic order on the upper-triangle coefficient
    vector.  ``first_entry_values`` restricts the first coefficient to a
    subset, which is the partition hook for parallel runs: the union over a
    partition of [-bound, bound] equals the full run in canonical order.
    """
    n, u, d, bound = spec.n, spec.u, spec.d, spec.bound
    if not spec.allow_large and (n > 4 or bound > 3):
        raise RangeError("enumeration is desk scale: n <= 4, bound <= 3 (override with allow_large)")
    m = 2 * n
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    est = (2 * bound + 1) ** len(pairs)
    if est > _budget():
        raise BudgetExceeded(f"candidate space {est} exceeds budget {_budget()}")
    anti_slots = {pairs.index((i, n + i)) for i in range(n)}
    target_trace = -u * d
    span = list(range(-bound, bound + 1))
    row_end = {}
    for idx, (i, j) in enumerate(pairs):
        row_end[i] = idx  # last index belonging to row i
    results = []
    vec = [0] * len(pairs)

    def rank_prune(upto_row):
        mat = la.zeros(m, m)
        for idx2, (i, j) in enumerate(pairs):
            mat[i][j] = vec[idx2]
            mat[j][i] = -vec[idx2]
        partial = [mat[r] for r in range(upto_row + 1)]
        return la.rank_int(partial) <= 2 * u

    def dfs(idx, anti_sum, anti_left):
        if idx == len(pairs):
            eta = TwoForm.from_coeffs(n, {p: a for p, a in zip(pairs, vec) if a})
            if eta.is_zero() or not is_primitive(eta):
                return
            if spec.require_idempotent or spec.require_type is not None:
                # a verified norm matrix implies the (u, d) profile
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
            if spec.use_prefilters and idx in anti_slots:
                s = anti_sum + a
                left = anti_left - 1
                if s - bound * left > target_trace or s + bound * left < target_trace:
                    vec[idx] = 0
                    continue
                new_sum, new_left = s, left
            else:
                new_sum, new_left = anti_sum, anti_left
            if spec.use_prefilters:
                row_done = [r for r, e in row_end.items() if e == idx]
                if row_done and not rank_prune(max(row_done)):
                    vec[idx] = 0
                    continue
            dfs(idx + 1, new_sum, new_left)
            vec[idx] = 0

    dfs(0, 0, n)
    del dfs  # a recursive closure is a reference cycle: free its state without the collector
    results.sort(key=lambda e: e.coefficient_vector())
    return results


def orbit_equivalent(eta, omega):
    """Equivalence under the integral symplectic action, decided by type.

    Two certified classes are equivalent iff their (u, d, type) data agree;
    the type is a complete orbit invariant.
    """
    ra = analyze(eta)
    rb = analyze(omega)
    return (ra.u, ra.d, ra.type_divisors) == (rb.u, rb.d, rb.type_divisors)
