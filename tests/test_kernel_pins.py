"""The integer kernels' outputs, pinned: per group, the sha256 of one line per case.

The groups are ``column_hnf``, ``kernel_basis``, ``solve_integer``, ``det_bareiss`` and
``solve_bareiss`` on seeded integer matrices (up to 6 x 8, entries within 9, some of them
rank-deficient); ``frobenius_basis`` and its error codes on seeded Gram matrices, degenerate
ones included; ``riemann._int_pd`` on seeded symmetric matrices; and the JSON of
``standard_witness`` for every type with n <= 5 and divisors up to 4, of its ``moebius``
conjugates, and of ``analyze`` and ``is_realizable`` on the ``act`` images of its class.
The pins were recorded at commit 27e1c92; a change to the kernels that changes no output
leaves every one of them as it is.
"""

import hashlib
import random

import pytest

from nsforge import (
    NsforgeError,
    act,
    analyze,
    frobenius_basis,
    is_realizable,
    moebius,
    random_symplectic,
    standard_witness,
)
from nsforge import _intlinalg as la
from nsforge import jsonio
from nsforge.riemann import _int_pd


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def random_matrix(rng, rows, cols, bound):
    """Entries within ``bound``; one time in three a product through a narrower inner size."""
    if rng.randrange(3):
        return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    inner = rng.randint(1, max(1, min(rows, cols) - 1))
    a = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(rows)]
    b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
    return [[max(-bound, min(bound, x)) for x in row] for row in la.mat_mul(a, b)]


def matrices():
    rng = random.Random("kernel pins")
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        if rng.randrange(2):
            cols = rows
        yield random_matrix(rng, rows, cols, 9), rng


def lattice_lines():
    for a, rng in matrices():
        rows, cols = len(a), len(a[0])
        x = [rng.randint(-4, 4) for _ in range(cols)]
        b = [rng.randint(-9, 9) for _ in range(rows)]
        yield repr((a, la.column_hnf(a), la.kernel_basis(a),
                    la.solve_integer(a, la.mat_vec(a, x)), la.solve_integer(a, b)))


def bareiss_lines():
    for a, rng in matrices():
        if len(a) != len(a[0]):
            continue
        rhs = [[rng.randint(-9, 9) for _ in a] for _ in range(rng.randint(1, 3))]
        try:
            solved = la.solve_bareiss(a, rhs)
        except ZeroDivisionError:
            solved = "singular"
        yield repr((a, la.det_bareiss(a), solved))


def grams():
    rng = random.Random("frobenius pins")
    for case in range(100):
        k = rng.randint(1, 3)
        if case % 10 == 0:  # odd size
            yield [[0] * (2 * k + 1) for _ in range(2 * k + 1)]
            continue
        if case % 10 == 1:  # not alternating
            yield [[rng.randint(-3, 3) for _ in range(2 * k)] for _ in range(2 * k)]
            continue
        # B^T J B, degenerate when B is rank-deficient
        b = random_matrix(rng, 2 * k, 2 * k, 5)
        yield la.mat_mul(la.mat_mul(la.transpose(b), la.standard_j(k)), b)


def frobenius_lines():
    for g in grams():
        try:
            data = frobenius_basis(g)
            out = (data.u_matrix, data.divisors)
        except NsforgeError as exc:
            out = exc.code
        yield repr((g, out))


def pd_lines():
    rng = random.Random("pd pins")
    for case in range(150):
        m = rng.randint(1, 6)
        a = random_matrix(rng, m, m, 6)
        sym = [[a[i][j] + a[j][i] for j in range(m)] for i in range(m)]
        if case % 2:  # A A^T plus a seeded diagonal: mostly definite
            sym = la.mat_mul(a, la.transpose(a))
            for i in range(m):
                sym[i][i] += rng.randint(-2, 2)
        yield repr((sym, _int_pd(sym)))


def divisor_chains(u, top):
    if not u:
        yield ()
        return
    for chain in divisor_chains(u - 1, top):
        for d in range(chain[-1] if chain else 1, top + 1):
            if not chain or d % chain[-1] == 0:
                yield chain + (d,)


def witness_lines():
    for n in range(2, 6):
        for u in range(1, n // 2 + 1):
            for typ in divisor_chains(u, 4):
                tau, eta = standard_witness(n, u, typ)
                yield jsonio.dumps([n, u, typ, jsonio.period_matrix_to_json(tau),
                                    jsonio.two_form_to_json(eta)])
                for seed in (1, 2):
                    s = random_symplectic(n, seed, 3)
                    image = act(s, eta)
                    realized = is_realizable(image)
                    yield jsonio.dumps([jsonio.period_matrix_to_json(moebius(s, tau)),
                                        jsonio.report_to_json(analyze(image)), realized.tag,
                                        jsonio.period_matrix_to_json(realized.tau)])


PINS = {
    "lattice": (lattice_lines,
               "728a4ec29209ca68ba07b3a0f25668f0bb69dd6e915051f376f9f84ad592c8ce"),
    "bareiss": (bareiss_lines,
               "eca4c2fc94b6caaf88022146d06c29c4395ed9545095b9d2a67bd56b0ab29ae1"),
    "frobenius": (frobenius_lines,
                 "40038a9222ff33573cc5a8ffbc4c4a939cfc8096d35a100ce55c7821d9db1776"),
    "pd": (pd_lines,
          "28570735b27685b4a3dee7106eb61c70741cbc2ebaf1ce4624288b3d5ce0f2ea"),
    "witness": (witness_lines,
               "65dab7d20ed97099132d36a4350032795ade4a951ca8457f9f2699d478fdaa7f"),
}


@pytest.mark.parametrize("group", sorted(PINS))
def test_kernel_outputs_are_pinned(group):
    lines, pinned = PINS[group]
    assert digest(lines()) == pinned
