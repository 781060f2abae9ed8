"""The fraction-free integer solves against their Gaussian-rational references.

Every exact period matrix is built over Z: ``la.solve_bareiss`` on the real
form of the complex system, with each entry one Cramer numerator over the
determinant.  The references in ``oracle`` are the Q(i) and Fraction
versions the integer paths replaced; each new path must agree with its
reference exactly, on the grid of constructions the benchmark runs, on
symplectic conjugates and on random inputs.  The witness of ``is_realizable``
is checked against the frame the full report gives (``oracle.reference_witness``).
"""

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from nsforge import (
    GluingSpec,
    PeriodMatrix,
    PolarizedFactor,
    QQi,
    act,
    check_kd_symplectic,
    complementary_type,
    construct,
    glue,
    is_realizable,
    moebius,
    norm_from_class,
    random_symplectic,
    residual_matrix,
    scan_ppav,
    standard_witness,
    tangent_and_lattice,
    wedge_vanishes,
)
from nsforge import _intlinalg as la
from nsforge import jsonio
from nsforge.errors import NotAlternating, NotInSiegel
from nsforge.riemann import _int_pd, _real_form

import oracle

WITNESS_GRID = [(6, 3, (2, 2, 2)), (2, 1, (1,)), (6, 1, (1,)), (3, 1, (2,)), (6, 2, (1, 1)),
                (4, 2, (2, 2)), (5, 2, (1, 2)), (2, 1, (2,)), (2, 1, (3,)), (3, 1, (3,)),
                (3, 1, (4,))]
GLUE_CONFIGS = [(2, 1, (2,)), (3, 1, (2,)), (4, 2, (1, 2)), (2, 1, (3,)), (2, 1, (4,)),
                (4, 2, (2, 2))]
MARKINGS = {
    1: [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((1, 0), (1, 1)), ((2, 0), (0, 2))],
    2: [((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))],
}


def seeded_periods(rng, k):
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = QQi(Fraction(rng.randint(-2, 2), rng.choice((2, 3, 4))), rng.randint(1, 3))
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = QQi(Fraction(rng.randint(-1, 1), rng.choice((2, 3, 5))))
    return PeriodMatrix.exact(rows)


@pytest.fixture
def checked_tau_from_basis(monkeypatch):
    """Run the reference beside every ``_tau_from_basis``; keep the last basis that succeeded."""
    original = construct._tau_from_basis
    seen = []

    def checked(p_parts, c_num):
        # the reference solves over Q(i): rebuild q P from its integer parts (q cancels)
        p_complex = [[QQi(x, y) for x, y in zip(*rows)] for rows in zip(*p_parts)]
        try:
            expected = oracle.reference_tau_from_basis(p_complex, c_num)
        except NotInSiegel:
            with pytest.raises(NotInSiegel):
                original(p_parts, c_num)
            raise
        got = original(p_parts, c_num)
        assert got == expected
        seen.append(c_num)
        return got

    monkeypatch.setattr(construct, "_tau_from_basis", checked)
    return seen


def check_norm_matrix(eta, u, d, c_num):
    """The glued class has the norm matrix C^-1 diag(d I_2u, 0) C, solved over Q."""
    m = len(c_num)
    rho0 = [[d if i == j < 2 * u else 0 for j in range(m)] for i in range(m)]
    cols = la.solve_fraction(oracle.frac_mat(c_num), la.transpose(la.mat_mul(rho0, c_num)))
    assert [list(r) for r in norm_from_class(eta, u, d).mat] == la.transpose(cols)


def check_tangent(eta, tau, u):
    mat, rank = oracle.reference_tangent(eta, tau)
    got = tangent_and_lattice(eta, tau)
    assert got["tangent"] == got["lattice"] == mat
    assert rank == u
    # the tangent spans u complex dimensions: rank_int of the real form of q (tau | I) B is 2u
    re = [[int(x.re * tau.q) for x in row] for row in mat]
    im = [[int(x.im * tau.q) for x in row] for row in mat]
    assert la.rank_int(_real_form(re, im)) == 2 * u


def glue_grid(rng):
    for n, u, typ in GLUE_CONFIGS:
        valid = [f for f in MARKINGS[u] if oracle.reference_kd_symplectic(f, typ)]
        spec = GluingSpec(rng.choice(valid), rng.choice(valid))
        x = PolarizedFactor(u, typ, seeded_periods(rng, u))
        y = PolarizedFactor(n - u, complementary_type(n, u, typ), seeded_periods(rng, n - u))
        yield u, typ, glue(x, y, spec)


def test_solve_bareiss_matches_solve_fraction():
    rng = random.Random(41)
    singular = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        a = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            a[rng.randrange(n)] = [x - 2 * y for x, y in zip(a[0], a[-1])]
        rhs = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        try:
            expected = la.solve_fraction(oracle.frac_mat(a), oracle.frac_mat(rhs))
        except ZeroDivisionError:
            singular += 1
            assert la.det_bareiss(a) == 0
            with pytest.raises(ZeroDivisionError):
                la.solve_bareiss(a, rhs)
            continue
        det, cols = la.solve_bareiss(a, rhs)
        assert det == la.det_bareiss(a) != 0
        assert [[Fraction(x, det) for x in col] for col in cols] == expected
    assert singular > 50


def test_constructions_match_the_reference(checked_tau_from_basis):
    rng = random.Random(7)
    for n, u, typ in WITNESS_GRID:
        tau, eta = standard_witness(n, u, typ)
        check_norm_matrix(eta, u, typ[-1], checked_tau_from_basis[-1])
        check_tangent(eta, tau, u)
        moved = act(random_symplectic(n, rng.randrange(100), 3), eta)
        check_tangent(moved, is_realizable(moved).tau, u)
    for _ in range(3):
        for u, typ, (tau, eta) in glue_grid(rng):
            check_norm_matrix(eta, u, typ[-1], checked_tau_from_basis[-1])
            check_tangent(eta, tau, u)
    assert len(checked_tau_from_basis) == 2 * len(WITNESS_GRID) + 3 * len(GLUE_CONFIGS)


def test_glued_class_matches_the_norm_solve(checked_tau_from_basis):
    """The class read off the product form is the one the norm matrix C^-1 diag(d I, 0) C gives."""
    rng = random.Random(19)
    for n, u, typ in WITNESS_GRID:
        _, eta = standard_witness(n, u, typ)
        assert eta == oracle.reference_glued_class(checked_tau_from_basis[-1], u, typ[-1])
    for _ in range(3):
        for u, typ, (_, eta) in glue_grid(rng):
            assert eta == oracle.reference_glued_class(checked_tau_from_basis[-1], u, typ[-1])


def test_glue_solves_only_for_the_period_matrix(monkeypatch):
    """Each ``glue`` or ``is_realizable`` call makes one ``_tau_from_basis`` attempt.

    The attempt is one ``la.solve_bareiss``.  ``glue`` takes no other solve, since
    the class takes none; ``is_realizable`` takes one more, the adjugate of its frame basis.
    """
    counts = {"solve": 0, "attempt": 0}
    solve, tau_from_basis = la.solve_bareiss, construct._tau_from_basis

    def counted(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(la, "solve_bareiss", counted("solve", solve))
    monkeypatch.setattr(construct, "_tau_from_basis", counted("attempt", tau_from_basis))
    grid = glue_grid(random.Random(23))  # one glue call per item
    glue_calls = [lambda cfg=cfg: standard_witness(*cfg) for cfg in WITNESS_GRID[1:]]
    glue_calls += [lambda: next(grid)] * len(GLUE_CONFIGS)
    classes = [standard_witness(*cfg)[1] for cfg in WITNESS_GRID[1:]]
    classes = [act(random_symplectic(eta.n, seed, 4), eta) for eta in classes for seed in (1, 2)]
    realizable_calls = [lambda eta=eta: is_realizable(eta) for eta in classes]
    for calls, solves in ((glue_calls, 1), (realizable_calls, 2)):
        for call in calls:
            before = dict(counts)
            assert call()  # a (tau, eta) pair, or a realizable result
            assert counts["attempt"] - before["attempt"] == 1
            assert counts["solve"] - before["solve"] == solves


def test_moebius_and_tangent_on_conjugates():
    rng = random.Random(11)
    points = [(u, standard_witness(n, u, typ)) for n, u, typ in WITNESS_GRID]
    points += [(u, out) for u, _, out in glue_grid(rng)]
    for u, (tau, eta) in points:
        for _ in range(2):
            s = random_symplectic(tau.n, rng.randrange(1000), rng.randint(1, 6))
            moved = moebius(s, tau)
            assert moved == oracle.reference_moebius(s, tau)
            check_tangent(act(s, eta), moved, u)
    tau = points[1][1][0]
    for s in (la.zeros(4, 4), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]):
        with pytest.raises(ZeroDivisionError):
            oracle.reference_moebius(s, tau)
        with pytest.raises(NotAlternating):  # refused before the solve: S is not symplectic
            moebius(s, tau)


def test_stored_block_is_the_reference_conversion():
    """Every solved tau is stored as its integer block (q, A, B) in lowest terms.

    Over the witness grid, the glue grid and Moebius conjugates of both, the block is
    the reference conversion of ``rows``, ``exact`` round-trips it, and ``to_float``
    rounds each entry as ``float(Fraction)`` does.
    """
    rng = random.Random(31)
    taus = [standard_witness(*cfg)[0] for cfg in WITNESS_GRID]
    taus += [tau for _, _, (tau, _) in glue_grid(rng)]
    taus += [moebius(random_symplectic(tau.n, rng.randrange(1000), rng.randint(1, 6)), tau)
             for tau in list(taus) for _ in range(2)]
    for tau in taus:
        entries = [x for part in (tau.re, tau.im) for row in part for x in row]
        assert tau.q > 0 and gcd(tau.q, *entries) == 1
        assert PeriodMatrix.exact(tau.rows) == tau
        q, re, im = oracle.reference_int_parts(tau.rows)
        assert (q, re, im) == (tau.q, [list(r) for r in tau.re], [list(r) for r in tau.im])
        assert tau.rows == tuple(tuple(QQi(Fraction(a, q), Fraction(b, q)) for a, b in zip(*rows))
                                 for rows in zip(re, im))
        floated = tau.to_float()
        assert floated.q == 1
        assert floated.rows == tuple(tuple(complex(e.re, e.im) for e in row) for row in tau.rows)
    assert len(taus) == 3 * (len(WITNESS_GRID) + len(GLUE_CONFIGS))


def test_exact_paths_build_no_gaussian_rationals(monkeypatch):
    """The exact decisions and solves run on the integer block: no QQi is built.

    Only the boundary builds one: ``rows``, ``residual_matrix``, the exact tangent, JSON.
    """
    rng = random.Random(37)
    x = PolarizedFactor(1, (2,), seeded_periods(rng, 1))
    y = PolarizedFactor(2, (1, 2), seeded_periods(rng, 2))
    spec = GluingSpec(*MARKINGS[1][:2])
    base = standard_witness(4, 2, (1, 2))[1]
    moved = act(random_symplectic(4, 5, 4), base)
    s = random_symplectic(3, 9, 4)
    built = []
    init = QQi.__init__
    monkeypatch.setattr(QQi, "__init__", lambda self, *args: built.append(args) or init(self, *args))

    tau, eta = glue(x, y, spec)
    assert wedge_vanishes(eta, tau)
    assert moebius(s, tau).n == 3
    assert scan_ppav(standard_witness(2, 1, (2,))[0], 1, 2, 1)
    assert is_realizable(moved)
    assert built == []

    assert len(tau.rows) == 3 and len(built) == 9
    residual_matrix(eta, tau)
    tangent_and_lattice(eta, tau)
    jsonio.period_matrix_to_json(tau)
    assert len(built) > 9


def test_witness_matches_the_reference_frame():
    """The witness from the norm matrix and the theta-frames equals the one from the full report."""
    classes = [standard_witness(n, u, typ)[1] for n, u, typ in WITNESS_GRID]
    path = Path(__file__).resolve().parents[1] / "perfbench" / "base_classes.json"
    for entry in json.loads(path.read_text())["classes"]:
        eta = jsonio.two_form_from_json(entry["class"])
        if eta.n in (2, 4):
            classes += [act(random_symplectic(eta.n, seed, 5), eta) for seed in (1, 2, 3)]
    assert len(classes) == len(WITNESS_GRID) + 3 * 7
    for eta in classes:
        assert is_realizable(eta).tau == oracle.reference_witness(eta), eta


def test_positive_definiteness_matches_the_reference():
    rng = random.Random(13)
    verdicts = set()
    for _ in range(800):
        n = rng.randint(1, 5)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = QQi(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                              Fraction(rng.randint(-1, 3), rng.randint(1, 4)))
        expected = oracle.reference_pd([[e.im for e in row] for row in rows])
        try:
            PeriodMatrix.exact(rows)
            got = True
        except NotInSiegel:
            got = False
        assert got == expected
        sym = [[int(4 * e.im) for e in row] for row in rows]
        assert _int_pd(sym) == oracle.reference_pd(sym)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_torsion_markings_match_the_reference():
    rng = random.Random(17)
    verdicts = set()
    for _ in range(1500):
        u = rng.randint(1, 3)
        divisors, d = [], 1
        for _ in range(u):
            d *= rng.choice((1, 1, 2, 3))
            divisors.append(d)
        h = [[rng.randint(-4, 4) if rng.random() < 0.5 else 0 for _ in range(2 * u)]
             for _ in range(2 * u)]
        expected = oracle.reference_kd_symplectic(h, divisors)
        assert check_kd_symplectic(h, divisors) == expected
        verdicts.add(expected)
    for f in MARKINGS[1] + MARKINGS[2]:
        for typ in ((2,), (3,), (4,), (1, 2), (2, 2), (2, 4)):
            if len(f) == 2 * len(typ):
                assert check_kd_symplectic(f, typ) == oracle.reference_kd_symplectic(f, typ)
    assert verdicts == {True, False}
