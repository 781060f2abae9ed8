"""The identity behind single-pass certification, and guards on the work it saves.

Since J Theta = I, Pf(t M + Theta)^2 = det(I + t N) for N = J M.  A verified
N^2 = d N of rank 2u (d >= 1) therefore fixes the intersection profile as
the (u, d) one, and d I - N certifies the complement.  ``analyze``,
``scan_ppav``, ``enumerate_classes`` and ``is_realizable`` rely on that
instead of re-running ``check_class`` and ``complementary_class``; the tests
below keep those two public functions as the oracles of the shortcut.
"""

import gc
import itertools
import random

from nsforge import (
    EnumerationSpec,
    PeriodMatrix,
    QQi,
    TwoForm,
    analyze,
    check_class,
    check_class_mod_L,
    complementary_class,
    enumerate_classes,
    exterior,
    intersection_profile,
    is_primitive,
    is_realizable,
    natural_class,
    norm_from_class,
    pfaffian,
    q_r,
    scan_ppav,
    theta,
)
from nsforge import _intlinalg as la
from nsforge.errors import NsforgeError

from conftest import type22_class


def test_pfaffian_square_is_det_of_identity_plus_tn():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = 2 * n
        mat = la.zeros(m, m)
        for i in range(m):
            for j in range(i + 1, m):
                mat[i][j] = rng.randint(-3, 3)
                mat[j][i] = -mat[i][j]
        nmat = la.mat_mul(la.standard_j(n), mat)
        for t in (-2, -1, 1, 3):
            shifted = la.mat_add(la.mat_scale(t, mat), theta(n).mat)
            assert pfaffian(shifted) ** 2 == la.det_bareiss(
                la.mat_add(la.identity(m), la.mat_scale(t, nmat)))


def test_norm_certificate_implies_profile_and_complement():
    """Every primitive surface form with |a| <= 2 whose norm matrix certifies at (u, d)."""
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    j2 = la.standard_j(2)
    certified = 0
    for values in itertools.product(range(-2, 3), repeat=len(pairs)):
        if not any(values):
            continue
        eta = TwoForm.from_coeffs(2, {p: a for p, a in zip(pairs, values) if a})
        if not is_primitive(eta):
            continue
        # rank(N) = 2u and the antidiagonal sum -u d fix the only (u, d) that can pass
        u = la.rank_int(la.mat_mul(j2, eta.mat)) // 2
        ud = -(eta.mat[0][2] + eta.mat[1][3])
        if ud % u or ud // u < 1:
            continue
        d = ud // u
        try:
            norm_from_class(eta, u, d)
        except NsforgeError:
            continue
        certified += 1
        assert check_class(eta) == (u, d)
        assert analyze(eta).complement == complementary_class(eta, u, d)
    assert certified == 903


class _Counter:
    def __init__(self, monkeypatch, name, module=exterior):
        self.calls = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_profile_is_one_charpoly(monkeypatch):
    cp = _Counter(monkeypatch, "charpoly", la)
    pf = _Counter(monkeypatch, "pfaffian")
    assert intersection_profile(type22_class()).values == (24, 16, 0, 0)
    assert (cp.calls, pf.calls) == (1, 0)


def test_analyze_is_one_charpoly(monkeypatch):
    cp = _Counter(monkeypatch, "charpoly", la)
    pf = _Counter(monkeypatch, "pfaffian")
    report = analyze(type22_class())
    assert (report.u, report.d, report.type_divisors) == (2, 2, (2, 2))
    assert (cp.calls, pf.calls) == (1, 0)


def test_natural_class_reads_i1_off_the_trace(monkeypatch):
    """The natural class needs only eta . theta^(n-1): no characteristic polynomial of its own."""
    eta = type22_class()
    cp = _Counter(monkeypatch, "charpoly", la)
    assert natural_class(eta) == 24 * eta - 24 * theta(4)
    assert cp.calls == 0
    assert check_class_mod_L(eta, 2, 2).ok
    assert cp.calls == 1
    assert q_r(eta, 2) == 192
    assert cp.calls == 2


def test_scan_does_not_reprofile(monkeypatch):
    tau = is_realizable(type22_class()).tau
    profiles = _Counter(monkeypatch, "intersection_profile")
    reports = scan_ppav(tau, 2, 2, 1)
    assert type22_class() in [r.eta for r in reports]
    assert profiles.calls == 0


def test_pfaffian_and_search_walks_leave_no_reference_cycles():
    """Their recursive closures are released on return, not left to the cyclic collector."""
    tau = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
    calls = [lambda: intersection_profile(type22_class()),
             lambda: enumerate_classes(EnumerationSpec(2, 1, 1, 1)),
             lambda: scan_ppav(tau, 1, 1, 1)]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
