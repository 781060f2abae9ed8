"""The identity behind single-pass certification, and guards on the work it saves.

Since J Theta = I, Pf(t M + Theta)^2 = det(I + t N) for N = J M.  A verified
N^2 = d N of rank 2u (d >= 1) therefore fixes the intersection profile as
the (u, d) one, and d I - N certifies the complement.  ``analyze``,
``scan_ppav``, ``enumerate_classes`` and ``is_realizable`` rely on that
instead of re-running ``check_class`` and ``complementary_class``; the tests
below keep those two public functions as the oracles of the shortcut.

A scan hit's walker leaf has proven M J M = d M and the trace -u d, and an
exact hit lies in the vanishing lattice, so ``scan_ppav`` decides neither
fact again: ``norm_from_class``, ``analyze`` and ``wedge_vanishes`` are the
oracles its reports are checked against on every ``SCAN_PINS`` case.

Each fact is decided once, and the tests at the end hold the decisions removed
from production: profile-only walks evaluate no row identity, a hit's
``TwoForm`` is built once at its leaf, ``norm_from_class`` computes a rank only
to name a failing N^2 = d N (``oracle.reference_norm_from_class`` tests each
invariant in turn), ``frobenius_basis`` takes no determinant and ``moebius``
does not re-check a built ``SymplecticMatrix``.

The norm matrix fixes the whole certificate; only ``is_realizable`` builds
the Frobenius frame of theta on its image (``normend._image_type``).
``glue``, ``standard_witness``, ``is_realizable``, ``tangent_and_lattice``
and ``orbit_equivalent`` never build the full report (``analyze``/``_report``),
``is_realizable`` derives each frame once, ``tangent_and_lattice`` reads only
the image (``normend._image``), and ``analyze``, ``glue``'s self-check,
``orbit_equivalent`` and typed ``enumerate_classes`` read the type off the
Smith invariants of M (``normend._smith_type``).
"""

import gc
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

from nsforge import (
    EnumerationSpec,
    GluingSpec,
    PeriodMatrix,
    PolarizedFactor,
    QQi,
    TwoForm,
    act,
    analyze,
    check_class,
    check_class_mod_L,
    complementary_class,
    enumerate_classes,
    exterior,
    frobenius_basis,
    glue,
    intersection_profile,
    is_primitive,
    is_realizable,
    moebius,
    natural_class,
    norm_from_class,
    normend,
    orbit_equivalent,
    pfaffian,
    q_r,
    random_symplectic,
    scan_ppav,
    standard_witness,
    symplectic,
    tangent_and_lattice,
    theta,
    wedge_vanishes,
)
from nsforge import _intlinalg as la
from nsforge import riemann, scan
from nsforge.errors import NsforgeError

import oracle
from conftest import type22_class
from test_exact_solves import glue_grid
from test_kernel_pins import divisor_chains, grams
from test_walker_pins import ENUM_PINS, SCAN_PINS, digest, search_grid


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


def test_scan_hits_are_their_leaves_certificates(monkeypatch):
    """``scan_ppav`` reports each hit from its walker leaf: on every ``SCAN_PINS`` case it
    computes no rank and calls neither ``norm_from_class`` nor ``wedge_vanishes``, and those
    re-checks, run here, agree with every report."""
    grid = search_grid()
    cases = [(grid[name] if backend == grid[name].backend else grid[name].to_float(), u, d, bound)
             for name, backend, u, d, bound, _, _ in SCAN_PINS]

    def refuse(*args, **kwargs):
        raise AssertionError("scan_ppav decided a fact again")

    with monkeypatch.context() as patched:
        for original in (la.rank_int, norm_from_class, wedge_vanishes):
            _patch_every_binding(patched, original, refuse)
        scans = [scan_ppav(*case) for case in cases]
    for (tau, _, _, _), reports in zip(cases, scans):
        assert reports == [analyze(r.eta) for r in reports]
        assert all(wedge_vanishes(r.eta, tau) for r in reports)
    assert sum(map(len, scans)) == sum(pin[5] for pin in SCAN_PINS) > 0


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


def test_exact_period_matrices_make_no_field_solves(monkeypatch):
    """Constructions, the exact tangent and the Moebius action solve over Z only."""
    solves = _Counter(monkeypatch, "solve_fraction", la)
    dets = _Counter(monkeypatch, "det_fraction", la)
    x = PolarizedFactor(1, (2,), PeriodMatrix.exact([[QQi(Fraction(1, 2), 1)]]))
    y = PolarizedFactor(1, (2,), PeriodMatrix.exact([[QQi(Fraction(-1, 3), 2)]]))
    tau, eta = glue(x, y, GluingSpec(((1, 0), (1, 1)), ((1, 1), (0, 1))))
    tangent_and_lattice(eta, tau)
    tau, eta = standard_witness(4, 2, (2, 2))
    tangent_and_lattice(eta, tau)
    s = random_symplectic(4, 3, 6)
    tangent_and_lattice(act(s, eta), moebius(s, tau))
    realized = is_realizable(type22_class()).tau
    tangent_and_lattice(type22_class(), realized)
    assert (solves.calls, dets.calls) == (0, 0)


def _patch_every_binding(monkeypatch, original, replacement):
    """Replace ``original`` wherever a package module holds it by name."""
    for name, module in list(sys.modules.items()):
        if name == "nsforge" or name.startswith("nsforge."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_constructions_build_no_full_report(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full report was built")

    for original in (normend.analyze, normend._report):
        _patch_every_binding(monkeypatch, original, refuse)
    x = PolarizedFactor(1, (2,), PeriodMatrix.exact([[QQi(Fraction(1, 2), 1)]]))
    y = PolarizedFactor(1, (2,), PeriodMatrix.exact([[QQi(Fraction(-1, 3), 2)]]))
    tau, eta = glue(x, y, GluingSpec(((1, 0), (1, 1)), ((1, 1), (0, 1))))
    assert len(tangent_and_lattice(eta, tau)["tangent"][0]) == 2
    tau, eta = standard_witness(4, 2, (2, 2))
    realized = is_realizable(type22_class())
    assert realized.tag == "ok"
    assert len(tangent_and_lattice(type22_class(), realized.tau)["lattice"][0]) == 4
    assert orbit_equivalent(eta, type22_class())
    assert not orbit_equivalent(eta, standard_witness(4, 2, (1, 2))[1])


def test_tangent_builds_no_frame(monkeypatch):
    """The tangent and period lattice need the image basis only, not theta's frame on it."""
    cases = [(type22_class(), is_realizable(type22_class()).tau), standard_witness(4, 2, (2, 2))[::-1],
             standard_witness(3, 1, (2,))[::-1]]
    calls = []
    original = symplectic.frobenius_basis
    _patch_every_binding(monkeypatch, original, lambda gram: calls.append(gram) or original(gram))
    for eta, tau in cases:
        assert len(tangent_and_lattice(eta, tau)["tangent"][0]) == 2 * check_class(eta)[0]
    assert calls == []


def test_is_realizable_derives_each_frame_once(monkeypatch):
    """One Frobenius frame for the image and one for the kernel, none for u = n."""
    calls = []
    original = symplectic.frobenius_basis
    _patch_every_binding(monkeypatch, original, lambda gram: calls.append(gram) or original(gram))
    for eta, frames in ((type22_class(), 2), (standard_witness(3, 1, (2,))[1], 2),
                        (theta(2), 1), (theta(3), 1)):
        calls.clear()
        assert is_realizable(eta).tag == "ok"
        assert len(calls) == frames, eta


def test_profile_only_walks_evaluate_no_row_identity(monkeypatch):
    """Profile-only mode decides each leaf by ``check_class`` alone: with ``scan._identity``
    refused, the profile-only ``ENUM_PINS`` cases with u = 2 keep their pinned outputs (at
    n = 2, u = 1 the walk is idempotent)."""
    def refuse(*args):
        raise AssertionError("a profile-only walk evaluated a row identity")

    monkeypatch.setattr(scan, "_identity", refuse)
    cases = [pin for pin in ENUM_PINS if pin[0] == 2 and pin[3] == "profile"]
    for u, d, bound, _, hits, sha in cases:
        classes = enumerate_classes(EnumerationSpec(2, u, d, bound))
        assert (len(classes), digest(eta.coefficient_vector() for eta in classes)) == (hits, sha)
    assert sum(pin[4] for pin in cases) > 0


def test_each_hit_builds_its_twoform_once(monkeypatch):
    """The walker builds a hit's ``TwoForm`` at its leaf, and every caller returns that one."""
    built = []
    checks = _Counter(monkeypatch, "check_class", scan)
    monkeypatch.setattr(scan, "TwoForm", lambda n, rows: built.append(TwoForm(n, rows)) or built[-1])

    def returns_the_built(etas):
        assert {id(eta) for eta in etas} <= {id(eta) for eta in built}
        count, checks.calls = len(built), 0
        built.clear()
        return count

    classes = enumerate_classes(EnumerationSpec(2, 1, 2, 2, require_idempotent=True))
    assert returns_the_built(classes) == len(classes) == 244 and checks.calls == 0
    classes = enumerate_classes(EnumerationSpec(2, 2, 2, 2))
    calls = checks.calls
    assert returns_the_built(classes) == calls > len(classes) == 96
    assert not hasattr(riemann, "TwoForm")
    tau = search_grid()["golden witness n=4"]
    reports = scan_ppav(tau, 2, 2, 1)
    assert returns_the_built([r.eta for r in reports]) == len(reports) == 12
    reports = scan_ppav(search_grid()["diag"].to_float(), 1, 1, 1)
    assert returns_the_built([r.eta for r in reports]) >= len(reports) == 2


def _witness_and_enum_corpora():
    """(eta, exact tau or None): the witnesses with n <= 4, divisors <= 3, and an ``act``
    image of each; the idempotent n = 2 enum outputs at bound 1."""
    cases = []
    for n in (2, 3, 4):
        for u in range(1, n // 2 + 1):
            for typ in divisor_chains(u, 3):
                tau, eta = standard_witness(n, u, typ)
                s = random_symplectic(n, len(cases), 3)
                cases += [(eta, tau), (act(s, eta), moebius(s, tau))]
    for u, d in ((1, 1), (1, 2), (1, 3), (2, 1)):
        cases += [(eta, None) for eta in
                  enumerate_classes(EnumerationSpec(2, u, d, 1, require_idempotent=True))]
    return cases


def test_certificates_compute_no_rank(monkeypatch):
    """N^2 = d N with trace 2ud forces rank 2u, so no accepted class computes a rank."""
    cases = _witness_and_enum_corpora()

    def refuse(*args, **kwargs):
        raise AssertionError("a rank was computed")

    _patch_every_binding(monkeypatch, la.rank_int, refuse)
    for eta, tau in cases:
        report = analyze(eta)
        assert orbit_equivalent(eta, report.eta)
        if tau is not None:
            assert len(tangent_and_lattice(eta, tau)["lattice"][0]) == 2 * report.u
    for u, typ, (tau, eta) in glue_grid(random.Random(5)):
        assert analyze(eta).type_divisors == typ
        assert len(tangent_and_lattice(eta, tau)["lattice"][0]) == 2 * u
    assert len(cases) == 115


def _outcome(call, *args):
    try:
        return call(*args)
    except NsforgeError as exc:
        return exc.code, str(exc)


def test_norm_certificate_agrees_with_the_earlier_order():
    """``norm_from_class`` tests the trace only for a supplied (u, d), and the rank only to
    name a failing N^2 = d N; the earlier order, which tested each in turn, gives the same
    certificate or the same code and message: on the profile-only n = 2 enum outputs, and on
    seeded forms with a supplied (u, d) whose antidiagonal sum is -u d."""
    outcomes = Counter()
    for u, d in ((2, 1), (2, 2), (2, 3)):
        for eta in enumerate_classes(EnumerationSpec(2, u, d, 2)):
            got = _outcome(norm_from_class, eta)
            assert got == _outcome(oracle.reference_norm_from_class, eta)
            outcomes[got[0] if isinstance(got, tuple) else "ok"] += 1
    rng = random.Random(32)
    for _ in range(400):
        n = rng.randint(1, 4)
        u, d = rng.randint(1, n), rng.randint(1, 3)
        mat = la.zeros(2 * n, 2 * n)
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                mat[i][j] = rng.randint(-2, 2)
        mat[n - 1][2 * n - 1] -= sum(mat[i][n + i] for i in range(n)) + u * d
        eta = TwoForm.from_matrix(n, [[mat[i][j] - mat[j][i] for j in range(2 * n)]
                                      for i in range(2 * n)])
        got = _outcome(norm_from_class, eta, u, d)
        assert got == _outcome(oracle.reference_norm_from_class, eta, u, d)
        outcomes[got[0] if isinstance(got, tuple) else "ok"] += 1
    assert {"ok", "RankMismatch", "NotIdempotent"} <= set(outcomes)


def test_frobenius_basis_decides_degeneracy_once(monkeypatch):
    """The elimination alone refuses a degenerate Gram: no determinant is taken, and every
    degenerate kernel-pin Gram still raises ``Degenerate``."""
    cases = [(g, len(g) % 2 == 1 or (la.is_antisymmetric(g) and la.det_bareiss(g) == 0))
             for g in grams()]

    def refuse(*args):
        raise AssertionError("frobenius_basis took a determinant")

    monkeypatch.setattr(la, "det_bareiss", refuse)
    degenerate = 0
    for g, singular in cases:
        got = _outcome(frobenius_basis, g)
        if singular:
            degenerate += 1
            assert isinstance(got, tuple) and got[0] == "Degenerate"
        else:
            assert not isinstance(got, tuple) or got[0] == "NotAlternating"
    assert degenerate == 24


def test_moebius_trusts_a_built_symplectic_matrix(monkeypatch):
    """A ``SymplecticMatrix`` was checked when it was built; a raw matrix is checked."""
    s = random_symplectic(2, 4, 5)
    tau = search_grid()["diag"]
    checks = _Counter(monkeypatch, "is_symplectic", riemann)
    moved = moebius(s, tau)
    assert checks.calls == 0
    assert moebius([list(r) for r in s.mat], tau) == moved and checks.calls == 1
