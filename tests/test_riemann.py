import random
from fractions import Fraction

import pytest

from nsforge import (
    PeriodMatrix,
    QQi,
    TwoForm,
    act,
    elliptic_class,
    is_realizable,
    moebius,
    random_symplectic,
    residual_matrix,
    riemann,
    scan_ppav,
    standard_witness,
    symbolic_relations,
    tangent_and_lattice,
    theta,
    wedge_vanishes,
)
from nsforge import _intlinalg as la
from nsforge import scan
from nsforge.errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotAlternating,
    NotAnalytic,
    NotInSiegel,
    RangeError,
)
from nsforge.riemann import (
    _residual,
    residual_polynomials,
    tau_var_index,
    tau_var_pairs,
)
from nsforge._poly import IntPoly

from conftest import constrained_shape_tau, sample_shape_tau, type22_class
from oracle import (
    reference_coefficient_lattice,
    reference_exact_scan,
    reference_float_scan,
    reference_residual_rows,
    reference_wedge_coefficients,
    reference_wedge_vanishes,
)


def random_exact_tau(rng, n):
    entries = [[QQi(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            re = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            im = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            entries[i][j] = entries[j][i] = QQi(re, im)
    for i in range(n):
        entries[i][i] = QQi(entries[i][i].re, entries[i][i].im + 4 + n)
    return PeriodMatrix.exact(entries)


def random_float_tau(rng, n):
    entries = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
            entries[i][j] = entries[j][i] = z
    for i in range(n):
        entries[i][i] += 1j * (2 + n)
    return PeriodMatrix.from_float(entries)


def random_form(rng, n, bound=2):
    coeffs = {}
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            c = rng.randint(-bound, bound)
            if c:
                coeffs[(i, j)] = c
    return TwoForm.from_coeffs(n, coeffs)


class TestPeriodMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(NotInSiegel):
            PeriodMatrix.exact([[QQi(0, 1), QQi(1)], [QQi(0), QQi(0, 1)]])

    def test_non_positive_rejected(self):
        with pytest.raises(NotInSiegel):
            PeriodMatrix.exact([[QQi(0, -1)]])
        with pytest.raises(NotInSiegel):
            PeriodMatrix.from_float([[1j, 2j], [2j, 1j]])

    @pytest.mark.parametrize("bad", [complex("inf"), complex("nan"), complex(0.5, float("inf")),
                                     complex(float("-inf"), 1)])
    def test_non_finite_float_rejected(self, bad):
        for rows in ([[bad, 0.1], [0.1, 2j]], [[1j, bad], [bad, 2j]]):
            with pytest.raises(NotInSiegel, match="entries must be finite"):
                PeriodMatrix.from_float(rows)

    def test_valid_float(self):
        tau = PeriodMatrix.from_float([[0.5 + 1j, 0.1], [0.1, 2j]])
        assert tau.backend == "float"

    def test_to_float_beyond_binary64_is_a_range_error(self):
        tau = PeriodMatrix.exact([[QQi(0, 10**400)]])
        with pytest.raises(RangeError, match="too large for binary64"):
            tau.to_float()


class TestWedgeVanishes:
    def test_principal_always_vanishes(self):
        rng = random.Random(1)
        for n in (1, 2, 3):
            assert wedge_vanishes(theta(n), random_exact_tau(rng, n))
            assert wedge_vanishes(theta(n), random_float_tau(rng, n))

    def test_type22_on_constrained_shape(self, eta0, shape_tau):
        assert wedge_vanishes(eta0, shape_tau)

    def test_type22_generic_fails(self, eta0):
        rng = random.Random(2)
        assert not wedge_vanishes(eta0, random_exact_tau(rng, 4))

    def test_float_tolerance_path(self, eta0):
        shape = sample_shape_tau().to_float()
        assert wedge_vanishes(eta0, shape)


class TestResidual:
    def test_principal_residual_zero(self):
        rng = random.Random(3)
        tau = random_exact_tau(rng, 3)
        r = residual_matrix(theta(3), tau)
        assert all(not x for row in r for x in row)

    def test_antisymmetry(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.choice([2, 3, 4])
            eta = random_form(rng, n)
            tau = random_exact_tau(rng, n)
            r = residual_matrix(eta, tau)
            for i in range(n):
                for j in range(n):
                    assert r[i][j] == -r[j][i]

    def test_agreement_with_wedge(self, eta0, shape_tau):
        # the exact decisions agree with the expanded (n+2)-form, the reference
        rng = random.Random(5)
        cases = []
        for _ in range(140):
            n = rng.choice([2, 3, 4])
            cases.append((random_form(rng, n), random_exact_tau(rng, n)))
        cases.append((eta0, shape_tau))
        cases.append((theta(4), shape_tau))
        w = is_realizable(eta0)
        cases.append((eta0, w.tau))
        for n, u, divisors in ((5, 2, (1, 2)), (6, 3, (1, 1, 1))):
            tau, eta = standard_witness(n, u, divisors)
            cases.append((eta, tau))
        for eta, tau in cases:
            expected = not reference_wedge_coefficients(eta, tau)
            assert (not any(map(any, residual_matrix(eta, tau)))) == expected
            assert wedge_vanishes(eta, tau) == expected

    def test_agreement_with_wedge_float(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.choice([2, 3])
            eta = random_form(rng, n)
            tau = random_float_tau(rng, n)
            assert wedge_vanishes(eta, tau) == reference_wedge_vanishes(eta, tau)

    def test_integer_residual_matches_gaussian_formula(self):
        # q^2 R over the integers, divided by q^2, equals R computed over QQi
        rng = random.Random(12)

        def symmetric_tau(n, entry):
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = entry()
            for i in range(n):
                rows[i][i] = rows[i][i] + QQi(0, 4 * n + 4)
            return PeriodMatrix.exact(rows)

        small = lambda: QQi(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        whole = lambda: QQi(rng.randint(-6, 6), rng.randint(-1, 1))
        large = lambda: QQi(Fraction(rng.randint(-10**9, 10**9), rng.randint(10**6, 10**9)),
                            Fraction(rng.randint(-10**9, 10**9), rng.randint(10**9, 10**12)))
        vanishing = 0
        for n in range(1, 6):
            for entry in (small, whole, large):
                for _ in range(4):
                    tau = symmetric_tau(n, entry)
                    for eta in (random_form(rng, n, bound=3), theta(n)):
                        r = residual_matrix(eta, tau)
                        assert r == _residual(eta, tau.rows)
                        zero = all(not x for row in r for x in row)
                        assert wedge_vanishes(eta, tau) == zero
                        vanishing += zero
        assert vanishing >= 60  # theta(n) vanishes for every tau
        tau, eta = standard_witness(4, 2, (2, 2))
        assert residual_matrix(eta, tau) == _residual(eta, tau.rows)
        assert wedge_vanishes(eta, tau)

    def test_size_mismatch_raises(self):
        rng = random.Random(13)
        for tau in (random_exact_tau(rng, 3), random_float_tau(rng, 3)):
            for check in (residual_matrix, wedge_vanishes):
                with pytest.raises(DimensionMismatch, match="sizes differ"):
                    check(theta(2), tau)

    def test_elliptic_surface_residual_polynomial(self):
        # the (1, 2) slot carries c t11 - b t12 + a t22 + e (t11 t22 - t12^2) - d
        from nsforge.humbert import eta_from_singular, singular_datum

        s = singular_datum(1, 4, 1, 2, 1)
        eta = eta_from_singular(s)
        polys = residual_polynomials(eta)
        v11, v12, v22 = (tau_var_index(2, 1, 1), tau_var_index(2, 1, 2),
                         tau_var_index(2, 2, 2))
        expected = (IntPoly.var(v11, s.c) + IntPoly.var(v12, -s.b) + IntPoly.var(v22, s.a)
                    + s.e * (IntPoly.var(v11) * IntPoly.var(v22)
                             - IntPoly.var(v12) * IntPoly.var(v12))
                    + IntPoly.const(-s.d_rel))
        assert polys[0][1] == expected

    def test_polynomials_evaluate_to_residual(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.choice([2, 3])
            eta = random_form(rng, n)
            tau = random_exact_tau(rng, n)
            polys = residual_polynomials(eta)
            values = [tau.rows[k - 1][l - 1] for k, l in tau_var_pairs(n)]
            r = residual_matrix(eta, tau)
            for i in range(n):
                for j in range(n):
                    assert polys[i][j].evaluate(values) == r[i][j]


class TestExactDecisionsSkipExpansion:
    """Exact vanishing decisions read the integer residual only; the float test reads the
    float residual map."""

    @pytest.fixture
    def float_rows(self, monkeypatch):
        calls = []
        original = riemann._float_rows

        def counted(tau):
            calls.append(tau.backend)
            return original(tau)

        monkeypatch.setattr(riemann, "_float_rows", counted)
        return calls

    def test_constructions_and_scan(self, float_rows):
        eta = type22_class()
        standard_witness(4, 2, (2, 2))
        w = is_realizable(eta)
        tangent_and_lattice(eta, w.tau)
        assert any(r.eta == eta for r in scan_ppav(w.tau, 2, 2, 1))
        assert wedge_vanishes(eta, w.tau)
        assert float_rows == []

    def test_float_wedge_reads_the_residual_rows(self, float_rows):
        assert wedge_vanishes(type22_class(), sample_shape_tau().to_float())
        assert float_rows == ["float"]

    def test_float_scan_decides_without_a_wedge_test(self, monkeypatch):
        cases = [(tau, 1, 1, 2) for tau in _float_scan_taus()]
        expected = [scan_ppav(*case) for case in cases]
        assert any(expected)

        def no_wedge(*args, **kwargs):
            pytest.fail("the float scan re-decided a hit with wedge_vanishes")

        monkeypatch.setattr(riemann, "wedge_vanishes", no_wedge)
        assert [scan_ppav(*case) for case in cases] == expected


class TestSymbolicRelations:
    def test_principal_empty(self):
        assert symbolic_relations(theta(3)).polynomials == ()

    def test_standard_elliptic_relations(self):
        v = lambda k, l: tau_var_index(3, k, l)
        rel = symbolic_relations(elliptic_class(2, 3))
        expected = {IntPoly.var(v(1, 1)) + IntPoly.var(v(1, 2), 2), IntPoly.var(v(1, 3))}
        assert set(rel.polynomials) == expected

    def test_standard_elliptic_relations_general(self):
        for (m, n) in [(1, 2), (3, 2), (2, 4)]:
            rel = symbolic_relations(elliptic_class(m, n))
            v = lambda k, l: tau_var_index(n, k, l)
            expected = {IntPoly.var(v(1, 1)) + IntPoly.var(v(1, 2), m)}
            for j in range(3, n + 1):
                expected.add(IntPoly.var(v(1, j)))
            assert set(rel.polynomials) == expected

    def test_type22_shape_relations(self, eta0):
        rel = symbolic_relations(eta0)
        v = lambda k, l: tau_var_index(4, k, l)
        expected = {
            IntPoly.var(v(1, 1)) - IntPoly.var(v(2, 2)),
            IntPoly.var(v(1, 4)) - IntPoly.var(v(2, 3)),
            IntPoly.var(v(1, 3)) - IntPoly.var(v(2, 4)),
            IntPoly.var(v(3, 3)) - IntPoly.var(v(4, 4)),
        }
        assert set(rel.polynomials) == expected

    def test_degree_and_count_bounds(self):
        rng = random.Random(8)
        for _ in range(10):
            rel = symbolic_relations(random_form(rng, 3))
            assert all(p.degree() <= 2 for p in rel.polynomials)
            assert len(rel.polynomials) <= 3 * (3 - 1) // 2


class TestTangentAndLattice:
    def test_type22_golden_vectors(self, eta0):
        t = [QQi(Fraction(1, 3), 2), QQi(Fraction(1, 5), Fraction(1, 7)),
             QQi(Fraction(2, 3), Fraction(1, 2)), QQi(Fraction(-1, 4), Fraction(1, 3)),
             QQi(Fraction(1, 9), 3), QQi(Fraction(3, 7), Fraction(2, 5))]
        tau = constrained_shape_tau(*t)
        res = tangent_and_lattice(eta0, tau)
        cols = list(zip(*res["lattice"]))
        t1, t2, t3, t4, t5, t6 = t
        assert list(cols[0]) == [t1 - t2, t2 - t1, t3 - t4, t4 - t3]
        assert list(cols[1]) == [t3 - t4, t4 - t3, t5 - t6, t6 - t5]
        assert list(cols[2]) == [QQi(1), QQi(-1), QQi(0), QQi(0)]
        assert list(cols[3]) == [QQi(0), QQi(0), QQi(1), QQi(-1)]

    def test_principal_spans_everything(self):
        rng = random.Random(9)
        tau = random_exact_tau(rng, 2)
        res = tangent_and_lattice(theta(2), tau)
        assert len(res["tangent"][0]) == 4  # 2u columns for u = n

    def test_requires_vanishing(self, eta0):
        rng = random.Random(10)
        with pytest.raises(NotAnalytic):
            tangent_and_lattice(eta0, random_exact_tau(rng, 4))

    def test_float_backend(self, eta0):
        tau = sample_shape_tau().to_float()
        res = tangent_and_lattice(eta0, tau)
        assert len(res["tangent"]) == 4 and len(res["tangent"][0]) == 4


class TestMoebiusInvariance:
    def test_vanishing_transported(self, eta0):
        w = is_realizable(eta0)
        for seed in range(4):
            s = random_symplectic(4, seed, 8)
            tau2 = moebius(s, w.tau)
            assert wedge_vanishes(act(s, eta0), tau2)

    def test_product_case(self):
        tau = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
        eta = TwoForm.from_coeffs(2, {(0, 2): -1})
        assert wedge_vanishes(eta, tau)
        for seed in range(6):
            s = random_symplectic(2, seed, 10)
            assert wedge_vanishes(act(s, eta), moebius(s, tau))

    @pytest.mark.parametrize("s, error", [
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], NotAlternating),
        ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], NotAlternating),
        (la.identity(6), DimensionMismatch),
        ([[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]], DimensionMismatch),
    ])
    def test_non_symplectic_matrix_is_an_error(self, s, error):
        tau = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
        with pytest.raises(error) as info:
            moebius(s, tau)
        assert info.value.code == error.code


class TestScan:
    def test_product_of_elliptic_curves(self):
        tau = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
        reports = scan_ppav(tau, 1, 1, 1)
        found = [r.eta for r in reports]
        assert found == [
            TwoForm.from_coeffs(2, {(0, 2): -1}),
            TwoForm.from_coeffs(2, {(1, 3): -1}),
        ]

    def test_witness_scan_contains_class(self, eta0):
        w = is_realizable(eta0)
        reports = scan_ppav(w.tau, 2, 2, 1)
        assert any(r.eta == eta0 for r in reports)
        for r in reports:
            assert (r.u, r.d, r.type_divisors) == (2, 2, (2, 2))

    def test_generic_float_scan_empty(self):
        rng = random.Random(11)
        tau = random_float_tau(rng, 2)
        assert scan_ppav(tau, 1, 1, 3) == []

    def test_float_scan_finds_product_classes(self):
        tau = PeriodMatrix.from_float([[1j, 0], [0, 2j]])
        reports = scan_ppav(tau, 1, 1, 1)
        assert [r.eta.coeffs() for r in reports] == [{(0, 2): -1}, {(1, 3): -1}]

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_u_out_of_range_raises_before_walking(self, monkeypatch, backend):
        tau = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
        if backend == "float":
            tau = tau.to_float()

        def no_walk(*args):
            pytest.fail("scan walked the lattice for an out-of-range u")

        monkeypatch.setattr(riemann, "_coefficient_lattice", no_walk)
        monkeypatch.setattr(scan, "_walk_chunks", no_walk)
        for u in (0, 3, -1):
            with pytest.raises(RangeError, match="need 1 <= u <= n"):
                scan_ppav(tau, u, 1, 1)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_d_below_one_is_empty(self, backend):
        tau = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
        if backend == "float":
            tau = tau.to_float()
        assert scan_ppav(tau, 1, 0, 1) == []

    def test_float_scan_workers_capped_at_chunks(self, fake_pool):
        tau = PeriodMatrix.from_float([[1j, 0], [0, 2j]])
        serial = scan_ppav(tau, 1, 1, 1)
        parallel = scan_ppav(tau, 1, 1, 1, jobs=16)
        assert fake_pool == [3]
        assert parallel == serial


def type22_class_tau():
    return is_realizable(type22_class()).tau


def _agreement_taus():
    rng = random.Random(5)
    taus = [random_exact_tau(rng, rng.choice([2, 3, 4])) for _ in range(140)]
    taus += [sample_shape_tau(), is_realizable(type22_class()).tau]
    taus += [standard_witness(n, u, t)[0] for n, u, t in ((5, 2, (1, 2)), (6, 3, (1, 1, 1)))]
    return taus


def _float_scan_taus():
    rng = random.Random(99)
    entries = [[0j, 0j], [0j, 0j]]
    entries[0][0] = complex(rng.uniform(-0.6, 0.6), 1.3)
    entries[1][1] = complex(rng.uniform(-0.6, 0.6), 2.1)
    entries[0][1] = entries[1][0] = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.1, 0.1))
    diag = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
    witness = standard_witness(2, 1, (2,))[0]
    conjugates = [moebius(random_symplectic(2, seed, 3), tau).to_float()
                  for tau, seed in ((diag, 3), (diag, 8), (witness, 5))]
    return [PeriodMatrix.from_float(entries), diag.to_float(), witness.to_float()] + conjugates


def _exact_scan_taus():
    """Witnesses (n, 1, (t,)) for n = 2, 3 and t <= 3 with three conjugates each, and iI."""
    taus = []
    for n in (2, 3):
        for t in (1, 2, 3):
            tau = standard_witness(n, 1, (t,))[0]
            taus += [tau] + [moebius(random_symplectic(n, s, 3), tau) for s in (1, 2, 3)]
        taus.append(PeriodMatrix.exact([[QQi(0, int(i == j)) for j in range(n)] for i in range(n)]))
    return taus


class TestSearchCore:
    def test_exact_scan_matches_trace_coset_reference(self):
        cases = [(type22_class_tau(), 2, 2, 1)]
        for tau in _exact_scan_taus():
            cases += [(tau, u, d, b) for u in range(1, tau.n + 1) for d in (1, 2, 3)
                      for b in ((1, 2) if tau.n == 2 else (1,))]
        hits = 0
        for tau, u, d, b in cases:
            reports = scan_ppav(tau, u, d, b)
            assert reports == reference_exact_scan(tau, u, d, b), (tau, u, d, b)
            hits += len(reports)
        assert len(cases) == 1 + 13 * 12 + 13 * 9 and hits > 0

    def test_exact_scan_node_budget(self, monkeypatch):
        tau = type22_class_tau()
        assert scan_ppav(tau, 2, 2, 1)
        monkeypatch.setattr(scan, "_LATTICE_NODE_BUDGET", 50)
        with pytest.raises(BudgetExceeded, match="budget of 50 nodes"):
            scan_ppav(tau, 2, 2, 1)

    def test_integer_lattice_equals_gaussian_rational_lattice(self):
        for tau in _agreement_taus():
            _, kernel = riemann._coefficient_lattice(tau)
            assert la.lattice_basis(kernel) == la.lattice_basis(reference_coefficient_lattice(tau)[1])

    def test_unit_dimension_lattice_is_every_form(self):
        """n = 1 has no residual rows: every 2-form vanishes, the lattice is Z."""
        for tau in (PeriodMatrix.exact([[QQi(0, 1)]]), PeriodMatrix.exact([[QQi(Fraction(1, 2), 3)]])):
            assert riemann._coefficient_lattice(tau) == ([(0, 1)], [[1]])
            assert reference_coefficient_lattice(tau)[1] == [[1]]

    def test_coefficient_lattice_evaluates_no_residual(self, monkeypatch):
        taus = [sample_shape_tau(), type22_class_tau()] + _exact_scan_taus()[::5]
        expected = [la.lattice_basis(reference_coefficient_lattice(tau)[1]) for tau in taus]

        def no_residual(*args):
            pytest.fail("the vanishing lattice evaluated a residual per basis 2-form")

        monkeypatch.setattr(riemann, "_int_residual", no_residual)
        monkeypatch.setattr(riemann, "residual_matrix", no_residual)
        for tau, basis in zip(taus, expected):
            assert la.lattice_basis(riemann._coefficient_lattice(tau)[1]) == basis

    def test_float_rows_equal_reference_rows(self):
        # the float-scan corpus (n = 2) and the float images of the n = 4..6 agreement taus
        for tau in _float_scan_taus() + [t.to_float() for t in _agreement_taus()[-4:]]:
            assert riemann._float_rows(tau) == reference_residual_rows(tau)[1], tau

    @pytest.mark.parametrize("u,d,bound", [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2),
                                           (1, 2, 2), (2, 2, 2), (1, 1, 3), (2, 1, 3)])
    def test_float_scan_matches_full_box_reference(self, u, d, bound):
        for tau in _float_scan_taus():
            expected = reference_float_scan(tau, u, d, bound, riemann.DEFAULT_TOL)
            assert scan_ppav(tau, u, d, bound) == expected

    def test_float_scan_partitioned_matches_reference(self, fake_pool):
        for tau in _float_scan_taus():
            for u, d, bound in ((1, 1, 2), (1, 2, 3)):
                expected = reference_float_scan(tau, u, d, bound, riemann.DEFAULT_TOL)
                assert scan_ppav(tau, u, d, bound, jobs=2) == expected
        assert set(fake_pool) == {2}

    def test_exact_scan_certifies_only_identity_points(self, monkeypatch):
        certified = []
        original = riemann.norm_from_class

        def counted(eta, u, d):
            certified.append((eta, d))
            return original(eta, u, d)

        monkeypatch.setattr(riemann, "norm_from_class", counted)
        reports = scan_ppav(is_realizable(type22_class()).tau, 2, 2, 1)
        assert type22_class() in [r.eta for r in reports]
        j = la.standard_j(4)
        for eta, d in certified:
            m = [list(r) for r in eta.mat]
            assert la.mat_mul(la.mat_mul(m, j), m) == la.mat_scale(d, m)
        assert len(certified) == len(reports)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_d_below_one_returns_before_walking(self, monkeypatch, backend):
        tau = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
        if backend == "float":
            tau = tau.to_float()

        def no_walk(*args):
            pytest.fail("scan walked for an exponent below 1")

        monkeypatch.setattr(riemann, "_coefficient_lattice", no_walk)
        for name in ("_walk", "_walk_chunks"):
            monkeypatch.setattr(scan, name, no_walk)
        for d in (0, -1):
            assert scan_ppav(tau, 1, d, 1) == []

    def test_float_budget_error_comes_before_the_exponent_check(self, monkeypatch):
        monkeypatch.setenv("NSFORGE_BUDGET", "100")
        tau = PeriodMatrix.from_float([[1j, 0], [0, 2j]])
        with pytest.raises(BudgetExceeded, match="scan space 729 exceeds budget 100"):
            scan_ppav(tau, 1, 0, 1)


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_negative_or_non_finite_tol_is_a_range_error(self, backend, tol):
        tau = PeriodMatrix.exact([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, 2)]])
        if backend == "float":
            tau = tau.to_float()
        eta = TwoForm.from_coeffs(2, {(0, 2): -1})
        for call in (wedge_vanishes, tangent_and_lattice):
            with pytest.raises(RangeError, match="tol"):
                call(eta, tau, tol=tol)
        with pytest.raises(RangeError, match="tol"):
            scan_ppav(tau, 1, 1, 1, tol=tol)

    def test_zero_tol_keeps_exact_zeros(self):
        tau = PeriodMatrix.from_float([[1j, 0], [0, 2j]])
        eta = TwoForm.from_coeffs(2, {(0, 2): -1})
        assert wedge_vanishes(eta, tau, tol=0)
        assert eta in [r.eta for r in scan_ppav(tau, 1, 1, 1, tol=0)]

    def test_float_limit_overflow_is_a_range_error(self):
        # (1 + max |tau_kl|)^2 overflows binary64 for entries above about 1.4e154
        tau = PeriodMatrix.exact([[QQi(0, 10**200), QQi(0)], [QQi(0), QQi(0, 2 * 10**200)]])
        eta = TwoForm.from_coeffs(2, {(0, 2): -1})
        assert wedge_vanishes(eta, tau)
        with pytest.raises(RangeError, match="too large"):
            wedge_vanishes(eta, tau.to_float())
        with pytest.raises(RangeError, match="too large"):
            scan_ppav(tau.to_float(), 1, 1, 1)


# the witnesses of the construct benchmark workload: (n, u, type)
CONSTRUCT_WITNESSES = [(6, 3, (2, 2, 2)), (2, 1, (1,)), (6, 1, (1,)), (3, 1, (2,)),
                       (6, 2, (1, 1)), (4, 2, (2, 2)), (5, 2, (1, 2)), (2, 1, (2,)),
                       (2, 1, (3,)), (3, 1, (3,)), (3, 1, (4,))]


def _decision_corpus():
    """(eta, exact tau) pairs: each construct witness and two Moebius conjugates of it, with
    the transported class, the exact scan's hits on the n <= 3 conjugates, theta and two
    seeded random forms."""
    rng = random.Random(14)
    cases = []
    for n, u, typ in CONSTRUCT_WITNESSES:
        tau, eta = standard_witness(n, u, typ)
        cases += [(eta, tau), (theta(n), tau), (random_form(rng, n), tau)]
        for seed in (1, 2):
            s = random_symplectic(n, seed, 3)
            conj = moebius(s, tau)
            forms = [act(s, eta), random_form(rng, n)]
            if n <= 3:
                forms += [r.eta for r in scan_ppav(conj, u, typ[-1], 1)]
            cases += [(form, conj) for form in forms]
    return cases


class TestReferenceExpansion:
    """The residual minors decide as the expansion of eta ^ dz_1 ^ ... ^ dz_n does."""

    def test_float_decision_matches_the_expansion(self):
        decided = set()
        for eta, tau in _decision_corpus():
            ftau = tau.to_float()
            got = wedge_vanishes(eta, ftau)
            assert got == reference_wedge_vanishes(eta, ftau), (eta, tau)
            decided.add(got)
        assert decided == {True, False}

    def test_polynomials_equal_the_block_formula(self):
        rng = random.Random(15)
        forms = [standard_witness(n, u, typ)[1] for n, u, typ in CONSTRUCT_WITNESSES]
        forms += [random_form(rng, rng.choice([2, 3, 4])) for _ in range(20)]
        for eta in forms:
            n = eta.n
            tsym = [[IntPoly.var(tau_var_index(n, min(k, l) + 1, max(k, l) + 1))
                     for l in range(n)] for k in range(n)]
            assert residual_polynomials(eta) == _residual(eta, tsym), eta

    def test_zero_form_has_no_relations(self):
        for n in (1, 2, 4):
            zero = TwoForm.from_coeffs(n, {})
            assert all(not p for row in residual_polynomials(zero) for p in row)
            assert symbolic_relations(zero).polynomials == ()
