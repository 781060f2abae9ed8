import itertools
import random
from math import gcd

import pytest

from nsforge import (
    EnumerationSpec,
    NormMatrix,
    TwoForm,
    act,
    analyze,
    check_class,
    class_from_norm,
    complementary_class,
    elliptic_in_divisor,
    enumerate_classes,
    norm_from_class,
    polynomial_certificate,
    random_symplectic,
    standard_witness,
    theta,
)
from nsforge import _intlinalg as la
from nsforge.errors import (
    NotIdempotent,
    NotSymmetricForJ,
    TypeExponentMismatch,
    WrongDimensions,
)
from nsforge.normend import _image_type, _smith_type

BLOCK = [[1, -1], [-1, 1]]


def block_diag(*blocks):
    size = sum(len(b) for b in blocks)
    out = la.zeros(size, size)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(b)
    return out


def product_factor_class(n, factor_indices):
    """Class of a product sub-torus spanned by the given factors of E^n."""
    return TwoForm.from_coeffs(n, {(i, n + i): -1 for i in factor_indices})


class TestNormFromClass:
    def test_principal(self):
        norm = norm_from_class(theta(3))
        assert [list(r) for r in norm.mat] == la.identity(6)
        assert (norm.u, norm.d) == (3, 1)

    def test_type22_block_structure(self, eta0):
        norm = norm_from_class(eta0)
        assert [list(r) for r in norm.mat] == block_diag(BLOCK, BLOCK, BLOCK, BLOCK)
        assert (norm.u, norm.d) == (2, 2)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_standard_elliptic(self, m):
        n = 3
        eta = TwoForm.from_coeffs(n, {(0, n): -m, (1, n): 1})
        norm = norm_from_class(eta)
        assert sum(norm.mat[i][i] for i in range(2 * n)) == 2 * m
        assert la.rank_int([list(r) for r in norm.mat]) == 2
        assert (norm.u, norm.d) == (1, m)

    def test_profile_pass_idempotence_fail(self):
        # passes the intersection profile at (2, 1) yet N^2 != N: the profile
        # alone does not certify an endomorphism
        eta = TwoForm.from_coeffs(2, {
            (0, 1): -1, (0, 2): -1, (0, 3): -1, (1, 2): -1, (1, 3): -1, (2, 3): 1,
        })
        assert check_class(eta) == (2, 1)
        with pytest.raises(NotIdempotent):
            norm_from_class(eta, 2, 1)


class TestClassFromNorm:
    def test_identity_gives_principal(self):
        norm = NormMatrix(3, la.mat_freeze(la.identity(6)), 3, 1)
        assert class_from_norm(norm) == theta(3)

    def test_block_diag_gives_type22(self, eta0):
        norm = NormMatrix(4, la.mat_freeze(block_diag(BLOCK, BLOCK, BLOCK, BLOCK)), 2, 2)
        assert class_from_norm(norm) == eta0

    def test_round_trip_on_glued_classes(self):
        for (n, u, divisors) in [(2, 1, (1,)), (2, 1, (2,)), (3, 1, (2,)), (4, 2, (1, 2))]:
            _, eta = standard_witness(n, u, divisors)
            assert class_from_norm(norm_from_class(eta)) == eta

    def test_round_trip_on_hundred_glued_classes(self):
        import random
        from fractions import Fraction

        from nsforge import (
            PeriodMatrix,
            PolarizedFactor,
            QQi,
            complementary_type,
            glue,
            identity_spec,
        )

        rng = random.Random(77)

        def rand_tau(k):
            rows = [[QQi(0)] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    re = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    im = Fraction(rng.randint(0, 1), rng.randint(2, 4))
                    rows[i][j] = rows[j][i] = QQi(re, im)
            for i in range(k):
                rows[i][i] = QQi(rows[i][i].re, rows[i][i].im + 2)
            return PeriodMatrix.exact(rows)

        grid = [(2, 1, (1,)), (2, 1, (2,)), (2, 1, (3,)), (3, 1, (1,)), (3, 1, (2,)),
                (3, 1, (3,)), (4, 1, (2,)), (4, 2, (1, 2)), (4, 2, (2, 2))]
        for trial in range(100):
            n, u, divisors = grid[trial % len(grid)]
            x = PolarizedFactor(u, divisors, rand_tau(u))
            y = PolarizedFactor(n - u, complementary_type(n, u, divisors), rand_tau(n - u))
            _, eta = glue(x, y, identity_spec(u))
            assert class_from_norm(norm_from_class(eta)) == eta
            assert check_class(eta) == (u, divisors[-1])

    def test_asymmetric_rejected(self):
        bad = la.zeros(4, 4)
        bad[0][0] = 1  # J * this is not antisymmetric
        with pytest.raises(NotSymmetricForJ):
            class_from_norm(la.mat_freeze(bad))


class TestAnalyze:
    def test_type22_full_report(self, eta0):
        rep = analyze(eta0)
        assert (rep.u, rep.d) == (2, 2)
        assert rep.type_divisors == (2, 2)
        assert rep.image_lattice.basis == (
            (1, -1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, -1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, -1, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, -1),
        )
        assert check_class(rep.complement) == (2, 2)

    def test_principal_report(self):
        rep = analyze(theta(3))
        assert (rep.u, rep.d) == (3, 1)
        assert rep.type_divisors == (1, 1, 1)
        assert rep.kernel_lattice.rank == 0
        assert rep.complement.is_zero()

    def test_glued_mixed_type(self):
        _, eta = standard_witness(4, 2, (1, 2))
        assert analyze(eta).type_divisors == (1, 2)

    def test_orbit_invariance_of_report(self, eta0):
        base = analyze(eta0)
        for seed in range(5):
            moved = act(random_symplectic(4, seed, 12), eta0)
            rep = analyze(moved)
            assert (rep.u, rep.d, rep.type_divisors) == (base.u, base.d, base.type_divisors)

    def test_index_identity(self, eta0):
        rep = analyze(eta0)
        combined = [list(b) for b in rep.image_lattice.basis]
        combined += [list(b) for b in rep.kernel_lattice.basis]
        idx = abs(la.det_bareiss(la.transpose(combined)))
        prod = 1
        for t in rep.type_divisors:
            prod *= t
        assert idx == prod * prod


# witness types with n <= 6 and u = 1, 2, 3, scalar and not
SMITH_WITNESSES = [(2, 1, (1,)), (2, 1, (3,)), (3, 1, (4,)), (4, 2, (2, 2)), (5, 2, (1, 2)),
                   (6, 2, (1, 1)), (6, 3, (2, 2, 2)), (6, 3, (1, 2, 4)), (6, 3, (1, 1, 6)),
                   (6, 3, (1, 1, 1))]


def _determinantal_invariants(a):
    """Smith invariants as quotients of the gcds of the k x k minors (the textbook definition)."""
    out, prev = [], 1
    for k in range(1, min(len(a), len(a[0])) + 1):
        g = 0
        for rows in itertools.combinations(range(len(a)), k):
            for cols in itertools.combinations(range(len(a[0])), k):
                g = gcd(g, la.det_bareiss([[a[i][j] for j in cols] for i in rows]))
        if not g:
            break
        out.append(g // prev)
        prev = g
    return out


class TestSmithType:
    """The type read off the Smith invariants of M equals theta's Frobenius frame on the image.

    N = J M is d on the image lattice X and N(Z^2n) has index prod (d / D_i)^2
    in X, so the nonzero Smith invariants of M are d / D_i, each twice.
    ``_image_type`` is the oracle.
    """

    @staticmethod
    def agree(eta, u, d):
        norm = norm_from_class(eta, u, d)
        return _smith_type(eta.mat, u, d) == _smith_type(norm.mat, u, d) == _image_type(norm)[1].divisors

    def test_kernel_matches_the_minors(self):
        rng = random.Random(5)
        for _ in range(200):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rows)]
            assert la.smith_invariants(a) == _determinantal_invariants(a), a

    def test_idempotent_surface_classes(self):
        count = 0
        for u, d, bound in itertools.product((1, 2), (1, 2, 3, 4), (1, 2)):
            for eta in enumerate_classes(EnumerationSpec(2, u, d, bound, require_idempotent=True)):
                assert self.agree(eta, u, d), eta
                count += 1
        assert count == 990

    def test_idempotent_threefold_classes(self, monkeypatch):
        monkeypatch.setenv("NSFORGE_BUDGET", str(3 ** 15))
        count = 0
        for u, d in ((1, 1), (1, 2), (1, 3), (2, 1)):
            for eta in enumerate_classes(EnumerationSpec(3, u, d, 1, require_idempotent=True)):
                assert self.agree(eta, u, d), eta
                count += 1
        assert count == 8450

    @pytest.mark.parametrize("n,u,typ", SMITH_WITNESSES)
    def test_witness_types_and_conjugates(self, n, u, typ):
        eta = standard_witness(n, u, typ)[1]
        for seed in range(3):
            moved = act(random_symplectic(n, seed, 8), eta)
            assert self.agree(moved, u, typ[-1])
            assert _smith_type(moved.mat, u, typ[-1]) == typ
        assert _smith_type(eta.mat, u, typ[-1]) == typ

    def test_non_primitive_class_raises_like_the_frame(self):
        for n, u, typ in SMITH_WITNESSES[:5]:
            norm = norm_from_class(2 * standard_witness(n, u, typ)[1], u, 2 * typ[-1])
            for read in (lambda: _smith_type(norm.mat, norm.u, norm.d), lambda: _image_type(norm)):
                with pytest.raises(TypeExponentMismatch):
                    read()


class TestComplementaryClass:
    def test_principal_complement_is_zero(self):
        assert complementary_class(theta(4)).is_zero()

    def test_type22_complement(self, eta0):
        comp = complementary_class(eta0)
        assert comp == 2 * theta(4) - eta0
        assert check_class(comp) == (2, 2)

    def test_involution(self):
        for (n, u, divisors) in [(3, 1, (2,)), (4, 1, (3,)), (4, 2, (2, 2))]:
            _, eta = standard_witness(n, u, divisors)
            comp = complementary_class(eta)
            assert complementary_class(comp) == eta

    def test_bauer_identity(self, eta0):
        # d^2 theta - d eta = d * complement, as matrices
        d = 2
        comp = complementary_class(eta0)
        lhs = d * d * theta(4) - d * eta0
        assert lhs == d * comp

    def test_spurious_class_rejected(self):
        # profile passes at (2, 1) without being the principal class; the
        # complement identity cannot hold, and the error says why
        eta = TwoForm.from_coeffs(2, {
            (0, 1): -1, (0, 2): -1, (0, 3): -1, (1, 2): -1, (1, 3): -1, (2, 3): 1,
        })
        with pytest.raises(NotIdempotent):
            complementary_class(eta)


class TestPolynomialCertificate:
    def test_identity_norm(self):
        norm = NormMatrix(2, la.mat_freeze(la.identity(4)), 2, 1)
        cert = polynomial_certificate(norm)
        assert cert == {"char_ok": True, "min_ok": True}

    def test_type22(self, eta0):
        cert = polynomial_certificate(norm_from_class(eta0))
        assert cert == {"char_ok": True, "min_ok": True}

    def test_non_idempotent_fails_min(self):
        mat = la.zeros(4, 4)
        mat[0][1] = 1  # nilpotent, not idempotent
        cert = polynomial_certificate(NormMatrix(2, la.mat_freeze(mat), 1, 1))
        assert not cert["min_ok"]


class TestEllipticInDivisor:
    def test_small_dimension_rejected(self):
        e = TwoForm.from_coeffs(2, {(0, 2): -1})
        with pytest.raises(WrongDimensions):
            elliptic_in_divisor(e, e)

    def test_factor_contained_in_product_divisor(self):
        # triple product: the first factor sits inside the first-two-factors surface
        e1 = product_factor_class(3, [0])
        z12 = product_factor_class(3, [0, 1])
        z23 = product_factor_class(3, [1, 2])
        assert elliptic_in_divisor(e1, z12) is True
        assert elliptic_in_divisor(e1, z23) is False

    def test_complement_pair_disjoint(self):
        _, eta = standard_witness(3, 1, (2,))
        comp = complementary_class(eta)
        assert elliptic_in_divisor(eta, comp) is False

    def test_wrong_dimensions_checked(self):
        z = product_factor_class(3, [0, 1])
        with pytest.raises(WrongDimensions):
            elliptic_in_divisor(z, z)
