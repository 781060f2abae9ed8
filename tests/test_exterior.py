import random
from fractions import Fraction
from math import comb, factorial

import pytest

from nsforge import (
    TwoForm,
    act,
    check_class,
    check_class_mod_L,
    f_formula,
    intersection_profile,
    is_primitive,
    mixed_intersection,
    natural_class,
    pfaffian,
    q_r,
    random_symplectic,
    theta,
)
from nsforge.errors import (
    MultiplicitySumMismatch,
    NotAntisymmetric,
    NotPrimitive,
    NotPrimitiveModL,
    OddDimension,
    RangeError,
    ZeroForm,
)
from nsforge import _intlinalg as la
from nsforge.exterior import _sub_pfaffian, expected_profile, is_primitive_mod_theta

from conftest import type22_class
from oracle import mixed_intersection_oracle


def random_form(rng, n, bound=3):
    m = 2 * n
    coeffs = {}
    for i in range(m):
        for j in range(i + 1, m):
            c = rng.randint(-bound, bound)
            if c:
                coeffs[(i, j)] = c
    return TwoForm.from_coeffs(n, coeffs)


class TestPfaffian:
    def test_base_case(self):
        assert pfaffian([[0, 1], [-1, 0]]) == 1

    def test_principal_class_n2(self):
        assert pfaffian([list(r) for r in theta(2).mat]) == -1

    def test_covariance_under_unimodular_congruence(self):
        rng = random.Random(7)
        for trial in range(25):
            n = rng.choice([1, 2, 3])
            eta = random_form(rng, n)
            s = random_symplectic(n, trial, 10)
            m = [list(r) for r in eta.mat]
            smat = [list(r) for r in s.mat]
            sms = [[sum(smat[i][a] * m[a][b] * smat[j][b]
                        for a in range(2 * n) for b in range(2 * n))
                    for j in range(2 * n)] for i in range(2 * n)]
            assert pfaffian(sms) == pfaffian(m)

    def test_sub_pfaffian_matches_pfaffian_and_determinant(self):
        """The unvalidated expansion is the Pfaffian of every principal submatrix, and Pf^2 = det."""
        rng = random.Random(13)
        for m in (2, 4, 6, 8):
            for _ in range(6):
                mat = [list(r) for r in random_form(rng, m // 2).mat]
                whole = tuple(range(m))
                assert _sub_pfaffian(mat, whole, {}) == pfaffian(mat)
                assert pfaffian(mat) ** 2 == la.det_bareiss(mat)
                idx = tuple(sorted(rng.sample(whole, m - 2)))
                sub = [[mat[i][j] for j in idx] for i in idx]
                assert _sub_pfaffian(mat, idx, {}) == pfaffian(sub)

    def test_pfaffian_is_affine_in_the_last_slot(self):
        """Pf(M) = x Pf(M[:m-2, :m-2]) + Pf(M)|x=0 for x = M[m-2][m-1], which the walker solves."""
        rng = random.Random(17)
        for m in (4, 6, 8):
            for _ in range(6):
                mat = [list(r) for r in random_form(rng, m // 2).mat]
                mat[m - 2][m - 1] = mat[m - 1][m - 2] = 0
                rest = pfaffian(mat)
                coef = pfaffian([row[:m - 2] for row in mat[:m - 2]])
                for x in (-3, -1, 1, 2, 5):
                    mat[m - 2][m - 1], mat[m - 1][m - 2] = x, -x
                    assert pfaffian(mat) == x * coef + rest

    def test_odd_size_rejected(self):
        with pytest.raises(OddDimension):
            pfaffian([[0]])

    def test_not_antisymmetric_rejected(self):
        with pytest.raises(NotAntisymmetric):
            pfaffian([[0, 1], [1, 0]])


class TestMixedIntersection:
    def test_normalization_anchor(self):
        # pins the volume sign: the n-th power of the principal class is n!
        for n in range(1, 7):
            assert mixed_intersection([(theta(n), n)]) == factorial(n)

    def test_type22_against_principal(self):
        eta = type22_class()
        assert mixed_intersection([(eta, 1), (theta(4), 3)]) == 24
        assert mixed_intersection([(eta, 3), (theta(4), 1)]) == 0

    def test_multiplicity_sum_checked(self):
        with pytest.raises(MultiplicitySumMismatch):
            mixed_intersection([(theta(2), 1)])

    def test_oracle_agreement(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.choice([1, 2, 3])
            eta = random_form(rng, n)
            omega = random_form(rng, n)
            r = rng.randint(0, n)
            factors = [(eta, r), (omega, n - r)]
            assert mixed_intersection(factors) == mixed_intersection_oracle(factors)
            # the profile reads every r off one Pfaffian; each value against the oracle
            assert intersection_profile(eta).values == tuple(
                mixed_intersection_oracle([(eta, k), (theta(n), n - k)]) for k in range(1, n + 1))

    def test_profile_matches_per_r_mixed_intersection(self):
        rng = random.Random(13)
        for n in (4, 5, 6):
            for _ in range(3):
                eta = random_form(rng, n, bound=2)
                assert intersection_profile(eta).values == tuple(
                    mixed_intersection([(eta, r), (theta(n), n - r)]) for r in range(1, n + 1))

    def test_repeated_factor_equals_power(self):
        rng = random.Random(12)
        for _ in range(10):
            eta = random_form(rng, 2)
            split = mixed_intersection([(eta, 1), (eta, 1)])
            power = mixed_intersection([(eta, 2)])
            assert split == power


class TestProfile:
    def test_principal_profile(self):
        assert intersection_profile(theta(4)).values == (24, 24, 24, 24)

    def test_type22_profile(self):
        assert intersection_profile(type22_class()).values == (24, 16, 0, 0)

    def test_zero_profile(self):
        zero = TwoForm.from_coeffs(4, {})
        assert intersection_profile(zero).values == (0, 0, 0, 0)


class TestPrimitivity:
    def test_type22_is_primitive(self):
        assert is_primitive(type22_class())

    def test_multiple_is_not(self):
        assert not is_primitive(2 * type22_class())

    def test_standard_elliptic_is_primitive(self):
        from nsforge import elliptic_class

        assert is_primitive(elliptic_class(5, 3))

    def test_zero_rejected(self):
        with pytest.raises(ZeroForm):
            is_primitive(TwoForm.from_coeffs(2, {}))


class TestCheckClass:
    def test_principal_all_n(self):
        for n in range(1, 7):
            assert check_class(theta(n)) == (n, 1)

    def test_type22(self):
        assert check_class(type22_class()) == (2, 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_elliptic_on_surface(self, m):
        eta = TwoForm.from_coeffs(2, {(0, 3): -1, (1, 3): -m})
        assert check_class(eta) == (1, m)

    def test_imprimitive_rejected(self):
        with pytest.raises(NotPrimitive):
            check_class(2 * type22_class())

    def test_profile_mismatch_gives_none(self):
        # nonzero square: u = 2 with d = 0 slot cannot certify
        eta = TwoForm.from_coeffs(2, {(0, 1): 1, (2, 3): 1})
        assert check_class(eta) is None

    def test_matches_expected_profile_table(self):
        eta = type22_class()
        assert intersection_profile(eta).values == expected_profile(4, 2, 2)


class TestNaturalClassAndInvariants:
    def test_principal_maps_to_zero(self):
        assert natural_class(theta(3)).is_zero()

    def test_type22_value(self):
        eta = type22_class()
        expected = 24 * eta - 24 * theta(4)
        assert natural_class(eta) == expected

    def test_zero_fixed(self):
        assert natural_class(TwoForm.from_coeffs(3, {})).is_zero()

    def test_translation_invariance(self):
        eta = type22_class()
        for k in (-2, -1, 1, 3):
            shifted = eta + k * theta(4)
            assert natural_class(shifted) == natural_class(eta)
            for r in (2, 3, 4):
                assert q_r(shifted, r) == q_r(eta, r)


class TestQrAndClosedForm:
    def test_principal_vanishes(self):
        for r in (2, 3):
            assert q_r(theta(3), r) == 0

    def test_type22_frozen_values(self):
        eta = type22_class()
        assert q_r(eta, 2) == 192
        assert q_r(eta, 3) == 0
        assert q_r(eta, 4) == -110592

    def test_closed_form_matches_type22(self):
        eta = type22_class()
        for r in (2, 3, 4):
            assert q_r(eta, r) == f_formula(2, r, 4) * 2 ** r

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_closed_form_matches_elliptic_surface(self, m):
        eta = TwoForm.from_coeffs(2, {(0, 3): -1, (1, 3): -m})
        assert q_r(eta, 2) == f_formula(1, 2, 2) * m ** 2 == m * m

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_closed_form_matches_elliptic_higher_dimension(self, n, m):
        from nsforge import elliptic_class

        eta = elliptic_class(m, n)
        for r in range(2, n + 1):
            assert q_r(eta, r) == f_formula(1, r, n) * m ** r

    def test_range_checked(self):
        with pytest.raises(RangeError):
            q_r(theta(3), 1)
        with pytest.raises(RangeError):
            f_formula(1, 4, 3)

    def test_expansion_oracle(self):
        # q_r from the profile alone: (n! a - i1 t)^r paired against t^(n-r)
        eta = type22_class()
        n = 4
        prof = (factorial(n),) + intersection_profile(eta).values
        i1 = prof[1]
        for r in (2, 3, 4):
            total = sum(comb(r, k) * factorial(n) ** k * (-i1) ** (r - k) * prof[k]
                        for k in range(r + 1))
            expected = Fraction(-total, (r - 1) * factorial(n))
            assert q_r(eta, r) == expected


class TestModLCheck:
    def test_type22_passes(self):
        res = check_class_mod_L(type22_class(), 2, 2)
        assert res.congruence_ok and res.qr_ok and res.ok

    def test_translation_by_principal(self):
        res = check_class_mod_L(type22_class() + theta(4), 2, 2)
        assert res.ok

    def test_wrong_dimension_fails(self):
        res = check_class_mod_L(type22_class(), 1, 2)
        assert not res.qr_ok and not res.ok

    def test_qr_ok_matches_per_r_definition(self):
        # check_class_mod_L reads every q_r at once; q_r is the per-r definition
        from nsforge import elliptic_class

        rng = random.Random(17)
        forms = [type22_class(), type22_class() + theta(4), elliptic_class(2, 3),
                 TwoForm.from_coeffs(2, {(0, 3): -1, (1, 3): -3})]
        forms += [random_form(rng, n, bound=2) for n in (2, 2, 3, 3, 4)]
        forms += [act(random_symplectic(4, seed, 6), type22_class()) for seed in (1, 2)]
        seen = 0
        for eta in forms:
            if not is_primitive_mod_theta(eta):
                continue
            n = eta.n
            i1 = mixed_intersection([(eta, 1), (theta(n), n - 1)])
            for u in range(1, n + 1):
                for d in (1, 2, 3):
                    res = check_class_mod_L(eta, u, d)
                    assert res.qr_ok == all(q_r(eta, r) == f_formula(u, r, n) * d ** r
                                            for r in range(2, n + 1))
                    assert res.congruence_ok == ((i1 - factorial(n - 1) * u * d)
                                                 % factorial(n) == 0)
                    seen += res.qr_ok
        assert seen >= 6  # the certified forms pass at their own (u, d)

    def test_congruence_follows_from_qr_on_the_desk_probe(self):
        """Every n = 2 form with |a| <= 1, primitive mod theta, u <= 2, d <= 3: qr_ok => congruence_ok."""
        import itertools

        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        qr_ok = 0
        for vec in itertools.product((-1, 0, 1), repeat=len(pairs)):
            eta = TwoForm.from_coeffs(2, {p: a for p, a in zip(pairs, vec) if a})
            if eta.is_zero() or not is_primitive_mod_theta(eta):
                continue
            for u in (1, 2):
                for d in (1, 2, 3):
                    res = check_class_mod_L(eta, u, d)
                    assert res.congruence_ok or not res.qr_ok, (vec, u, d)
                    qr_ok += res.qr_ok
        assert qr_ok == 680

    def test_principal_is_imprimitive_mod_itself(self):
        assert not is_primitive_mod_theta(theta(4))
        with pytest.raises(NotPrimitiveModL):
            check_class_mod_L(theta(4), 4, 1)
