import random

import pytest

from nsforge import (
    IntegerLattice,
    act,
    frobenius_basis,
    intersection_profile,
    is_symplectic,
    norm_from_class,
    random_symplectic,
    saturate,
    theta,
)
from nsforge import _intlinalg as la
from nsforge.errors import Degenerate, NotAlternating, OddDimension, ZeroInput
from nsforge.symplectic import gram_matrix


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(la.identity(4))

    def test_standard_pairing_matrix(self):
        assert is_symplectic(la.standard_j(3))

    def test_scaling_fails(self):
        assert not is_symplectic([[2 if i == j else 0 for j in range(4)] for i in range(4)])

    def test_odd_rejected(self):
        with pytest.raises(OddDimension):
            is_symplectic([[1]])


class TestAction:
    def test_identity_action(self, eta0):
        assert act(la.identity(8), eta0) == eta0

    def test_principal_class_fixed(self):
        for seed in range(6):
            s = random_symplectic(3, seed, 12)
            assert act(s, theta(3)) == theta(3)

    def test_group_law(self, eta0):
        s1 = random_symplectic(4, 1, 8)
        s2 = random_symplectic(4, 2, 8)
        prod = la.mat_mul([list(r) for r in s1.mat], [list(r) for r in s2.mat])
        assert act(prod, eta0) == act(s1, act(s2, eta0))

    def test_raw_matrix_must_be_symplectic(self):
        with pytest.raises(NotAlternating):  # would scale theta by 4
            act([[2, 0], [0, 2]], theta(1))
        with pytest.raises(NotAlternating):  # a shear of the first half alone
            act([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], theta(2))

    def test_profile_invariance(self, eta0):
        base = intersection_profile(eta0).values
        for seed in range(8):
            s = random_symplectic(4, seed, 15)
            assert intersection_profile(act(s, eta0)).values == base


class TestRandomSymplectic:
    def test_word_zero_is_identity(self):
        assert [list(r) for r in random_symplectic(3, 9, 0).mat] == la.identity(6)

    def test_always_symplectic(self):
        for seed in range(10):
            s = random_symplectic(2, seed, 20)
            assert is_symplectic([list(r) for r in s.mat])

    def test_deterministic(self):
        a = random_symplectic(3, 123, 17)
        b = random_symplectic(3, 123, 17)
        assert a.mat == b.mat


class TestSaturate:
    def test_divides_content(self):
        lat = saturate([[2, 0, 0, 0]])
        assert lat.basis == ((1, 0, 0, 0),)

    def test_norm_image_of_type22(self, eta0):
        norm = norm_from_class(eta0)
        cols = [list(c) for c in zip(*norm.mat)]
        lat = saturate([c for c in cols if any(c)])
        assert lat.basis == (
            (1, -1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, -1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, -1, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, -1),
        )

    def test_full_rank_unimodular_is_everything(self):
        lat = saturate([[1, 1], [0, 1]])
        assert lat.basis == ((1, 0), (0, 1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            saturate([[0, 0]])

    def test_saturation_is_idempotent(self):
        rng = random.Random(3)
        for _ in range(15):
            dim = rng.randint(2, 6)
            k = rng.randint(1, dim)
            cols = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
            if not any(any(c) for c in cols):
                continue
            lat = saturate([c for c in cols if any(c)])
            again = saturate([list(b) for b in lat.basis])
            assert lat.basis == again.basis

    def test_membership(self):
        lat = saturate([[2, 2, 0]])
        assert [1, 1, 0] in lat
        assert [1, 0, 0] not in lat


class TestFrobenius:
    def test_unit_block(self):
        data = frobenius_basis([[0, 1], [-1, 0]])
        assert data.divisors == (1,)

    def test_scaled_block(self):
        data = frobenius_basis([[0, 2], [-2, 0]])
        assert data.divisors == (2,)

    def test_type22_restriction(self, eta0):
        basis = [
            [1, -1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, -1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, -1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, -1],
        ]
        gram = gram_matrix(la.standard_j(4), basis)
        assert frobenius_basis(gram).divisors == (2, 2)

    def test_gram_identity_random(self):
        rng = random.Random(5)
        for _ in range(20):
            k = rng.choice([1, 2, 3])
            m = la.zeros(2 * k, 2 * k)
            for i in range(2 * k):
                for j in range(i + 1, 2 * k):
                    m[i][j] = rng.randint(-5, 5)
                    m[j][i] = -m[i][j]
            if la.det_bareiss(m) == 0:
                continue
            data = frobenius_basis(m)
            u = [list(r) for r in data.u_matrix]
            got = la.mat_mul(la.mat_mul(la.transpose(u), m), u)
            k2 = len(data.divisors)
            target = la.zeros(2 * k2, 2 * k2)
            for idx, d in enumerate(data.divisors):
                target[idx][k2 + idx] = d
                target[k2 + idx][idx] = -d
            assert la.mat_eq(got, target)
            assert all(b % a == 0 for a, b in zip(data.divisors, data.divisors[1:]))
            assert abs(la.det_bareiss(u)) == 1

    def test_sign_independence(self, eta0):
        basis = [list(b) for b in
                 saturate([c for c in zip(*norm_from_class(eta0).mat) if any(c)]).basis]
        plus = frobenius_basis(gram_matrix(la.standard_j(4), basis))
        minus = frobenius_basis(gram_matrix(la.mat_scale(-1, la.standard_j(4)), basis))
        assert plus.divisors == minus.divisors

    def test_stray_entry_moves_into_the_pivot_pair(self):
        """Blocks 2 and 3 leave no entry off the (1, 2) pair, but 3 is not a multiple of 2:
        the stray row is added to the pair, and the divisors become (1, 6)."""
        g = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
        data = frobenius_basis(g)
        assert data.divisors == (1, 6)
        assert data.u_matrix == ((0, 0, 1, 3), (1, -3, 0, 0), (1, -2, 0, 0), (0, 0, 1, 2))
        u = [list(r) for r in data.u_matrix]
        assert la.mat_mul(la.mat_mul(la.transpose(u), g), u) == [
            [0, 0, 1, 0], [0, 0, 0, 6], [-1, 0, 0, 0], [0, -6, 0, 0]]

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            frobenius_basis([[0, 0], [0, 0]])

    def test_not_alternating_rejected(self):
        with pytest.raises(NotAlternating):
            frobenius_basis([[1, 0], [0, 1]])


class TestLatticeHelpers:
    def test_kernel_is_saturated(self):
        rng = random.Random(8)
        for _ in range(10):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
            ker = la.kernel_basis(rows)
            for v in ker:
                assert all(sum(r[i] * v[i] for i in range(5)) == 0 for r in rows)
            if ker:
                sat = la.saturation_basis(ker)
                assert sorted(map(tuple, sat)) == sorted(map(tuple, ker))

    def test_kernel_of_a_zero_row_is_the_identity_basis(self):
        """One zero row fixes the width, so an empty map needs no special case."""
        for cols in (1, 3, 6):
            assert la.kernel_basis([[0] * cols]) == [list(c) for c in zip(*la.identity(cols))]

    def test_saturation_of_a_full_rank_span_is_the_identity_basis(self):
        """No annihilator: the saturation is all of Z^dim."""
        for cols in ([[2, 0], [1, 3]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]):
            dim = len(cols[0])
            assert la.saturation_basis(cols) == [list(c) for c in zip(*la.identity(dim))]

    def test_solve_integer(self):
        a = [[2, 0], [0, 3]]
        assert la.solve_integer(a, [4, 9]) == [2, 3]
        assert la.solve_integer(a, [1, 0]) is None
