from fractions import Fraction

import pytest

from nsforge import (
    GluingSpec,
    PeriodMatrix,
    PolarizedFactor,
    QQi,
    TwoForm,
    analyze,
    check_class,
    check_kd_symplectic,
    complementary_type,
    glue,
    identity_spec,
    is_realizable,
    orbit_equivalent,
    standard_witness,
    symbolic_relations,
    theta,
    wedge_vanishes,
)
from nsforge import _intlinalg as la
from nsforge.errors import NotPrimitive, RangeError, TypeMismatch
from nsforge.humbert import singular_from_eta
from nsforge.riemann import tau_var_pairs
from test_kernel_pins import divisor_chains


def exact_tau(entries):
    return PeriodMatrix.exact(entries)


def i_times_identity(k):
    return exact_tau([[QQi(0, 1) if i == j else QQi(0) for j in range(k)] for i in range(k)])


class TestTorsionMarkings:
    def test_identity_is_symplectic(self):
        assert check_kd_symplectic(la.identity(2), (2,))
        assert check_kd_symplectic(la.identity(4), (2, 2))

    def test_swap_is_anti_symplectic(self):
        # the swap inverts the pairing; detectable once values leave {-1, 1},
        # so the order must exceed 2
        eps = [[0, 1], [1, 0]]
        assert not check_kd_symplectic(eps, (3,))
        assert not check_kd_symplectic([[0, 0, 1, 0], [0, 0, 0, 1],
                                        [1, 0, 0, 0], [0, 1, 0, 0]], (2, 4))

    def test_swap_collapses_at_order_two(self):
        # at order two, inverted and preserved pairings coincide
        assert check_kd_symplectic([[0, 1], [1, 0]], (2,))

    def test_ill_defined_rejected(self):
        # sends an order-2 generator to an order-4 one
        h = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert not check_kd_symplectic(h, (2, 4))

    def test_transvection_and_swap(self):
        assert check_kd_symplectic([[1, 0], [1, 1]], (2,))
        assert check_kd_symplectic([[0, 1], [-1, 0]], (3,))
        assert check_kd_symplectic([[2, 0], [0, 2]], (3,))


class TestGlueProduct:
    def test_two_elliptic_curves(self):
        x = PolarizedFactor(1, (1,), exact_tau([[QQi(0, 1)]]))
        y = PolarizedFactor(1, (1,), exact_tau([[QQi(0, 2)]]))
        tau, eta = glue(x, y, identity_spec(1))
        assert tau.rows == ((QQi(0, 1), QQi(0)), (QQi(0), QQi(0, 2)))
        assert eta == TwoForm.from_coeffs(2, {(0, 2): -1})

    def test_wrong_type_rejected(self):
        x = PolarizedFactor(1, (2,), exact_tau([[QQi(0, 1)]]))
        y = PolarizedFactor(1, (1,), exact_tau([[QQi(0, 2)]]))
        with pytest.raises(TypeMismatch):
            glue(x, y, identity_spec(1))

    def test_oversized_first_factor_rejected(self):
        with pytest.raises(RangeError):
            standard_witness(3, 2, (1, 1))


class TestGlueWithExponent:
    @pytest.mark.parametrize("m", [2, 3])
    def test_singular_relation_recovered(self, m):
        tau, eta = standard_witness(2, 1, (m,))
        assert check_class(eta) == (1, m)
        datum = singular_from_eta(eta)
        assert datum.m == m
        # the class relations vanish at the glued period matrix
        values = [tau.rows[k - 1][l - 1] for k, l in tau_var_pairs(2)]
        for poly in symbolic_relations(eta).polynomials:
            assert not poly.evaluate(values)

    def test_type22_family(self, eta0):
        tau, eta = standard_witness(4, 2, (2, 2))
        rep = analyze(eta)
        assert (rep.u, rep.d, rep.type_divisors) == (2, 2, (2, 2))
        assert orbit_equivalent(eta, eta0)

    def test_complement_is_other_factor(self):
        _, eta = standard_witness(3, 1, (2,))
        comp_report = analyze(analyze(eta).complement)
        assert comp_report.type_divisors == complementary_type(3, 1, (2,))

    def test_nontrivial_markings(self):
        x = PolarizedFactor(1, (2,), exact_tau([[QQi(Fraction(1, 2), 1)]]))
        y = PolarizedFactor(1, (2,), exact_tau([[QQi(Fraction(-1, 3), 2)]]))
        spec = GluingSpec(((1, 0), (1, 1)), ((1, 1), (0, 1)))
        tau, eta = glue(x, y, spec)
        assert check_class(eta) == (1, 2)
        assert wedge_vanishes(eta, tau)

    def test_marking_must_be_symplectic(self):
        x = PolarizedFactor(1, (3,), exact_tau([[QQi(0, 1)]]))
        y = PolarizedFactor(1, (3,), exact_tau([[QQi(0, 2)]]))
        bad = GluingSpec(((0, 1), (1, 0)), ((1, 0), (0, 1)))  # anti-symplectic f
        with pytest.raises(TypeMismatch):
            glue(x, y, bad)


class TestStandardWitness:
    def test_product_case(self):
        tau, eta = standard_witness(2, 1, (1,))
        assert eta == TwoForm.from_coeffs(2, {(0, 2): -1})
        assert tau.rows[0][0] == QQi(0, 1) and tau.rows[1][1] == QQi(0, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_elliptic_witnesses(self, n, m):
        tau, eta = standard_witness(n, 1, (m,))
        assert check_class(eta) == (1, m)
        assert wedge_vanishes(eta, tau)

    def test_surface_witness(self):
        tau, eta = standard_witness(4, 2, (2, 2))
        assert analyze(eta).type_divisors == (2, 2)
        assert wedge_vanishes(eta, tau)


class TestIsRealizable:
    def test_golden_class(self, eta0):
        res = is_realizable(eta0)
        assert res.tag == "ok" and res
        assert wedge_vanishes(eta0, res.tau)

    def test_principal_class(self):
        res = is_realizable(theta(3))
        assert res.tag == "ok"
        assert wedge_vanishes(theta(3), res.tau)

    def test_profile_failure(self):
        eta = TwoForm.from_coeffs(2, {(0, 1): 1})
        res = is_realizable(eta)
        assert res.tag == "ProfileFail" and not res

    def test_idempotence_failure(self):
        # profile passes at (2, 1) but the norm matrix is not idempotent
        eta = TwoForm.from_coeffs(2, {
            (0, 1): -1, (0, 2): -1, (0, 3): -1, (1, 2): -1, (1, 3): -1, (2, 3): 1,
        })
        res = is_realizable(eta)
        assert res.tag == "IdempotenceFail" and not res

    def test_imprimitive_rejected(self, eta0):
        with pytest.raises(NotPrimitive):
            is_realizable(2 * eta0)

    def test_witness_for_all_glued_types(self):
        for (n, u, divisors) in [(2, 1, (2,)), (3, 1, (3,)), (4, 2, (1, 2))]:
            _, eta = standard_witness(n, u, divisors)
            res = is_realizable(eta)
            assert res.tag == "ok"
            assert wedge_vanishes(eta, res.tau)

    def test_witness_above_half_dimension(self):
        # complements have u > n/2; realizability still constructs a witness
        from nsforge import complementary_class

        for (n, u, divisors) in [(3, 1, (2,)), (4, 1, (3,))]:
            _, eta = standard_witness(n, u, divisors)
            comp = complementary_class(eta)
            res = is_realizable(comp)
            assert res.tag == "ok"
            assert wedge_vanishes(comp, res.tau)

    def test_realizability_sweep_on_surfaces(self):
        # every certified surface class with small coefficients either yields
        # an exact witness or fails precisely at idempotence
        import itertools

        from nsforge import check_class, is_primitive

        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        vectors = list(itertools.product(range(-2, 3), repeat=6))
        tags = {"ok": 0, "IdempotenceFail": 0}
        for vec in vectors[::7]:
            if not any(vec):
                continue
            eta = TwoForm.from_coeffs(2, {p: a for p, a in zip(pairs, vec) if a})
            if not is_primitive(eta) or check_class(eta) is None:
                continue
            res = is_realizable(eta)
            tags[res.tag] += 1
            if res.tag == "ok":
                assert wedge_vanishes(eta, res.tau)
        assert tags["ok"] > 0 and tags["IdempotenceFail"] > 0

    def test_two_gates_decide_every_tag(self):
        """The tag is one of three, and ok exactly when the norm matrix verifies.

        Over the n = 2 enumeration (u <= 2, d <= 3, bound <= 2) and seeded
        images of every witness with n <= 5 and divisors <= 4, with their
        complements, no third gate fires.
        """
        from nsforge import (EnumerationSpec, act, enumerate_classes, norm_from_class,
                             random_symplectic)
        from nsforge.errors import NsforgeError

        classes = [e for u in (1, 2) for d in (1, 2, 3)
                   for e in enumerate_classes(EnumerationSpec(2, u, d, 2))]
        for n in range(2, 6):
            for u in range(1, n // 2 + 1):
                for divisors in divisor_chains(u, 4):
                    _, eta = standard_witness(n, u, divisors)
                    image = act(random_symplectic(n, len(classes), 6), eta)
                    classes += [image, divisors[-1] * theta(n) - image]
        tags = {}
        for eta in classes:
            tag = is_realizable(eta).tag
            try:
                verified = bool(norm_from_class(eta))
            except NsforgeError:
                verified = False
            assert tag in ("ok", "ProfileFail", "IdempotenceFail")
            assert (tag == "ok") == verified
            tags[tag] = tags.get(tag, 0) + 1
        assert tags["ok"] > 0 and tags["IdempotenceFail"] > 0
