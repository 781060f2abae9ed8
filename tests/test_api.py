"""Contract tests: the public names, the error codes, and the exact solver."""

from fractions import Fraction

import pytest

import nsforge
from nsforge import QQi, errors
from nsforge import _intlinalg as la

PUBLIC_NAMES = {
    "EnumerationSpec", "FrobeniusData", "GluingSpec", "IntegerLattice",
    "IntersectionProfile", "NormMatrix", "NsforgeError", "PeriodMatrix",
    "PolarizationType", "PolarizedFactor", "PrincipalClass", "QQi",
    "RealizabilityResult", "RelationSet", "SingularDatum", "SubvarietyReport",
    "SymplecticMatrix", "TwoForm", "act", "analyze", "check_class",
    "check_class_mod_L", "check_kd_symplectic", "class_from_norm",
    "complementary_class", "complementary_type", "elliptic_class",
    "elliptic_in_divisor", "enumerate_classes", "eta_from_singular", "f_formula",
    "frobenius_basis", "glue", "humbert_relation", "identity_spec",
    "intersection_profile", "is_primitive", "is_realizable", "is_symplectic",
    "mixed_intersection", "moebius", "natural_class", "norm_from_class",
    "orbit_equivalent", "pfaffian", "polynomial_certificate", "q_r",
    "random_symplectic", "residual_matrix", "saturate", "scan_ppav",
    "singular_datum", "singular_from_eta", "standard_witness",
    "symbolic_relations", "tangent_and_lattice", "theta", "wedge_vanishes",
    # submodules bound on the package by its own imports
    "construct", "errors", "exterior", "humbert", "normend", "riemann", "scan",
    "symplectic",
}

ERROR_CODES = {
    "Error", "BudgetExceeded", "Degenerate", "DimensionMismatch", "DiscriminantError",
    "MultiplicitySumMismatch", "NotAlternating", "NotAnalytic", "NotAntisymmetric",
    "NotEllipticClass", "NotIdempotent", "NotInSiegel", "NotPrimitive",
    "NotPrimitiveModL", "NotPrincipal", "NotSymmetricForJ", "OddDimension",
    "ParityError", "RangeError", "RankMismatch", "SizeMismatch", "TraceMismatch",
    "TypeExponentMismatch", "TypeMismatch", "WrongDimensions", "ZeroForm", "ZeroInput",
}


def test_public_names_are_pinned():
    assert len(nsforge.__all__) == 66
    assert set(nsforge.__all__) == PUBLIC_NAMES


def test_error_codes_are_pinned():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.NsforgeError)]
    codes = [c.code for c in classes]
    assert len(codes) == len(set(codes))
    assert set(codes) == ERROR_CODES


class TestSolveOverGaussianRationals:
    A = [[QQi(1, 2), QQi(Fraction(1, 3))], [QQi(0, -1), QQi(2, 1)]]

    def test_solution_satisfies_the_system(self):
        rhs_cols = [[QQi(1), QQi(0, 1)], [QQi(Fraction(-2, 5), 3), 7]]
        x_cols = la.solve_fraction(self.A, rhs_cols)
        product = la.mat_mul(self.A, la.transpose(x_cols))
        assert la.transpose(product) == rhs_cols
        assert all(isinstance(x, QQi) for col in x_cols for x in col)

    def test_inverse_round_trip(self):
        inv = la.transpose(la.solve_fraction(self.A, la.identity(2)))
        assert la.mat_mul(self.A, inv) == la.identity(2)
        assert la.mat_mul(inv, self.A) == la.identity(2)

    def test_singular_matrix_raises(self):
        first = [QQi(1, 1), QQi(2, Fraction(-1, 3))]
        singular = [first, [x * QQi(Fraction(1, 2), 5) for x in first]]
        with pytest.raises(ZeroDivisionError):
            la.solve_fraction(singular, la.identity(2))
