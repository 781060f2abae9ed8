import json
from fractions import Fraction

import pytest

from nsforge import PeriodMatrix, QQi, TwoForm, elliptic_class, symbolic_relations, theta
from nsforge import jsonio
from nsforge.errors import DimensionMismatch, RangeError

from conftest import type22_class


class TestTwoFormCodec:
    def test_round_trip(self):
        eta = type22_class()
        again = jsonio.two_form_from_json(jsonio.two_form_to_json(eta))
        assert again == eta

    def test_matrix_field_accepted(self):
        eta = theta(2)
        obj = {"n": 2, "matrix": [list(r) for r in eta.mat]}
        assert jsonio.two_form_from_json(obj) == eta

    def test_matrix_and_coeffs_must_agree(self):
        eta = theta(2)
        obj = jsonio.two_form_to_json(eta)
        obj["matrix"] = [[0] * 4 for _ in range(4)]
        with pytest.raises(DimensionMismatch):
            jsonio.two_form_from_json(obj)

    def test_duplicate_coefficients_accumulate(self):
        obj = {"n": 2, "coeffs": [{"i": 1, "j": 3, "a": -2}, {"i": 1, "j": 3, "a": 1}]}
        assert jsonio.two_form_from_json(obj) == TwoForm.from_coeffs(2, {(0, 2): -1})


    @pytest.mark.parametrize("obj", [
        [[0, 1], [-1, 0]],
        "form",
        {"n": "2", "coeffs": []},
        {"n": 2, "coeffs": {"i": 1, "j": 3, "a": 1}},
        {"n": 2, "coeffs": [[1, 3, 1]]},
        {"n": 2, "coeffs": [{"i": 1, "j": 3}]},
        {"n": 2, "coeffs": [{"i": 1, "j": 3, "a": 1.5}]},
        {"n": 2, "coeffs": [{"i": 1, "j": 3, "a": True}]},
        {"n": 1, "matrix": [0, 1, -1, 0]},
        {"n": 1, "matrix": [[0, "1"], [-1, 0]]},
        {"n": 1, "matrix": [[0, 1, 0], [-1, 0]]},
    ])
    def test_malformed_documents_rejected(self, obj):
        with pytest.raises(DimensionMismatch):
            jsonio.two_form_from_json(obj)


class TestPeriodMatrixCodec:
    def test_exact_round_trip(self):
        tau = PeriodMatrix.exact([
            [QQi(Fraction(1, 3), 2), QQi(Fraction(-1, 2))],
            [QQi(Fraction(-1, 2)), QQi(0, Fraction(7, 5))],
        ])
        again = jsonio.period_matrix_from_json(jsonio.period_matrix_to_json(tau))
        assert again == tau

    def test_decimal_strings_parse_exactly(self):
        obj = {"n": 1, "backend": "exact", "entries": [[["0.25", "1.5"]]]}
        tau = jsonio.period_matrix_from_json(obj)
        assert tau.rows[0][0] == QQi(Fraction(1, 4), Fraction(3, 2))

    def test_float_round_trip(self):
        tau = PeriodMatrix.from_float([[0.5 + 1.25j, 0.1], [0.1, 2j]])
        blob = jsonio.dumps(jsonio.period_matrix_to_json(tau))
        again = jsonio.period_matrix_from_json(json.loads(blob))
        assert again == tau

    def test_deterministic_bytes(self):
        tau = PeriodMatrix.exact([[QQi(0, 1)]])
        a = jsonio.dumps(jsonio.period_matrix_to_json(tau))
        b = jsonio.dumps(jsonio.period_matrix_to_json(tau))
        assert a == b and a.endswith("\n")


    @pytest.mark.parametrize("obj", [
        [[["0", "1"]]],
        {"backend": "exact"},
        {"backend": "exact", "entries": []},
        {"backend": "exact", "entries": [["0", "1"]]},
        {"backend": "exact", "entries": [[["0", "1"], ["0", "0"]]]},
        {"n": 2, "backend": "exact", "entries": [[["0", "1"]]]},
        {"backend": "exact", "entries": [[["0", "1", "0"]]]},
        {"backend": "exact", "entries": [[["x", "1"]]]},
        {"backend": "float", "entries": [[[None, 1.0]]]},
        {"backend": "float", "entries": [[["x", 1.0]]]},
    ])
    def test_malformed_documents_rejected(self, obj):
        with pytest.raises(DimensionMismatch):
            jsonio.period_matrix_from_json(obj)

    def test_zero_denominator_rejected(self):
        obj = {"n": 1, "backend": "exact", "entries": [[["0", "1/0"]]]}
        with pytest.raises(RangeError):
            jsonio.period_matrix_from_json(obj)


class TestRelationCodec:
    def test_monomials_structure(self):
        rel = symbolic_relations(elliptic_class(2, 3))
        blob = jsonio.relation_set_to_json(rel)
        assert blob["n"] == 3
        linear = blob["polynomials"][0]["monomials"]
        # every monomial carries 1-based variable pairs [k, l] and an integer
        for mono in linear:
            assert isinstance(mono["c"], int)
            for k, l in mono["vars"]:
                assert 1 <= k <= l <= 3
        flattened = {(tuple(map(tuple, m["vars"])), m["c"])
                     for p in blob["polynomials"] for m in p["monomials"]}
        assert (((1, 1),), 1) in flattened and (((1, 2),), 2) in flattened
