"""The characteristic-polynomial kernel and the invariants read off it, against their references.

``_intlinalg.charpoly`` (Faddeev--LeVerrier over Z) serves every theta-pencil
(``intersection_profile``, ``check_class``, ``check_class_mod_L``, ``q_r``)
and the norm certificate; ``normend._image_type`` reads the image lattice as
ker(N - d I).  The references are the symbolic Pfaffian pencil, the
point-by-point determinant test and the saturated column span in
``tests/oracle.py``.
"""

import itertools
import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

from nsforge import (
    EnumerationSpec,
    NormMatrix,
    TwoForm,
    act,
    check_class,
    enumerate_classes,
    intersection_profile,
    is_primitive,
    mixed_intersection,
    natural_class,
    norm_from_class,
    polynomial_certificate,
    q_r,
    random_symplectic,
    theta,
)
from nsforge import _intlinalg as la
from nsforge import jsonio
from nsforge.errors import NsforgeError
from nsforge.normend import _image_type

from oracle import reference_char_ok, reference_image_basis, reference_pencil_numbers

BASE_CLASSES = Path(__file__).resolve().parents[1] / "perfbench" / "base_classes.json"


def _seeded_forms():
    """2,060 forms, n = 1..7, |a| <= 3, from a tenth of the slots filled to all of them."""
    rng = random.Random(2015)
    forms = []
    for n, count in ((1, 300), (2, 400), (3, 400), (4, 400), (5, 250), (6, 180), (7, 130)):
        m = 2 * n
        for _ in range(count):
            density = rng.choice((0.1, 0.25, 0.5, 1.0))
            forms.append(TwoForm.from_coeffs(n, {
                (i, j): rng.randint(-3, 3)
                for i in range(m) for j in range(i + 1, m) if rng.random() < density}))
    return forms


def _base_images():
    """Every certified base class of the benchmark with three symplectic images of it."""
    out = []
    for entry in json.loads(BASE_CLASSES.read_text())["classes"]:
        eta = jsonio.two_form_from_json(entry["class"])
        n = eta.n
        out.append((eta, entry["u"], entry["d"]))
        out += [(act(random_symplectic(n, seed, 5), eta), entry["u"], entry["d"])
                for seed in (1, 2, 3)]
    return out


def _surface_forms():
    """The primitive unit-coefficient surface forms whose profile passes: (eta, (u, d), certified)."""
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    out = []
    for values in itertools.product((-1, 0, 1), repeat=len(pairs)):
        eta = TwoForm.from_coeffs(2, {p: a for p, a in zip(pairs, values) if a})
        if eta.is_zero() or not is_primitive(eta) or (got := check_class(eta)) is None:
            continue
        try:
            norm_from_class(eta, *got)
            out.append((eta, got, True))
        except NsforgeError:
            out.append((eta, got, False))
    return out


def _raw_norm(eta, u, d):
    return NormMatrix(eta.n, la.mat_freeze(la.mat_mul(la.standard_j(eta.n), eta.mat)), u, d)


def test_charpoly_is_det_of_s_minus_a():
    """Every coefficient list, at every length k, on integer matrices that are not J-symmetric."""
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(1, 8)
        density = rng.choice((0.15, 0.5, 1.0))
        a = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(m)]
             for _ in range(m)]
        full = la.charpoly(a, m)
        for s in range(-2, m + 1):
            assert sum(c * s ** (m - k) for k, c in enumerate(full)) == la.det_bareiss(
                [[(s if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(a)])
        assert all(la.charpoly(a, k) == full[:k + 1] for k in range(m))


def test_profile_matches_pfaffian_pencil():
    forms = _seeded_forms() + [eta for eta, _, _ in _base_images()]
    assert len(forms) >= 2000 and {eta.n for eta in forms} == set(range(1, 8))
    for eta in forms:
        assert intersection_profile(eta).values == tuple(reference_pencil_numbers(eta)[1:]), eta


def test_natural_class_matches_profile():
    """The trace formula for eta . theta^(n-1) against the first profile value."""
    for eta in _seeded_forms():
        n = eta.n
        i1 = intersection_profile(eta).values[0]
        assert natural_class(eta) == factorial(n) * eta - i1 * theta(n), eta


def test_q_r_matches_mixed_intersection():
    rng = random.Random(31)
    forms = [eta for eta in _seeded_forms() if 2 <= eta.n <= 5 and not eta.is_zero()]
    for eta in rng.sample(forms, 150) + [eta for eta, _, _ in _base_images() if eta.n <= 5]:
        n = eta.n
        nat = natural_class(eta)
        for r in range(2, n + 1):
            inter = mixed_intersection([(nat, r), (theta(n), n - r)])
            assert q_r(eta, r) == Fraction(-inter, (r - 1) * factorial(n)), (eta, r)


def test_polynomial_certificate_matches_point_evaluation():
    norms = [norm_from_class(eta, u, d) for eta, u, d in _base_images()]
    surface = _surface_forms()
    assert sum(not certified for _, _, certified in surface) == 32
    norms += [norm_from_class(eta, *got) for eta, got, certified in surface if certified]
    norms += [_raw_norm(eta, *got) for eta, got, certified in surface if not certified]
    # a certified N under a wrong (u, d): the exponent, the dimension, or both
    norms += [NormMatrix(nm.n, nm.mat, u, d) for nm in norms[:64:4]
              for u, d in ((nm.u, nm.d + 1), (nm.n - nm.u, nm.d), (nm.n, 1))
              if (u, d) != (nm.u, nm.d)]
    verdicts = []
    for norm in norms:
        char_ok = polynomial_certificate(norm)["char_ok"]
        assert char_ok == reference_char_ok(norm), norm
        verdicts.append(char_ok)
    assert True in verdicts and False in verdicts


def test_image_type_reads_the_saturated_image():
    norms = [norm_from_class(eta, u, d) for eta, u, d in _base_images()]
    hits = enumerate_classes(EnumerationSpec(2, 1, 2, 2, require_idempotent=True))
    norms += [norm_from_class(eta, 1, 2) for eta in hits]
    assert len(norms) == 64 + 244
    for norm in norms:
        assert _image_type(norm)[0].basis == reference_image_basis(norm), norm
