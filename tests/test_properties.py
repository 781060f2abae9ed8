"""Property tests of the class invariants and of gluing, on generated inputs.

- The profile, the (u, d) data and the type of a witness class do not change
  under the action of a random integral symplectic matrix.
- The complement of the complement is the class itself (u < n).
- The type read off the Smith invariants of M (``normend._smith_type``)
  equals the divisors of theta's Frobenius frame on the image.
- ``glue`` of random valid markings and random Siegel factor periods returns
  (tau, eta) whose class certifies as (u, d, D) and vanishes on tau: the
  glued basis lands in the Siegel space on the one normalization it gets.
- ``wedge_vanishes`` (the residual minors) agrees with the expansion of
  eta ^ dz_1 ^ ... ^ dz_n in ``tests/oracle.py``, on random classes on exact
  Siegel points and on glued pairs, vanishing or not.

The runs are derandomized, so the suite sees the same inputs every time.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nsforge import (  # noqa: E402
    GluingSpec,
    PeriodMatrix,
    PolarizedFactor,
    QQi,
    TwoForm,
    act,
    analyze,
    check_class,
    check_kd_symplectic,
    complementary_type,
    glue,
    intersection_profile,
    norm_from_class,
    random_symplectic,
    standard_witness,
    theta,
    wedge_vanishes,
)
from nsforge.normend import _image_type, _smith_type  # noqa: E402
from oracle import reference_wedge_vanishes  # noqa: E402
from test_exact_solves import GLUE_CONFIGS, WITNESS_GRID  # noqa: E402

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
WITNESSES = [standard_witness(n, u, typ)[1] for n, u, typ in WITNESS_GRID if n <= 4]


@st.composite
def witness_images(draw):
    """A witness class with n <= 4 and its image under a random symplectic word."""
    eta = draw(st.sampled_from(WITNESSES))
    s = random_symplectic(eta.n, draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 12)))
    return eta, act(s, eta)


@st.composite
def siegel_points(draw, k):
    """An exact k x k period matrix with Im tau = (A A^T + I) / m, so positive definite."""
    a = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(k)]
    m = draw(st.sampled_from((1, 2, 3, 6)))
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            im = Fraction(sum(x * y for x, y in zip(a[i], a[j])) + (i == j), m)
            re = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 5))))
            rows[i][j] = rows[j][i] = QQi(re, im)
    return PeriodMatrix.exact(rows)


@st.composite
def markings(draw, u, divisors):
    """A pairing-preserving marking of K(D): a symplectic word plus L times a small matrix."""
    last = divisors[-1]
    s = random_symplectic(u, draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 8)))
    h = tuple(tuple(x + last * draw(st.integers(-1, 1)) for x in row) for row in s.mat)
    assume(check_kd_symplectic(h, divisors))
    return h


@PROPERTY
@given(pair=witness_images())
def test_invariants_under_the_symplectic_action(pair):
    eta, moved = pair
    assert intersection_profile(moved).values == intersection_profile(eta).values
    assert check_class(moved) == check_class(eta)
    assert analyze(moved).type_divisors == analyze(eta).type_divisors


@PROPERTY
@given(pair=witness_images())
def test_complement_of_the_complement(pair):
    eta = pair[1]
    report = analyze(eta)
    assert report.u < eta.n
    back = analyze(report.complement)
    assert (back.u, back.d) == (eta.n - report.u, report.d)
    assert back.complement == eta


def glued(data, config):
    """``glue`` of drawn markings and drawn Siegel factor periods for one configuration."""
    n, u, divisors = config
    spec = GluingSpec(data.draw(markings(u, divisors)), data.draw(markings(u, divisors)))
    x = PolarizedFactor(u, divisors, data.draw(siegel_points(u)))
    y = PolarizedFactor(n - u, complementary_type(n, u, divisors), data.draw(siegel_points(n - u)))
    return glue(x, y, spec)


@PROPERTY
@given(pair=witness_images())
def test_smith_type_matches_the_frame(pair):
    for eta in pair:
        norm = norm_from_class(eta)
        assert _smith_type(norm.mat, norm.u, norm.d) == _image_type(norm)[1].divisors


@settings(PROPERTY, max_examples=300)
@given(data=st.data(), config=st.sampled_from(GLUE_CONFIGS))
def test_glue_lands_in_the_siegel_space(data, config):
    n, u, divisors = config
    tau, eta = glued(data, config)
    report = analyze(eta)
    assert (report.u, report.d, report.type_divisors) == (u, divisors[-1], divisors)
    assert wedge_vanishes(eta, tau)


def random_form(data, n):
    """A 2-form on Z^2n with coefficients in [-2, 2], possibly zero."""
    slots = [(i, j) for i in range(2 * n) for j in range(i + 1, 2 * n)]
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(slots), max_size=len(slots)))
    return TwoForm.from_coeffs(n, dict(zip(slots, coeffs)))


def assert_residual_matches_expansion(forms, tau):
    """``wedge_vanishes`` equals the oracle's wedge expansion on every nonzero form."""
    for eta in forms:
        if not eta.is_zero():
            assert wedge_vanishes(eta, tau) == reference_wedge_vanishes(eta, tau), (eta, tau)


@PROPERTY
@given(data=st.data(), n=st.sampled_from((1, 2, 3)))
def test_residual_matches_the_wedge_expansion_on_siegel_points(data, n):
    """A random class, a multiple of theta, which always vanishes, and their sum.

    Most random classes and sums do not vanish on tau.
    """
    tau = data.draw(siegel_points(n))
    eta = random_form(data, n)
    a = data.draw(st.integers(1, 3))
    assert_residual_matches_expansion([eta, a * theta(n), eta + a * theta(n)], tau)


@PROPERTY
@given(data=st.data(), config=st.sampled_from(GLUE_CONFIGS))
def test_residual_matches_the_wedge_expansion_on_glued_pairs(data, config):
    """The glued class vanishes; adding a random form to it mostly does not."""
    tau, eta = glued(data, config)
    assert_residual_matches_expansion([eta, eta + random_form(data, eta.n)], tau)
