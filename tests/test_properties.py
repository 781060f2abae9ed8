"""Property tests of the class invariants and of gluing, on generated inputs.

- The profile, the (u, d) data and the type of a witness class do not change
  under the action of a random integral symplectic matrix.
- The complement of the complement is the class itself (u < n).
- ``glue`` of random valid markings and random Siegel factor periods returns
  (tau, eta) whose class certifies as (u, d, D) and vanishes on tau: the
  glued basis lands in the Siegel space on the one normalization it gets.

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
    act,
    analyze,
    check_class,
    check_kd_symplectic,
    complementary_type,
    glue,
    intersection_profile,
    random_symplectic,
    standard_witness,
    wedge_vanishes,
)
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


@settings(PROPERTY, max_examples=300)
@given(data=st.data(), config=st.sampled_from(GLUE_CONFIGS))
def test_glue_lands_in_the_siegel_space(data, config):
    n, u, divisors = config
    spec = GluingSpec(data.draw(markings(u, divisors)), data.draw(markings(u, divisors)))
    x = PolarizedFactor(u, divisors, data.draw(siegel_points(u)))
    y = PolarizedFactor(n - u, complementary_type(n, u, divisors), data.draw(siegel_points(n - u)))
    tau, eta = glue(x, y, spec)
    report = analyze(eta)
    assert (report.u, report.d, report.type_divisors) == (u, divisors[-1], divisors)
    assert wedge_vanishes(eta, tau)
