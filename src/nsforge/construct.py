"""Building non-simple principally polarized period matrices by gluing.

Two polarized factors of complementary types are glued along the graph of an
anti-symplectic identification of their torsion groups; the product form
descends to a principal one on the glued lattice.  Everything is exact and
over Z: ``riemann._normalized_periods`` solves the period matrix from the
factors' stored integer blocks (q, A, B) in one fraction-free elimination,
the class of the first factor is the pullback of its block of the product
form, and the round trip through the class machinery is verified.
"""

from dataclasses import dataclass
from math import lcm, prod

from . import _intlinalg as la
from .errors import (
    NotPrimitive,
    NotPrincipal,
    NsforgeError,
    RangeError,
    SizeMismatch,
    TypeMismatch,
)
from .exterior import TwoForm, check_class, is_primitive, theta
from .normend import _image_type, _smith_type, norm_from_class
from .riemann import EXACT, PeriodMatrix, _normalized_periods, wedge_vanishes
from .symplectic import frobenius_basis, gram_matrix


@dataclass(frozen=True)
class PolarizationType:
    divisors: tuple

    def __post_init__(self):
        if not self.divisors or any(d < 1 for d in self.divisors):
            raise TypeMismatch("type divisors must be positive")
        for a, b in zip(self.divisors, self.divisors[1:]):
            if b % a != 0:
                raise TypeMismatch("divisors must form a divisibility chain")


def complementary_type(n, u, divisors):
    """Pad a length-u type with ones to the complementary length n - u."""
    if len(divisors) != u or u > n - u:
        raise TypeMismatch("need len(D) = u <= n - u")
    return (1,) * (n - 2 * u) + tuple(divisors)


@dataclass(frozen=True)
class PolarizedFactor:
    """A polarized factor: lattice columns (tau | diag(D)) with the type-D form."""

    dim: int
    divisors: tuple
    tau: PeriodMatrix

    def __post_init__(self):
        PolarizationType(self.divisors)
        if len(self.divisors) != self.dim:
            raise TypeMismatch("type length must equal the dimension")
        if self.tau.n != self.dim:
            raise SizeMismatch("period matrix size must equal the dimension")
        if self.tau.backend != EXACT:
            raise RangeError("gluing runs on the exact backend")


@dataclass(frozen=True)
class GluingSpec:
    """Markings of the torsion group K(D), as integer matrices on generators."""

    f: tuple
    g: tuple


def identity_spec(u):
    eye = la.mat_freeze(la.identity(2 * u))
    return GluingSpec(eye, eye)


def _torsion_moduli(divisors):
    return list(divisors) + list(divisors)


def _well_defined(h, moduli):
    m = len(moduli)
    if len(h) != m or any(len(r) != m for r in h):
        raise SizeMismatch("marking size must be twice the type length")
    for j in range(m):
        for i in range(m):
            if (h[i][j] * moduli[j]) % moduli[i] != 0:
                return False
    return True


def check_kd_symplectic(h, divisors):
    """True iff h is a well-defined pairing-preserving map of K(D).

    With L the last divisor of D (the lcm of the chain), L times the torsion
    pairing is the integer Gram G of the type L / D, and h preserves the
    pairing iff h^T G h = G mod L.
    """
    PolarizationType(tuple(divisors))
    h = [list(r) for r in h]
    if not _well_defined(h, _torsion_moduli(divisors)):
        return False
    scale = divisors[-1]
    g = la.type_form([scale // d for d in divisors])
    moved = la.mat_mul(la.mat_mul(la.transpose(h), g), h)
    return all((x - y) % scale == 0 for rows in zip(moved, g) for x, y in zip(*rows))


def _solve_torsion(g, moduli, target):
    """x with g x = target in the torsion group, or None."""
    m = len(moduli)
    aug = [[g[i][j] for j in range(m)] + [moduli[i] if k == i else 0 for k in range(m)]
           for i in range(m)]
    sol = la.solve_integer(aug, list(target))
    if sol is None:
        return None
    return [sol[j] % moduli[j] for j in range(m)]


def _swap_halves(vec):
    u = len(vec) // 2
    return list(vec[u:]) + list(vec[:u])


def _frame_columns(cols, frame):
    """The columns B U of a Frobenius frame of the columns B, in (f | e) order.

    U^T G U = [[0, D], [-D, 0]] for the Gram G of B, so the swapped columns
    pair as [[0, -D], [D, 0]], the type form on a factor basis.
    """
    moved = la.mat_mul(la.transpose(cols), [list(r) for r in frame.u_matrix])
    return _swap_halves(la.transpose(moved))


def _square_periods(k):
    """The k x k period matrix i I: the integer block (1, 0, I)."""
    return PeriodMatrix(k, EXACT, 1, la.mat_freeze(la.zeros(k, k)), la.mat_freeze(la.identity(k)))


def _complex_period_block(factors):
    """Re and Im of q P, P the block diagonal of the (tau_f | diag(D_f)), q the lcm of the q_f."""
    n = sum(f.dim for f in factors)
    q = lcm(*(f.tau.q for f in factors))
    re, im = la.zeros(n, 2 * n), la.zeros(n, 2 * n)
    row = 0
    for f in factors:
        k, scale = f.dim, q // f.tau.q
        for i in range(k):
            re[row + i][2 * row:2 * row + k] = [scale * x for x in f.tau.re[i]]
            im[row + i][2 * row:2 * row + k] = [scale * x for x in f.tau.im[i]]
            re[row + i][2 * row + k + i] = q * f.divisors[i]
        row += k
    return re, im


def _tau_from_basis(p_parts, c_num):
    """Read the period matrix off a symplectic basis in complex coordinates.

    ``p_parts`` are Re and Im of q P for the factor periods P, and ``c_num``
    holds integer multiples of the basis columns; both scales cancel in the
    normalization, so neither is tracked.  With q P C split into halves
    (E | F), the period matrix solves F tau = E, over Z in its real form.
    """
    return _normalized_periods(*(la.mat_mul(part, c_num) for part in p_parts))


def glue(x_factor, y_factor, spec):
    """Glue two polarized factors along their torsion graph.

    Returns (tau, eta): the period matrix of the glued principally polarized
    variety and the class of the embedded first factor X.  With d the
    exponent, the class is E(d pi_X ., .), the product form's X block pulled
    back to the glued basis and scaled by d.  It is re-certified (profile,
    norm, type) and the vanishing condition checked exactly before returning.
    """
    u = x_factor.dim
    v = y_factor.dim
    n = u + v
    if u > v:
        raise TypeMismatch("the first factor must have dimension at most n/2")
    d_list = x_factor.divisors
    if tuple(y_factor.divisors) != complementary_type(n, u, d_list):
        raise TypeMismatch(
            f"second factor type {y_factor.divisors} is not complementary to {d_list}")
    f = [list(r) for r in spec.f]
    g = [list(r) for r in spec.g]
    if len(f) != 2 * u or len(g) != 2 * u:
        raise SizeMismatch("markings must be 2u x 2u")
    if not check_kd_symplectic(f, d_list) or not check_kd_symplectic(g, d_list):
        raise TypeMismatch("markings must preserve the torsion pairing")

    moduli = _torsion_moduli(d_list)
    d = d_list[-1]  # the exponent: the lcm of a divisor chain is its last divisor
    m2n = 2 * n
    # columns: 2n scaled unit vectors plus the scaled graph lifts
    cols = [[d if r == c else 0 for r in range(m2n)] for c in range(m2n)]
    for j in range(2 * u):
        if moduli[j] == 1:
            continue
        s = _swap_halves([f[i][j] % moduli[i] for i in range(2 * u)])  # f on generator j
        phi = _solve_torsion(g, moduli, s)
        assert phi is not None, "internal: validated marking is not invertible"
        w = [0] * m2n
        # X-side lift: the torsion slot j sits over the same lattice slot
        w[j] = d // moduli[j]
        # Y-side lift of phi over the nontrivial slots of the padded type
        for i in range(u):
            di = d_list[i]
            if phi[i] % di:
                w[2 * u + (v - u) + i] = (phi[i] % di) * (d // di)
            if phi[u + i] % di:
                w[2 * u + v + (v - u) + i] = (phi[u + i] % di) * (d // di)
        cols.append(w)
    basis = la.lattice_basis(cols)
    assert len(basis) == m2n, "internal: glued lattice is not full rank"
    b_int = la.transpose(basis)  # columns scaled by d

    gram_x = la.type_form(d_list)
    product = ([row + [0] * (2 * v) for row in gram_x]
               + [[0] * (2 * u) + row for row in la.type_form(y_factor.divisors)])
    raw = la.mat_mul(la.mat_mul(la.transpose(b_int), product), b_int)
    if any(x % (d * d) for row in raw for x in row):
        raise NotPrincipal("graph lifts are not isotropic for the product form")
    gram_a = [[x // (d * d) for x in row] for row in raw]
    # index of the glued lattice over the product lattice
    index = abs(la.det_bareiss(b_int)) * prod(d_list) ** 2
    assert index == d ** m2n, "internal: glued index mismatch"

    frame = frobenius_basis(gram_a)
    if any(x != 1 for x in frame.divisors):
        raise NotPrincipal(f"descended form has type {frame.divisors}")
    # the glued basis B W with W^T gram_a W = [[0, -I], [I, 0]], the factors' sign
    # convention, which the Riemann relations put in the Siegel space
    c_num = la.transpose(_frame_columns(basis, frame))
    tau = _tau_from_basis(_complex_period_block([x_factor, y_factor]), c_num)

    # the class E(d pi_X ., .) of X: d C^T diag(G_X, 0) C for the basis C = c_num / d,
    # where only the X rows of C meet the block G_X
    x_rows = c_num[:2 * u]
    num = la.mat_mul(la.mat_mul(la.transpose(x_rows), gram_x), x_rows)
    assert not any(x % d for row in num for x in row), "internal: glued class is not integral"
    eta = TwoForm.from_matrix(n, [[x // d for x in row] for row in num])

    norm = norm_from_class(eta)
    got = (norm.u, norm.d, _smith_type(norm.mat, norm.u, norm.d))
    assert got == (u, d, tuple(d_list)), f"internal: glued class certifies as {got}"
    assert wedge_vanishes(eta, tau), "internal: glued class fails the vanishing test"
    return tau, eta


def standard_witness(n, u, divisors):
    """Glue default factors: identity markings and square-lattice periods."""
    divisors = tuple(divisors)
    if not 1 <= u <= n - u:
        raise RangeError("need 1 <= u <= n - u; take the complement otherwise")
    if len(divisors) != u:
        raise TypeMismatch("type length must equal u")
    x_factor = PolarizedFactor(u, divisors, _square_periods(u))
    y_factor = PolarizedFactor(n - u, complementary_type(n, u, divisors), _square_periods(n - u))
    return glue(x_factor, y_factor, identity_spec(u))


@dataclass(frozen=True)
class RealizabilityResult:
    tau: object  # PeriodMatrix or None
    tag: str  # "ok" | "ProfileFail" | "IdempotenceFail"

    def __bool__(self):
        return self.tau is not None


def is_realizable(eta):
    """Decide realizability by constructing a witness period matrix.

    Returns a RealizabilityResult; on success the witness satisfies the
    vanishing condition exactly.  A failure is tagged by the first of two gates
    the class misses: the profile, or the idempotence of its norm matrix N.
    Nothing fails past them: N is theta-self-adjoint with N^2 = d N, so over
    Q its image and kernel are theta-orthogonal complements, theta restricts
    nondegenerately to both and both Frobenius frames exist; the class is
    primitive, so s_1 = 1 and the image type's largest divisor is d.
    """
    if not is_primitive(eta):
        raise NotPrimitive("realizability is defined for primitive classes")
    got = check_class(eta)
    if got is None:
        return RealizabilityResult(None, "ProfileFail")
    u, d = got
    n = eta.n
    try:
        norm = norm_from_class(eta, u, d)
    except NsforgeError:
        return RealizabilityResult(None, "IdempotenceFail")
    image, frame = _image_type(norm)
    frames = [(image.basis, frame)]
    if u < n:
        kernel = la.kernel_basis([list(r) for r in norm.mat])
        frames.append((kernel, frobenius_basis(gram_matrix(theta(n).mat, kernel))))

    # image and kernel as the factors (i I | diag(D)) of type D under -J, in their (f | e) frames
    full = la.transpose([col for cols, f in frames for col in _frame_columns(cols, f)])
    p_parts = _complex_period_block(
        [PolarizedFactor(len(f.divisors), f.divisors, _square_periods(len(f.divisors)))
         for _, f in frames])
    # express the standard basis in factor coordinates: the adjugate of ``full``, up to scale
    tau = _tau_from_basis(p_parts, la.transpose(la.solve_bareiss(full, la.identity(2 * n))[1]))
    assert wedge_vanishes(eta, tau), "internal: witness fails the vanishing test"
    return RealizabilityResult(tau, "ok")
