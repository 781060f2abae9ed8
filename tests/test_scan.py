import random
import types

import pytest

from nsforge import (
    EnumerationSpec,
    PeriodMatrix,
    TwoForm,
    act,
    check_class,
    elliptic_class,
    enumerate_classes,
    is_primitive,
    moebius,
    orbit_equivalent,
    random_symplectic,
    scan_ppav,
    standard_witness,
    theta,
)
from nsforge import _intlinalg as la
from nsforge import exterior, normend, riemann, scan, symplectic
from nsforge.errors import BudgetExceeded, RangeError

from oracle import pairing, reference_enumerate, reference_lattice_walk
from test_certify_once import _patch_every_binding


class TestEnumerate:
    def test_surface_unit_classes(self):
        classes = enumerate_classes(EnumerationSpec(2, 1, 1, 1))
        expected_members = [
            TwoForm.from_coeffs(2, {(0, 2): -1}),
            TwoForm.from_coeffs(2, {(1, 3): -1}),
            TwoForm.from_coeffs(2, {(0, 2): -1, (1, 2): 1}),
        ]
        for member in expected_members:
            assert member in classes
        for eta in classes:
            assert is_primitive(eta)
            assert check_class(eta) == (1, 1)

    def test_trace_pigeonhole_empty(self):
        assert enumerate_classes(EnumerationSpec(2, 1, 5, 1)) == []

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            enumerate_classes(EnumerationSpec(4, 2, 2, 1))

    def test_node_budget_bounds_box_walks(self, monkeypatch):
        """The box is the identity lattice: enumeration and the float scan count their nodes."""
        monkeypatch.setattr(scan, "_LATTICE_NODE_BUDGET", 50)
        with pytest.raises(BudgetExceeded, match="budget of 50 nodes"):
            enumerate_classes(EnumerationSpec(2, 1, 2, 3))
        with pytest.raises(BudgetExceeded, match="budget of 50 nodes"):
            scan_ppav(PeriodMatrix.from_float([[1j, 0], [0, 2j]]), 1, 1, 2)

    @pytest.mark.parametrize("value", ["1e9", "", "lots"])
    def test_malformed_budget_is_a_range_error(self, monkeypatch, value):
        """A budget that is not an integer is refused, not replaced by the default."""
        monkeypatch.setenv("NSFORGE_BUDGET", value)
        with pytest.raises(RangeError, match="NSFORGE_BUDGET"):
            enumerate_classes(EnumerationSpec(2, 1, 1, 1))
        with pytest.raises(RangeError, match="NSFORGE_BUDGET"):
            scan_ppav(PeriodMatrix.from_float([[1j, 0], [0, 2j]]), 1, 1, 1)

    def test_region_guard(self):
        with pytest.raises(RangeError):
            enumerate_classes(EnumerationSpec(5, 1, 1, 1))
        with pytest.raises(RangeError):
            enumerate_classes(EnumerationSpec(2, 1, 1, 4))

    @pytest.mark.parametrize("u,d,typ", [(1, 2, (3,)), (1, 2, (1,)), (1, 2, (2, 2)), (1, 2, (4,)),
                                         (1, 2, (0,)), (1, 2, (-2,)), (2, 6, (4, 6)),
                                         (2, 6, (0, 6)), (2, 2, (2,))])
    def test_impossible_type_is_refused(self, u, d, typ):
        """A required type is u positive divisors, each dividing the next, ending in d."""
        with pytest.raises(RangeError, match="require_type"):
            EnumerationSpec(2, u, d, 3, require_type=typ)

    def test_pruning_soundness(self):
        spec = EnumerationSpec(2, 1, 1, 1)
        assert enumerate_classes(spec) == reference_enumerate(spec, prune=False)

    def test_n3_lattice_walks_agree_with_and_without_prefilters(self, monkeypatch):
        """Trace, rank and the last-slot Pfaffian solve drop no n = 3 class in either mode.

        The pruned walker agrees with the oracle's unpruned lattice walk, which
        certifies every box point of the lattice alone.  Each lattice is
        spanned by bounded classes found by sampling: (2, 1) profiles with and
        without an idempotent norm, (1, 1) and (1, 2) ones.
        """
        spans = [
            [[-1, 0, -1, -1, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 1], [0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0],
             [0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0]],
            [[0, -1, -1, 0, 0, 0, 0, -1, 1, 1, -1, 0, 0, -1, 0], [0, 0, -1, 0, 0, 1, 0, -1, 0, -1, 0, 0, 0, 0, 0],
             [0, 1, -1, 1, -1, 0, 0, 0, 0, 0, 0, -1, 1, 1, 0], [1, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 0, 0, 0],
             [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0]],
            [[0, 0, 0, 1, 0, 0, 0, -1, 1, 0, 0, -1, 0, 0, 0], [0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0],
             [0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 1, -1, 0, 0, 1], [0, -1, 0, 1, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0, 0],
             [0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]],
        ]
        coefs = []
        original = scan._sub_pfaffian

        def recorded(mat, idx, memo):
            value = original(mat, idx, memo)
            if len(idx) == 4:  # the coefficient Pf(M[:4, :4]) of the last slot
                coefs.append(value)
            return value

        monkeypatch.setattr(scan, "_sub_pfaffian", recorded)
        profile_u2_hits = 0
        for span in spans:
            lattice = la.lattice_basis(span)
            assert len(lattice) <= 6
            for u in (1, 2):
                for d in (1, 2):
                    for idempotent in (False, True):
                        pruned = [vec for vec, _ in scan._walk(3, u, d, 1, idempotent, lattice)]
                        assert sorted(pruned) == reference_lattice_walk(3, u, d, 1, idempotent, span)
                        if u == 2 and not idempotent:
                            profile_u2_hits += len(pruned)
        assert profile_u2_hits > 0
        assert 0 in coefs and any(coefs)

    def test_profile_only_keeps_rank_four_unit_class_at_n3(self):
        """n - u = 2: a (1, 1) profile does not bound the rank by 2u, so no rank prune drops it."""
        eta = TwoForm.from_coeffs(3, {(0, 3): -1, (1, 2): -1, (1, 4): -1, (1, 5): -1,
                                      (2, 5): 1, (4, 5): 1})
        assert check_class(eta) == (1, 1) and la.rank_int(eta.mat) == 4
        line = [-a for a in eta.coefficient_vector()]  # the walk's echelon pivot is positive
        assert [vec for vec, _ in scan._walk(3, 1, 1, 1, False, [line])] == [tuple(eta.coefficient_vector())]

    def test_partition_determinism(self, fake_pool):
        spec = EnumerationSpec(2, 1, 1, 1)
        full = enumerate_classes(spec)
        for jobs in (2, 3):
            assert enumerate_classes(spec, jobs) == full
        assert fake_pool == [2, 3]

    def test_idempotence_filter(self):
        spec_all = EnumerationSpec(2, 2, 1, 1)
        spec_idem = EnumerationSpec(2, 2, 1, 1, require_idempotent=True)
        all_classes = enumerate_classes(spec_all)
        idem_classes = enumerate_classes(spec_idem)
        # the non-idempotent profile-passing forms at this bound are dropped
        assert len(idem_classes) < len(all_classes)
        assert all(c in all_classes for c in idem_classes)

    def test_profile_does_not_imply_idempotence(self):
        # experimental finding, frozen: among the 119 primitive surface forms
        # with unit coefficients whose profile certifies, 32 fail the norm
        # idempotence test, and every failure claims the full-class data
        # (u, d) = (2, 1); the single idempotent there is the principal class
        import itertools

        from nsforge import norm_from_class
        from nsforge.errors import NsforgeError

        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        tallies = {}
        for vec in itertools.product(range(-1, 2), repeat=6):
            if not any(vec):
                continue
            eta = TwoForm.from_coeffs(2, {p: a for p, a in zip(pairs, vec) if a})
            if not is_primitive(eta):
                continue
            got = check_class(eta)
            if got is None:
                continue
            idem_ok = True
            try:
                norm_from_class(eta, *got)
            except NsforgeError:
                idem_ok = False
            key = (got, idem_ok)
            tallies[key] = tallies.get(key, 0) + 1
        assert tallies == {
            ((1, 1), True): 66,
            ((1, 2), True): 20,
            ((2, 1), True): 1,
            ((2, 1), False): 32,
        }

    def test_type_filter(self):
        spec = EnumerationSpec(2, 2, 1, 1, require_type=(1, 1))
        for eta in enumerate_classes(spec):
            from nsforge import analyze

            assert analyze(eta).type_divisors == (1, 1)


class TestOrbitEquivalence:
    def test_moved_class(self, eta0):
        for seed in range(4):
            moved = act(random_symplectic(4, seed, 10), eta0)
            assert orbit_equivalent(eta0, moved)

    def test_glued_partner(self, eta0):
        _, glued = standard_witness(4, 2, (2, 2))
        assert orbit_equivalent(eta0, glued)

    def test_different_exponents(self):
        assert not orbit_equivalent(elliptic_class(2, 2), elliptic_class(3, 2))

    def test_different_dimensions(self):
        """Classes on Z^6 and Z^4 with the same (u, d, type) lie in no common orbit."""
        assert not orbit_equivalent(standard_witness(3, 1, (2,))[1], standard_witness(2, 1, (2,))[1])
        assert not orbit_equivalent(theta(2), theta(3))


def _type_choices(u, d):
    """Nondecreasing divisor chains of length u ending in d: the types a (u, d) class can have."""
    divisors = [k for k in range(1, d + 1) if d % k == 0]
    chains = [(d,)]
    for _ in range(u - 1):
        chains = [(k,) + c for c in chains for k in divisors if c[0] % k == 0]
    return chains


ENUM_GRID = [(2, u, d, b) for u in (1, 2) for d in (1, 2, 3) for b in (1, 2)] + [(2, 1, 2, 3)]


class TestReferenceWalker:
    """The walker equals the plain reference walker of ``tests/oracle.py`` in every mode."""

    @pytest.mark.parametrize("n,u,d,bound", ENUM_GRID)
    def test_every_mode_matches_reference(self, n, u, d, bound):
        specs = [EnumerationSpec(n, u, d, bound),
                 EnumerationSpec(n, u, d, bound, require_idempotent=True)]
        if bound <= 2:
            specs += [EnumerationSpec(n, u, d, bound, require_type=t) for t in _type_choices(u, d)]
        for spec in specs:
            got = enumerate_classes(spec)
            assert got == reference_enumerate(spec), spec
            if bound == 1:
                assert got == reference_enumerate(spec, prune=False), spec

    @pytest.mark.parametrize("spec", [EnumerationSpec(2, 1, 1, 2),
                                      EnumerationSpec(2, 2, 1, 2),
                                      EnumerationSpec(2, 1, 2, 2, require_idempotent=True),
                                      EnumerationSpec(2, 2, 2, 2, require_type=(2, 2))])
    def test_partitions_match_reference(self, fake_pool, spec):
        full = reference_enumerate(spec)
        for jobs in (2, 3):
            assert enumerate_classes(spec, jobs) == full
        assert fake_pool == [2, 3]


def _count_calls(monkeypatch, original):
    """The calls of ``original`` through every binding of it in the package, as a list."""
    calls = []
    _patch_every_binding(monkeypatch, original, lambda *args: calls.append(args) or original(*args))
    return calls


class TestWalkerWork:
    """Work guards: certification runs only where the row identity leaves a doubt."""

    def test_profile_only_unit_rank_needs_no_pfaffian(self, monkeypatch):
        calls = []
        original = exterior.intersection_profile
        monkeypatch.setattr(exterior, "intersection_profile",
                            lambda eta: calls.append(eta) or original(eta))
        assert len(enumerate_classes(EnumerationSpec(2, 1, 2, 3))) == 980
        assert calls == []

    @pytest.mark.parametrize("n,u,d,bound", [spec for spec in ENUM_GRID if spec[1] == 1])
    def test_profile_only_walk_runs_no_rank(self, monkeypatch, n, u, d, bound):
        """u = n - 1 solves the last slot from Pf(M) = 0 instead of ranking each leaf."""
        spec = EnumerationSpec(n, u, d, bound)
        expected = enumerate_classes(spec)

        def refuse(a):
            raise AssertionError("the walker computed a rank")

        proxy = types.SimpleNamespace(**vars(scan.la))
        proxy.rank_int = refuse
        monkeypatch.setattr(scan, "la", proxy)
        assert enumerate_classes(spec) == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_profile_only_unit_surface_walks_idempotent(self, monkeypatch, d):
        """At (n, u) = (2, 1) a (1, d) profile forces M J M = d M: profile-only, idempotent and
        the reference agree, and the walk solves no Pfaffian."""
        calls = []
        original = scan._sub_pfaffian
        monkeypatch.setattr(scan, "_sub_pfaffian", lambda *args: calls.append(args) or original(*args))
        for bound in (1, 2, 3):
            profile = enumerate_classes(EnumerationSpec(2, 1, d, bound))
            assert profile == enumerate_classes(EnumerationSpec(2, 1, d, bound, require_idempotent=True))
            assert calls == []
            assert profile == reference_enumerate(EnumerationSpec(2, 1, d, bound))

    def test_row_identities_are_solved_for_their_slot(self, monkeypatch):
        """Each identity is solved for its step's value once per node, not tried per value."""
        calls = []
        original = scan._identity
        monkeypatch.setattr(scan, "_identity", lambda *args: calls.append(1) or original(*args))
        enumerate_classes(EnumerationSpec(2, 1, 2, 3, require_idempotent=True))
        assert len(calls) <= 7_404

    @pytest.mark.parametrize("n", [2, 3])
    def test_m_j_rows_follow_m_at_every_node(self, monkeypatch, n):
        """Each identity the walker evaluates equals the oracle's pairing of the rows of M it
        holds: the rows of M J kept beside M match M at every node, in the box and on a lattice."""
        values = []
        original = scan._identity

        def checked(mat, mj, i, k, d):
            value = original(mat, mj, i, k, d)
            assert value == pairing(mat[i], mat[k], n) + d * mat[i][k]
            values.append(value)
            return value

        monkeypatch.setattr(scan, "_identity", checked)
        bound = 4 - n
        # the plain witness's lattice has forced slots that later identities read
        witnesses = [standard_witness(n, 1, (1,))[0],
                     moebius(random_symplectic(n, 7, 3), standard_witness(n, 1, (2,))[0])]
        for witness in witnesses:
            for idempotent in (True, False):
                assert scan._walk(n, 1, 2, bound, idempotent, riemann._coefficient_lattice(witness)[1])
        assert scan._walk(n, 1, 2, bound, True, first=1)  # the box, slot 0 fixed at 1
        if n == 2:
            assert scan._walk(n, 2, 1, 1, False)
        assert 0 in values and any(values)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slope_is_the_identity_s_change_in_one_slot(self, n):
        """Identity (i, k) is rest + slope x in slot (p, q)'s value x, except (q, p), q = p + n."""
        rng, m, d = random.Random(n), 2 * n, 3
        for _ in range(10):
            mat = la.zeros(m, m)
            for p, q in scan._pairs(n):
                mat[p][q] = rng.randint(-3, 3)
                mat[q][p] = -mat[p][q]
            for p, q in scan._pairs(n):
                for i in range(m):
                    for k in range(i):
                        def value(x):
                            mat[p][q], mat[q][p] = x, -x
                            return pairing(mat[i], mat[k], n) + d * mat[i][k]

                        rest, slope = value(0), scan._slope(n, i, k, p, q)
                        if slope is None:
                            assert (i, k, q) == (q, p, p + n)
                            assert all(value(x) == rest - d * x - x * x for x in (-2, 1, 3))
                        else:
                            _, _, terms, times = slope
                            mj = la.mat_mul(mat, la.standard_j(n))
                            coef = times * d + sum(s * mj[r][c] for r, c, s in terms)
                            assert all(value(x) == rest + coef * x for x in (-2, 1, 3))

    def test_each_hit_is_built_once(self, monkeypatch):
        """The walker freezes each hit's matrix at its leaf: one ``TwoForm`` per returned class."""
        calls = []
        original = TwoForm.__post_init__
        monkeypatch.setattr(TwoForm, "__post_init__", lambda self: calls.append(1) or original(self))
        assert len(enumerate_classes(EnumerationSpec(2, 1, 2, 3))) == len(calls) == 980

    def test_idempotent_mode_certifies_hits_at_most_once(self, monkeypatch):
        """The walker certifies typed hits (M J M = d M, trace -u d, gcd 1): none is re-verified."""
        calls = _count_calls(monkeypatch, normend.norm_from_class)
        hits = enumerate_classes(EnumerationSpec(2, 2, 1, 2, require_idempotent=True))
        assert len(calls) <= len(hits)
        calls.clear()
        typed = enumerate_classes(EnumerationSpec(2, 1, 2, 2, require_type=(2,)))
        assert len(typed) == 244 and calls == []

    def test_typed_mode_computes_only_the_type(self, monkeypatch):
        """No lattice and no frame per hit: the type comes from the Smith invariants of M.

        ``analyze`` reads the type the same way: it builds the image and kernel, no frame.
        """
        kernels = _count_calls(monkeypatch, la.kernel_basis)
        frames = _count_calls(monkeypatch, symplectic.frobenius_basis)
        typed = enumerate_classes(EnumerationSpec(2, 1, 2, 2, require_type=(2,)))
        assert len(typed) == 244
        assert enumerate_classes(EnumerationSpec(2, 2, 1, 1, require_type=(1, 1))) == [theta(2)]
        assert kernels == [] and frames == []
        assert normend.analyze(typed[0]).type_divisors == (2,)
        assert len(kernels) == 2 and frames == []

    def test_orbit_equivalent_builds_no_frame(self, monkeypatch, eta0):
        """One verifying norm matrix per side, then the Smith invariants: no image, no frame."""
        norms = _count_calls(monkeypatch, normend.norm_from_class)
        kernels = _count_calls(monkeypatch, la.kernel_basis)
        frames = _count_calls(monkeypatch, symplectic.frobenius_basis)
        moved = act(random_symplectic(4, 3, 10), eta0)
        assert orbit_equivalent(eta0, moved)
        assert not orbit_equivalent(moved, standard_witness(4, 2, (1, 2))[1])
        frames.clear()
        kernels.clear()
        norms.clear()
        assert orbit_equivalent(moved, eta0)
        assert len(norms) == 2 and kernels == [] and frames == []
