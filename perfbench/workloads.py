"""The four benchmark workloads.

Each workload is built from the nsforge package object ``ns`` and a seed.
It exposes ``cycles``: cycle c of a run is ``cycles[c % len(cycles)]``, a
fixed list of operations whose seeded instances differ between cycles, run
in a closed loop with one client.  ``smoke_ops`` is a cheap slice for the
smoke mode.  ``check(op, output)`` verifies one output against facts derived
by ``oracle`` rather than by the code under test, and ``run_checks``
verifies the facts that concern a whole run.  The seed picks instances (conjugating
symplectic words, factor periods, markings, float period matrices); the
operation grid itself is fixed so that runs with different seeds do the
same kind and amount of work.
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import oracle
import speed

HERE = Path(__file__).resolve().parent
CERTIFY_VARIANTS = 64  # seeded variants of each slot; cycle c runs variant c mod the count
CONSTRUCT_VARIANTS = 16  # a construct run makes about 6 cycles
WORD_LENGTH = 5  # length of the conjugating symplectic words


class Op:
    """One operation: ``run()`` calls nsforge, ``expect`` describes the answer."""

    def __init__(self, label, run, expect, size=0):
        self.label = label
        self.run = run
        self.expect = expect
        self.size = size


class Unexpected:
    """Output of an operation that raised an exception it should not have."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def load_bases(ns):
    """Base classes from base_classes.json, re-verified by the oracle."""
    with open(HERE / "base_classes.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    bases = {}
    for entry in doc["classes"]:
        n, m = oracle.matrix_from_json(entry["class"])
        u, d = entry["u"], entry["d"]
        if oracle.profile_class(n, m) != (u, d) or not oracle.norm_certifies(n, m, u, d):
            raise RuntimeError(f"base class {entry['source']} does not certify")
        bases.setdefault(n, []).append((entry["source"], m, u, d, tuple(entry["type"])))
    return bases


def symplectic_image(rng, n, m, word_length=None):
    """S M S^T for a random word S of symplectic transvections and the block swap J.

    The generators are those of ``nsforge.random_symplectic``, applied to M
    directly: for T x = x + c (x^T J v) v and a = M J v, T M T^T is
    M - c v a^T + c a v^T, which needs no matrix product.
    """
    size = 2 * n
    m = [list(r) for r in m]
    for _ in range(WORD_LENGTH if word_length is None else word_length):
        kind = rng.randrange(3)
        if kind == 2:  # J M J^T permutes the two halves, with signs
            perm = [i + n if i < n else i - n for i in range(size)]
            sign = [1 if i < n else -1 for i in range(size)]
            m = [[sign[i] * sign[j] * m[perm[i]][perm[j]] for j in range(size)]
                 for i in range(size)]
            continue
        v = [0] * size
        v[rng.randrange(size)] = 1
        if kind == 1:
            k = rng.randrange(size)
            if not v[k]:
                v[k] = rng.choice((1, -1))
        c = rng.choice((1, -1))
        w = v[n:] + [-x for x in v[:n]]
        a = [sum(x * y for x, y in zip(row, w)) for row in m]
        m = [[m[i][j] - c * v[i] * a[j] + c * a[i] * v[j] for j in range(size)]
             for i in range(size)]
    return m


def dense_negative(rng, n):
    """A dense primitive form whose profile fails, by the oracle's determinant test."""
    while True:
        m = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                a = rng.choice((-3, -2, -1, 1, 2, 3))
                m[i][j], m[j][i] = a, -a
        if oracle.is_primitive(m) and oracle.fails_profile_by_det(m):
            return m


def non_idempotent_surface_forms():
    """Unit-coefficient surface forms whose profile passes but N^2 != d N.

    Returns (profile passers, the non-idempotent ones); the README and the
    test suite record 119 and 32.
    """
    passers, failing = [], []
    for values in itertools.product((-1, 0, 1), repeat=6):
        m = [[0] * 4 for _ in range(4)]
        k = 0
        for i in range(4):
            for j in range(i + 1, 4):
                m[i][j], m[j][i] = values[k], -values[k]
                k += 1
        if not any(values) or not oracle.is_primitive(m):
            continue
        got = oracle.profile_class(2, m)
        if got is None:
            continue
        passers.append(m)
        if not oracle.norm_certifies(2, m, *got):
            failing.append(m)
    return passers, failing


class Workload:
    """Shared defaults; subclasses set ``cycles`` and ``smoke_ops``.

    ``speed_sample`` measures the machine's speed the way that suits the
    workload's operations, and ``reference_ms`` is its reference time (see
    ``speed``).
    """

    reference_ms = speed.KERNEL_REFERENCE_MS

    def speed_sample(self):
        return speed.kernel_sample()

    def once(self, op, compute):
        """Oracle facts about an operation's input, computed on first use."""
        cache = self.__dict__.setdefault("_facts", {})
        if id(op) not in cache:
            cache[id(op)] = compute()
        return cache[id(op)]

    def traceable(self, op):
        """The in-process form of an operation, for the traced pass."""
        return op

    def run_checks(self):
        return []

    def close(self):
        """Release what set-up created outside the process."""


def _form(ns, n, m):
    return ns.TwoForm.from_matrix(n, m)


def _wire(ns, eta):
    return ns.jsonio.two_form_to_json(eta)


# --------------------------------------------------------------- certify

NORM_FAILURES = ("NotIdempotent", "TraceMismatch", "RankMismatch")


class Certify(Workload):
    """What ``nsforge check``, ``analyze`` and ``norm`` certify together.

    Each cycle slot is (n, kind) for n = 2..6: symplectic images of
    certified base classes (the base is fixed per slot, the seed picks the
    conjugating word) and planted negatives (dense forms; profile-passing
    non-idempotent surface forms), 7 of the 18 slots.  Eight slots cost well
    over, and eight well under, the two n = 3 images, so the median latency
    of a run of whole cycles falls among the samples of those two slots.
    """

    SLOTS = [(2, "pos"), (2, "nonidem"), (2, "pos"), (2, "dense"), (2, "pos"),
             (3, "pos"), (3, "dense"), (3, "pos"), (3, "dense"),
             (4, "pos"), (4, "dense"), (4, "pos"), (5, "pos"), (5, "dense"), (5, "pos"),
             (6, "pos"), (6, "dense"), (6, "pos")]

    name = "certify"

    def __init__(self, ns, seed):
        self.ns = ns
        rng = _rng(self.name, seed)
        bases = load_bases(ns)
        passers, self.nonidem = non_idempotent_surface_forms()
        if (len(passers), len(self.nonidem)) != (119, 32):
            raise RuntimeError("surface census differs from 119 profile passers / 32 non-idempotent")
        self.cycles = [[self._instance(rng, bases[n][(variant + k) % len(bases[n])], n, kind)
                        for k, (n, kind) in enumerate(self.SLOTS)]
                       for variant in range(CERTIFY_VARIANTS)]
        self.smoke_ops = [op for op in self.cycles[0] if op.size <= 3]

    def _instance(self, rng, base, n, kind):
        if kind == "pos":
            source, base, u, d, typ = base
            m = symplectic_image(rng, n, base)
            expect = ("pos", (u, d), typ)
        elif kind == "dense":
            m, expect = dense_negative(rng, n), ("reject",)
        else:
            m = rng.choice(self.nonidem)
            expect = ("nonidem", oracle.profile_class(2, m))
        eta = _form(self.ns, n, m)
        return Op(f"certify n={n} {kind}", lambda: self._certify(eta), (n, m, expect), n)

    def _certify(self, eta):
        ns = self.ns
        got = ns.check_class(eta)
        if got is None:
            return ("reject",)
        u, d = got
        try:
            mod = ns.check_class_mod_L(eta, u, d)
            mod_l = (mod.congruence_ok, mod.qr_ok)
        except ns.errors.NotPrimitiveModL:
            mod_l = None
        try:
            report = ns.analyze(eta)
        except ns.errors.NsforgeError as exc:
            return ("nonidem", got, mod_l, exc.code)
        cert = ns.polynomial_certificate(ns.norm_from_class(eta))
        return ("pos", got, mod_l, (report.u, report.d, report.type_divisors), cert)

    def check(self, op, out):
        n, m, expect = op.expect
        if expect[0] == "reject":  # dense_negative proved the profile fails
            return out == ("reject",)
        mod_l = (True, True) if oracle.is_primitive_mod_theta(n, m) else None
        if expect[0] == "nonidem":
            u, d = expect[1]
            return out[:3] == ("nonidem", (u, d), mod_l) and out[3] in NORM_FAILURES
        (u, d), typ = expect[1], expect[2]
        return (out == ("pos", (u, d), mod_l, (u, d, typ), {"char_ok": True, "min_ok": True})
                and self.once(op, lambda: oracle.norm_certifies(n, m, u, d)))

# ------------------------------------------------------------- construct

GLUE_CONFIGS = [(2, 1, (2,)), (3, 1, (2,)), (4, 2, (1, 2)), (2, 1, (3,)), (2, 1, (4,)),
                (4, 2, (2, 2))]
MARKINGS = {
    1: [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((1, 0), (1, 1)), ((2, 0), (0, 2))],
    2: [((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))],
}


def _seeded_periods(ns, rng, k):
    """A k x k exact period matrix: positive diagonal imaginary part, small rationals."""
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = ns.QQi(Fraction(rng.randint(-2, 2), rng.choice((2, 3, 4))), rng.randint(1, 3))
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = ns.QQi(Fraction(rng.randint(-1, 1), rng.choice((2, 3, 5))))
    return ns.PeriodMatrix.exact(rows)


class Construct(Workload):
    """Constructions followed by the analytic check a user runs on the output.

    Slots: ``standard_witness`` over an (n, u, type) grid for n = 2..6,
    ``glue`` on acceptance-style configurations with seeded periods and
    markings, ``is_realizable`` on seeded images for n = 2 (two slots) and
    n = 4, on the (6, 3, (1,1,1)) witness class, and on two tagged
    negatives.  The n = 6 slots are not seeded: their cost is what the tail
    measures, and a conjugate at n >= 5 moves it by more than the run-to-run
    noise.  The slowest slot, ``standard_witness(6, 3, (2,2,2))``, runs once
    a cycle; a 20 s run makes about 6 cycles, so it fills fewer than the ten
    places beyond the tail percentile.  The next three slots are n = 6
    operations of about the same cost, which fill the places from there to
    at least 12 and keep the tail on one cost level whatever the cycle count.
    Of the 23 slots, ten cost under 11 ms and nine over 50 ms.  Between them
    sit the three unseeded n = 3 witnesses (about 20 ms) and the seeded
    n = 3 glue (about 30 ms), so the median falls among the samples of the
    three witnesses, whatever the seed.
    """

    name = "construct"
    WITNESS_GRID = [(6, 3, (2, 2, 2)), (2, 1, (1,)), (6, 1, (1,)), (3, 1, (2,)),
                    (6, 2, (1, 1)), (4, 2, (2, 2)), (5, 2, (1, 2)), (2, 1, (2,)), (2, 1, (3,)),
                    (3, 1, (3,)), (3, 1, (4,))]
    REALIZABLE_N6 = (6, 3, (1, 1, 1))

    def __init__(self, ns, seed):
        self.ns = ns
        rng = _rng(self.name, seed)
        self.bases = load_bases(ns)
        _, nonidem = non_idempotent_surface_forms()
        witness = [self._witness_op(*cfg) for cfg in self.WITNESS_GRID]
        n, u, typ = self.REALIZABLE_N6
        real6 = self._realizable_op(None, (f"standard_witness{self.REALIZABLE_N6}",
                                           [list(r) for r in ns.standard_witness(n, u, typ)[1].mat],
                                           u, typ[-1], typ))
        self.cycles = []
        for variant in range(CONSTRUCT_VARIANTS):
            glue = [self._glue_op(rng, *cfg) for cfg in GLUE_CONFIGS]
            real = [self._realizable_op(rng, self.bases[n][(variant + k) % len(self.bases[n])])
                    for n, k in ((2, 0), (2, 1), (4, 0))]
            real.append(self._negative_op(dense_negative(rng, 4), 4, "ProfileFail"))
            real.append(self._negative_op(rng.choice(nonidem), 2, "IdempotenceFail"))
            real.append(real6)
            cycle = [op for k in range(6) for op in (witness[k], glue[k], real[k])]
            self.cycles.append(cycle + witness[6:])
        self.smoke_ops = [op for op in self.cycles[0] if op.size <= 3]

    def _analytic(self, eta, tau):
        ns = self.ns
        return {"tau": tau, "eta": eta, "vanishes": ns.wedge_vanishes(eta, tau),
                "residual": ns.residual_matrix(eta, tau),
                "tangent": ns.tangent_and_lattice(eta, tau),
                "relations": ns.symbolic_relations(eta)}

    def _witness_op(self, n, u, typ):
        def run():
            tau, eta = self.ns.standard_witness(n, u, typ)
            return self._analytic(eta, tau)
        return Op(f"standard_witness{(n, u, typ)}", run, ("ok", u, typ[-1]), n)

    def _glue_op(self, rng, n, u, typ):
        ns = self.ns
        valid = [f for f in MARKINGS[u] if ns.check_kd_symplectic([list(r) for r in f], typ)]
        spec = ns.GluingSpec(rng.choice(valid), rng.choice(valid))
        x_factor = ns.PolarizedFactor(u, typ, _seeded_periods(ns, rng, u))
        y_factor = ns.PolarizedFactor(n - u, ns.complementary_type(n, u, typ),
                                      _seeded_periods(ns, rng, n - u))

        def run():
            tau, eta = self.ns.glue(x_factor, y_factor, spec)
            return self._analytic(eta, tau)
        return Op(f"glue{(n, u, typ)}", run, ("ok", u, typ[-1]), n)

    def _realizable_op(self, rng, base):
        """is_realizable on a seeded image of ``base``, or on ``base`` itself without rng."""
        source, m, u, d, typ = base
        n = len(m) // 2
        if rng is not None:
            m = symplectic_image(rng, n, m)
        eta = _form(self.ns, n, m)

        def run():
            result = self.ns.is_realizable(eta)
            return self._analytic(eta, result.tau) if result else result.tag
        return Op(f"is_realizable n={n}", run, ("ok", u, d), n)

    def _negative_op(self, m, n, tag):
        eta = _form(self.ns, n, m)
        return Op(f"is_realizable n={n} {tag}", lambda: self.ns.is_realizable(eta).tag, (tag,), n)

    def check(self, op, out):
        if op.expect[0] != "ok":
            return out == op.expect[0]
        if not isinstance(out, dict):
            return False
        _, u, d = op.expect
        jsonio = self.ns.jsonio
        n, m = oracle.matrix_from_json(jsonio.two_form_to_json(out["eta"]))
        tau = oracle.tau_from_json(jsonio.period_matrix_to_json(out["tau"]))
        tangent = jsonio.complex_matrix_to_json(out["tangent"]["tangent"], "exact")
        relations = jsonio.relation_set_to_json(out["relations"])["polynomials"]
        return (self.once(op, lambda: oracle.profile_class(n, m) == (u, d)
                          and oracle.norm_certifies(n, m, u, d))
                and oracle.in_siegel(tau)
                and oracle.residual_vanishes(n, m, tau)
                and out["vanishes"] is True
                and all(not x for row in out["residual"] for x in row)
                and len(tangent) == n and oracle.complex_rank(tangent) == u
                and all(oracle.relation_vanishes(p, tau) for p in relations))

# ---------------------------------------------------------------- search

def _criterion_float_tau(ns):
    """The float period matrix of acceptance criterion 9 (random.Random(99))."""
    rng = random.Random(99)
    entries = [[0j, 0j], [0j, 0j]]
    entries[0][0] = complex(rng.uniform(-0.6, 0.6), 1.3)
    entries[1][1] = complex(rng.uniform(-0.6, 0.6), 2.1)
    entries[0][1] = entries[1][0] = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.1, 0.1))
    return ns.PeriodMatrix.from_float(entries)


def _seeded_float_tau(ns, rng):
    entries = [[0j, 0j], [0j, 0j]]
    entries[0][0] = complex(rng.uniform(-0.6, 0.6), rng.uniform(1.0, 1.5))
    entries[1][1] = complex(rng.uniform(-0.6, 0.6), rng.uniform(1.8, 2.4))
    entries[0][1] = entries[1][0] = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.1, 0.1))
    return ns.PeriodMatrix.from_float(entries)


class Search(Workload):
    """One search query per operation, over a fixed query grid.

    ``enumerate_classes`` on an n = 2 grid, exact ``scan_ppav`` on witness
    period matrices for n = 2, 3, 4 (seeded symplectic conjugates for n = 2
    and 3, the golden witness itself for n = 4), float ``scan_ppav`` on a
    seeded n = 2 period matrix and on the criterion-9 one, and
    ``orbit_equivalent`` on seeded images.  The n = 4 witness is not
    conjugated: its scan cost moves by 5x between conjugates, which would
    make run-to-run figures depend on the seed more than on the code.

    The latency percentiles are rank statistics over whole cycles, so the
    grid is laid out by cost.  The n = 4 scan (about 1.3 s) runs once a
    cycle, and a 20 s run makes about 6 cycles, fewer than the ten places
    beyond the tail percentile.  The next two queries, idempotent
    enumerations of about 0.5 s, hold the tail.
    The grid has 19 queries.  Nine cost well over, and nine well under, the
    unseeded ``enum n=2 (2,1,1) idempotent``, so the median falls inside that
    one kind of query.
    """

    name = "search"

    def __init__(self, ns, seed):
        self.ns = ns
        rng = _rng(self.name, seed)
        bases = load_bases(ns)
        qi = ns.QQi
        self.factor_a = ns.TwoForm.from_coeffs(2, {(0, 2): -1})
        self.factor_b = ns.TwoForm.from_coeffs(2, {(1, 3): -1})
        self.golden = _form(ns, 4, next(b[1] for b in bases[4] if b[0].startswith("golden")))
        self.diag = ns.PeriodMatrix.exact([[qi(0, 1), qi(0)], [qi(0), qi(0, 2)]])
        self.witness4 = ns.is_realizable(self.golden).tau
        tau2 = ns.standard_witness(2, 1, (2,))[0]
        tau3 = ns.standard_witness(3, 1, (2,))[0]
        self.conj_diag = ns.moebius(ns.random_symplectic(2, rng.randrange(1 << 30), 3), self.diag)
        self.conj2 = ns.moebius(ns.random_symplectic(2, rng.randrange(1 << 30), 3), tau2)
        self.conj3 = ns.moebius(ns.random_symplectic(3, rng.randrange(1 << 30), 3), tau3)
        self.float_tau = _seeded_float_tau(ns, rng)
        self.criterion_float = _criterion_float_tau(ns)
        type22 = next(b for b in bases[4] if b[0].startswith("golden"))
        type12 = next(b for b in bases[4] if b[4] == (1, 2))
        img = lambda base: _form(ns, 4, symplectic_image(rng, 4, base[1]))
        self.orbit_pairs = [(img(type22), img(type22), True), (img(type22), img(type12), False)]
        spec = ns.EnumerationSpec
        enum = lambda *a, **k: (lambda: self.ns.enumerate_classes(spec(*a, **k)))
        scan = lambda tau, u, d, b: (lambda: self.ns.scan_ppav(tau, u, d, b))
        self.cycles = [[
            Op("scan exact n=4 golden witness (2,2,1)", scan(self.witness4, 2, 2, 1),
               ("scan", self.witness4, 2, 2, 1), 4),
            Op("enum n=2 (1,1,1)", enum(2, 1, 1, 1), ("enum", 1, 1, 1, None, False), 2),
            Op("enum n=2 (1,2,3)", enum(2, 1, 2, 3), ("enum", 1, 2, 3, None, False), 2),
            Op("scan exact n=2 diag (1,1,1)", scan(self.diag, 1, 1, 1), ("scan", self.diag, 1, 1, 1), 2),
            Op("enum n=2 (1,2,2) type (2,)", enum(2, 1, 2, 2, require_type=(2,)),
               ("enum", 1, 2, 2, (2,), True), 2),
            Op("scan float n=2 seeded (1,1,3)", scan(self.float_tau, 1, 1, 3),
               ("scan", self.float_tau, 1, 1, 3), 2),
            Op("scan exact n=2 diag (1,2,1)", scan(self.diag, 1, 2, 1), ("scan", self.diag, 1, 2, 1), 2),
            Op("scan exact n=2 conjugated diag (1,1,2)", scan(self.conj_diag, 1, 1, 2),
               ("scan", self.conj_diag, 1, 1, 2), 2),
            Op("enum n=2 (2,1,2) idempotent", enum(2, 2, 1, 2, require_idempotent=True),
               ("enum", 2, 1, 2, None, True), 2),
            Op("orbit_equivalent same type", self._orbit(0), ("orbit", True), 4),
            Op("scan exact n=2 conjugated diag (1,1,1)", scan(self.conj_diag, 1, 1, 1),
               ("scan", self.conj_diag, 1, 1, 1), 2),
            Op("enum n=2 (2,1,1) idempotent", enum(2, 2, 1, 1, require_idempotent=True),
               ("enum", 2, 1, 1, None, True), 2),
            Op("scan exact n=3 conjugated witness (1,2,1)", scan(self.conj3, 1, 2, 1),
               ("scan", self.conj3, 1, 2, 1), 3),
            Op("enum n=2 (1,2,3) idempotent", enum(2, 1, 2, 3, require_idempotent=True),
               ("enum", 1, 2, 3, None, True), 2),
            Op("scan float n=2 criterion 9 (1,1,3)", scan(self.criterion_float, 1, 1, 3),
               ("scan", self.criterion_float, 1, 1, 3), 2),
            Op("scan exact n=2 conjugated witness (1,2,2)", scan(self.conj2, 1, 2, 2),
               ("scan", self.conj2, 1, 2, 2), 2),
            Op("orbit_equivalent different type", self._orbit(1), ("orbit", False), 4),
            Op("scan exact n=2 conjugated witness (1,2,1)", scan(self.conj2, 1, 2, 1),
               ("scan", self.conj2, 1, 2, 1), 2),
            Op("enum n=2 (2,2,2) idempotent", enum(2, 2, 2, 2, require_idempotent=True),
               ("enum", 2, 2, 2, None, True), 2),
        ]]
        self.smoke_ops = [op for op in self.cycles[0] if op.size <= 3][:6]
        self.outputs = {}

    def _orbit(self, k):
        a, b, _ = self.orbit_pairs[k]
        return lambda: self.ns.orbit_equivalent(a, b)

    def _hit_ok(self, eta, u, d, bound, need_norm, tau=None):
        n, m = oracle.matrix_from_json(_wire(self.ns, eta))
        if any(abs(x) > bound for row in m for x in row) or not oracle.is_primitive(m):
            return False
        if oracle.profile_class(n, m) != (u, d):
            return False
        if need_norm and not oracle.norm_certifies(n, m, u, d):
            return False
        if tau is not None and tau.backend == "exact":
            exact_tau = oracle.tau_from_json(self.ns.jsonio.period_matrix_to_json(tau))
            return oracle.residual_vanishes(n, m, exact_tau)
        return True

    def check(self, op, out):
        """Every query is deterministic: each cycle must repeat the first output."""
        if isinstance(out, Unexpected) or out != self.outputs.setdefault(op.label, out):
            return False
        return self.once(op, lambda: self._verify(op, out))

    def _verify(self, op, out):
        kind = op.expect[0]
        if kind == "orbit":
            return out is op.expect[1]
        if kind == "enum":
            _, u, d, bound, typ, need_norm = op.expect
            keys = [e.coefficient_vector() for e in out]
            if keys != sorted(set(keys)):
                return False
            if typ is not None and any(self.ns.analyze(e).type_divisors != typ for e in out):
                return False
            return all(self._hit_ok(e, u, d, bound, need_norm) for e in out)
        _, tau, u, d, bound = op.expect
        keys = [r.eta.coefficient_vector() for r in out]
        if keys != sorted(set(keys)):
            return False
        return all(r.u == u and r.d == d and self._hit_ok(r.eta, u, d, bound, True, tau)
                   for r in out)

    def run_checks(self):
        """Acceptance-criterion-9 facts and exact-vs-float scan agreement."""
        ns, failures, out = self.ns, [], self.outputs
        etas = lambda label: [r.eta for r in out[label]]
        facts = [
            ("enum n=2 (1,1,1)", lambda: {self.factor_a, self.factor_b} <= set(out["enum n=2 (1,1,1)"]),
             "enum (2,1,1,1) misses a product factor"),
            ("scan exact n=2 diag (1,1,1)",
             lambda: etas("scan exact n=2 diag (1,1,1)") == [self.factor_a, self.factor_b],
             "diagonal scan is not exactly the two factors"),
            ("scan exact n=4 golden witness (2,2,1)",
             lambda: self.golden in etas("scan exact n=4 golden witness (2,2,1)"),
             "witness scan misses the golden class"),
            ("scan float n=2 criterion 9 (1,1,3)",
             lambda: out["scan float n=2 criterion 9 (1,1,3)"] == [], "float scan is not empty"),
        ]
        failures = [f"criterion 9: {text}" for label, holds, text in facts
                    if label in out and not holds()]
        for tau in (self.conj_diag, self.conj2):
            for u, d, bound in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)):
                exact = [r.eta for r in ns.scan_ppav(tau, u, d, bound)]
                floated = [r.eta for r in ns.scan_ppav(tau.to_float(), u, d, bound)]
                if exact != floated:
                    failures.append(f"exact and float scans differ at {(u, d, bound)}")
        return failures


# ------------------------------------------------------------------- cli

class Cli(Workload):
    """One sequential ``python -m nsforge`` process per operation.

    Covers every subcommand family on small inputs, plus ``enum`` and a
    float ``scan`` with ``--jobs 1`` and ``--jobs 2``; at most one CLI
    process and its two pool workers run at a time.
    """

    name = "cli"
    reference_ms = speed.INTERPRETER_REFERENCE_MS

    def __init__(self, ns, seed):
        import nsforge.cli  # noqa: F401  (binds ns.cli for the in-process runs)

        root = HERE.parent
        self.ns = ns
        rng = _rng(self.name, seed)
        bases = load_bases(ns)
        work_root = root / ".bench_work"
        work_root.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=work_root))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        golden = next(b for b in bases[4] if b[0].startswith("golden"))
        self.pos_m = symplectic_image(rng, 4, golden[1])
        pos = _form(ns, 4, self.pos_m)
        self.neg_m = dense_negative(rng, 3)
        elliptic = next(b for b in bases[2] if b[0] == "elliptic_class(2, 2)")
        ell_m = symplectic_image(rng, 2, elliptic[1], 7)
        files = {
            "pos": _wire(ns, pos),
            "neg": _wire(ns, _form(ns, 3, self.neg_m)),
            "ell": _wire(ns, _form(ns, 2, ell_m)),
            "tau": ns.jsonio.period_matrix_to_json(ns.is_realizable(pos).tau),
            "ftau": ns.jsonio.period_matrix_to_json(_seeded_float_tau(ns, rng)),
        }
        path = {}
        for key, obj in files.items():
            path[key] = str(self.work / f"{key}.json")
            with open(path[key], "w", encoding="utf-8") as fh:
                fh.write(ns.jsonio.dumps(obj))
        word_seed = str(rng.randrange(1000))
        enum = ["enum", "--n", "2", "--u", "1", "--d", "1", "--bound", "1"]
        scan = ["scan", "--tau", path["ftau"], "--u", "1", "--d", "1", "--bound", "2"]
        argvs = [
            ["profile", "--in", path["pos"]],
            enum + ["--jobs", "1"],
            ["check", "--in", path["pos"]],
            ["norm", "--in", path["pos"]],
            scan + ["--jobs", "1"],
            ["analyze", "--in", path["pos"]],
            ["check", "--in", path["neg"]],
            enum + ["--jobs", "2"],
            ["analytic", "--in", path["pos"], "--tau", path["tau"]],
            ["relations", "--in", path["pos"]],
            scan + ["--jobs", "2"],
            ["humbert", "--in", path["ell"]],
            ["act", "--in", path["pos"], "--seed", word_seed, "--word-length", "9"],
            ["witness", "--in", path["pos"]],
            ["witness", "--n", "3", "--u", "1", "--type", "2"],
        ]
        self.cycles = [[Op(self._command(a), self._process(a), a) for a in argvs]]
        self.smoke_ops = self.cycles[0][:3]
        self.expected = {}
        self.stdout = {}

    @staticmethod
    def _command(argv):
        return argv[0] + ("-j2" if argv[-2:] == ["--jobs", "2"] else "")

    def _process(self, argv):
        cmd = [sys.executable, "-m", "nsforge"] + argv
        return lambda: subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)

    def speed_sample(self):
        return speed.interpreter_sample(self.env)

    def inprocess(self, argv):
        return self.ns.cli.run(argv)

    def traceable(self, op):
        return Op(op.label, lambda: self.inprocess(op.expect), op.expect)

    def _expected(self, argv):
        """Exit code and jsonio bytes of the same command run in-process.

        A ``--jobs 2`` command is compared with its ``--jobs 1`` twin, so the
        determinism requirement is checked by the same comparison.
        """
        key = tuple(argv[:-1] + ["1"]) if argv[-2:] == ["--jobs", "2"] else tuple(argv)
        if key not in self.expected:
            result = self.inprocess(list(key))
            self.expected[key] = (result.exit_code, self.ns.jsonio.dumps(result.payload).encode())
        return self.expected[key]

    def check(self, op, out):
        if isinstance(out, Unexpected):
            return False
        code, stdout = self._expected(op.expect)
        if isinstance(out, subprocess.CompletedProcess):
            got = (out.returncode, out.stdout if code != 2 else out.stderr)
            self.stdout.setdefault(tuple(op.expect), out.stdout)
        else:  # an in-process CommandResult from the traced pass
            got = (out.exit_code, self.ns.jsonio.dumps(out.payload).encode())
        if got != (code, stdout):
            return False
        payload = json.loads(stdout)
        command = op.expect[0]
        if command == "check" and op.expect[2].endswith("neg.json"):
            return code == 1 and oracle.profile_class(3, self.neg_m) is None
        if command in ("check", "analyze"):
            ok = (payload["u"], payload["d"]) == (2, 2) and oracle.norm_certifies(4, self.pos_m, 2, 2)
            return ok and (command == "check" or payload["type"] == [2, 2])
        if command == "analytic":
            return code == 0 and payload["vanishes"] is True
        if command == "witness" and payload.get("tau") and "eta" not in payload:
            tau = oracle.tau_from_json(payload["tau"])
            return payload["realizable"] and oracle.residual_vanishes(4, self.pos_m, tau)
        if command == "act":
            s = payload["S"]
            n, moved = oracle.matrix_from_json(payload["eta"])
            return oracle.is_symplectic(s) and moved == oracle.congruent(s, self.pos_m)
        return code == 0

    def run_checks(self):
        failures = []
        for argv, out in self.stdout.items():
            if argv[-2:] == ("--jobs", "2"):
                twin = argv[:-1] + ("1",)
                if twin in self.stdout and self.stdout[twin] != out:
                    failures.append(f"--jobs 1 and --jobs 2 differ for {argv[0]}")
        return failures

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


WORKLOADS = {"certify": Certify, "construct": Construct, "search": Search, "cli": Cli}
