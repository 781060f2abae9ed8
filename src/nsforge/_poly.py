"""Sparse multivariate polynomials with integer coefficients.

A monomial is a sorted tuple of variable indices (repetition encodes powers),
so the unit monomial is ().  Degrees stay tiny here (at most the ambient n),
which keeps this dict representation comfortably fast.
"""

from math import gcd


class IntPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def const(cls, c):
        return cls({(): c} if c else None)

    @classmethod
    def var(cls, i, c=1):
        return cls({(i,): c} if c else None)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        return isinstance(other, IntPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return IntPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return IntPoly(out)

    __rmul__ = __mul__

    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def coefficient(self, mono):
        return self.terms.get(tuple(sorted(mono)), 0)

    def content(self):
        return gcd(*self.terms.values())

    def evaluate(self, values):
        """Evaluate with values[i] substituted for variable i.

        Works over any ring whose elements support + and * with ints.
        """
        total = 0
        for mono, c in sorted(self.terms.items()):
            term = c
            for i in mono:
                term = term * values[i]
            total = total + term
        return total

    def sorted_terms(self):
        """Graded-lexicographic term order: low degree first, then variables."""
        return sorted(self.terms.items(), key=lambda mc: (len(mc[0]), mc[0]))

    def __repr__(self):
        if not self.terms:
            return "IntPoly(0)"
        bits = []
        for mono, c in self.sorted_terms():
            v = "*".join(f"x{i}" for i in mono)
            bits.append(f"{c}" if not v else f"{c}*{v}")
        return "IntPoly(" + " + ".join(bits) + ")"
