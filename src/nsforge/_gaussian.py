"""Gaussian rationals: complex numbers with Fraction components.

An exact period matrix is stored as integers (re + i im) / q; this field is
only its boundary form: ``rows``, ``residual_matrix``, the tangent and JSON.
"""

from fractions import Fraction


class QQi:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *args):
        raise AttributeError("QQi is immutable")

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, QQi):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return NotImplemented

    def __eq__(self, other):
        o = QQi._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        o = QQi._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        o = QQi._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QQi._coerce(other) - self

    def __mul__(self, other):
        o = QQi._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QQi._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * o.re + self.im * o.im) / norm,
                   (self.im * o.re - self.re * o.im) / norm)

    def __rtruediv__(self, other):
        return QQi._coerce(other) / self

    def conjugate(self):
        return QQi(self.re, -self.im)

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"

