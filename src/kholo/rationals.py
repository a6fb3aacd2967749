"""Exact scalars and the coefficient kernel: Q, Q(i) and term maps over Q(i).

``Rational`` is the stdlib :class:`fractions.Fraction`, which already keeps
the canonical reduced form (positive denominator, coprime parts) that the rest
of the toolkit assumes.  ``GaussianRational`` models a + b*i with rational
a, b and exact field arithmetic.  The term-map functions at the bottom carry
the polynomial ring arithmetic of :mod:`kholo.polynomials`.

A Gaussian rational is stored over one denominator as three integers
(x, y, d) meaning (x + y*i)/d, with d > 0 and gcd(x, y, d) == 1.  That form
is canonical, so equality and hashing compare the integers directly.
"""

from fractions import Fraction
from math import gcd
from operator import add

from kholo.errors import DivisionByZero

# the kernel that runs, for reports and benchmarks; this module is the only one
COEFF_BACKEND = "python"

Rational = Fraction

_new = object.__new__


def _ratio(value):
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _lowest(x, y, d):
    """(x + y*i)/d for d > 0, reduced by gcd(x, y, d): the one normalizer."""
    g = gcd(x, y, d)
    if g != 1:
        x //= g
        y //= g
        d //= g
    z = _new(GaussianRational)
    z.x = x
    z.y = y
    z.d = d
    return z


def _exact(x, y, d):
    """(x + y*i)/d, already in lowest terms with d > 0."""
    z = _new(GaussianRational)
    z.x = x
    z.y = y
    z.d = d
    return z


class GaussianRational:
    """Exact element a + b*i of Q(i); immutable, canonical, hashable."""

    __slots__ = ("x", "y", "d")

    def __new__(cls, re=0, im=0):
        an, ad = _ratio(re)
        bn, bd = _ratio(im)
        return _lowest(an * bd, bn * ad, ad * bd)

    @property
    def re(self):
        return Fraction(self.x, self.d)

    @property
    def im(self):
        return Fraction(self.y, self.d)

    def is_real(self):
        return self.y == 0

    def conjugate(self):
        return _exact(self.x, -self.y, self.d)

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.d == other.d

    def __repr__(self):
        return f"GQ({self.re}, {self.im})"

    def __neg__(self):
        return _exact(-self.x, -self.y, self.d)

    def __pos__(self):
        return self

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _lowest(self.x + other.x, self.y + other.y, d1)
        return _lowest(self.x * d2 + other.x * d1, self.y * d2 + other.y * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _lowest(self.x - other.x, self.y - other.y, d1)
        return _lowest(self.x * d2 - other.x * d1, self.y * d2 - other.y * d1, d1 * d2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return _lowest(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x2 == 0 and y2 == 0:
            raise DivisionByZero("division by zero in Q(i)")
        # (x1 + y1*i)(x2 - y2*i) * d2 / (d1 * (x2^2 + y2^2))
        d2 = other.d
        return _lowest((x1 * x2 + y1 * y2) * d2, (y1 * x2 - x1 * y2) * d2,
                       self.d * (x2 * x2 + y2 * y2))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = _exact(1, 0, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _exact(value, 0, 1)
    if isinstance(value, Fraction):
        return _exact(value.numerator, 0, value.denominator)
    return None


GQ_ZERO = GaussianRational(0)
GQ_ONE = GaussianRational(1)
GQ_I = GaussianRational(0, 1)
GQ_MINUS_I = GaussianRational(0, -1)
GQ_HALF = GaussianRational(Fraction(1, 2))


def as_gaussian(value):
    """Coerce an int, Fraction or GaussianRational to a GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


def gaussian(re, im=0):
    """Build a + b*i from anything Fraction() accepts (ints, strings, ...)."""
    return GaussianRational(Fraction(re), Fraction(im))


# -- term-map kernels ---------------------------------------------------------
#
# A term map is a dict {exponent tuple: nonzero GaussianRational}.  These
# functions carry the polynomial ring arithmetic; everything above them in the
# toolkit is per-term bookkeeping.  The products and the operators built on
# them (here, and ``try_divide``, ``LinearSubst.apply`` and ``wirtinger`` in
# ``kholo.polynomials``) do not go through the GaussianRational operators:
# each output term accumulates Gaussian-integer numerators in plain ints over
# the lcm of the denominators of its own contributions, and is normalized
# once, by ``_lowest``, when it is complete.  Contributions to one term
# usually share a denominator, so the accumulation rarely takes a gcd; a
# common denominator for a whole map would inflate every term with the
# denominators of all the others.

def _add_over_lcm(s, x, y, d):
    """s += (x + y*i)/d for an unreduced [x, y, den] s, over lcm(den, d)."""
    sd = s[2]
    g = gcd(sd, d)
    up, down = d // g, sd // g
    s[0] = s[0] * up + x * down
    s[1] = s[1] * up + y * down
    s[2] = sd * up


def _accumulate(acc, e, x, y, d):
    """acc[e] += (x + y*i)/d, kept as an unreduced [x, y, den] list."""
    s = acc.get(e)
    if s is None:
        acc[e] = [x, y, d]
    elif s[2] == d:
        s[0] += x
        s[1] += y
    else:
        _add_over_lcm(s, x, y, d)


def _reduced(acc):
    """The term map of an accumulator: each nonzero entry reduced once."""
    return {e: _lowest(x, y, d) for e, (x, y, d) in acc.items() if x or y}


def terms_add_into(out, b):
    """Add the term map b into out, in place."""
    for e, c in b.items():
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            s = prev + c
            if s:
                out[e] = s
            else:
                del out[e]


def terms_add(a, b):
    out = dict(a)
    terms_add_into(out, b)
    return out


def terms_sub(a, b):
    out = dict(a)
    for e, c in b.items():
        prev = out.get(e)
        if prev is None:
            out[e] = -c
        else:
            s = prev - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def terms_scale(a, c):
    if not c:
        return {}
    cx, cy, cd = c.x, c.y, c.d
    out = {}
    for e, v in a.items():
        x, y = v.x, v.y
        out[e] = _lowest(x * cx - y * cy, x * cy + y * cx, v.d * cd)
    return out


def terms_mul(a, b):
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    cols = [(e, c.x, c.y, c.d) for e, c in b.items()]
    acc = {}
    for ea, ca in a.items():
        xa, ya, da = ca.x, ca.y, ca.d
        for eb, xb, yb, db in cols:
            e = tuple(map(add, ea, eb))
            x = xa * xb - ya * yb
            y = xa * yb + ya * xb
            d = da * db
            s = acc.get(e)
            if s is None:
                acc[e] = [x, y, d]
            elif s[2] == d:
                s[0] += x
                s[1] += y
            else:
                _add_over_lcm(s, x, y, d)
    return _reduced(acc)


__all__ = [
    "COEFF_BACKEND",
    "GQ_HALF",
    "GQ_I",
    "GQ_MINUS_I",
    "GQ_ONE",
    "GQ_ZERO",
    "GaussianRational",
    "Rational",
    "as_gaussian",
    "gaussian",
    "terms_add",
    "terms_add_into",
    "terms_mul",
    "terms_scale",
    "terms_sub",
]
