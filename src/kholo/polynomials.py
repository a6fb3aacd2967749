"""Sparse multivariate polynomials over Q(i).

The single polynomial type used everywhere in the toolkit, together with the
operator calculus the pipelines need: affine substitution, formal partial and
Wirtinger derivatives, real/imaginary splitting, exact division and single
variable polynomial substitution.

Variable names encode their role: ``x3``/``y3`` are the real and imaginary
coordinates of the third complex dimension, ``z3``/``w3`` are complex
coordinates, ``t`` is the fiber variable of annihilating polynomials and
``w0`` is the auxiliary elimination variable.  Monomials are ordered graded
lexicographically with respect to the space's fixed variable order.
"""

import re as _re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

from kholo.errors import (
    DegreeOverflow,
    IncompleteAssignment,
    IncompleteSubstitution,
    IndexOutOfRange,
    InexactDivision,
    NonRealCoefficients,
    NonZSpace,
    SpaceMismatch,
    UnknownVariable,
)
from kholo.rationals import (
    GQ_HALF,
    GQ_I,
    GQ_MINUS_I,
    GaussianRational,
    _add_over_lcm,
    _lowest,
    as_gaussian,
    terms_add,
    terms_add_into,
    terms_mul,
    terms_scale,
    terms_sub,
)

MAX_TOTAL_DEGREE = 10**6
# The most terms one product of two sums may expand to while an expression is
# read (kholo.exprio), also inside a power.  A term costs about 4 us at
# perfbench's reference speed with small coefficients, and under 100 us with
# 2,000-digit ones, so the largest accepted product stays under 1 s.
MAX_EXPANSION_TERMS = 10**4

_NAME_RE = _re.compile(r"^([xyzw])([1-9][0-9]*)$")


def variable_kind(name):
    """Classify a variable name: ('x'|'y'|'z'|'w', index), ('t', 0) or ('aux', 0)."""
    if name == "t":
        return ("t", 0)
    if name == "w0":
        return ("aux", 0)
    m = _NAME_RE.match(name)
    if m is None:
        raise UnknownVariable(f"unrecognized variable name {name!r}")
    return (m.group(1), int(m.group(2)))


class VarSpace:
    """An ordered, kind-tagged variable list with n complex dimensions."""

    __slots__ = ("names", "n", "_index")

    def __init__(self, names, n):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UnknownVariable(f"duplicate variable names in {names}")
        for name in names:
            variable_kind(name)
        self.names = names
        self.n = n
        self._index = {name: k for k, name in enumerate(names)}

    # -- factories for the spaces the pipelines use ------------------------

    @classmethod
    def z(cls, n):
        return cls([f"z{j}" for j in range(1, n + 1)], n)

    @classmethod
    def zw(cls, n):
        return cls([f"z{j}" for j in range(1, n + 1)]
                   + [f"w{j}" for j in range(1, n + 1)], n)

    @classmethod
    def xy(cls, n):
        return cls([f"x{j}" for j in range(1, n + 1)]
                   + [f"y{j}" for j in range(1, n + 1)], n)

    @classmethod
    def xyt(cls, n):
        return cls([f"x{j}" for j in range(1, n + 1)]
                   + [f"y{j}" for j in range(1, n + 1)] + ["t"], n)

    @classmethod
    def xt(cls, n):
        return cls([f"x{j}" for j in range(1, n + 1)] + ["t"], n)

    @classmethod
    def zt(cls, n):
        return cls([f"z{j}" for j in range(1, n + 1)] + ["t"], n)

    @classmethod
    def ztw(cls, n):
        return cls([f"z{j}" for j in range(1, n + 1)] + ["t", "w0"], n)

    # ----------------------------------------------------------------------

    def __contains__(self, name):
        return name in self._index

    def __len__(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"{name!r} is not a variable of {self}") from None

    def __eq__(self, other):
        if not isinstance(other, VarSpace):
            return NotImplemented
        return self.names == other.names and self.n == other.n

    def __hash__(self):
        return hash((self.names, self.n))

    def __repr__(self):
        return f"VarSpace({list(self.names)}, n={self.n})"

    def __str__(self):
        """The variable names as input spells them, e.g. ``(z1, t)``."""
        return f"({', '.join(self.names)})"

    def drop(self, name):
        """The same space without one variable."""
        k = self.index(name)
        return VarSpace(self.names[:k] + self.names[k + 1:], self.n)

    def kinds(self):
        return [variable_kind(name)[0] for name in self.names]

    def is_z_only(self):
        return all(kind == "z" for kind in self.kinds())

    def xy_pair_count(self):
        """Number of (x_j, y_j) pairs; raises unless the pairs are complete."""
        xs = sorted(idx for kind, idx in map(variable_kind, self.names) if kind == "x")
        ys = sorted(idx for kind, idx in map(variable_kind, self.names) if kind == "y")
        if xs != ys or xs != list(range(1, len(xs) + 1)):
            raise IndexOutOfRange(f"{self} does not carry complete x/y pairs")
        return len(xs)


class SparsePoly:
    """Sparse polynomial: a map from exponent vectors to nonzero coefficients.

    Values are immutable; all arithmetic returns fresh polynomials in
    canonical form (no zero coefficients, exponent vectors unique).
    """

    __slots__ = ("space", "_terms", "_total_degree")

    def __init__(self, space, terms):
        # terms must already be canonical; use from_terms for raw input
        self.space = space
        self._terms = terms
        self._total_degree = None

    @classmethod
    def from_terms(cls, space, mapping):
        """Build from possibly messy input: coerces, merges, drops zeros."""
        width = len(space.names)
        terms = {}
        for exps, coeff in mapping.items():
            exps = tuple(exps)
            if len(exps) != width:
                raise SpaceMismatch(
                    f"exponent vector {exps} has arity {len(exps)}, space needs {width}")
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise DegreeOverflow(f"exponents must be non-negative ints: {exps}")
            if sum(exps) > MAX_TOTAL_DEGREE:
                raise DegreeOverflow(f"term degree {sum(exps)} exceeds {MAX_TOTAL_DEGREE}")
            coeff = as_gaussian(coeff)
            if not coeff:
                continue
            prev = terms.get(exps)
            if prev is None:
                terms[exps] = coeff
            else:
                s = prev + coeff
                if s:
                    terms[exps] = s
                else:
                    del terms[exps]
        return cls(space, terms)

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def constant(cls, space, value):
        value = as_gaussian(value)
        if not value:
            return cls(space, {})
        return cls(space, {(0,) * len(space.names): value})

    @classmethod
    def variable(cls, space, name, coeff=1):
        k = space.index(name)
        exps = tuple(1 if j == k else 0 for j in range(len(space.names)))
        coeff = as_gaussian(coeff)
        if not coeff:
            return cls(space, {})
        return cls(space, {exps: coeff})

    # -- inspection ---------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if self._total_degree is None:
            self._total_degree = max((sum(e) for e in self._terms), default=-1)
        return self._total_degree

    def degree_in(self, name):
        k = self.space.index(name)
        return max((e[k] for e in self._terms), default=-1)

    def terms(self):
        """Terms in graded-lexicographic descending order."""
        return sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]),
                      reverse=True)

    def coefficient(self, exps):
        from kholo.rationals import GQ_ZERO
        return self._terms.get(tuple(exps), GQ_ZERO)

    def constant_term(self):
        return self.coefficient((0,) * len(self.space.names))

    def variables_present(self):
        """Names that actually occur, in space order."""
        used = [False] * len(self.space.names)
        for exps in self._terms:
            for k, e in enumerate(exps):
                if e:
                    used[k] = True
        return [name for name, u in zip(self.space.names, used) if u]

    def has_real_coefficients(self):
        return all(c.is_real() for c in self._terms.values())

    def validate(self):
        """Assert canonical-form invariants; for tests and debugging."""
        width = len(self.space.names)
        for exps, coeff in self._terms.items():
            assert isinstance(exps, tuple) and len(exps) == width
            assert all(isinstance(e, int) and e >= 0 for e in exps)
            assert isinstance(coeff, GaussianRational) and bool(coeff)
        return True

    # -- ring arithmetic ----------------------------------------------------

    def _check_space(self, other):
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            self._check_space(other)
            return self._terms == other._terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._terms == SparsePoly.constant(self.space, other)._terms
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_space(other)
        return SparsePoly(self.space, terms_add(self._terms, other._terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_space(other)
        return SparsePoly(self.space, terms_sub(self._terms, other._terms))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return SparsePoly(self.space, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_space(other)
        if self.total_degree() + other.total_degree() > MAX_TOTAL_DEGREE:
            raise DegreeOverflow("product degree exceeds the supported bound")
        return SparsePoly(self.space, terms_mul(self._terms, other._terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value):
        return SparsePoly(self.space, terms_scale(self._terms, as_gaussian(value)))

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent and self.total_degree() * exponent > MAX_TOTAL_DEGREE:
            raise DegreeOverflow("power degree exceeds the supported bound")
        result = SparsePoly.constant(self.space, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return SparsePoly.constant(self.space, other)
        return None

    def __repr__(self):
        from kholo.exprio import print_poly
        return f"<poly {print_poly(self)} in {'/'.join(self.space.names)}>"

    # -- calculus -----------------------------------------------------------

    def partial(self, name):
        """Formal partial derivative with respect to one variable."""
        k = self.space.index(name)
        # lowering the k-th exponent is injective on the terms it keeps, so
        # no two terms merge and no coefficient cancels
        terms = {}
        for exps, c in self._terms.items():
            e = exps[k]
            if e:
                terms[exps[:k] + (e - 1,) + exps[k + 1:]] = _lowest(c.x * e, c.y * e, c.d)
        return SparsePoly(self.space, terms)

    def eval(self, point):
        """Exact value at a full assignment {name: scalar}."""
        from kholo.rationals import GQ_ZERO
        values = {}
        for name in self.variables_present():
            if name not in point:
                raise IncompleteAssignment(f"no value for {name!r}")
            values[self.space.index(name)] = as_gaussian(point[name])
        total = GQ_ZERO
        powers = {}
        for exps, coeff in self._terms.items():
            term = coeff
            for k, e in enumerate(exps):
                if e:
                    cached = powers.get((k, e))
                    if cached is None:
                        cached = values[k] ** e
                        powers[(k, e)] = cached
                    term = term * cached
            total = total + term
        return total


class LinearSubst:
    """An affine substitution: each source variable maps to a degree <= 1 poly.

    Realizes every change of variables the pipelines perform (complexification
    z -> x + i y, the Cartan restrictions z/2 and z/(2i), translations, and
    t -> t - w0).
    """

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = {}
        for name, image in images.items():
            source.index(name)
            if not isinstance(image, SparsePoly):
                image = SparsePoly.constant(target, image)
            if image.space != target:
                raise SpaceMismatch(f"image of {name!r} lives in {image.space}")
            if image.total_degree() > 1:
                raise ValueError(f"image of {name!r} is not affine")
            self.images[name] = image

    def apply(self, p):
        if p.space != self.source:
            raise SpaceMismatch(f"{p.space} vs substitution source {self.source}")
        needed = p.variables_present()
        for name in needed:
            if name not in self.images:
                raise IncompleteSubstitution(f"no image for {name!r}")
        if p.total_degree() > MAX_TOTAL_DEGREE:
            raise DegreeOverflow("input degree exceeds the supported bound")
        one = SparsePoly.constant(self.target, 1)
        powers = {}

        def power(k, e):
            key = (k, e)
            cached = powers.get(key)
            if cached is None:
                if e == 1:
                    cached = self.images[p.space.names[k]]
                else:
                    half = power(k, e // 2)
                    cached = half * half
                    if e & 1:
                        cached = cached * power(k, 1)
                powers[key] = cached
            return cached

        acc = {}
        for exps, coeff in p._terms.items():
            prod = one
            for k, e in enumerate(exps):
                if e:
                    prod = prod * power(k, e)
            terms_add_into(acc, terms_scale(prod._terms, coeff))
        return SparsePoly(self.target, acc)


# -- operations on top of the core type --------------------------------------

def rename_space(p, target, mapping):
    """Formal re-tagging of variables: same exponents, new names.

    ``mapping`` sends each source name carrying a nonzero exponent to a target
    name; untouched source variables may be omitted.
    """
    width = len(target.names)
    column = {}
    for name in p.variables_present():
        if name not in mapping:
            raise IncompleteSubstitution(f"no target name for {name!r}")
        column[p.space.index(name)] = target.index(mapping[name])
    terms = {}
    for exps, coeff in p._terms.items():
        new = [0] * width
        for k, e in enumerate(exps):
            if e:
                new[column[k]] = e
        terms[tuple(new)] = coeff
    return SparsePoly(target, terms)


def drop_variable(p, name):
    """Forget a variable the polynomial does not use."""
    k = p.space.index(name)
    if p.degree_in(name) > 0:
        raise SpaceMismatch(f"{name!r} still occurs; cannot drop it")
    target = p.space.drop(name)
    terms = {exps[:k] + exps[k + 1:]: coeff for exps, coeff in p._terms.items()}
    return SparsePoly(target, terms)


def conjugate_coefficients(p):
    """Apply complex conjugation to every coefficient."""
    return SparsePoly(p.space, {e: c.conjugate() for e, c in p._terms.items()})


def real_imag_coefficient_parts(p):
    """Split each coefficient a + b*i into (a, b); both results are real."""
    re_terms = {}
    im_terms = {}
    for exps, coeff in p._terms.items():
        if coeff.x:
            re_terms[exps] = GaussianRational(coeff.re)
        if coeff.y:
            im_terms[exps] = GaussianRational(coeff.im)
    return SparsePoly(p.space, re_terms), SparsePoly(p.space, im_terms)


def complexify_substitution(source, target, pairing):
    """LinearSubst sending the k-th complex variable to x_k + i*y_k.

    ``pairing`` lists (complex_name, x_name, y_name) triples.
    """
    images = {}
    for cname, xname, yname in pairing:
        images[cname] = (SparsePoly.variable(target, xname)
                         + SparsePoly.variable(target, yname, GQ_I))
    return LinearSubst(source, target, images)


def to_real_coordinates(p):
    """Expand a polynomial in complex coordinates into paired real ones.

    The k-th variable of ``p`` (in space order) becomes x_k + i*y_k; the
    result lives in the x/y space with one pair per complex variable.
    """
    m = len(p.space.names)
    target = VarSpace.xy(m)
    pairing = [(name, f"x{k + 1}", f"y{k + 1}") for k, name in enumerate(p.space.names)]
    return complexify_substitution(p.space, target, pairing).apply(p)


def split_real_imag(p):
    """Decompose a z-variable polynomial as re + i*im over real coordinates.

    Substitutes z_j -> x_j + i*y_j and sorts the coefficients; both returned
    polynomials have real coefficients and satisfy the exact identity
    p(x + i*y) = re + i*im in Q(i)[x, y].
    """
    if not p.space.is_z_only():
        raise NonZSpace(f"split_real_imag needs z-variables only, got {p.space}")
    expanded = to_real_coordinates(p)
    return real_imag_coefficient_parts(expanded)


def wirtinger(p, j, barred):
    """Wirtinger derivative d/dz_j (or d/dzbar_j when barred) on x/y space.

    d/dz_j = (d/dx_j - i d/dy_j)/2 and d/dzbar_j = (d/dx_j + i d/dy_j)/2;
    both are linear and satisfy the Leibniz rule.
    """
    npairs = p.space.xy_pair_count()
    if not 1 <= j <= npairs:
        raise IndexOutOfRange(f"index {j} outside 1..{npairs}")
    dx = p.partial(f"x{j}")
    dy = p.partial(f"y{j}")
    unit = GQ_I if barred else GQ_MINUS_I
    return (dx + dy.scale(unit)).scale(GQ_HALF)


def require_real_coefficients(p, where):
    if not p.has_real_coefficients():
        raise NonRealCoefficients(f"{where} requires real coefficients")


def univariate_coefficients(p, name):
    """Coefficients of p as a univariate polynomial in ``name``.

    Returns a list indexed by the degree in ``name``; entries live in the
    space with ``name`` dropped.  The zero polynomial yields [].
    """
    k = p.space.index(name)
    target = p.space.drop(name)
    d = p.degree_in(name)
    if d < 0:
        return []
    buckets = [dict() for _ in range(d + 1)]
    for exps, coeff in p._terms.items():
        buckets[exps[k]][exps[:k] + exps[k + 1:]] = coeff
    return [SparsePoly(target, b) for b in buckets]


def substitute_variable(p, name, value):
    """Substitute a polynomial for one variable (Horner in that variable).

    The result lives in ``value.space``; every other variable of ``p`` must
    exist there.  This is the general (non-affine) substitution entry point
    used to evaluate annihilators at t = f(z).
    """
    target = value.space
    mapping = {}
    for other in p.space.names:
        if other != name:
            target.index(other)
            mapping[other] = other
    coeffs = univariate_coefficients(p, name)
    if not coeffs:
        return SparsePoly.zero(target)
    lifted = [rename_space(c, target, mapping) for c in coeffs]
    result = lifted[-1]
    for c in reversed(lifted[:-1]):
        result = result * value + c
    return result


def exact_divide(p, d):
    """Exact quotient p / d in the polynomial ring; raises if not exact."""
    q = try_divide(p, d)
    if q is None:
        raise InexactDivision("division left a remainder")
    return q


def _heap_key(exps):
    # graded-lex descending order as a min-heap order; keys add like exponents
    return (-sum(exps), *map(neg, exps))


def try_divide(p, d):
    """Quotient p / d when d divides p exactly, else None.

    Leading-term cancellation in graded-lex order; valid because lt(q*d) =
    lt(q)*lt(d) for any multiplicative monomial order.  The remainder is one
    dict, keyed by ``_heap_key`` and updated in place, with a heap of its
    keys: each quotient term pops the leading key and subtracts its multiple
    of d's other |d| - 1 terms.  A key whose coefficient cancels stays in the
    heap and is skipped when popped.  Remainder coefficients are kept as
    unreduced numerators [x, y, den] and reduced once, when they lead and
    become a quotient coefficient.
    """
    if p.space != d.space:
        raise SpaceMismatch(f"{p.space} vs {d.space}")
    if d.is_zero():
        raise InexactDivision("division by the zero polynomial")
    d_keys = sorted((_heap_key(e), c.x, c.y, c.d) for e, c in d._terms.items())
    (lead, lx, ly, ld), tail = d_keys[0], d_keys[1:]
    norm = lx * lx + ly * ly
    rest = {_heap_key(e): [c.x, c.y, c.d] for e, c in p._terms.items()}
    heap = list(rest)
    heapify(heap)
    quotient = {}
    while heap:
        key = heappop(heap)
        r = rest.pop(key, None)
        if r is None:
            continue
        q_key = tuple(map(sub, key, lead))
        if max(q_key) > 0:
            return None
        # q = r / lc(d) = r * ld * (lx - ly*i) / norm
        rx, ry, rd = r
        q = _lowest((rx * lx + ry * ly) * ld, (ry * lx - rx * ly) * ld, rd * norm)
        quotient[q_key] = q
        # rest -= q * (d - lt(d)), over the lcm of the two denominators
        qx, qy, qd = q.x, q.y, q.d
        for t_key, tx, ty, td in tail:
            m = tuple(map(add, q_key, t_key))
            px = qx * tx - qy * ty
            py = qx * ty + qy * tx
            pd = qd * td
            old = rest.get(m)
            if old is None:
                rest[m] = [-px, -py, pd]
                heappush(heap, m)
                continue
            if old[2] == pd:
                old[0] -= px
                old[1] -= py
            else:
                _add_over_lcm(old, -px, -py, pd)
            if not (old[0] or old[1]):
                del rest[m]
    return SparsePoly(p.space, {tuple(map(neg, key[1:])): c for key, c in quotient.items()})
