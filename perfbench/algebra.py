"""Exact arithmetic over Q(i), independent of kholo.

The benchmark builds its inputs and checks kholo's answers with this module
only, for two reasons: the inputs must stay byte-identical when kholo's
printer or kernels change, and a check must not share code with the path it
checks.

A polynomial is a dict {exponent tuple: nonzero G}; variable names live with
the caller as a list parallel to the exponent positions.
"""

from fractions import Fraction


class G:
    """Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return G(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return G(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return G(self.re * other.re - self.im * other.im,
                 self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        num = self * other.conjugate()
        return G(num.re / norm, num.im / norm)

    def __neg__(self):
        return G(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        return isinstance(other, G) and self.re == other.re and self.im == other.im

    def __repr__(self):
        return f"G({self.re}, {self.im})"

    def conjugate(self):
        return G(self.re, -self.im)


ONE = G(1)
I = G(0, 1)


# -- polynomials ----------------------------------------------------------------

def add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out[e] + c if e in out else c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def sub(a, b):
    return add(a, scale(b, G(-1)))


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out[e] + ca * cb if e in out else ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def constant(value, width):
    value = value if isinstance(value, G) else G(value)
    return {(0,) * width: value} if value else {}


def variable(k, width, coeff=ONE):
    return {tuple(int(j == k) for j in range(width)): coeff}


def power(p, e, width):
    result = constant(1, width)
    for _ in range(e):
        result = mul(result, p)
    return result


def substitute(p, images, width):
    """p with variable k replaced by the polynomial images[k] (target width)."""
    cache = {}
    out = {}
    for exps, coeff in p.items():
        term = constant(coeff, width)
        for k, e in enumerate(exps):
            if e:
                if (k, e) not in cache:
                    cache[k, e] = power(images[k], e, width)
                term = mul(term, cache[k, e])
        out = add(out, term)
    return out


def evaluate(p, point):
    """Value of p at a scalar point (a sequence of G, one per position)."""
    total = G(0)
    for exps, coeff in p.items():
        term = coeff
        for value, e in zip(point, exps):
            for _ in range(e):
                term = term * value
        total = total + term
    return total


def partial(p, k):
    out = {}
    for exps, coeff in p.items():
        if exps[k]:
            e = exps[:k] + (exps[k] - 1,) + exps[k + 1:]
            out = add(out, {e: coeff * G(exps[k])})
    return out


def real_part(p):
    return {e: G(c.re) for e, c in p.items() if c.re}


def imag_part(p):
    return {e: G(c.im) for e, c in p.items() if c.im}


def univariate(p, k):
    """Coefficients of p in variable k, lowest degree first; entries drop k."""
    degree = max((e[k] for e in p), default=-1)
    coeffs = [{} for _ in range(degree + 1)]
    for exps, coeff in p.items():
        coeffs[exps[k]][exps[:k] + exps[k + 1:]] = coeff
    return coeffs


# -- complex coordinates ------------------------------------------------------------

def real_coordinates(f, n):
    """f(x + i*y) for f in z1..zn, as a polynomial in x1..xn, y1..yn."""
    width = 2 * n
    images = [add(variable(j, width), variable(n + j, width, I)) for j in range(n)]
    return substitute(f, images, width)


def mixed_wirtinger(u, j, k, n):
    """d^2 u / dz_j dzbar_k for u in x1..xn, y1..yn."""
    def wirtinger(p, m, barred):
        dy = scale(partial(p, n + m), I if barred else -I)
        return scale(add(partial(p, m), dy), G(Fraction(1, 2)))
    return wirtinger(wirtinger(u, j, False), k, True)


def cartan_candidate(u, n):
    """2*u(z/2, z/(2i)) - u(0): the completion formula, computed here."""
    images = ([variable(j, n, G(Fraction(1, 2))) for j in range(n)]
              + [variable(j, n, G(0, Fraction(-1, 2))) for j in range(n)])
    doubled = scale(substitute(u, images, n), G(2))
    return sub(doubled, constant(u.get((0,) * (2 * n), G(0)), n))


# -- univariate discriminant by the field Euclidean algorithm ---------------------

def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _remainder(a, b):
    a = list(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] = a[shift + k] - factor * c
        a = _trim(a)
    return a


def resultant(a, b):
    """Res(a, b) of univariate coefficient lists, by Euclidean remainders."""
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return G(0)
    result = ONE
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        r = _remainder(a, b)
        if not r:
            return G(0)
        if (m * n) % 2:
            result = -result
        lead = b[-1]
        for _ in range(m - (len(r) - 1)):
            result = result * lead
        a, b = b, r
    value = b[0]
    for _ in range(len(a) - 1):
        result = result * value
    return result


def discriminant(coeffs):
    """(-1)^(d(d-1)/2) Res(p, p') / lc(p) for a univariate coefficient list."""
    coeffs = _trim(coeffs)
    d = len(coeffs) - 1
    deriv = [c * G(k) for k, c in enumerate(coeffs)][1:]
    value = resultant(coeffs, deriv) / coeffs[-1]
    return -value if (d * (d - 1) // 2) % 2 else value


# -- text in kholo's expression grammar -------------------------------------------------

def _rational(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coefficient(c):
    """Text of c and whether it must be subtracted, for use as a term prefix."""
    if not c.im:
        return _rational(abs(c.re)), c.re < 0
    if not c.re:
        return f"{_rational(abs(c.im))}*i", c.im < 0
    sign = "+" if c.im > 0 else "-"
    return f"({_rational(c.re)} {sign} {_rational(abs(c.im))}*i)", False


def to_text(p, names):
    """Text parsed by kholo; terms in descending exponent order."""
    if not p:
        return "0"
    out = []
    for exps in sorted(p, key=lambda e: (sum(e), e), reverse=True):
        coeff, negative = _coefficient(p[exps])
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(names, exps) if e)
        if not mono:
            body = coeff
        elif coeff == "1":
            body = mono
        else:
            body = f"{coeff}*{mono}"
        if out:
            out.append(f" - {body}" if negative else f" + {body}")
        else:
            out.append(f"-{body}" if negative else body)
    return "".join(out)


def scalar_text(c):
    coeff, negative = _coefficient(c)
    return f"-{coeff}" if negative else coeff


def parse(text, names):
    """Parse kholo's grammar (no n = 1 aliases) into a polynomial over names."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch.isdigit() or ch.isalpha():
            end = pos
            while end < len(text) and text[end].isalnum():
                end += 1
            tokens.append(text[pos:end])
            pos = end
        else:
            tokens.append(ch)
            pos += 1
    tokens.append("")
    width = len(names)
    index = {name: k for k, name in enumerate(names)}
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(expected=None):
        tok = tokens[at[0]]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        at[0] += 1
        return tok

    def expr():
        value = term()
        while peek() in ("+", "-"):
            value = add(value, term()) if take() == "+" else sub(value, term())
        return value

    def term():
        value = factor()
        while peek() == "*":
            take()
            value = mul(value, factor())
        return value

    def factor():
        value = atom()
        if peek() == "^":
            take()
            value = power(value, int(take()), width)
        return value

    def atom():
        tok = take()
        if tok == "-":
            return scale(factor(), G(-1))
        if tok == "(":
            value = expr()
            take(")")
            return value
        if tok.isdigit():
            if peek() == "/":
                take()
                return constant(Fraction(int(tok), int(take())), width)
            return constant(int(tok), width)
        if tok == "i":
            return constant(I, width)
        if tok in index:
            return variable(index[tok], width)
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    value = expr()
    take("")
    return value


def names_xy(n):
    return [f"x{j}" for j in range(1, n + 1)] + [f"y{j}" for j in range(1, n + 1)]


def names_xyt(n):
    return names_xy(n) + ["t"]


def names_z(n):
    return [f"z{j}" for j in range(1, n + 1)]


def names_zt(n):
    return names_z(n) + ["t"]
