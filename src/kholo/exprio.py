"""Expression parsing and canonical printing.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ['^' nat]
    atom     := rational | 'i' | ident | '(' expr ')' | '-' factor
    rational := int ['/' int]
    nat, int := decimal digit+
    ident    := letter (letter|digit)*

``i`` is the imaginary unit literal.  A parenthesized exponent is tolerated
so that ``x^(-1)`` reports NegativeExponent rather than a bare syntax error.
A digit is a Unicode decimal digit (``str.isdecimal``), exactly what
``int()`` reads, so ``²`` is an unexpected character wherever it stands,
after a name (``x²``) too.

One recursive descent checks the grammar and builds the term map of the
space as it reads; there is no syntax tree.  The text is tokenized first, so
an unexpected character is reported before anything else; after that the
first fault in reading order is reported, whether it is a grammar fault, an
unknown name or a refused power or product (``q + (`` reports the unknown
``q``, ``( + q`` the unexpected ``+``).

Parsing keeps a budget: each product of two sums, also inside a power of a
sum, may expand to at most ``polynomials.MAX_EXPANSION_TERMS`` terms
(|A|*|B| for sums of |A| and |B| terms), and no integer may pass the
interpreter's ``int``/``str`` digit limit (``sys.get_int_max_str_digits()``,
checked on literals, bounded before a power is taken and checked on the
result).  Both refusals raise ExpansionTooLarge, an input error.

The tokenizer records each token's column as its offset from the start of
its line plus one, and the parser's hot peeks read a parallel list of token
kinds.  Rational literals are built straight in the canonical
``(x, y, d)`` form.

The printer emits the canonical form (graded-lex descending terms,
coefficients as ``a``, ``a/b`` or ``(a+b*i)``); parsing its output always
reproduces the polynomial exactly.  It reads each coefficient's integer
triple ``(x, y, d)`` directly, with at most one gcd per printed part and no
``Fraction``.
"""

import sys
from math import gcd, lcm, log10
from operator import add

from kholo.errors import (
    DegreeOverflow,
    DivisionByZero,
    ExpansionTooLarge,
    ExprSyntaxError,
    NegativeExponent,
    UnknownVariable,
)
from kholo.polynomials import MAX_EXPANSION_TERMS, MAX_TOTAL_DEGREE, SparsePoly, VarSpace
from kholo.rationals import GQ_I, GQ_ONE, _exact, _lowest, terms_mul

_MAX_DEPTH = 200


# -- tokenizer ----------------------------------------------------------------

_SYMBOLS = set("+-*^/()")


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind  # 'int' | 'ident' | symbol | 'end'
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text):
    """The tokens of the text; each column is ``pos - line_start + 1``."""
    tokens = []
    line, line_start = 1, 0
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, pos - line_start + 1))
            pos += 1
            continue
        start = pos
        if ch.isdecimal():
            pos += 1
            while pos < length and text[pos].isdecimal():
                pos += 1
            tokens.append(_Token("int", text[start:pos], line, start - line_start + 1))
            continue
        if ch.isalpha():
            pos += 1
            while pos < length and (text[pos].isalpha() or text[pos].isdecimal()):
                pos += 1
            tokens.append(_Token("ident", text[start:pos], line, start - line_start + 1))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, pos - line_start + 1)
    tokens.append(_Token("end", "", line, pos - line_start + 1))
    return tokens


# -- checks -------------------------------------------------------------------

def _resolve_name(name, space):
    if name in space:
        return name
    # one-dimensional convenience: x means x1 when n == 1
    if space.n == 1 and name in ("x", "y", "z", "w") and f"{name}1" in space:
        return f"{name}1"
    raise UnknownVariable(f"{name!r} is not a variable of this space")


def _digit_limit():
    """Decimal digits int() and str() convert; 0 means no limit."""
    get = getattr(sys, "get_int_max_str_digits", None)  # Python 3.10.7 and later
    return get() if get else 0


def _integer(tok, limit):
    """The value of an 'int' token, refused beyond the digit limit (0: none)."""
    if limit and len(tok.text) > limit:
        raise ExpansionTooLarge(
            f"integer of {len(tok.text)} digits at line {tok.line}, column {tok.column} "
            f"is over the limit of {limit} digits")
    return int(tok.text)


def _degree(value):
    if type(value) is tuple:
        return sum(value[0])
    return max(map(sum, value), default=-1)


def _as_value(terms):
    if len(terms) == 1:
        return next(iter(terms.items()))
    return terms


def _check_power_degree(degree, e):
    if degree * e > MAX_TOTAL_DEGREE:
        raise DegreeOverflow("power degree exceeds the supported bound")


def _multiply(a, b, what):
    """The ring product of two sums, refused when it could pass the term budget."""
    if len(a) * len(b) > MAX_EXPANSION_TERMS:
        raise ExpansionTooLarge(
            f"{what} multiplies sums of {len(a)} and {len(b)} terms, up to "
            f"{len(a) * len(b)} terms, over the limit of {MAX_EXPANSION_TERMS}")
    return terms_mul(a, b)


def _check_power_digits(coeffs, e, limit):
    """Refuse a power whose coefficients could pass the digit limit.

    With L the lcm of the denominators and n_j = c_j * L, each coefficient of
    (sum c_j m_j)^e has a denominator dividing L^e and real and imaginary
    numerators at most (sum |Re n_j| + |Im n_j|)^e, the multinomial bound.
    """
    if not limit:
        return
    den = lcm(*(c.d for c in coeffs))
    top = sum((abs(c.x) + abs(c.y)) * (den // c.d) for c in coeffs)
    digits = int(e * log10(max(top, den))) + 1
    if digits > limit:
        raise ExpansionTooLarge(
            f"power {e} builds integers of up to {digits} digits, "
            f"over the limit of {limit} digits")


def _check_digits(terms, limit):
    """Refuse a result holding an integer str() could not print."""
    if not limit:
        return
    cap = limit * 3321928 // 1000000  # 2**cap <= 10**limit: values of at most cap bits fit
    for c in terms.values():
        bits = max(c.x.bit_length(), c.y.bit_length(), c.d.bit_length())
        if bits > cap and max(abs(c.x), abs(c.y), c.d) >= 10**limit:
            raise ExpansionTooLarge(
                f"a coefficient has up to {int(bits * 0.30103) + 1} digits, "
                f"over the limit of {limit} digits")


# -- parser -------------------------------------------------------------------
#
# Each production returns its value in the space: a monomial, the tuple
# (exps, nonzero coeff), or a term map dict with no or at least two terms.
# A sum adds its terms into one dict; a product folds its monomial factors
# into one monomial and multiplies term maps only for the factors that are
# sums.

class _Parser:
    def __init__(self, text, space):
        self.tokens = _tokenize(text)
        self.kinds = [tok.kind for tok in self.tokens]  # the hot peeks read these
        self.pos = 0
        self.depth = 0
        self.space = space
        self.constant = (0,) * len(space.names)
        self.units = {}
        self.limit = _digit_limit()

    def peek(self):
        return self.tokens[self.pos]

    def expect(self, kind):
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.column)
        self.pos += 1
        return tok

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            raise ExprSyntaxError("expression nested too deeply",
                                  tok.line, tok.column)

    def unit(self, name):
        exps = self.units.get(name)
        if exps is None:
            k = self.space.index(_resolve_name(name, self.space))
            exps = self.units[name] = tuple(int(j == k) for j in range(len(self.constant)))
        return exps

    def parse(self):
        terms = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {tok.text!r}",
                                  tok.line, tok.column)
        return terms

    def expr(self):
        """The term map of a sum, its terms added in reading order."""
        self._enter()
        out = {}
        negative = False
        while True:
            value = self.term()
            for exps, c in (value,) if type(value) is tuple else value.items():
                if negative:
                    c = -c
                prev = out.get(exps)
                if prev is None:
                    out[exps] = c
                else:
                    c = prev + c
                    if c:
                        out[exps] = c
                    else:
                        del out[exps]
            op = self.kinds[self.pos]
            if op != "+" and op != "-":
                break
            self.pos += 1
            negative = op == "-"
        self.depth -= 1
        return out

    def term(self):
        """One monomial times the product of the factors that are sums."""
        value = self.factor()
        kinds = self.kinds
        if kinds[self.pos] != "*":
            return value
        exps = list(self.constant)
        coeff = GQ_ONE
        sums = None
        degree = 0  # of the product so far; -1 once it is zero
        while True:
            factor_degree = _degree(value)
            if degree + factor_degree > MAX_TOTAL_DEGREE:
                raise DegreeOverflow("product degree exceeds the supported bound")
            if degree < 0 or factor_degree < 0:
                degree = -1
            else:
                degree += factor_degree
                if type(value) is tuple:
                    for j, e in enumerate(value[0]):
                        if e:
                            exps[j] += e
                    if value[1] is not GQ_ONE:
                        coeff = value[1] if coeff is GQ_ONE else coeff * value[1]
                elif sums is None:
                    sums = value
                else:
                    sums = _multiply(sums, value, "a product")
            if kinds[self.pos] != "*":
                break
            self.pos += 1
            value = self.factor()
        if degree < 0:
            return {}
        exps = tuple(exps)
        if sums is None:
            return (exps, coeff)
        if exps == self.constant and coeff == GQ_ONE:
            return sums
        return {tuple(map(add, e, exps)): c * coeff for e, c in sums.items()}

    def factor(self):
        self._enter()
        base = self.atom()
        if self.kinds[self.pos] == "^":
            self.pos += 1
            base = self.power(base, self.exponent())
        self.depth -= 1
        return base

    def exponent(self):
        tok = self.peek()
        wrapped = tok.kind == "("
        if wrapped:
            self.pos += 1
            tok = self.tokens[self.pos]
        if tok.kind == "-":
            raise NegativeExponent("exponent must be a non-negative integer",
                                   tok.line, tok.column)
        value = _integer(self.expect("int"), self.limit)
        if wrapped:
            self.expect(")")
        return value

    def power(self, base, e):
        if e > MAX_TOTAL_DEGREE:
            raise DegreeOverflow(f"exponent {e} exceeds the bound")
        if e == 1:
            return base
        if e == 0:
            return (self.constant, GQ_ONE)
        if not base:
            return {}
        if type(base) is tuple:
            exps, c = base
            _check_power_degree(sum(exps), e)
            if c is not GQ_ONE:
                _check_power_digits((c,), e, self.limit)
                c = c ** e
            return (tuple(x * e for x in exps), c)
        _check_power_degree(_degree(base), e)
        _check_power_digits(base.values(), e, self.limit)
        # binary powering, each product checked against the term budget
        what = f"power {e} of a sum of {len(base)} terms"
        result = None
        while True:
            if e & 1:
                result = base if result is None else _multiply(result, base, what)
            e >>= 1
            if not e:
                return result
            base = _multiply(base, base, what)

    def atom(self):
        self._enter()
        kind = self.kinds[self.pos]
        if kind == "-":
            self.pos += 1
            value = self.factor()
            if type(value) is tuple:
                value = (value[0], -value[1])
            else:
                value = {exps: -c for exps, c in value.items()}
        elif kind == "(":
            self.pos += 1
            value = _as_value(self.expr())
            self.expect(")")
        elif kind == "int":
            c = self.rational()
            value = (self.constant, c) if c else {}
        elif kind == "ident":
            tok = self.tokens[self.pos]
            self.pos += 1
            if tok.text == "i":
                value = (self.constant, GQ_I)
            else:
                value = (self.unit(tok.text), GQ_ONE)
        else:
            tok = self.tokens[self.pos]
            raise ExprSyntaxError(
                f"unexpected {tok.text or 'end of input'!r}",
                tok.line, tok.column)
        self.depth -= 1
        return value

    def rational(self):
        numerator = _integer(self.expect("int"), self.limit)
        if self.kinds[self.pos] == "/":
            self.pos += 1
            den_tok = self.expect("int")
            denominator = _integer(den_tok, self.limit)
            if denominator == 0:
                raise DivisionByZero(
                    f"zero denominator at line {den_tok.line}, "
                    f"column {den_tok.column}")
            return _lowest(numerator, 0, denominator)
        return _exact(numerator, 0, 1)


def parse_poly(text, space):
    """Parse an expression into a canonical polynomial of the space.

    Refuses with ExpansionTooLarge a product of two sums, also one inside a
    power, that could expand past ``MAX_EXPANSION_TERMS`` terms, and any
    integer beyond the interpreter's ``int``/``str`` digit limit.
    """
    parser = _Parser(text, space)
    terms = parser.parse()
    _check_digits(terms, parser.limit)
    return SparsePoly(space, terms)


def parse_gaussian(text):
    """Parse a constant expression to a GaussianRational."""
    empty = VarSpace((), 0)
    return parse_poly(text, empty).constant_term()


def parse_point(text, n):
    """Parse a comma-separated Gaussian-rational tuple of arity n."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    if len(parts) != n:
        raise ExprSyntaxError(f"expected {n} coordinates, found {len(parts)}")
    return tuple(parse_gaussian(part) for part in parts)


# -- printer ------------------------------------------------------------------
#
# A coefficient is printed from its canonical triple (x + y*i)/d, and no
# Fraction is built.  A real coefficient's x/d is already in lowest terms
# (gcd(x, 0, d) == gcd(x, d) == 1); each part of a non-real one is reduced by
# one gcd with d.

def _ratio_text(n, d):
    """n/d in lowest terms, as 'n' or 'n/d'; d > 0."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    if g != 1:
        n //= g
        d //= g
    return f"{n}/{d}"


def _gaussian_text(x, y, d):
    """'(a+b*i)', '(a-i)', '(b*i)' and so on, for y != 0."""
    mag = -y if y < 0 else y
    piece = "i" if mag == d else f"{_ratio_text(mag, d)}*i"
    if not x:
        return f"(-{piece})" if y < 0 else f"({piece})"
    return f"({_ratio_text(x, d)}{'-' if y < 0 else '+'}{piece})"


def format_gaussian(c):
    """Canonical scalar form: 'a', 'a/b', or parenthesized 'a+b*i'."""
    if c.y:
        return _gaussian_text(c.x, c.y, c.d)
    return str(c.x) if c.d == 1 else f"{c.x}/{c.d}"


def print_poly(p):
    """Canonical text: graded-lex descending terms, parse(print(p)) == p."""
    if p.is_zero():
        return "0"
    names = p.space.names
    out = []
    for exps, c in p.terms():
        mono = "*".join([name if e == 1 else f"{name}^{e}"
                         for name, e in zip(names, exps) if e])
        x, y, d = c.x, c.y, c.d
        if y:
            body = _gaussian_text(x, y, d)
            out.append(f" + {body}*{mono}" if mono else f" + {body}")
            continue
        sign = " + "
        if x < 0:
            sign, x = " - ", -x
        if not mono:
            out.append(f"{sign}{x}" if d == 1 else f"{sign}{x}/{d}")
        elif d == 1:
            out.append(sign + mono if x == 1 else f"{sign}{x}*{mono}")
        else:
            out.append(f"{sign}{x}/{d}*{mono}")
    first = out[0]
    out[0] = "-" + first[3:] if first[1] == "-" else first[3:]
    return "".join(out)
