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

The printer emits the canonical form (graded-lex descending terms,
coefficients as ``a``, ``a/b`` or ``(a+b*i)``); parsing its output always
reproduces the polynomial exactly.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, log10
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
from kholo.rationals import GQ_I, GQ_ONE, GaussianRational, terms_mul

_MAX_DEPTH = 200


# -- tokenizer ----------------------------------------------------------------

_SYMBOLS = set("+-*^/()")


@dataclass
class _Token:
    kind: str  # 'int' | 'ident' | symbol | 'end'
    text: str
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line, column = 1, 1
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch == "\n":
            line += 1
            column = 1
            pos += 1
            continue
        if ch.isspace():
            column += 1
            pos += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, column))
            column += 1
            pos += 1
            continue
        if ch.isdecimal():
            start = pos
            while pos < length and text[pos].isdecimal():
                pos += 1
            tokens.append(_Token("int", text[start:pos], line, column))
            column += pos - start
            continue
        if ch.isalpha():
            start = pos
            while pos < length and (text[pos].isalpha() or text[pos].isdecimal()):
                pos += 1
            tokens.append(_Token("ident", text[start:pos], line, column))
            column += pos - start
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
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


def _integer(tok):
    """The value of an 'int' token, refused beyond the interpreter's digit limit."""
    limit = _digit_limit()
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


def _check_power_digits(coeffs, e):
    """Refuse a power whose coefficients could pass the digit limit.

    With L the lcm of the denominators and n_j = c_j * L, each coefficient of
    (sum c_j m_j)^e has a denominator dividing L^e and real and imaginary
    numerators at most (sum |Re n_j| + |Im n_j|)^e, the multinomial bound.
    """
    limit = _digit_limit()
    if not limit:
        return
    den = lcm(*(c.d for c in coeffs))
    top = sum((abs(c.x) + abs(c.y)) * (den // c.d) for c in coeffs)
    digits = int(e * log10(max(top, den))) + 1
    if digits > limit:
        raise ExpansionTooLarge(
            f"power {e} builds integers of up to {digits} digits, "
            f"over the limit of {limit} digits")


def _check_digits(terms):
    """Refuse a result holding an integer str() could not print."""
    limit = _digit_limit()
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
        self.pos = 0
        self.depth = 0
        self.space = space
        self.constant = (0,) * len(space.names)
        self.units = {}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.column)
        return self.advance()

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
            op = self.peek().kind
            if op != "+" and op != "-":
                break
            self.advance()
            negative = op == "-"
        self.depth -= 1
        return out

    def term(self):
        """One monomial times the product of the factors that are sums."""
        value = self.factor()
        if self.peek().kind != "*":
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
            if self.peek().kind != "*":
                break
            self.advance()
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
        if self.peek().kind == "^":
            self.advance()
            base = self.power(base, self.exponent())
        self.depth -= 1
        return base

    def exponent(self):
        tok = self.peek()
        wrapped = tok.kind == "("
        if wrapped:
            self.advance()
            tok = self.peek()
        if tok.kind == "-":
            raise NegativeExponent("exponent must be a non-negative integer",
                                   tok.line, tok.column)
        value = _integer(self.expect("int"))
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
                _check_power_digits((c,), e)
                c = c ** e
            return (tuple(x * e for x in exps), c)
        _check_power_degree(_degree(base), e)
        _check_power_digits(base.values(), e)
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
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            value = self.factor()
            if type(value) is tuple:
                value = (value[0], -value[1])
            else:
                value = {exps: -c for exps, c in value.items()}
        elif tok.kind == "(":
            self.advance()
            value = _as_value(self.expr())
            self.expect(")")
        elif tok.kind == "int":
            c = self.rational()
            value = (self.constant, c) if c else {}
        elif tok.kind == "ident":
            self.advance()
            if tok.text == "i":
                value = (self.constant, GQ_I)
            else:
                value = (self.unit(tok.text), GQ_ONE)
        else:
            raise ExprSyntaxError(
                f"unexpected {tok.text or 'end of input'!r}",
                tok.line, tok.column)
        self.depth -= 1
        return value

    def rational(self):
        numerator = _integer(self.expect("int"))
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int")
            denominator = _integer(den_tok)
            if denominator == 0:
                raise DivisionByZero(
                    f"zero denominator at line {den_tok.line}, "
                    f"column {den_tok.column}")
            return GaussianRational(Fraction(numerator, denominator))
        return GaussianRational(numerator)


def parse_poly(text, space):
    """Parse an expression into a canonical polynomial of the space.

    Refuses with ExpansionTooLarge a product of two sums, also one inside a
    power, that could expand past ``MAX_EXPANSION_TERMS`` terms, and any
    integer beyond the interpreter's ``int``/``str`` digit limit.
    """
    terms = _Parser(text, space).parse()
    _check_digits(terms)
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

def format_rational(value):
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _imag_piece(b):
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{format_rational(b)}*i"


def format_gaussian(c):
    """Canonical scalar form: 'a', 'a/b', or parenthesized 'a+b*i'."""
    if c.is_real():
        return format_rational(c.re)
    re, im = c.re, c.im
    if re == 0:
        return f"({_imag_piece(im)})"
    sign = "+" if im > 0 else "-"
    mag = -im if im < 0 else im
    piece = "i" if mag == 1 else f"{format_rational(mag)}*i"
    return f"({format_rational(re)}{sign}{piece})"


def _monomial(space, exps):
    parts = []
    for name, e in zip(space.names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def print_poly(p):
    """Canonical text: graded-lex descending terms, parse(print(p)) == p."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in p.terms():
        mono = _monomial(p.space, exps)
        if coeff.is_real():
            re = coeff.re
            negative = re < 0
            mag = -re if negative else re
            if not mono:
                body = format_rational(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{format_rational(mag)}*{mono}"
            pieces.append(("-" if negative else "+", body))
        else:
            body = format_gaussian(coeff)
            if mono:
                body = f"{body}*{mono}"
            pieces.append(("+", body))
    sign, body = pieces[0]
    out = [f"-{body}" if sign == "-" else body]
    for sign, body in pieces[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)
