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
result).  Both refusals raise ExpansionTooLarge, an input error.  An answer
is held to the same digit limit before it is printed: ``check_printable``
refuses it with AnswerTooLarge, also an input error.

The tokenizer yields three parallel lists: the kinds the parser peeks at,
the token texts and each token's start offset in the text.  Only an error
turns an offset into its line (one plus the line feeds before it) and
column (the offset from the last line feed, so a tab, a carriage return or
a non-ASCII space counts one column).  A sample point is parsed in place, so
its positions are those in the whole points argument.  Rational literals are
built straight in the canonical ``(x, y, d)`` form.

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
    AnswerTooLarge,
    DegreeOverflow,
    DivisionByZero,
    ExpansionTooLarge,
    ExprSyntaxError,
    NegativeExponent,
    UnknownVariable,
)
from kholo.polynomials import MAX_EXPANSION_TERMS, MAX_TOTAL_DEGREE, SparsePoly, VarSpace
from kholo.rationals import GQ_I, GQ_ONE, _binary_power, _exact, _lowest, terms_mul

_MAX_DEPTH = 200


# -- tokenizer ----------------------------------------------------------------

_SYMBOLS = set("+-*^/()")


def _line_column(text, offset):
    """(line, column) of a character offset: only a line feed starts a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text, pos, length):
    """The tokens of ``text[pos:length]`` as three parallel lists: kinds, texts
    and start offsets in the whole text.

    A kind is 'int', 'ident', a symbol or 'end'; the one 'end' token is empty
    and starts at ``length``.
    """
    kinds, texts, starts = [], [], []
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        start = pos
        pos += 1
        if ch in _SYMBOLS:
            kinds.append(ch)
            texts.append(ch)
        elif ch.isdecimal():
            while pos < length and text[pos].isdecimal():
                pos += 1
            kinds.append("int")
            texts.append(text[start:pos])
        elif ch.isalpha():
            while pos < length and (text[pos].isalpha() or text[pos].isdecimal()):
                pos += 1
            kinds.append("ident")
            texts.append(text[start:pos])
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", *_line_column(text, start))
        starts.append(start)
    kinds.append("end")
    texts.append("")
    starts.append(length)
    return kinds, texts, starts


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


def check_printable(values, what):
    """Refuse an answer holding a rational whose numerator or denominator has
    more digits than ``str`` converts (the limit the parser enforces), before
    any of it is printed; ``what`` names the values in the message.  As in
    :func:`_check_digits`, bit lengths decide and no integer becomes text."""
    limit = _digit_limit()
    if not limit:
        return
    cap = limit * 3321928 // 1000000
    for value in values:
        n, d = value.numerator, value.denominator
        bits = max(n.bit_length(), d.bit_length())
        if bits > cap and max(abs(n), d) >= 10**limit:
            raise AnswerTooLarge(
                f"answer too large to print: {what} has up to {int(bits * 0.30103) + 1} "
                f"digits, over the limit of {limit} digits")


# -- parser -------------------------------------------------------------------
#
# Each production returns its value in the space: a monomial, the tuple
# (exps, nonzero coeff), or a term map dict with no or at least two terms.
# A sum adds its terms into one dict; a product folds its monomial factors
# into one monomial and multiplies term maps only for the factors that are
# sums.

class _Parser:
    def __init__(self, text, space, start, stop):
        self.text = text
        self.kinds, self.texts, self.starts = _tokenize(text, start, stop)
        self.pos = 0
        self.depth = 0
        self.space = space
        self.constant = (0,) * len(space.names)
        self.units = {}
        self.limit = _digit_limit()

    def where(self, k):
        """(line, column) of token k, worked out only for an error."""
        return _line_column(self.text, self.starts[k])

    def expect(self, kind):
        """The index of the next token, which must be of this kind."""
        k = self.pos
        if self.kinds[k] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {self.texts[k] or 'end of input'!r}", *self.where(k))
        self.pos = k + 1
        return k

    def integer(self):
        """The value of the next token, an 'int' refused beyond the digit limit (0: none)."""
        k = self.expect("int")
        digits = self.texts[k]
        if self.limit and len(digits) > self.limit:
            line, column = self.where(k)
            raise ExpansionTooLarge(
                f"integer of {len(digits)} digits at line {line}, column {column} "
                f"is over the limit of {self.limit} digits")
        return int(digits)

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", *self.where(self.pos))

    def unit(self, name):
        exps = self.units.get(name)
        if exps is None:
            k = self.space.index(_resolve_name(name, self.space))
            exps = self.units[name] = tuple(int(j == k) for j in range(len(self.constant)))
        return exps

    def parse(self):
        terms = self.expr()
        k = self.pos
        if self.kinds[k] != "end":
            raise ExprSyntaxError(f"unexpected trailing {self.texts[k]!r}", *self.where(k))
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
        wrapped = self.kinds[self.pos] == "("
        if wrapped:
            self.pos += 1
        if self.kinds[self.pos] == "-":
            raise NegativeExponent("exponent must be a non-negative integer",
                                   *self.where(self.pos))
        value = self.integer()
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
        return _binary_power(base, e, lambda a, b: _multiply(a, b, what))

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
            name = self.texts[self.pos]
            self.pos += 1
            if name == "i":
                value = (self.constant, GQ_I)
            else:
                value = (self.unit(name), GQ_ONE)
        else:
            raise ExprSyntaxError(
                f"unexpected {self.texts[self.pos] or 'end of input'!r}", *self.where(self.pos))
        self.depth -= 1
        return value

    def rational(self):
        numerator = self.integer()
        if self.kinds[self.pos] == "/":
            self.pos += 1
            denominator = self.integer()
            if denominator == 0:
                line, column = self.where(self.pos - 1)
                raise DivisionByZero(f"zero denominator at line {line}, column {column}")
            return _lowest(numerator, 0, denominator)
        return _exact(numerator, 0, 1)


def parse_poly(text, space):
    """Parse an expression into a canonical polynomial of the space.

    Refuses with ExpansionTooLarge a product of two sums, also one inside a
    power, that could expand past ``MAX_EXPANSION_TERMS`` terms, and any
    integer beyond the interpreter's ``int``/``str`` digit limit.
    """
    return SparsePoly(space, _parse_terms(text, space, 0, len(text)))


def _parse_terms(text, space, start, stop):
    """The term map of the expression ``text[start:stop]``; an error names
    its line and column in the whole text."""
    parser = _Parser(text, space, start, stop)
    terms = parser.parse()
    _check_digits(terms, parser.limit)
    return terms


_CONSTANTS = VarSpace((), 0)


def _gaussian(text, start, stop):
    return SparsePoly(_CONSTANTS, _parse_terms(text, _CONSTANTS, start, stop)).constant_term()


def parse_gaussian(text):
    """Parse a constant expression to a GaussianRational."""
    return _gaussian(text, 0, len(text))


def parse_point(text, n, start=0, stop=None):
    """Parse the comma-separated Gaussian-rational tuple of arity n in
    ``text[start:stop]``; an error names its line and column in the whole text."""
    stop = len(text) if stop is None else stop
    cuts = [start - 1]
    depth = 0
    for k in range(start, stop):
        ch = text[k]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            cuts.append(k)
    cuts.append(stop)
    if len(cuts) - 1 != n:
        first = next((k for k in range(start, stop) if not text[k].isspace()), start)
        raise ExprSyntaxError(f"expected {n} coordinates, found {len(cuts) - 1}",
                              *_line_column(text, first))
    return tuple(_gaussian(text, a + 1, b) for a, b in zip(cuts, cuts[1:]))


def parse_points(text, n):
    """Parse the semicolon-separated points of arity n in the text, skipping
    blank ones; an error names its line and column in the whole text."""
    points = []
    start = 0
    for stop in [k for k, ch in enumerate(text) if ch == ";"] + [len(text)]:
        if text[start:stop].strip():
            points.append(parse_point(text, n, start, stop))
        start = stop + 1
    return points


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
