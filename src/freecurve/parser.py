"""Recursive-descent parser for polynomial expressions in x, y, z.

Grammar (whitespace is insignificant):

    expr    = term , { ("+" | "-") , term } ;
    term    = factor , { "*" , factor } ;
    factor  = { "-" } , power ;
    power   = atom , { "^" , natural } ;
    atom    = "x" | "y" | "z" | literal | "(" , expr , ")" ;
    literal = natural , [ "/" , natural ] ;
    natural = digit , { digit } ;

"^" binds tightest and exponents are non-negative integer literals only.
"/" is not a general operator: it may only follow an integer literal, so
"1/2*x^2" is the monomial with coefficient 1/2.  The parsed expression is
expanded and must be homogeneous and nonzero.

Input the analysis could never finish is refused before it is expanded:
parentheses nested deeper than MAX_NESTING, any product or power of degree
above MAX_CURVE_DEGREE, the largest degree a rank profile admits, a literal
longer than MAX_LITERAL_DIGITS digits, and any power whose coefficients
could exceed MAX_COEFF_BITS, the bit length of the largest literal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PolyParseError
from .fields import QQ
from .poly import HomogPoly, Monomial, _monomial_str
from .syzygy import MAX_CURVE_DEGREE

# Parentheses open at once; each level costs five stack frames.
MAX_NESTING = 100

# Digits in one integer literal: CPython's default limit for converting a
# decimal string to int (sys.get_int_max_str_digits()).
MAX_LITERAL_DIGITS = 4300

# Bits in a coefficient a power may produce: as many as the largest literal.
MAX_COEFF_BITS = (10**MAX_LITERAL_DIGITS - 1).bit_length()

_Sparse = dict[Monomial, int | Fraction]  # possibly inhomogeneous; int until a num/den literal


def _sadd(a: _Sparse, b: _Sparse) -> _Sparse:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _sneg(a: _Sparse) -> _Sparse:
    return {m: -c for m, c in a.items()}


def _smul(a: _Sparse, b: _Sparse) -> _Sparse:
    out: _Sparse = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _sdegree(a: _Sparse) -> int:
    return max((sum(m) for m in a), default=0)


def _sbits(a: _Sparse) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in a.values()), default=0)


def _spow(a: _Sparse, e: int) -> _Sparse:
    result: _Sparse = {(0, 0, 0): 1}
    base = a
    while e:
        if e & 1:
            result = _smul(result, base)
        e >>= 1
        if e:
            base = _smul(base, base)
    return result


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise PolyParseError(message, self.pos)

    def check_degree(self, degree: int):
        if degree > MAX_CURVE_DEGREE:
            self.error(f"degree {degree} is above {MAX_CURVE_DEGREE}, the largest a rank profile admits")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            self.error(f"expected {ch!r}, found {got!r}" if got else f"expected {ch!r}, found end of input")
        self.pos += 1

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        if self.pos - start > MAX_LITERAL_DIGITS:
            self.pos = start
            self.error(f"integer literal longer than {MAX_LITERAL_DIGITS} digits")
        return int(self.text[start : self.pos])

    def expr(self) -> _Sparse:
        value = self.term()
        while True:
            op = self.peek()
            if op == "+":
                self.pos += 1
                value = _sadd(value, self.term())
            elif op == "-":
                self.pos += 1
                value = _sadd(value, _sneg(self.term()))
            else:
                return value

    def term(self) -> _Sparse:
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            other = self.factor()
            self.check_degree(_sdegree(value) + _sdegree(other))
            value = _smul(value, other)
        return value

    def factor(self) -> _Sparse:
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        value = self.power()
        return _sneg(value) if negate else value

    def power(self) -> _Sparse:
        value = self.atom()
        while self.peek() == "^":
            self.pos += 1
            e = self.natural()
            self.check_degree(_sdegree(value) * e)
            bits = _sbits(value) * e
            if bits > MAX_COEFF_BITS:
                self.error(f"power ^{e} could give coefficients of {bits} bits, above {MAX_COEFF_BITS}")
            value = _spow(value, e)
        return value

    def atom(self) -> _Sparse:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if ch and ch in "xyz":
            self.pos += 1
            mono = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[ch]
            return {mono: 1}
        if ch.isdigit():
            num = self.natural()
            if self.peek() == "/":
                self.pos += 1
                den = self.natural()
                if den == 0:
                    self.error("zero denominator")
                return {(0, 0, 0): Fraction(num, den)}
            return {(0, 0, 0): num}
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str) -> HomogPoly:
    """Parse and expand `text` into a homogeneous polynomial over Q.

    Raises PolyParseError (with a character position) for syntax errors,
    and for expansions that are zero or not homogeneous; the latter names
    two offending terms of differing degree.
    """
    parser = _Parser(text)
    value = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error(f"unexpected trailing input {text[parser.pos]!r}")
    if not value:
        raise PolyParseError("expression expands to the zero polynomial")
    degrees = {sum(m) for m in value}
    if len(degrees) > 1:
        by_degree = sorted(value, key=sum)
        low, high = by_degree[0], by_degree[-1]
        raise PolyParseError(
            "polynomial is not homogeneous: term "
            f"{_monomial_str(low) or '1'} has degree {sum(low)} but term "
            f"{_monomial_str(high) or '1'} has degree {sum(high)}"
        )
    return HomogPoly(QQ, degrees.pop(), {m: Fraction(c) for m, c in value.items()})
