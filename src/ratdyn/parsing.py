"""Expression parser for rational functions.

Grammar (precedence climbing, highest first):

    ^            right-associative, exponent must be a non-negative integer
    unary -
    * /          left-associative
    + -          left-associative

Atoms are integer literals, declared variables, and parenthesized
expressions.  Every operator works by exact arithmetic on normalized
rational functions, so parse -> print -> parse is the identity on normal
forms.

Parentheses nest at most MAX_NESTING deep (unary minus and ``^`` chains are
parsed by loops, so parentheses are the only recursion), an exponent, or
the degree of the power it builds, is at most MAX_DEGREE, and every power,
product, quotient and sum may build numerators and denominators of at most
about MAX_TERMS terms; beyond any limit the parser raises ParseError instead
of exhausting the stack or expanding an astronomically large polynomial.
"""

from __future__ import annotations

import math
import re
from typing import List, Sequence, Tuple

from .dynsys import DynamicalSystem
from .errors import ParseError
from .exactalg import Polynomial, RationalFunction

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

MAX_NESTING = 100   # parenthesis depth; keeps the recursion far below the limit
MAX_DEGREE = 1000   # largest exponent, and largest degree of a power
MAX_TERMS = 5000    # largest term estimate of a polynomial the parser builds

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>\^|\*|/|\+|-|\(|\))
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _power_terms(p: Polynomial, e: int) -> int:
    """Upper bound on the number of terms of p^e (e >= 1): a multiset of e of
    p's terms, and a monomial of degree at most deg(p^e) in p's variables."""
    k = sum(1 for x in p.max_exponents() if x)
    return min(math.comb(len(p.support()) + e - 1, e),
               math.comb(k + p.total_degree * e, k))


def _product_terms(p: Polynomial, q: Polynomial) -> int:
    """Upper bound on the number of terms of p*q: a pair of their terms, and a
    monomial of degree at most deg(p) + deg(q) in their variables."""
    k = sum(1 for a, b in zip(p.max_exponents(), q.max_exponents()) if a or b)
    return min(len(p.support()) * len(q.support()),
               math.comb(k + p.total_degree + q.total_degree, k))


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(src: str) -> List[_Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], variables: Tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> RationalFunction:
        value = self.expression()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().text!r}")
        return value

    def check_products(self, pairs, op):
        """Fail before multiplying out any pair of more than MAX_TERMS terms."""
        if max(_product_terms(p, q) for p, q in pairs) > MAX_TERMS:
            what = {"+": "sum", "-": "difference", "*": "product", "/": "quotient"}
            self.fail(f"{what[op.text]} of more than {MAX_TERMS} terms", op)

    def expression(self) -> RationalFunction:
        value = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next()
            rhs = self.term()
            # a/b + c/d = (a*d + c*b)/(b*d)
            self.check_products(((value.num, rhs.den), (rhs.num, value.den),
                                 (value.den, rhs.den)), op)
            value = value + rhs if op.text == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            if op.text == "*":
                self.check_products(((value.num, rhs.num),
                                     (value.den, rhs.den)), op)
                value = value * rhs
            else:
                if rhs.is_zero:
                    self.fail("division by zero", op)
                self.check_products(((value.num, rhs.den),
                                     (value.den, rhs.num)), op)
                value = value / rhs
        return value

    def unary(self) -> RationalFunction:
        negate = False
        while self.peek().text == "-":
            self.next()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> RationalFunction:
        base = self.atom()
        if self.peek().text != "^":
            return base
        op = self.peek()
        chain = []
        while self.peek().text == "^":
            self.next()
            chain.append((self.peek(), self.atom()))
        # right-associative: x^2^3 = x^(2^3); exponents are constant integers
        # in [0, MAX_DEGREE], checked from the right before each power is taken
        expo = None
        for tok, atom in reversed(chain):
            value = atom.constant_value() if atom.is_constant else None
            if value is not None and expo is not None:
                if expo > MAX_DEGREE.bit_length() and abs(value) not in (0, 1):
                    value = None  # not an integer, or above MAX_DEGREE
                else:
                    value = value ** expo
            if (value is None or value.denominator != 1
                    or not 0 <= value <= MAX_DEGREE):
                self.fail("exponent must be an integer from 0 to "
                          f"{MAX_DEGREE}", tok)
            expo = int(value)
        if base.degree * expo > MAX_DEGREE:
            self.fail(f"power of degree above {MAX_DEGREE}", op)
        if expo and max(_power_terms(base.num, expo),
                        _power_terms(base.den, expo)) > MAX_TERMS:
            self.fail(f"power of more than {MAX_TERMS} terms", op)
        return base ** expo

    def atom(self) -> RationalFunction:
        tok = self.next()
        if tok.kind == "num":
            try:
                value = int(tok.text)
            except ValueError:  # beyond the interpreter's digit limit
                self.fail("integer literal too long", tok)
            return RationalFunction.constant(self.variables, value)
        if tok.kind == "ident":
            if tok.text not in self.variables:
                self.fail(f"undeclared identifier {tok.text!r}", tok)
            return RationalFunction.variable(self.variables, tok.text)
        if tok.text == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}", tok)
            self.depth += 1
            value = self.expression()
            self.depth -= 1
            closing = self.next()
            if closing.text != ")":
                self.fail("expected ')'", closing)
            return value
        self.fail(f"unexpected {tok.text or 'end of input'!r}", tok)


def parse_expression(src: str, variables: Sequence[str]) -> RationalFunction:
    """Parse a rational expression over the declared variables."""
    vars_t = tuple(variables)
    if not vars_t:
        raise ParseError("no variables declared")
    seen = set()
    for v in vars_t:
        if not IDENT_RE.fullmatch(v):
            raise ParseError(f"invalid variable name {v!r}")
        if v in seen:
            raise ParseError(f"duplicate variable name {v!r}")
        seen.add(v)
    return _Parser(_tokenize(src), vars_t).parse()


def parse_map(variables: Sequence[str], expressions: Sequence[str]) -> DynamicalSystem:
    """Convenience builder: one coordinate expression per variable."""
    vars_t = tuple(variables)
    coords = tuple(parse_expression(src, vars_t) for src in expressions)
    return DynamicalSystem(vars_t, coords)
