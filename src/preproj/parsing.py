"""Parsing and printing of scalars and rational functions in t.

One recursive-descent grammar covers both use cases:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom ('^' integer)?
    atom    := integer | integer '/' integer | 'i' | 'zeta' '(' integer ')'
             | 't' | '(' expr ')' | '-' atom

Scalars are the constant expressions of this grammar ('t' not allowed).
"""

from __future__ import annotations

import re

from .cyclotomic import CycNum, format_scalar, root_of_unity
from .ratfun import Poly, RatFun

_TOKEN = re.compile(r"\s*(\d+|zeta|[ti()+\-*/^])")


class ParseError(ValueError):
    """Malformed scalar or rational-function expression."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError("unexpected character %r in %r" % (text[pos:].lstrip()[0], text))
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError("expected %r, got %r" % (tok, got))

    def parse_expr(self) -> RatFun:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> RatFun:
        value = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero")
                value = value / rhs
        return value

    def parse_factor(self) -> RatFun:
        # unary minus binds looser than '^': -t^2 means -(t^2)
        if self.peek() == "-":
            self.next()
            return -self.parse_factor()
        value = self.parse_atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            tok = self.next()
            if not tok.isdigit():
                raise ParseError("expected integer exponent, got %r" % tok)
            value = value ** (sign * int(tok))
        return value

    def parse_atom(self) -> RatFun:
        tok = self.next()
        if tok == "-":
            return -self.parse_atom()
        if tok == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok == "t":
            return RatFun(Poly.t_power(1))
        if tok == "i":
            return RatFun.constant(root_of_unity(4))
        if tok == "zeta":
            self.expect("(")
            arg = self.next()
            if not arg.isdigit() or int(arg) < 1:
                raise ParseError("zeta needs a positive integer order, got %r" % arg)
            self.expect(")")
            return RatFun.constant(root_of_unity(int(arg)))
        if tok.isdigit():
            return RatFun.constant(int(tok))
        raise ParseError("unexpected token %r" % tok)


def parse_ratfun(text: str) -> RatFun:
    """Parse an expression in t over the cyclotomic numbers."""
    parser = _Parser(_tokenize(text))
    value = parser.parse_expr()
    if parser.peek() is not None:
        raise ParseError("trailing input %r" % " ".join(parser.tokens[parser.pos:]))
    return value


def parse_scalar(text: str) -> CycNum:
    """Parse a constant expression (no t) into a cyclotomic number."""
    value = parse_ratfun(text)
    if not value.is_polynomial() or value.num.degree > 0:
        raise ParseError("expected a scalar, got %r" % text)
    return value.num.coeff(0) * value.den.coeff(0).inverse()


# -- printing -------------------------------------------------------------

def _fmt_coeff(c: CycNum, k: int) -> str:
    """One monomial c*t^k with an explicit leading sign convention."""
    mono = "" if k == 0 else ("t" if k == 1 else "t^%d" % k)
    body = format_scalar(c)
    if body in ("1", "-1") and mono:
        return ("-" if body == "-1" else "") + mono
    if "+" in body[1:] or "-" in body[1:] or "*" in body:
        body = "(%s)" % body
    return body if not mono else "%s*%s" % (body, mono)


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        term = _fmt_coeff(c, k)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts)


def _needs_parens(s: str) -> bool:
    return (" + " in s) or (" - " in s) or s.startswith("-")


def format_ratfun(f: RatFun) -> str:
    num = format_poly(f.num)
    if f.is_polynomial() and f.den.coeff(0).is_one():
        return num
    den = format_poly(f.den)
    if _needs_parens(num):
        num = "(%s)" % num
    if _needs_parens(den) or "*" in den or "^" in den:
        den = "(%s)" % den
    return "%s/%s" % (num, den)


def _one_minus_tm(m: int) -> Poly:
    return Poly([1] + [0] * (m - 1) + [-1])


def format_ratfun_factored(f: RatFun) -> str:
    """Render with the denominator split into (1-t^m) factors where possible.

    Factors are pulled out greedily from the largest power of t downward, so
    3/(1-t)/(1-t^2) prints as '3/((1-t^2)*(1-t))'.
    """
    if f.is_polynomial() and f.den.coeff(0).is_one():
        return format_poly(f.num)
    den = f.den
    factors: list[int] = []
    m = den.degree
    while m >= 1 and den.degree >= 1:
        q, r = den.divmod(_one_minus_tm(m))
        if m <= den.degree and r.is_zero():
            factors.append(m)
            den = q
        else:
            m -= 1
    num = format_poly(f.num)
    if _needs_parens(num):
        num = "(%s)" % num
    pieces = []
    for m in sorted(set(factors), reverse=True):
        e = factors.count(m)
        base = "(1-t)" if m == 1 else "(1-t^%d)" % m
        pieces.append(base if e == 1 else "%s^%d" % (base, e))
    if not den.coeff(0).is_one() or den.degree > 0:
        rest = format_poly(den)
        pieces.append("(%s)" % rest if _needs_parens(rest) else rest)
    joined = "*".join(pieces)
    if len(pieces) > 1 or "*" in joined or "^" in joined:
        joined = "(%s)" % joined if len(pieces) > 1 else joined
    return "%s/%s" % (num, joined)
