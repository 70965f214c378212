"""Textual spec grammar: parser and pretty-printer for MTL formulas.

Grammar (loosest binding first):

    formula  :=  or_exp ("->" formula)?          right-assoc
    or_exp   :=  and_exp ("|" and_exp)*          one n-ary Or
    and_exp  :=  until_exp ("&" until_exp)*      one n-ary And
    until_exp:=  unary ("U" interval? until_exp)?
    unary    :=  "!" unary | "F" interval? unary | "G" interval? unary | primary
    primary  :=  atom | "true" | "false" | sum_atom | "(" formula ")"
    interval :=  "[" INT "," (INT | "inf") ")"
    sum_atom :=  "sum(to:" NAME ")" ">=" "sum(from:" NAME ")" ("+" INT)?

Atoms match [a-zA-Z_][a-zA-Z0-9_.]*; an omitted interval means [0, inf).
Comments run from '#' to end of line. Every parenthesis and every operator
opens one nesting level around what follows it (so a chain `p & p & p`
takes two); specs nesting deeper than MAX_DEPTH levels are rejected, which
keeps the recursive formula walks within Python's default recursion limit.

The printer emits the same grammar with deterministic parenthesization: an
operand of `&` or `|` that is itself an `&` or `|` node is parenthesized,
so parse_spec(format_formula(f)) is structurally equal to f.
"""

from __future__ import annotations

import functools
import re
import warnings

from .errors import InputError
from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    SumAtom,
    TrueF,
    Until,
)


MAX_DEPTH = 64
SPEC_CACHE_SIZE = 64  # distinct spec texts whose parse is kept per process


class SpecSyntaxError(InputError):
    label = "spec error"

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<ge>>=)
  | (?P<name>[a-zA-Z_][a-zA-Z0-9_.]*)
  | (?P<int>\d+)
  | (?P<punct>[!&|()\[\),:+])
    """,
    re.VERBOSE,
)

class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind},{self.text!r})"


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def error(self, msg: str):
        raise SpecSyntaxError(msg, self.cur.line, self.cur.col)

    def eat(self, text: str = None, kind: str = None) -> _Token:
        tok = self.cur
        if text is not None and tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}")
        if kind is not None and tok.kind != kind:
            self.error(f"expected {kind}, found {tok.text!r}")
        self.i += 1
        return tok

    def number(self) -> int:
        """The value of the next token, which must be an integer."""
        tok = self.eat(kind="int")
        try:
            return int(tok.text)
        except ValueError:  # more digits than Python converts to an int
            raise SpecSyntaxError(
                f"integer of {len(tok.text)} digits is too long", tok.line, tok.col
            ) from None

    def at(self, text: str) -> bool:
        return self.cur.text == text

    def nested(self, parse) -> Formula:
        """Parse one production a nesting level deeper."""
        if self.depth == MAX_DEPTH:
            self.error(f"spec nests deeper than {MAX_DEPTH} levels")
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def chain(self, op: str, cls, parse) -> Formula:
        """parse (op parse)*, as one `cls` node when op occurs. Each op opens
        one level around all that follows it, as right-nesting would."""
        args = [parse()]
        depth = self.depth
        while self.at(op):
            self.eat(op)
            args.append(self.nested(parse))
            self.depth += 1
        self.depth = depth
        return cls(*args) if len(args) > 1 else args[0]

    # ---- grammar ----

    def formula(self) -> Formula:
        left = self.or_exp()
        if self.at("->"):
            self.eat("->")
            return Implies(left, self.nested(self.formula))
        return left

    def or_exp(self) -> Formula:
        return self.chain("|", Or, self.and_exp)

    def and_exp(self) -> Formula:
        return self.chain("&", And, self.until_exp)

    def until_exp(self) -> Formula:
        left = self.unary()
        if self.at("U"):
            self.eat("U")
            iv = self.interval_opt()
            return Until(left, iv, self.nested(self.until_exp))
        return left

    def unary(self) -> Formula:
        if self.at("!"):
            self.eat("!")
            return Not(self.nested(self.unary))
        if self.at("F"):
            self.eat("F")
            iv = self.interval_opt()
            return Eventually(iv, self.nested(self.unary))
        if self.at("G"):
            self.eat("G")
            iv = self.interval_opt()
            return Globally(iv, self.nested(self.unary))
        return self.primary()

    def interval_opt(self) -> Interval:
        if not self.at("["):
            return Interval(0, None)
        tok = self.eat("[")
        start = self.number()
        self.eat(",")
        if self.at("inf"):
            self.eat("inf")
            end = None
        else:
            end = self.number()
        self.eat(")")
        if end is not None and end <= start:
            warnings.warn(
                f"interval [{start},{end}) is empty and was canonicalized"
                f" (line {tok.line}, column {tok.col})",
                stacklevel=4,
            )
        return Interval(start, end)

    def primary(self) -> Formula:
        tok = self.cur
        if tok.text == "(":
            self.eat("(")
            f = self.nested(self.formula)
            self.eat(")")
            return f
        if tok.text == "true":
            self.eat("true")
            return TRUE
        if tok.text == "false":
            self.eat("false")
            return FALSE
        if tok.text == "sum":
            return self.sum_atom()
        if tok.kind == "name":
            if tok.text in ("U", "F", "G", "inf"):
                self.error(f"unexpected operator {tok.text!r}")
            self.eat(kind="name")
            return Atom(tok.text)
        self.error(f"unexpected token {tok.text!r}")

    def sum_atom(self) -> Formula:
        self.eat("sum")
        self.eat("(")
        self.eat("to")
        self.eat(":")
        to_party = self.eat(kind="name").text
        self.eat(")")
        self.eat(">=")
        self.eat("sum")
        self.eat("(")
        self.eat("from")
        self.eat(":")
        from_party = self.eat(kind="name").text
        self.eat(")")
        offset = 0
        if self.at("+"):
            self.eat("+")
            offset = self.number()
        return SumAtom(to_party, from_party, offset)


# cached by text: an auditor checks the same few specs against many logs.
# A syntax error raises and is not cached; an empty-interval warning is
# issued on the first parse only.
@functools.lru_cache(maxsize=SPEC_CACHE_SIZE)
def parse_spec(text: str) -> Formula:
    """Parse a spec-grammar string into a formula AST."""
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    if parser.cur.kind != "eof":
        parser.error(f"trailing input starting at {parser.cur.text!r}")
    return f


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

_PREC_IMPLIES = 0
_PREC_OR = 1
_PREC_AND = 2
_PREC_UNTIL = 3
_PREC_UNARY = 4
_PREC_ATOM = 5


def _fmt(f: Formula, prec: int) -> str:
    if isinstance(f, TrueF):
        s, p = "true", _PREC_ATOM
    elif isinstance(f, FalseF):
        s, p = "false", _PREC_ATOM
    elif isinstance(f, Atom):
        s, p = f.name, _PREC_ATOM
    elif isinstance(f, SumAtom):
        s = f"sum(to:{f.to_party}) >= sum(from:{f.from_party})"
        if f.offset:
            s += f" + {f.offset}"
        p = _PREC_ATOM
    elif isinstance(f, Not):
        s, p = "!" + _fmt(f.operand, _PREC_UNARY), _PREC_UNARY
    elif isinstance(f, Eventually):
        s, p = f"F{f.interval} " + _fmt(f.operand, _PREC_UNARY), _PREC_UNARY
    elif isinstance(f, Globally):
        s, p = f"G{f.interval} " + _fmt(f.operand, _PREC_UNARY), _PREC_UNARY
    elif isinstance(f, Until):
        # right-assoc: left operand printed one level tighter
        s = _fmt(f.left, _PREC_UNTIL + 1) + f" U{f.interval} " + _fmt(f.right, _PREC_UNTIL)
        p = _PREC_UNTIL
    elif isinstance(f, (And, Or)):
        sep, p = (" & ", _PREC_AND) if isinstance(f, And) else (" | ", _PREC_OR)
        s = sep.join(_fmt(g, p + 1) for g in f.args)
    elif isinstance(f, Implies):
        s, p = _fmt(f.left, _PREC_IMPLIES + 1) + " -> " + _fmt(f.right, _PREC_IMPLIES), _PREC_IMPLIES
    else:
        raise TypeError(f"not a formula: {f!r}")
    if p < prec:
        return "(" + s + ")"
    return s


def format_formula(f: Formula) -> str:
    return _fmt(f, _PREC_IMPLIES)
