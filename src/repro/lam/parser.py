"""Concrete syntax for the service λ-calculus.

Grammar (reusing the shared lexer; ``#`` comments)::

    expr    := 'let' IDENT '=' expr 'in' expr
             | 'if' expr 'then' expr 'else' expr
             | 'fun' IDENT '(' IDENT ':' type ')' ':' type '=' expr
               'in' expr                         -- recursive function
             | 'fn' '(' IDENT ':' type ')' '->' expr      -- abstraction
             | sequence
    sequence := application (';' application)*   -- seq_terms
    application := atom atom*                    -- left-assoc application
    atom    := '(' ')' | INT | STRING | 'true' | 'false' | IDENT
             | '@' IDENT ['(' literal (',' literal)* ')']  -- event
             | '!' IDENT [atom]                  -- send (optional payload)
             | '?' IDENT [':' type]              -- recv
             | 'offer' '{' IDENT '->' expr ('|' IDENT '->' expr)* '}'
             | 'open' (IDENT|INT) ['with' IDENT] '{' expr '}'
             | 'frame' IDENT '{' expr '}'
             | '(' expr ')'
    type    := 'unit' | 'bool' | 'int' | 'str'
             | '(' type ')' | type '->' type     -- pure arrows

Examples::

    open 1 with phi {
        !Req ;
        offer { CoBo -> !Pay | NoAv -> () }
    }

    fun serve(u: unit): unit =
        offer { go -> @tick ; !ack ; serve () | stop -> () }
    in serve ()

Keywords (``let``/``if``/``fun``/… ) are contextual: the shared lexer
emits them as plain identifiers and this parser gives them meaning, so
they remain usable as channel names after ``!``/``?``.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.errors import ParseError
from repro.lam.syntax import (App, Evt, Fix, If, Lam, LamTerm, Let, Lit,
                              Offer, OpenSession, RecvT, SendT,
                              UNIT_VALUE, Var, Within, seq_terms)
from repro.lam.types import BOOL, INT, STR, TFun, Type, UNIT
from repro.core.syntax import EPSILON
from repro.lang.lexer import Token, tokenize

#: Identifier spellings this parser treats as keywords (contextually).
_KEYWORDS = frozenset({"let", "in", "if", "then", "else", "fun", "fn",
                       "offer", "true", "false"})

_BASE_TYPES = {"unit": UNIT, "bool": BOOL, "int": INT, "str": STR}


def parse_program(source: str,
                  policies: Mapping[str, object] | None = None) -> LamTerm:
    """Parse a λ-program."""
    parser = _LamParser(tokenize(source), dict(policies or {}))
    term = parser.expr()
    parser.expect("EOF")
    return term


class _LamParser:
    def __init__(self, tokens: list[Token], policies: dict[str, object],
                 start: int = 0) -> None:
        self._tokens = tokens
        self._index = start
        self._policies = policies

    # -- token plumbing ------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._index + ahead,
                                len(self._tokens) - 1)]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {kind}, found {token.kind} "
                             f"({token.text!r})", token.line, token.column)
        return self.advance()

    def expect_word(self, word: str) -> Token:
        token = self.peek()
        if not self.at_word(word):
            raise ParseError(f"expected {word!r}, found {token.text!r}",
                             token.line, token.column)
        return self.advance()

    def at_word(self, word: str) -> bool:
        token = self.peek()
        return (token.kind in ("IDENT", "OPEN", "WITH", "FRAME", "MU",
                               "EPS")
                and token.text == word)

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)

    # -- expressions ---------------------------------------------------

    def expr(self) -> LamTerm:
        if self.at_word("let"):
            return self._let()
        if self.at_word("if"):
            return self._if()
        if self.at_word("fun"):
            return self._fun()
        if self.at_word("fn"):
            return self._fn()
        return self._sequence()

    def _let(self) -> LamTerm:
        self.expect_word("let")
        name = self.expect("IDENT").text
        self.expect("=")
        bound = self.expr()
        self.expect_word("in")
        body = self.expr()
        return Let(name, bound, body)

    def _if(self) -> LamTerm:
        self.expect_word("if")
        condition = self.expr()
        self.expect_word("then")
        then = self.expr()
        self.expect_word("else")
        orelse = self.expr()
        return If(condition, then, orelse)

    def _fun(self) -> LamTerm:
        self.expect_word("fun")
        fun_name = self.expect("IDENT").text
        self.expect("(")
        param = self.expect("IDENT").text
        self.expect(":")
        annotation = self._type()
        self.expect(")")
        self.expect(":")
        result = self._type()
        self.expect("=")
        body = self.expr()
        self.expect_word("in")
        rest = self.expr()
        return Let(fun_name,
                   Fix(fun_name, param, annotation, result, body), rest)

    def _fn(self) -> LamTerm:
        self.expect_word("fn")
        self.expect("(")
        param = self.expect("IDENT").text
        self.expect(":")
        annotation = self._type()
        self.expect(")")
        self.expect("->")
        body = self.expr()
        return Lam(param, annotation, body)

    def _sequence(self) -> LamTerm:
        steps = [self._application()]
        while self.peek().kind == ";":
            self.advance()
            steps.append(self._application())
        if len(steps) == 1:
            return steps[0]
        return seq_terms(*steps)

    def _application(self) -> LamTerm:
        term = self._atom()
        while self._starts_atom():
            term = App(term, self._atom())
        return term

    def _starts_atom(self) -> bool:
        token = self.peek()
        if token.kind in ("INT", "FLOAT", "STRING", "@", "!", "?", "("):
            return True
        if token.kind in ("OPEN", "FRAME"):
            return True
        if token.kind == "IDENT":
            return token.text not in (_KEYWORDS - {"true", "false",
                                                   "offer"})
        return False

    def _atom(self) -> LamTerm:
        token = self.peek()
        if token.kind == "(":
            self.advance()
            if self.peek().kind == ")":
                self.advance()
                return UNIT_VALUE
            inner = self.expr()
            self.expect(")")
            return inner
        if token.kind == "INT":
            self.advance()
            return Lit(int(token.text))
        if token.kind == "STRING":
            self.advance()
            return Lit(token.text)
        if token.kind == "@":
            return self._event()
        if token.kind == "!":
            return self._send()
        if token.kind == "?":
            return self._recv()
        if token.kind == "OPEN":
            return self._open()
        if token.kind == "FRAME":
            return self._frame()
        if self.at_word("true"):
            self.advance()
            return Lit(True)
        if self.at_word("false"):
            self.advance()
            return Lit(False)
        if self.at_word("offer"):
            return self._offer()
        if token.kind == "IDENT":
            self.advance()
            return Var(token.text)
        raise self.error(f"expected an expression, found {token.kind} "
                         f"({token.text!r})")

    def _event(self) -> LamTerm:
        self.expect("@")
        name = self.expect("IDENT").text
        payload: list[object] = []
        if self.peek().kind == "(":
            self.advance()
            payload.append(self._literal())
            while self.peek().kind == ",":
                self.advance()
                payload.append(self._literal())
            self.expect(")")
        return Evt(name, tuple(payload))

    def _literal(self) -> object:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return int(token.text)
        if token.kind == "FLOAT":
            self.advance()
            return float(token.text)
        if token.kind in ("STRING", "IDENT"):
            self.advance()
            return token.text
        raise self.error(f"expected a literal, found {token.kind}")

    def _send(self) -> LamTerm:
        self.expect("!")
        channel = self.expect("IDENT").text
        if self._starts_atom():
            return SendT(channel, self._atom())
        return SendT(channel, UNIT_VALUE)

    def _recv(self) -> LamTerm:
        self.expect("?")
        channel = self.expect("IDENT").text
        annotation: Type = UNIT
        if self.peek().kind == ":":
            self.advance()
            annotation = self._type()
        return RecvT(channel, annotation)

    def _offer(self) -> LamTerm:
        self.expect_word("offer")
        self.expect("{")
        branches = [self._offer_branch()]
        while self.peek().kind == "|":
            self.advance()
            branches.append(self._offer_branch())
        self.expect("}")
        return Offer(tuple(branches))

    def _offer_branch(self) -> tuple[str, LamTerm]:
        channel = self.expect("IDENT").text
        self.expect("->")
        return channel, self.expr()

    def _open(self) -> LamTerm:
        self.expect("OPEN")
        token = self.peek()
        if token.kind not in ("IDENT", "INT"):
            raise self.error("expected a request identifier")
        request_id = self.advance().text
        policy: object | None = None
        if self.peek().kind == "WITH":
            self.advance()
            policy = self._policy_ref()
        self.expect("{")
        body = self.expr()
        self.expect("}")
        return OpenSession(request_id, policy, body)

    def _frame(self) -> LamTerm:
        self.expect("FRAME")
        policy = self._policy_ref()
        self.expect("{")
        body = self.expr()
        self.expect("}")
        return Within(policy, body)

    def _policy_ref(self) -> object:
        token = self.expect("IDENT")
        try:
            return self._policies[token.text]
        except KeyError:
            raise ParseError(f"unknown policy {token.text!r} (not in the "
                             "parse environment)", token.line,
                             token.column) from None

    # -- types -----------------------------------------------------------

    def _type(self) -> Type:
        left = self._type_atom()
        if self.peek().kind == "->":
            self.advance()
            right = self._type()
            return TFun(left, EPSILON, right)
        return left

    def _type_atom(self) -> Type:
        token = self.peek()
        if token.kind == "(":
            self.advance()
            inner = self._type()
            self.expect(")")
            return inner
        if token.kind == "IDENT" and token.text in _BASE_TYPES:
            self.advance()
            return _BASE_TYPES[token.text]
        raise self.error(f"expected a type, found {token.text!r}")
