"""Recursive-descent parser for the history-expression surface syntax.

Grammar (whitespace-insensitive; ``#`` comments)::

    expr     := term (';' term)*                          -- H · H'
    term     := 'eps'                                     -- ε
              | IDENT                                     -- recursion var h
              | '@' IDENT ['(' literal (',' literal)* ')']  -- event α
              | prefix                                    -- 1-branch choice
              | '(' branches ')'                          -- Σ / ⊕
              | 'mu' IDENT '{' expr '}'                   -- μh.H
              | 'open' (IDENT|INT) ['with' IDENT] '{' expr '}'
              | 'frame' IDENT '{' expr '}'                -- φ[H]
              | '{' expr '}'                              -- grouping
    prefix   := '!' IDENT ['.' term]                      -- ā.H
              | '?' IDENT ['.' term]                      -- a.H
    branches := prefix ('+' prefix)*                      -- external (all ?)
              | prefix ('++' prefix)*                     -- internal (all !)
    literal  := INT | FLOAT | STRING | IDENT              -- IDENT ≡ string

Examples::

    open r1 with phi { !Req . (?CoBo . !Pay + ?NoAv) }
    @sgn(1) ; @p(45) ; @ta(80) ; ?IdC . (!Bok ++ !UnA)
    mu h { !ping . ?pong . h }

Policy identifiers (after ``with`` and ``frame``) are resolved against
the *policies* environment passed to :func:`parse`.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.errors import ParseError
from repro.core.syntax import (EPSILON, ExternalChoice, Framing,
                               HistoryExpression, InternalChoice, Mu,
                               Request, Var, event, seq)
from repro.core.actions import Receive, Send
from repro.lang.lexer import Token, tokenize


def parse(source: str,
          policies: Mapping[str, object] | None = None) -> HistoryExpression:
    """Parse *source* into a history expression.

    *policies* maps the policy identifiers usable after ``with``/``frame``
    to :class:`~repro.policies.usage_automata.Policy` values.
    """
    parser = _Parser(tokenize(source), dict(policies or {}))
    term = parser.expr()
    parser.expect("EOF")
    return term


class _Parser:
    def __init__(self, tokens: list[Token], policies: dict[str, object],
                 start: int = 0) -> None:
        self._tokens = tokens
        self._index = start
        self._policies = policies
        # One label per channel and direction: labels are values, and
        # the term tables key them by value.
        self._sends: dict[str, Send] = {}
        self._receives: dict[str, Receive] = {}

    # -- token plumbing -----------------------------------------------------
    #
    # The grammar methods on the hot path (expr, term, _prefix, _choice)
    # read ``self._tokens[self._index]`` directly.  No token past EOF is
    # ever read: EOF is last, and nothing steps over it.

    def peek(self) -> Token:
        return self._tokens[self._index]

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

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)

    _NAME_KINDS = ("IDENT", "EPS", "MU", "OPEN", "WITH", "FRAME")

    def expect_name(self) -> Token:
        """An identifier; keywords are allowed where only a name can
        appear (event names, channels, request ids, …)."""
        token = self.peek()
        if token.kind not in self._NAME_KINDS:
            raise _not_a_name(token)
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def expr(self) -> HistoryExpression:
        tokens = self._tokens
        parts = [self.term()]
        while tokens[self._index].kind == ";":
            self._index += 1
            parts.append(self.term())
        return seq(*parts)

    def term(self) -> HistoryExpression:
        token = self._tokens[self._index]
        kind = token.kind
        if kind == "!":
            return InternalChoice((self._prefix(),))
        if kind == "?":
            return ExternalChoice((self._prefix(),))
        if kind == "(":
            return self._choice()
        if kind == "@":
            return self._event()
        if kind == "IDENT":
            self._index += 1
            return Var(token.text)
        if kind == "EPS":
            self._index += 1
            return EPSILON
        if kind == "OPEN":
            return self._open()
        if kind == "MU":
            return self._mu()
        if kind == "FRAME":
            return self._frame()
        if kind == "{":
            self._index += 1
            inner = self.expr()
            self.expect("}")
            return inner
        raise self.error(f"expected a history expression, found "
                         f"{kind} ({token.text!r})")

    def _event(self) -> HistoryExpression:
        self.expect("@")
        name = self.expect_name().text
        params: list[object] = []
        if self.peek().kind == "(":
            self.advance()
            params.append(self._literal())
            while self.peek().kind == ",":
                self.advance()
                params.append(self._literal())
            self.expect(")")
        return event(name, *params)

    def _literal(self) -> object:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return int(token.text)
        if token.kind == "FLOAT":
            self.advance()
            return float(token.text)
        if token.kind == "STRING" or token.kind in self._NAME_KINDS:
            self.advance()
            return token.text
        raise self.error(f"expected a literal, found {token.kind}")

    def _prefix(self) -> tuple[Send | Receive, HistoryExpression]:
        """A sigil (``!`` or ``?``), a channel and an optional ``. term``;
        any other token in the sigil's place is a parse error there."""
        tokens = self._tokens
        index = self._index
        token = tokens[index]
        sigil = token.kind
        if sigil != "!" and sigil != "?":
            raise ParseError(f"expected a '!' or '?' prefix, found {sigil} "
                             f"({token.text!r})", token.line, token.column)
        index += 1
        name = tokens[index]
        if name.kind not in self._NAME_KINDS:
            raise _not_a_name(name)
        channel = name.text
        if sigil == "!":
            label = self._sends.get(channel)
            if label is None:
                label = self._sends[channel] = Send(channel)
        else:
            label = self._receives.get(channel)
            if label is None:
                label = self._receives[channel] = Receive(channel)
        if tokens[index + 1].kind == ".":
            self._index = index + 2
            return label, self.term()
        self._index = index + 1
        return label, EPSILON

    def _choice(self) -> HistoryExpression:
        tokens = self._tokens
        open_paren = tokens[self._index]
        self._index += 1
        branches = [self._prefix()]
        operator: str | None = None
        token = tokens[self._index]
        while token.kind == "+" or token.kind == "++":
            if operator is None:
                operator = token.kind
            elif operator != token.kind:
                raise ParseError("cannot mix '+' (external) and '++' "
                                 "(internal) in one choice",
                                 token.line, token.column)
            self._index += 1
            branches.append(self._prefix())
            token = tokens[self._index]
        self.expect(")")

        kinds = {type(label) for label, _ in branches}
        if operator == "+" or (operator is None and kinds == {Receive}):
            if kinds != {Receive}:
                raise ParseError("external choice '+' requires '?' input "
                                 "prefixes only", open_paren.line,
                                 open_paren.column)
            return ExternalChoice(tuple(branches))  # type: ignore[arg-type]
        if kinds != {Send}:
            raise ParseError("internal choice '++' requires '!' output "
                             "prefixes only", open_paren.line,
                             open_paren.column)
        return InternalChoice(tuple(branches))  # type: ignore[arg-type]

    def _mu(self) -> HistoryExpression:
        self.expect("MU")
        var = self.expect("IDENT").text
        self.expect("{")
        body = self.expr()
        self.expect("}")
        return Mu(var, body)

    def _open(self) -> HistoryExpression:
        self.expect("OPEN")
        token = self.peek()
        if token.kind != "INT" and token.kind not in self._NAME_KINDS:
            raise self.error("expected a request identifier")
        request_id = self.advance().text
        policy: object | None = None
        if self.peek().kind == "WITH":
            self.advance()
            policy = self._policy_ref()
        self.expect("{")
        body = self.expr()
        self.expect("}")
        return Request(request_id, policy, body)

    def _frame(self) -> HistoryExpression:
        self.expect("FRAME")
        policy = self._policy_ref()
        self.expect("{")
        body = self.expr()
        self.expect("}")
        return Framing(policy, body)

    def _policy_ref(self) -> object:
        token = self.expect("IDENT")
        try:
            return self._policies[token.text]
        except KeyError:
            raise ParseError(f"unknown policy {token.text!r} (not in the "
                             "parse environment)", token.line,
                             token.column) from None


def _not_a_name(token: Token) -> ParseError:
    return ParseError(f"expected an identifier, found {token.kind} "
                      f"({token.text!r})", token.line, token.column)
