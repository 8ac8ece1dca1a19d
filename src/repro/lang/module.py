"""Module syntax: whole networks in the surface language.

Beyond single terms (:mod:`repro.lang.parser`), a *module* declares
policies, services and clients together::

    # the paper's hotel network
    policy phi1 = hotel(bl = {1}, p = 45, t = 100)
    policy phi2 = hotel(bl = {1, 3}, p = 40, t = 70)

    client lc1 = open 1 with phi1 { !Req . (?CoBo . !Pay + ?NoAv) }

    service lbr =
        ?Req ;
        open 3 { !IdC . (?Bok + ?UnA) } ;
        (!CoBo . ?Pay ++ !NoAv)

    service ls1 = @sgn(1) ; @p(45) ; @ta(80) ; ?IdC . (!Bok ++ !UnA)

Grammar::

    module  := declaration*
    declaration := 'policy' IDENT '=' IDENT [policy_args]   -- schema call
                 | 'client' IDENT '=' expr
                 | 'service' IDENT '=' expr
                 | 'program' ('client'|'service') IDENT '=' λ-expr
    policy_args := '(' [arg (',' arg)*] ')'
    arg     := IDENT '=' value          -- named instantiation argument
             | value                    -- positional schema argument
    value   := INT | FLOAT | STRING | IDENT
             | '{' [value (',' value)*] '}'          -- a (frozen) set
             | '{' NAME '=' value (',' …)* '}'       -- a mapping

Policy schemas are looked up in a registry (by default the library
registry shared with the CLI); positional arguments parameterise the
schema factory (e.g. ``never_after(read, write)``), named arguments
instantiate the resulting automaton's parameters (e.g.
``hotel(bl = {1}, p = 45, t = 100)``).

A declaration's body extends to the next declaration header at brace
level 0, so multi-line terms need no terminator.

``program`` declarations contain *λ-programs* (the concrete syntax of
:mod:`repro.lam.parser`); their history expression is extracted by the
type-and-effect system before being added to the module — Section 3's
programming model, end to end in one file::

    program service worker =
        fun serve(u: unit): unit =
            offer { job -> @archive(1) ; !done ; serve () | quit -> () }
        in serve ()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.errors import (ParseError, PolicyDefinitionError,
                               ReproError)
from repro.core.syntax import HistoryExpression
from repro.core.wellformed import check_well_formed
from repro.lang.lexer import Span, Token, tokenize
from repro.lang.parser import _Parser
from repro.network.repository import Repository
from repro.policies.usage_automata import Policy


def default_schemas() -> dict[str, Callable]:
    """The standard schema registry (shared with the CLI)."""
    from repro.policies import library
    from repro.quantitative.policies import budget_automaton
    return {
        "hotel": lambda: library.hotel_policy_automaton(),
        "never_after": library.never_after_automaton,
        "forbid": library.forbid_automaton,
        "blacklist": library.blacklist_automaton,
        "at_most": library.at_most_automaton,
        "require_before": library.require_before_automaton,
        "chinese_wall": library.chinese_wall_automaton,
        "budget": budget_automaton,
    }


@dataclass(frozen=True)
class Declaration:
    """One top-level declaration of a module, with its source span.

    ``kind`` is ``policy``, ``client``, ``service``, ``program-client``
    or ``program-service``; ``span`` covers the declared name; ``value``
    is the parsed :class:`~repro.policies.usage_automata.Policy` or
    history expression.  ``tokens`` are the body tokens of the
    declaration (the ``=`` and the terminating EOF excluded), kept so
    downstream tooling — the lint engine in particular — can locate
    sub-term positions inside the body.
    """

    kind: str
    name: str
    span: Span | None
    value: object = None
    tokens: tuple[Token, ...] = ()

    @property
    def is_policy(self) -> bool:
        return self.kind == "policy"

    @property
    def is_client(self) -> bool:
        return self.kind in ("client", "program-client")

    @property
    def is_service(self) -> bool:
        return self.kind in ("service", "program-service")


@dataclass
class Module:
    """A parsed module: named policies, clients and services.

    ``declarations`` preserves *every* declaration in source order — a
    name declared twice appears twice here even though the dict keeps
    only the later value — together with its source span, so tooling can
    report positions and detect shadowing.  Programmatically-built
    modules may leave it empty.
    """

    policies: dict[str, Policy] = field(default_factory=dict)
    clients: dict[str, HistoryExpression] = field(default_factory=dict)
    services: dict[str, HistoryExpression] = field(default_factory=dict)
    declarations: list[Declaration] = field(default_factory=list)
    path: str | None = None

    @property
    def repository(self) -> Repository:
        """The services as a repository."""
        return Repository(self.services)

    def term(self, name: str) -> HistoryExpression:
        """Look up a client or service by name."""
        if name in self.clients:
            return self.clients[name]
        if name in self.services:
            return self.services[name]
        raise ReproError(f"no client or service named {name!r}")

    def declaration(self, name: str,
                    kind: str | None = None) -> Declaration | None:
        """The *last* declaration of *name* (the one the dicts keep),
        optionally restricted to a declaration kind."""
        for decl in reversed(self.declarations):
            if decl.name == name and (kind is None or decl.kind == kind):
                return decl
        return None


#: Keywords that start a top-level declaration.
_DECL_KEYWORDS = {"policy", "client", "service"}

#: The λ-program declaration prefix.
_PROGRAM_KEYWORD = "program"


def parse_module(source: str,
                 schemas: Mapping[str, Callable] | None = None,
                 path: str | None = None) -> Module:
    """Parse a module, validating every declared term.

    *path* (purely informational) is recorded on the module so error
    reporting and lint diagnostics can print ``file:line:col``.
    """
    registry = dict(schemas) if schemas is not None else default_schemas()
    tokens = tokenize(source)
    module = Module(path=path)

    index = 0
    while tokens[index].kind != "EOF":
        keyword = tokens[index]
        if not _starts_declaration(tokens, index):
            raise ParseError(
                f"expected a declaration (policy/client/service NAME = "
                f"or program client/service NAME =), found "
                f"{keyword.text!r}", keyword.line, keyword.column)
        if keyword.text == _PROGRAM_KEYWORD:
            kind = f"program-{tokens[index + 1].text}"
            name_token = tokens[index + 2]
            index += 3
        else:
            kind = keyword.text
            name_token = tokens[index + 1]
            index += 2
        # The body runs to the next brace-balanced declaration header.
        end = index
        depth = 0
        kind_at_end = tokens[end].kind
        while kind_at_end != "EOF":
            if kind_at_end == "{" or kind_at_end == "(":
                depth += 1
            elif kind_at_end == "}" or kind_at_end == ")":
                depth -= 1
            elif (depth == 0 and kind_at_end == "IDENT" and end > index
                  and _starts_declaration(tokens, end)):
                break
            end += 1
            kind_at_end = tokens[end].kind
        # The body is parsed in place, with an EOF standing in for the
        # next header; the declaration keeps the one copy of its tokens.
        header = tokens[end]
        tokens[end] = _eof_like(header)
        value = _parse_declaration(module, registry, kind, name_token.text,
                                   tokens, index)
        tokens[end] = header
        module.declarations.append(
            Declaration(kind, name_token.text, name_token.span, value,
                        tuple(tokens[index + 1:end])))
        index = end
    return module


def _starts_declaration(tokens, position: int) -> bool:
    """A declaration header is ``(policy|client|service) NAME =`` or
    ``program (client|service) NAME =`` — the trailing ``=``
    disambiguates the keywords from channels or recursion variables that
    happen to share their spelling."""
    token = tokens[position]
    if token.kind != "IDENT":
        return False
    if token.text == _PROGRAM_KEYWORD:
        return (tokens[position + 1].kind == "IDENT"
                and tokens[position + 1].text in ("client", "service")
                and tokens[position + 2].kind in ("IDENT", "INT")
                and tokens[position + 3].kind == "=")
    if token.text not in _DECL_KEYWORDS:
        return False
    if tokens[position + 1].kind not in ("IDENT", "INT"):
        return False
    return tokens[position + 2].kind == "="


def _eof_like(token: Token) -> Token:
    return Token("EOF", "", token.line, token.column)


def _parse_declaration(module: Module, registry, kind: str, name: str,
                       tokens: list[Token], start: int) -> object:
    """Parse the declaration body that starts at ``tokens[start]`` (its
    ``=``) and ends at the next EOF into *module*; returns the parsed
    value (a policy or a history expression) for the declaration
    record."""
    if kind.startswith("program-"):
        from repro.lam.infer import extract
        from repro.lam.parser import _LamParser
        parser = _LamParser(tokens, module.policies, start)
        token = parser.peek()
        if token.kind != "=":
            raise ParseError("expected '=' after the declaration name",
                             token.line, token.column)
        parser.advance()
        program = parser.expr()
        parser.expect("EOF")
        effect = extract(program)
        if kind == "program-client":
            module.clients[name] = effect
        else:
            module.services[name] = effect
        return effect
    parser = _ModuleParser(tokens, module.policies, start)
    parser.expect_equals()
    if kind == "policy":
        policy = parser.policy_value(registry)
        module.policies[name] = policy
        parser.expect("EOF")
        return policy
    term = parser.expr()
    parser.expect("EOF")
    check_well_formed(term)
    if kind == "client":
        module.clients[name] = term
    else:
        module.services[name] = term
    return term


class _ModuleParser(_Parser):
    """The term parser extended with declaration plumbing."""

    def expect_equals(self) -> None:
        token = self.peek()
        if token.kind == "=":
            self.advance()
            return
        raise ParseError("expected '=' after the declaration name",
                         token.line, token.column)

    def policy_value(self, registry) -> Policy:
        schema_token = self.expect("IDENT")
        factory = registry.get(schema_token.text)
        if factory is None:
            raise ParseError(
                f"unknown policy schema {schema_token.text!r} "
                f"(known: {', '.join(sorted(registry))})",
                schema_token.line, schema_token.column)
        positional: list[object] = []
        named: dict[str, object] = {}
        if self.peek().kind == "(":
            self.advance()
            if self.peek().kind != ")":
                self._argument(positional, named)
                while self.peek().kind == ",":
                    self.advance()
                    self._argument(positional, named)
            self.expect(")")
        try:
            automaton = factory(*positional)
        except (TypeError, ValueError) as error:
            # A wrong number or kind of schema arguments.
            raise ParseError(
                f"bad arguments to policy schema {schema_token.text!r}: "
                f"{error}", schema_token.line, schema_token.column) from None
        try:
            return automaton.instantiate(**named)
        except PolicyDefinitionError as error:
            # Missing or unexpected named arguments.
            raise ParseError(str(error), schema_token.line,
                             schema_token.column) from None

    def _argument(self, positional: list, named: dict) -> None:
        token = self.peek()
        if (token.kind in self._NAME_KINDS
                and self._tokens[self._index + 1].kind == "="):
            name = self.advance().text
            self.advance()  # '='
            named[name] = self._value()
            return
        positional.append(self._value())

    def _value(self) -> object:
        token = self.peek()
        if token.kind == "{":
            self.advance()
            if self.peek().kind == "}":
                self.advance()
                return frozenset()
            if (self.peek().kind in self._NAME_KINDS
                    and self._tokens[self._index + 1].kind == "="):
                entries: dict[str, object] = {}
                self._dict_entry(entries)
                while self.peek().kind == ",":
                    self.advance()
                    self._dict_entry(entries)
                self.expect("}")
                return tuple(sorted(entries.items()))
            items = [self._value()]
            while self.peek().kind == ",":
                self.advance()
                items.append(self._value())
            self.expect("}")
            return frozenset(items)
        return self._literal()

    def _dict_entry(self, entries: dict) -> None:
        name = self.advance().text
        self.expect("=")
        entries[name] = self._value()
